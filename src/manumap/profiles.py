"""Machine profile files.

INI-style config with three sections, all optional (defaults fill in):

    [machining]
    workspace_mm = 800 600 500
    tool_diameters_mm = 2 5 10 20
    max_aspect = 10
    hardness_limit_hb = 600
    roughness_best_um = 0.4
    roughness_coarse_um = 6.4

    [machining.hardness_hb]
    aluminum-6061 = 95
    steel-c45 = 207

    [additive]
    envelope_mm = 400 400 400
    platform_center_mm = 0 0
    reference_area_mm2 = 960000

Unknown sections or keys are rejected rather than ignored, so typos fail
loudly instead of silently grading with defaults.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .additive import AdditiveProfile
from .errors import ProfileError, UnknownMaterialError
from .machining import SubtractiveProfile

DEFAULT_HARDNESS_HB = {
    "aluminum-6061": 95.0,
    "brass-cw614n": 110.0,
    "steel-c45": 207.0,
    "steel-42crmo4": 330.0,
    "tool-steel-hardened": 600.0,
}

_MACHINING_KEYS = {
    "workspace_mm",
    "tool_diameters_mm",
    "max_aspect",
    "hardness_limit_hb",
    "roughness_best_um",
    "roughness_coarse_um",
}
_ADDITIVE_KEYS = {"envelope_mm", "platform_center_mm", "reference_area_mm2"}


@dataclass(frozen=True)
class MachineProfiles:
    subtractive: SubtractiveProfile = field(default_factory=SubtractiveProfile)
    additive: AdditiveProfile = field(default_factory=AdditiveProfile)
    hardness_hb: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_HARDNESS_HB))

    def lookup_hardness(self, material: str) -> float:
        key = material.strip().lower()
        if key not in self.hardness_hb:
            known = ", ".join(sorted(self.hardness_hb))
            raise UnknownMaterialError(f"unknown material {material!r}; known: {known}")
        return self.hardness_hb[key]

    def to_dict(self) -> dict:
        return {
            "machining": {
                "workspace_mm": list(self.subtractive.workspace),
                "tool_diameters_mm": list(self.subtractive.tool_diameters),
                "max_aspect": self.subtractive.max_aspect,
                "hardness_limit_hb": self.subtractive.hardness_limit_hb,
                "roughness_best_um": self.subtractive.roughness_best_um,
                "roughness_coarse_um": self.subtractive.roughness_coarse_um,
            },
            "machining.hardness_hb": dict(sorted(self.hardness_hb.items())),
            "additive": {
                "envelope_mm": list(self.additive.envelope),
                "platform_center_mm": None
                if self.additive.platform_center is None
                else list(self.additive.platform_center),
                "reference_area_mm2": self.additive.reference_area,
            },
        }


def default_profiles() -> MachineProfiles:
    return MachineProfiles()


def _floats(section: str, key: str, raw: str, count: int | None = None) -> tuple[float, ...]:
    parts = raw.replace(",", " ").split()
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ProfileError(f"[{section}] {key} = {raw!r} is not a number list") from exc
    if count is not None and len(vals) != count:
        raise ProfileError(f"[{section}] {key} needs {count} numbers, got {len(vals)}")
    if not all(math.isfinite(v) for v in vals):
        raise ProfileError(f"[{section}] {key} = {raw!r} holds a value that is not finite")
    return vals


def _float(section: str, key: str, raw: str) -> float:
    return _floats(section, key, raw, 1)[0]


def load_profiles(path) -> MachineProfiles:
    """Parse a profile file; missing sections fall back to defaults."""
    p = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        text = p.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ProfileError(f"cannot read profile file {p}: {exc}") from exc
    try:
        parser.read_string(text, source=str(p))
    except configparser.Error as exc:
        raise ProfileError(f"bad profile file {p}: {exc}") from exc

    known_sections = {"machining", "machining.hardness_hb", "additive"}
    unknown = set(parser.sections()) - known_sections
    if unknown:
        raise ProfileError(f"unknown profile sections: {', '.join(sorted(unknown))}")

    sub_kwargs: dict = {}
    if parser.has_section("machining"):
        sec = parser["machining"]
        bad = set(sec) - _MACHINING_KEYS
        if bad:
            raise ProfileError(f"unknown [machining] keys: {', '.join(sorted(bad))}")
        if "workspace_mm" in sec:
            sub_kwargs["workspace"] = _floats("machining", "workspace_mm", sec["workspace_mm"], 3)
        if "tool_diameters_mm" in sec:
            sub_kwargs["tool_diameters"] = _floats(
                "machining", "tool_diameters_mm", sec["tool_diameters_mm"]
            )
        for key, attr in [
            ("max_aspect", "max_aspect"),
            ("hardness_limit_hb", "hardness_limit_hb"),
            ("roughness_best_um", "roughness_best_um"),
            ("roughness_coarse_um", "roughness_coarse_um"),
        ]:
            if key in sec:
                sub_kwargs[attr] = _float("machining", key, sec[key])

    add_kwargs: dict = {}
    if parser.has_section("additive"):
        sec = parser["additive"]
        bad = set(sec) - _ADDITIVE_KEYS
        if bad:
            raise ProfileError(f"unknown [additive] keys: {', '.join(sorted(bad))}")
        if "envelope_mm" in sec:
            add_kwargs["envelope"] = _floats("additive", "envelope_mm", sec["envelope_mm"], 3)
        if "platform_center_mm" in sec:
            add_kwargs["platform_center"] = _floats(
                "additive", "platform_center_mm", sec["platform_center_mm"], 2
            )
        if "reference_area_mm2" in sec:
            add_kwargs["reference_area"] = _float(
                "additive", "reference_area_mm2", sec["reference_area_mm2"]
            )

    hardness = dict(DEFAULT_HARDNESS_HB)
    if parser.has_section("machining.hardness_hb"):
        hardness = {}
        for name, raw in parser["machining.hardness_hb"].items():
            value = _float("machining.hardness_hb", name, raw)
            if value <= 0:
                raise ProfileError(f"hardness for {name!r} must be positive, got {value!r}")
            hardness[name.strip().lower()] = value
        if not hardness:
            raise ProfileError("[machining.hardness_hb] lists no materials")

    return MachineProfiles(
        subtractive=SubtractiveProfile(**sub_kwargs),
        additive=AdditiveProfile(**add_kwargs),
        hardness_hb=hardness,
    )
