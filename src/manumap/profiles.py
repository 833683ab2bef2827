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
from dataclasses import dataclass, field, replace
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

#: (INI section, MachineProfiles field) -> {INI key: (profile field, count)}.
#: The count is how many numbers the key takes; None means a list of any length.
_SECTIONS = {
    ("machining", "subtractive"): {
        "workspace_mm": ("workspace", 3),
        "tool_diameters_mm": ("tool_diameters", None),
        "max_aspect": ("max_aspect", 1),
        "hardness_limit_hb": ("hardness_limit_hb", 1),
        "roughness_best_um": ("roughness_best_um", 1),
        "roughness_coarse_um": ("roughness_coarse_um", 1),
    },
    ("additive", "additive"): {
        "envelope_mm": ("envelope", 3),
        "platform_center_mm": ("platform_center", 2),
        "reference_area_mm2": ("reference_area", 1),
    },
}
#: Material name -> Brinell hardness; replaces DEFAULT_HARDNESS_HB when present.
_HARDNESS_SECTION = "machining.hardness_hb"


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
        out = {
            section: {
                key: _json_value(getattr(getattr(self, attr), name))
                for key, (name, _) in keys.items()
            }
            for (section, attr), keys in _SECTIONS.items()
        }
        out[_HARDNESS_SECTION] = dict(sorted(self.hardness_hb.items()))
        return out


def _json_value(value):
    return list(value) if isinstance(value, tuple) else value


def default_profiles() -> MachineProfiles:
    return MachineProfiles()


def _numbers(section: str, key: str, raw: str, count: int | None) -> float | tuple[float, ...]:
    """Parse ``raw`` as ``count`` numbers (any number when None); one number is a float."""
    parts = raw.replace(",", " ").split()
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ProfileError(f"[{section}] {key} = {raw!r} is not a number list") from exc
    if count is not None and len(vals) != count:
        raise ProfileError(f"[{section}] {key} needs {count} numbers, got {len(vals)}")
    if not all(math.isfinite(v) for v in vals):
        raise ProfileError(f"[{section}] {key} = {raw!r} holds a value that is not finite")
    return vals[0] if count == 1 else vals


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

    unknown = set(parser.sections()) - {section for section, _ in _SECTIONS} - {_HARDNESS_SECTION}
    if unknown:
        raise ProfileError(f"unknown profile sections: {', '.join(sorted(unknown))}")

    defaults = default_profiles()
    machines = {}
    for (section, attr), keys in _SECTIONS.items():
        sec = parser[section] if parser.has_section(section) else {}
        bad = set(sec) - set(keys)
        if bad:
            raise ProfileError(f"unknown [{section}] keys: {', '.join(sorted(bad))}")
        machines[attr] = {
            name: _numbers(section, key, sec[key], count)
            for key, (name, count) in keys.items()
            if key in sec
        }

    hardness = dict(DEFAULT_HARDNESS_HB)
    if parser.has_section(_HARDNESS_SECTION):
        hardness = {}
        for name, raw in parser[_HARDNESS_SECTION].items():
            value = _numbers(_HARDNESS_SECTION, name, raw, 1)
            if value <= 0:
                raise ProfileError(f"hardness for {name!r} must be positive, got {value!r}")
            hardness[name.strip().lower()] = value
        if not hardness:
            raise ProfileError(f"[{_HARDNESS_SECTION}] lists no materials")

    return MachineProfiles(
        hardness_hb=hardness,
        **{attr: replace(getattr(defaults, attr), **kw) for attr, kw in machines.items()},
    )
