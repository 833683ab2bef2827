import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manumap.additive import AdditiveProfile
from manumap.errors import ProfileError, UnknownMaterialError
from manumap.machining import SubtractiveProfile
from manumap.profiles import (
    DEFAULT_HARDNESS_HB,
    MachineProfiles,
    default_profiles,
    load_profiles,
)


def write(tmp_path, text):
    p = tmp_path / "machines.cfg"
    p.write_text(text)
    return p


def test_defaults():
    p = default_profiles()
    assert p.subtractive.workspace == (800.0, 600.0, 500.0)
    assert p.subtractive.tool_diameters == (2.0, 5.0, 10.0, 20.0)
    assert p.subtractive.max_aspect == 10.0
    assert p.subtractive.hardness_limit_hb == 600.0
    assert p.additive.envelope == (400.0, 400.0, 400.0)
    assert p.additive.platform_center is None
    assert p.hardness_hb == DEFAULT_HARDNESS_HB


def test_builtin_hardness_table():
    p = default_profiles()
    assert p.lookup_hardness("aluminum-6061") == 95.0
    assert p.lookup_hardness("brass-cw614n") == 110.0
    assert p.lookup_hardness("steel-c45") == 207.0
    assert p.lookup_hardness("steel-42crmo4") == 330.0
    assert p.lookup_hardness("tool-steel-hardened") == 600.0
    assert p.lookup_hardness("  Aluminum-6061 ") == 95.0  # case and spacing forgiven


def test_unknown_material():
    with pytest.raises(UnknownMaterialError) as err:
        default_profiles().lookup_hardness("unobtainium")
    assert "aluminum-6061" in str(err.value)  # error lists what it does know


def test_full_file_parses(tmp_path):
    p = load_profiles(
        write(
            tmp_path,
            """
            [machining]
            workspace_mm = 450 700 100
            tool_diameters_mm = 1, 4, 16
            max_aspect = 8
            hardness_limit_hb = 500
            roughness_best_um = 0.2
            roughness_coarse_um = 12.8

            [machining.hardness_hb]
            magnesium-az31 = 60
            inconel-718 = 330

            [additive]
            envelope_mm = 250 250 250
            platform_center_mm = 10 -5
            reference_area_mm2 = 375000
            """,
        )
    )
    assert p.subtractive.workspace == (450.0, 700.0, 100.0)
    assert p.subtractive.tool_diameters == (1.0, 4.0, 16.0)
    assert p.subtractive.max_aspect == 8.0
    assert p.subtractive.hardness_limit_hb == 500.0
    assert p.subtractive.roughness_best_um == 0.2
    assert p.subtractive.roughness_coarse_um == 12.8
    assert p.additive.envelope == (250.0, 250.0, 250.0)
    assert p.additive.platform_center == (10.0, -5.0)
    assert p.additive.reference_area == 375000.0
    # a custom hardness section replaces the builtin table outright
    assert p.hardness_hb == {"magnesium-az31": 60.0, "inconel-718": 330.0}
    with pytest.raises(UnknownMaterialError):
        p.lookup_hardness("aluminum-6061")


def test_missing_sections_fall_back_to_defaults(tmp_path):
    p = load_profiles(write(tmp_path, "[machining]\nmax_aspect = 6\n"))
    assert p.subtractive.max_aspect == 6.0
    assert p.subtractive.workspace == (800.0, 600.0, 500.0)
    assert p.additive.envelope == (400.0, 400.0, 400.0)
    assert p.hardness_hb == DEFAULT_HARDNESS_HB


def test_empty_file_is_all_defaults(tmp_path):
    assert load_profiles(write(tmp_path, "")) == default_profiles()


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ProfileError) as err:
        load_profiles(write(tmp_path, "[milling]\nmax_aspect = 5\n"))
    assert "milling" in str(err.value)


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ProfileError) as err:
        load_profiles(write(tmp_path, "[machining]\nmax_apsect = 5\n"))
    assert "max_apsect" in str(err.value)
    with pytest.raises(ProfileError):
        load_profiles(write(tmp_path, "[additive]\nenvelope = 1 2 3\n"))


def test_malformed_numbers_rejected(tmp_path):
    with pytest.raises(ProfileError):
        load_profiles(write(tmp_path, "[machining]\nmax_aspect = tall\n"))
    with pytest.raises(ProfileError):
        load_profiles(write(tmp_path, "[machining]\nworkspace_mm = 800 600\n"))
    with pytest.raises(ProfileError):
        load_profiles(write(tmp_path, "[additive]\nplatform_center_mm = 1 2 3\n"))
    with pytest.raises(ProfileError):
        load_profiles(write(tmp_path, "not an ini file ["))


@pytest.mark.parametrize(
    "text",
    [
        "[machining]\nmax_aspect = nan\n",
        "[machining]\nworkspace_mm = 800 inf 500\n",
        "[machining]\nroughness_coarse_um = NaN\n",
        "[machining.hardness_hb]\nsteel = nan\n",
        "[additive]\nplatform_center_mm = 0 -inf\n",
        "[additive]\nreference_area_mm2 = infinity\n",
    ],
)
def test_non_finite_numbers_rejected(tmp_path, text):
    with pytest.raises(ProfileError, match="not finite"):
        load_profiles(write(tmp_path, text))


def test_constraint_violations_surface_as_profile_errors(tmp_path):
    with pytest.raises(ProfileError):
        load_profiles(write(tmp_path, "[machining]\nmax_aspect = 1\n"))
    with pytest.raises(ProfileError):
        load_profiles(write(tmp_path, "[machining]\ntool_diameters_mm =\n"))
    with pytest.raises(ProfileError):
        load_profiles(write(tmp_path, "[machining.hardness_hb]\nfoam = -3\n"))
    with pytest.raises(ProfileError):
        load_profiles(write(tmp_path, "[machining.hardness_hb]\n"))


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_profiles(tmp_path / "absent.cfg")


def test_to_dict_round_trips_through_sections(tmp_path):
    p = load_profiles(
        write(tmp_path, "[additive]\nplatform_center_mm = 3 4\n[machining]\nmax_aspect = 7\n")
    )
    d = p.to_dict()
    assert d["machining"]["max_aspect"] == 7.0
    assert d["machining"]["workspace_mm"] == [800.0, 600.0, 500.0]
    assert d["additive"]["platform_center_mm"] == [3.0, 4.0]
    assert d["machining.hardness_hb"]["steel-c45"] == 207.0
    assert MachineProfiles().to_dict()["additive"]["platform_center_mm"] is None


def _ini(profile: MachineProfiles) -> str:
    """An INI file holding every value of ``profile.to_dict()``."""
    lines = []
    for section, values in profile.to_dict().items():
        lines.append(f"[{section}]")
        for key, value in values.items():
            if isinstance(value, list):
                lines.append(f"{key} = {' '.join(map(repr, value))}")
            elif value is not None:
                lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n"


_positive = st.floats(min_value=1e-3, max_value=1e6)
_profiles = st.builds(
    MachineProfiles,
    subtractive=st.builds(
        SubtractiveProfile,
        workspace=st.tuples(_positive, _positive, _positive),
        tool_diameters=st.lists(_positive, min_size=1, max_size=6).map(tuple),
        max_aspect=st.floats(min_value=1.5, max_value=50.0),
        hardness_limit_hb=_positive,
        roughness_best_um=st.floats(min_value=0.01, max_value=1.0),
        roughness_coarse_um=st.floats(min_value=2.0, max_value=50.0),
    ),
    additive=st.builds(
        AdditiveProfile,
        envelope=st.tuples(_positive, _positive, _positive),
        platform_center=st.none() | st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        reference_area=st.none() | _positive,
    ),
    hardness_hb=st.dictionaries(
        st.from_regex(r"[a-z][a-z0-9-]{0,12}", fullmatch=True), _positive, min_size=1
    ),
)


@settings(max_examples=50, deadline=None)
@given(profile=_profiles)
def test_profile_round_trips_through_its_ini_file(tmp_path_factory, profile):
    path = tmp_path_factory.mktemp("ini") / "machines.cfg"
    path.write_text(_ini(profile))
    assert load_profiles(path) == profile
