import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from manumap.aggregation import (
    AssemblyReport,
    ComparisonReport,
    IndexReport,
    build_assembly_report,
    compare_reports,
    max_rule_total,
    summarize_field,
    volume_weighted_mean,
    volume_weights,
    weighted_total,
)
from manumap.errors import (
    BadWeightsError,
    EmptyFieldError,
    EmptyInputError,
    FieldValueError,
    LengthMismatchError,
    NonPositiveVolumeError,
    NoSharedIndexesError,
    ZeroTotalVolumeError,
)
from manumap.fields import LocalIndexField


def field(values, volumes, index_id="tool_flexibility", octree_hash="h1"):
    return LocalIndexField(
        index_id=index_id,
        values=np.asarray(values, dtype=np.float64),
        volumes=np.asarray(volumes, dtype=np.float64),
        octree_hash=octree_hash,
        path_keys=tuple(range(8, 8 + len(values))),
    )


def report(global_indexes, fields=None, process="machining", design_id="part", fp="t1"):
    return IndexReport(
        design_id=design_id,
        process=process,
        global_indexes=global_indexes,
        local_fields=fields or {},
        octree_fingerprint={"max_depth": 3, "leaf_count": 8, "content_hash": fp},
    )


# ---------------------------------------------------------------------------
# Volume-weighted mean over a field


def test_constant_field_mean():
    assert volume_weighted_mean(field([0.3, 0.3, 0.3], [5.0, 1.0, 2.5])) == pytest.approx(0.3)


def test_weighted_mean_hand_case():
    # (0.095*2 + 0.360*1) / 3
    f = field([0.095, 0.360], [2.0, 1.0])
    assert volume_weighted_mean(f) == pytest.approx(0.18333333333333332)


def test_single_leaf_mean_is_value():
    assert volume_weighted_mean(field([0.42], [7.7])) == pytest.approx(0.42)


def test_zero_total_volume_rejected():
    with pytest.raises(ZeroTotalVolumeError):
        volume_weighted_mean(field([0.5, 0.5], [0.0, 0.0]))


def test_field_validation():
    with pytest.raises(EmptyFieldError):
        field([], [])
    with pytest.raises(ValueError):
        field([1.5], [1.0])  # out of range
    with pytest.raises(ValueError):
        field([0.5], [-1.0])  # negative volume
    with pytest.raises(ValueError):
        LocalIndexField("x", np.array([0.5, 0.5]), np.array([1.0]))


def test_field_rejects_non_finite_values_and_volumes():
    with pytest.raises(FieldValueError):
        LocalIndexField("x", np.array([np.nan, 0.5]), np.array([1.0, np.nan]))
    for values, volumes in [([np.nan], [1.0]), ([np.inf], [1.0]), ([0.5], [np.nan]), ([0.5], [np.inf])]:
        with pytest.raises(ValueError):
            field(values, volumes)


def test_field_arrays_read_only():
    f = field([0.5], [1.0])
    with pytest.raises(ValueError):
        f.values[0] = 0.9


@settings(max_examples=100, deadline=None)
@given(
    values=arrays(np.float64, st.integers(1, 20), elements=st.floats(0, 1)),
    volume_scale=st.floats(1e-3, 1e6),
)
def test_mean_bounds_and_volume_scale_invariance(values, volume_scale):
    """Eq-style reduction: bounded by the field, blind to volume units."""
    volumes = np.linspace(1.0, 2.0, len(values))
    a = volume_weighted_mean(field(values, volumes))
    b = volume_weighted_mean(field(values, volumes * volume_scale))
    assert values.min() - 1e-12 <= a <= values.max() + 1e-12
    assert a == pytest.approx(b, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(values=arrays(np.float64, st.integers(1, 20), elements=st.floats(0, 1)))
def test_equal_volumes_reduce_to_arithmetic_mean(values):
    f = field(values, np.full(len(values), 3.3))
    assert volume_weighted_mean(f) == pytest.approx(float(values.mean()))


def test_summary_max():
    s = summarize_field(field([0.1, 0.986, 0.5], [1.0, 1.0, 1.0]))
    assert s.max == pytest.approx(0.986)
    assert s.leaf_count == 3
    assert summarize_field(field([0.0, 0.0], [1, 1])).max == 0.0
    assert summarize_field(field([0.7], [1])).max == pytest.approx(0.7)


# ---------------------------------------------------------------------------
# Module weights and totals


def test_weights_two_to_one():
    w = volume_weights([2.0, 1.0])
    assert w[0] == pytest.approx(2 / 3, abs=5e-3)  # Table-2 style 0.67 / 0.33
    assert w[1] == pytest.approx(1 / 3, abs=5e-3)
    assert w.sum() == 1.0  # exact closure


def test_weights_equal_split():
    np.testing.assert_allclose(volume_weights([5, 5, 5, 5]), [0.25] * 4)


def test_weights_single_module():
    np.testing.assert_array_equal(volume_weights([123.0]), [1.0])


def test_weights_reject_nonpositive():
    with pytest.raises(NonPositiveVolumeError):
        volume_weights([1.0, 0.0])
    with pytest.raises(EmptyInputError):
        volume_weights([])


def test_totals_table_rows():
    w = (0.67, 0.33)
    assert weighted_total((0.068, 0.049), w) == pytest.approx(0.062, abs=5e-4)
    assert weighted_total((0.274, 0.344), w) == pytest.approx(0.297, abs=5e-4)
    assert weighted_total((0.095, 0.360), w) == pytest.approx(0.182, abs=5e-4)


def test_total_requires_unit_weights():
    with pytest.raises(BadWeightsError):
        weighted_total((0.5, 0.5), (0.6, 0.6))
    with pytest.raises(LengthMismatchError):
        weighted_total((0.5, 0.5), (1.0,))


def test_total_single_module_identity():
    assert weighted_total([0.37], [1.0]) == pytest.approx(0.37)


@settings(max_examples=100, deadline=None)
@given(values=arrays(np.float64, st.integers(2, 10), elements=st.floats(0, 1)))
def test_total_equal_weights_is_mean(values):
    w = volume_weights(np.ones(len(values)))
    assert weighted_total(values, w) == pytest.approx(float(values.mean()))


@settings(max_examples=60, deadline=None)
@given(
    values=arrays(np.float64, st.integers(2, 8), elements=st.floats(0, 1)),
    seed=st.integers(0, 999),
)
def test_total_permutation_invariance(values, seed):
    volumes = np.random.default_rng(seed).uniform(0.5, 5.0, len(values))
    perm = np.random.default_rng(seed + 1).permutation(len(values))
    a = weighted_total(values, volume_weights(volumes))
    b = weighted_total(values[perm], volume_weights(volumes[perm]))
    assert a == pytest.approx(b, rel=1e-9)


def test_max_rule():
    assert max_rule_total((0.550, 0.440)) == pytest.approx(0.550)
    assert max_rule_total((0.5,)) == 0.5
    assert max_rule_total((0.4, 0.4)) == 0.4
    with pytest.raises(EmptyInputError):
        max_rule_total(())


# ---------------------------------------------------------------------------
# Reports


def test_part_report_metrics_and_total():
    rep = report(
        {"chip_volume": 0.2, "max_dimension": 0.1},
        {"tool_flexibility": field([0.3, 0.9], [1.0, 1.0])},
    )
    m = rep.scalar_metrics()
    assert m["machining.chip_volume"] == 0.2
    assert m["machining.tool_flexibility_mean"] == pytest.approx(0.6)
    assert m["machining.tool_flexibility_max"] == pytest.approx(0.9)
    assert m["machining.total"] == pytest.approx(0.9)
    assert rep.total == pytest.approx(0.9)


def test_part_report_round_trip():
    rep = report(
        {"chip_volume": 0.25},
        {"tool_flexibility": field([0.3, 0.9], [1.0, 2.0])},
    )
    again = IndexReport.from_dict(rep.to_dict())
    assert again == rep
    assert again.local_fields["tool_flexibility"] == rep.local_fields["tool_flexibility"]


def test_assembly_weighted_and_max_rules():
    a = report({"chip_volume": 0.274}, {"tool_flexibility": field([0.095, 0.550], [999.0, 1.0])})
    b = report({"chip_volume": 0.344}, {"tool_flexibility": field([0.360, 0.440], [999.0, 1.0])})
    asm = build_assembly_report("redesign", {"a": a, "b": b}, {"a": 2.0, "b": 1.0})
    assert asm.weights["a"] == pytest.approx(2 / 3)
    # mean-like and global metrics are volume-weighted, max metrics take the worst
    am = a.scalar_metrics()
    bm = b.scalar_metrics()
    w = volume_weights([2.0, 1.0])
    want_chips = am["machining.chip_volume"] * w[0] + bm["machining.chip_volume"] * w[1]
    assert asm.totals["chip_volume"] == pytest.approx(want_chips)
    assert asm.totals["tool_flexibility_max"] == pytest.approx(
        max(am["machining.tool_flexibility_max"], bm["machining.tool_flexibility_max"])
    )
    assert asm.total == pytest.approx(max(asm.totals.values()))


def test_assembly_single_module_matches_part():
    a = report({"chip_volume": 0.25}, {"tool_flexibility": field([0.3, 0.9], [1.0, 1.0])})
    asm = build_assembly_report("solo", {"a": a}, {"a": 5.0})
    part = a.scalar_metrics()
    for key, val in asm.totals.items():
        assert val == pytest.approx(part[f"machining.{key}"])


def test_assembly_module_order_irrelevant():
    a = report({"chip_volume": 0.2})
    b = report({"chip_volume": 0.5})
    asm1 = build_assembly_report("x", {"a": a, "b": b}, {"a": 1.0, "b": 3.0})
    asm2 = build_assembly_report("x", {"b": b, "a": a}, {"b": 3.0, "a": 1.0})
    assert asm1.totals == pytest.approx(asm2.totals)


def test_assembly_mixed_processes_has_no_totals():
    a = report({"chip_volume": 0.2}, process="machining")
    b = report({"volume": 0.1}, process="additive")
    asm = build_assembly_report("hybrid", {"a": a, "b": b}, {"a": 1.0, "b": 1.0})
    assert asm.totals is None
    assert asm.process is None
    assert asm.total is None
    assert any("different processes" in w for w in asm.warnings)
    assert asm.scalar_metrics() == {}


def test_assembly_name_mismatch():
    a = report({"chip_volume": 0.2})
    with pytest.raises(LengthMismatchError):
        build_assembly_report("x", {"a": a}, {"b": 1.0})
    with pytest.raises(EmptyInputError):
        build_assembly_report("x", {}, {})


def test_assembly_round_trip():
    a = report({"chip_volume": 0.2}, {"tool_flexibility": field([0.1], [1.0])})
    asm = build_assembly_report("asm", {"a": a}, {"a": 1.0})
    assert AssemblyReport.from_dict(asm.to_dict()) == asm


# ---------------------------------------------------------------------------
# Comparison


def test_compare_report_with_itself_is_zero():
    rep = report({"chip_volume": 0.25}, {"tool_flexibility": field([0.3, 0.9], [1, 1])})
    comp = compare_reports(rep, rep)
    for row in comp.rows:
        assert row["delta"] == 0.0
        assert row["delta_pct"] == 0.0
    assert set(comp.field_deltas) == {"tool_flexibility"}
    assert comp.field_deltas["tool_flexibility"] == (0.0, 0.0)


def test_compare_forty_five_percent_drop():
    # worst local value 1.0 against a modular total of 0.550
    base = report({}, {"tool_flexibility": field([1.0], [1.0])}, design_id="one-piece")
    cand = report({}, {"tool_flexibility": field([0.550], [1.0])}, design_id="modular", fp="t2")
    comp = compare_reports(base, cand)
    by_metric = {r["metric"]: r for r in comp.rows}
    row = by_metric["machining.tool_flexibility_max"]
    assert row["delta"] == pytest.approx(-0.45)
    assert row["delta_pct"] == pytest.approx(-45.0, abs=1.0)
    assert comp.field_deltas == {}  # different octrees, no per-box deltas


@settings(max_examples=80, deadline=None)
@given(base_value=st.floats(0.05, 1.0), ratio=st.sampled_from([0.40, 0.47, 0.55]))
def test_compare_ratio_percent(base_value, ratio):
    """Candidate at a fixed fraction of baseline reports that fraction."""
    base = report({"chip_volume": base_value})
    cand = report({"chip_volume": base_value * ratio})
    comp = compare_reports(base, cand)
    by_metric = {r["metric"]: r for r in comp.rows}
    pct = by_metric["machining.chip_volume"]["delta_pct"]
    assert pct == pytest.approx((ratio - 1.0) * 100.0, abs=1e-6)


def test_compare_absolute_delta_antisymmetric():
    a = report({"chip_volume": 0.2})
    b = report({"chip_volume": 0.5})
    ab = {r["metric"]: r["delta"] for r in compare_reports(a, b).rows}
    ba = {r["metric"]: r["delta"] for r in compare_reports(b, a).rows}
    for key in ab:
        assert ab[key] == pytest.approx(-ba[key])


def test_compare_cross_process_side_by_side():
    a = report({"chip_volume": 0.2}, process="machining")
    b = report({"volume": 0.1}, process="additive")
    comp = compare_reports(a, b)
    assert any("side by side" in note for note in comp.notes)
    for row in comp.rows:
        assert row["delta"] is None
        assert row["delta_pct"] is None


def test_compare_requires_shared_metrics():
    a = report({"chip_volume": 0.2})
    empty = report({})
    with pytest.raises(NoSharedIndexesError):
        compare_reports(a, empty)


def test_compare_mixed_assembly_expands_modules():
    base = report({"chip_volume": 0.2}, process="machining", design_id="one-piece")
    m1 = report({"chip_volume": 0.1}, process="machining")
    m2 = report({"volume": 0.3}, process="additive")
    asm = build_assembly_report("hybrid", {"core": m1, "cap": m2}, {"core": 1.0, "cap": 1.0})
    comp = compare_reports(base, asm)
    metrics = [r["metric"] for r in comp.rows]
    assert "core:machining.chip_volume" in metrics
    assert "cap:additive.volume" in metrics
    assert any("compared separately" in n for n in comp.notes)


def test_comparison_round_trip():
    rep = report({"chip_volume": 0.25}, {"tool_flexibility": field([0.3], [1.0])})
    comp = compare_reports(rep, rep)
    assert ComparisonReport.from_dict(comp.to_dict()) == comp
