"""Span arithmetic on a synthetic span tree."""

import pytest

from tracing import Span, Tracer, covered, self_time, total_self_time, uncovered_time


def _tree():
    # job 0..10
    #   cli.main 0..10
    #     analysis.analyze_mesh 1..7
    #       spatial.build_octree 2..4
    #       machining.tool_flexibility_field 3..6  (overlaps the octree span)
    #     reporting.emit_report 8..9
    return [
        Span(0, "job", 0.0, 10.0, None),
        Span(1, "cli.main", 0.0, 10.0, 0),
        Span(2, "analysis.analyze_mesh", 1.0, 7.0, 1),
        Span(3, "spatial.build_octree", 2.0, 4.0, 2),
        Span(4, "machining.tool_flexibility_field", 3.0, 6.0, 2),
        Span(5, "reporting.emit_report", 8.0, 9.0, 1),
    ]


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(2.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == pytest.approx(5.0)
    assert covered([(0.0, 5.0), (1.0, 2.0)]) == pytest.approx(5.0)


def test_self_time_subtracts_the_union_of_children():
    spans = _tree()
    assert self_time(spans[2], spans) == pytest.approx(6.0 - 4.0)
    assert self_time(spans[3], spans) == pytest.approx(2.0)
    assert self_time(spans[1], spans) == pytest.approx(10.0 - 6.0 - 1.0)
    assert total_self_time(spans, "analysis.analyze_mesh") == pytest.approx(2.0)


def test_uncovered_time_ignores_frame_spans():
    spans = _tree()
    # layer spans cover 1..7 and 8..9
    assert uncovered_time(spans[0], spans) == pytest.approx(10.0 - 7.0)


def test_tracer_records_parents():
    tracer = Tracer()
    double = tracer.wrap("layer.double", lambda x: 2 * x)
    with tracer.span("job"):
        assert double(3) == 6
    job, layer = tracer.spans
    assert (job.parent, layer.parent) == (None, job.id)
    assert job.start <= layer.start <= layer.end <= job.end
    assert [c.result for c in tracer.calls] == [6]
