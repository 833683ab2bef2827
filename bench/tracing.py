"""In-memory spans around the package's layer boundaries.

The package is not edited: :func:`instrument` swaps the module attributes
through which ``manumap.cli`` and ``manumap.analysis`` reach each layer for
wrappers that record a span per call, and puts the originals back on exit.
Spans stay in memory; the caller writes them out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import asdict, dataclass

from manumap import additive, analysis, cli, machining

# (module object, attribute the caller looks up, span name).  The span name
# is "<layer module>.<function>".
PATCH_POINTS = (
    (cli, "load_mesh", "mesh_io.load_mesh"),
    (cli, "build_octree", "spatial.build_octree"),
    (analysis, "build_octree", "spatial.build_octree"),
    (cli, "analyze_mesh", "analysis.analyze_mesh"),
    (analysis, "analyze_mesh", "analysis.analyze_mesh"),
    (cli, "analyze_assembly", "analysis.analyze_assembly"),
    (machining, "tool_flexibility_field", "machining.tool_flexibility_field"),
    (additive, "build_height_field", "additive.build_height_field"),
    (additive, "platform_distance_field", "additive.platform_distance_field"),
    (analysis, "build_assembly_report", "aggregation.build_assembly_report"),
    (cli, "compare_reports", "aggregation.compare_reports"),
    (cli, "emit_report", "reporting.emit_report"),
    (cli, "export_difficulty_map", "reporting.export_difficulty_map"),
    (cli, "load_report", "reporting.load_report"),
)

#: Spans that group layer calls rather than being a layer themselves.
FRAME_SPANS = ("job", "cli.main")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class Call:
    """A recorded layer call, kept so derived counts can be read after the job."""

    name: str
    args: tuple
    kwargs: dict
    result: object


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.calls: list[Call] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, time.perf_counter(), float("nan"), parent)
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.calls.append(Call(name, args, kwargs, result))
            return result

        return traced

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every layer call through ``tracer`` for the duration of the block."""
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCH_POINTS]
    try:
        for (mod, attr, name), (_, _, fn) in zip(PATCH_POINTS, originals):
            setattr(mod, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# Span arithmetic


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, spans: list[Span]) -> float:
    """The span's duration minus the part of it that its child spans cover."""
    children = [(c.start, c.end) for c in spans if c.parent == span.id]
    return (span.end - span.start) - covered(children)


def total_time(spans: list[Span], name: str) -> float:
    return sum(s.end - s.start for s in spans if s.name == name)


def total_self_time(spans: list[Span], name: str) -> float:
    return sum(self_time(s, spans) for s in spans if s.name == name)


def uncovered_time(root: Span, spans: list[Span]) -> float:
    """Time inside ``root`` that no layer span covers (the CLI's own time)."""
    layers = [(s.start, s.end) for s in spans if s.name not in FRAME_SPANS]
    return (root.end - root.start) - covered(layers)
