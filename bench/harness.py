"""The benchmark proper: set-up, the timed job loop, the traced job and the result."""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import CheckFailed, check_same, inspect_outputs
from manumap import cli, machining
from tracing import Tracer, instrument, total_self_time, total_time, uncovered_time
from workloads import WORKLOADS, write_fixtures

BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 3
MIN_JOBS = 2  # so that every run's job_s is a median of at least two jobs
VOLUME_REL_TOL = 0.02  # the acceptance suite's octree volume tolerance


class JobFailed(Exception):
    """A command of the job returned non-zero or raised."""


def tail_percentile(samples: list[float]) -> dict | None:
    """Highest percentile that has at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 11:
        return None
    return {"p": 100 * (n - 10) // n, "value": sorted(samples)[n - 11]}


def run_job(commands, out_dir: Path, tracer: Tracer | None = None) -> float:
    """Run one job's commands; return its wall-clock seconds."""
    out_dir.mkdir(parents=True)
    frame = tracer.span if tracer is not None else lambda _name: contextlib.nullcontext()
    start = time.perf_counter()
    with frame("job"):
        for argv in commands:
            try:
                with frame("cli.main"), contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(argv)
            except Exception as exc:
                raise JobFailed(f"{argv[0]} raised {exc!r}") from exc
            if rc != 0:
                raise JobFailed(f"{argv[0]} exited with {rc}")
    return time.perf_counter() - start


def layer_metrics(tracer: Tracer, job_s: float) -> tuple[dict, list[str]]:
    """Per-layer numbers from one traced job, read before its outputs are removed.

    Also returns the problems found: an octree volume outside the acceptance
    tolerance, or tool reach at workers=1 differing from the traced call.
    """
    spans = tracer.spans
    root = next(s for s in spans if s.name == "job")
    problems = []

    def results(name):
        return [c.result for c in tracer.calls if c.name == name]

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    octrees = results("spatial.build_octree")
    leaves = sum(len(o.leaves()) for o in octrees)
    vol_err = max(
        abs(o.total_part_volume() - abs(o.mesh_volume)) / abs(o.mesh_volume) for o in octrees
    )
    if vol_err > VOLUME_REL_TOL:
        problems.append(f"octree volume off by {vol_err:.4f} (limit {VOLUME_REL_TOL})")

    w1_s = 0.0
    for call in tracer.calls:
        if call.name == "machining.tool_flexibility_field":
            t = time.perf_counter()
            w1 = machining.tool_flexibility_field(*call.args, **{**call.kwargs, "workers": 1})
            w1_s += time.perf_counter() - t
            if w1 != call.result:
                problems.append("tool reach at workers=1 differs from the traced call")
    reach_s = total_time(spans, "machining.tool_flexibility_field")
    graded = sum(len(f) for f in results("machining.tool_flexibility_field"))
    build_s = total_time(spans, "spatial.build_octree")
    written = results("reporting.emit_report") + results("reporting.export_difficulty_map")

    seconds = {
        "mesh_io.load_mesh_s": total_time(spans, "mesh_io.load_mesh"),
        "spatial.build_octree_s": build_s,
        "machining.tool_flexibility_field_s": reach_s,
        "machining.tool_flexibility_field_w1_s": w1_s,
        "additive.build_height_field_s": total_time(spans, "additive.build_height_field"),
        "additive.platform_distance_field_s": total_time(
            spans, "additive.platform_distance_field"
        ),
        "analysis.analyze_mesh_self_s": total_self_time(spans, "analysis.analyze_mesh"),
        "analysis.analyze_assembly_self_s": total_self_time(spans, "analysis.analyze_assembly"),
        "aggregation.build_assembly_report_s": total_time(
            spans, "aggregation.build_assembly_report"
        ),
        "aggregation.compare_reports_s": total_time(spans, "aggregation.compare_reports"),
        "reporting.emit_report_s": total_time(spans, "reporting.emit_report"),
        "reporting.export_difficulty_map_s": total_time(spans, "reporting.export_difficulty_map"),
        "reporting.load_report_s": total_time(spans, "reporting.load_report"),
        "cli.self_s": uncovered_time(root, spans),
        "trace.overhead_s": (root.end - root.start) - job_s,
    }
    metrics = {k: (v, "s") for k, v in seconds.items()}
    metrics.update({
        "mesh_io.triangles": (sum(m.num_triangles for m in results("mesh_io.load_mesh")), "count"),
        "spatial.leaves": (leaves, "count"),
        "spatial.grey_leaves": (sum(len(o.grey_leaves()) for o in octrees), "count"),
        "spatial.leaves_per_s": (rate(leaves, build_s), "1/s"),
        "spatial.volume_rel_err": (vol_err, "ratio"),
        "machining.grey_leaves_per_s": (rate(graded, reach_s), "1/s"),
        "reporting.bytes_written": (sum(Path(p).stat().st_size for p in written), "count"),
    })
    return metrics, problems


class Run:
    """Jobs of one run, all checked against the run's first good job."""

    def __init__(self, commands, work: Path):
        self.commands = commands  # out_dir -> argv lists
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.job_s: list[float] = []

    def job(self, tracer: Tracer | None = None):
        """Run and check one job; return (seconds, out_dir), or None if it failed.

        The caller removes ``out_dir``.
        """
        self.attempted += 1
        out_dir = self.work / f"out{self.attempted}"
        try:
            seconds = run_job(self.commands(out_dir), out_dir, tracer)
            output = inspect_outputs(out_dir)
            if self.first is None:
                self.first = output
            check_same(self.first, output)
        except (JobFailed, CheckFailed) as exc:
            self.failed += 1
            print(f"job {self.attempted} failed: {exc}", file=sys.stderr)
            shutil.rmtree(out_dir, ignore_errors=True)
            return None
        return seconds, out_dir

    def loop(self, seconds: float) -> None:
        """Untraced jobs until ``seconds`` have passed and MIN_JOBS have run."""
        deadline = time.perf_counter() + seconds
        while self.attempted < MIN_JOBS or time.perf_counter() < deadline:
            done = self.job()
            if done is not None:
                self.job_s.append(done[0])
                shutil.rmtree(done[1])


def run(args, import_s: float) -> int:
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = BENCH / ".work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(args, workload, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def fresh_import_s() -> float:
    """Seconds to import the benchmark and the package in a new interpreter."""
    here = Path(__file__).resolve().parent
    code = (
        "import sys, time; t = time.perf_counter(); "
        f"sys.path[:0] = [{str(here)!r}, {str(here.parent / 'src')!r}]; "
        "import harness; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    return float(done.stdout)


def _run(args, workload, work: Path, import_s: float) -> int:
    # Set up SETUP_REPEATS times: this process's own imports plus fresh
    # imports in child interpreters, each followed by a fixture build.
    fixture_dir = work / "fixtures"
    import_times = [import_s] + [fresh_import_s() for _ in range(SETUP_REPEATS - 1)]
    fixture_s = []
    fixtures = None
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        info = write_fixtures(workload, args.seed, fixture_dir)
        fixture_s.append(time.perf_counter() - t)
        if fixtures is not None and info != fixtures:
            print("error: fixture generation is not deterministic", file=sys.stderr)
            return 1
        fixtures = info
    setup_s = statistics.median(i + f for i, f in zip(import_times, fixture_s))

    workers = len(os.sched_getaffinity(0))
    opts = ["--seed", str(args.seed), "--workers", str(workers)]
    r = Run(lambda out_dir: workload.commands(fixture_dir, out_dir, opts), work)
    r.loop(args.seconds)
    if not r.job_s:
        print("error: every job failed", file=sys.stderr)
        return 1
    job_s = statistics.median(r.job_s)

    spans = []
    if args.trace:
        tracer = Tracer()
        with instrument(tracer):
            done = r.job(tracer)
        if done is None:
            print("error: the traced job failed", file=sys.stderr)
            return 1
        metrics, problems = layer_metrics(tracer, job_s)
        shutil.rmtree(done[1])
        if problems:
            r.failed += 1
            print(f"traced job failed: {'; '.join(problems)}", file=sys.stderr)
        spans = tracer.to_json()
        metrics["error_rate"] = (r.failed / r.attempted, "ratio")
    else:
        metrics = {
            "job_s": (job_s, "s"),
            "leaves_per_s": (r.first.leaves / job_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (setup_s, "s"),
        }

    summary = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "workers": workers,
        "job_s_samples": r.job_s,
        "job_s_tail": tail_percentile(r.job_s),
        "error_rate": r.failed / r.attempted,
        "leaves": r.first.leaf_counts,
        "fixtures": fixtures,
        "setup": {"import_s": import_times, "fixture_s": fixture_s},
        "output_digest": r.first.digest,
        "output_files": r.first.files,
        "baseline_digest": _baseline_status(workload.name, args.seed, r.first.digest),
    }
    result = {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}.seed{args.seed}.trace{args.trace}.json").write_text(
        json.dumps({"summary": summary, "result": result, "spans": spans}, indent=1) + "\n"
    )
    print(json.dumps({"summary": summary}))
    print(json.dumps(result))
    return 0


def _baseline_status(workload: str, seed: int, digest: str) -> str:
    """Whether the output digest equals the one recorded for the seed commit."""
    path = BENCH / "baseline.json"
    recorded = (
        json.loads(path.read_text()).get("digests", {}).get(workload, {}).get(str(seed))
        if path.is_file()
        else None
    )
    if recorded is None:
        return "not recorded"
    return "match" if recorded == digest else "differs"
