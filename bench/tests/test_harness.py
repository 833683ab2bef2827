"""A whole run on a tiny workload prints every metric BENCHMARK.json names."""

import argparse
import json
from pathlib import Path

import pytest

import harness
from workloads import WORKLOADS, Workload

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _tiny_commands(fx, out, opts):
    # every layer at depth 3: both processes, an assembly, and a comparison
    half = str(fx / "half.stl")
    return [
        ["analyze", str(fx / "one.stl"), "--process", "both", "--depth", "3",
         "--format", "vtk", "--design-id", "one-piece", "--out", str(out), *opts],
        ["analyze-assembly", f"lower={half}", f"upper={half}", "--design-id", "split",
         "--depth", "3", "--out", str(out), *opts],
        ["compare", str(out / "one-piece.machining.report.json"),
         str(out / "split.assembly.report.json"), "--out", str(out)],
    ]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    split = WORKLOADS["split-redesign"]
    monkeypatch.setitem(
        harness.WORKLOADS, "tiny", Workload("tiny", split.fixtures, _tiny_commands)
    )
    monkeypatch.setattr(harness, "BENCH", tmp_path)


def _run(capsys, trace):
    args = argparse.Namespace(workload="tiny", seed=4, seconds=0.0, trace=trace)
    assert harness.run(args, import_s=0.1) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-2])["summary"], json.loads(lines[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric(tiny, capsys, trace, key):
    summary, result = _run(capsys, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == harness.MIN_JOBS + trace
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[key]
    }
    assert summary["baseline_digest"] == "not recorded"


def test_traced_counts_repeat(tiny, capsys):
    a = _run(capsys, 1)[1]["metrics"]
    b = _run(capsys, 1)[1]["metrics"]
    for name in ("spatial.leaves", "spatial.grey_leaves", "mesh_io.triangles",
                 "reporting.bytes_written"):
        assert a[name] == b[name]
        assert a[name]["value"] > 0


def test_tail_percentile():
    assert harness.tail_percentile([1.0] * 10) is None
    samples = [float(i) for i in range(20)]
    # ten samples (10..19) lie beyond the value 9.0
    assert harness.tail_percentile(samples) == {"p": 50, "value": 9.0}


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
