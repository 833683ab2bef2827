"""The output check rejects corrupted reports and changed outputs."""

import json
import shutil

import pytest

from checks import CheckFailed, check_same, inspect_outputs
from manumap import cli
from workloads import WORKLOADS, write_fixtures


@pytest.fixture(scope="module")
def good_outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("job")
    write_fixtures(WORKLOADS["split-redesign"], 1, base / "fx")
    out = base / "out"
    argv = ["analyze", str(base / "fx" / "one.stl"), "--depth", "3", "--out", str(out),
            "--workers", "1"]
    assert cli.main(argv) == 0
    return out


@pytest.fixture
def outputs(good_outputs, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(good_outputs, out)
    return out


REPORT = "part.machining.report.json"


def _edit_report(out, edit):
    path = out / REPORT
    doc = json.loads(path.read_text())
    edit(doc["report"])
    path.write_text(json.dumps(doc))


def test_good_outputs_pass(outputs):
    first = inspect_outputs(outputs)
    assert first.leaf_counts[REPORT] > 0
    check_same(first, inspect_outputs(outputs))


def _set_field_value(r):
    r["local_fields"]["tool_flexibility"]["values"][0] = -0.25


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: r["global_indexes"].update(max_dimension=1.5),
        _set_field_value,
        lambda r: r["octree_fingerprint"].pop("leaf_count"),
    ],
    ids=["global-index-out-of-range", "field-value-out-of-range", "no-leaf-count"],
)
def test_corrupted_report_fails(outputs, edit):
    _edit_report(outputs, edit)
    with pytest.raises(CheckFailed):
        inspect_outputs(outputs)


def test_truncated_report_fails(outputs):
    path = outputs / REPORT
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with pytest.raises(CheckFailed, match="does not load back"):
        inspect_outputs(outputs)


def test_changed_digest_fails(outputs):
    first = inspect_outputs(outputs)
    with open(outputs / "part.machining.tool_flexibility.ply", "ab") as fh:
        fh.write(b"\n")
    with pytest.raises(CheckFailed, match="digests differ"):
        check_same(first, inspect_outputs(outputs))
