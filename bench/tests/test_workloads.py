"""The workload seed reorders triangles without changing the work."""

from manumap.mesh_io import load_mesh
from manumap.spatial import build_octree
from workloads import WORKLOADS, write_fixtures


def _leaf_counts(fixture_dir, names):
    counts = {}
    for name in names:
        tree = build_octree(load_mesh(fixture_dir / name), max_depth=3)
        counts[name] = (tree.fingerprint()["leaf_count"], len(tree.grey_leaves()))
    return counts


def test_seed_permutation_keeps_leaf_counts(tmp_path):
    for name in ("sphere-both", "split-redesign"):
        w = WORKLOADS[name]
        a = write_fixtures(w, 1, tmp_path / f"{name}-1")
        b = write_fixtures(w, 2, tmp_path / f"{name}-2")
        for fixture in w.fixtures:
            assert a[fixture]["triangles"] == b[fixture]["triangles"]
            assert a[fixture]["sha256"] != b[fixture]["sha256"]
        assert _leaf_counts(tmp_path / f"{name}-1", w.fixtures) == _leaf_counts(
            tmp_path / f"{name}-2", w.fixtures
        )


def test_same_seed_gives_same_files(tmp_path):
    w = WORKLOADS["split-redesign"]
    assert write_fixtures(w, 7, tmp_path / "a") == write_fixtures(w, 7, tmp_path / "b")

