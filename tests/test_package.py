import re
import types
from pathlib import Path

import manumap
from manumap.primitives import slab_with_pockets, write_binary_stl


def test_all_lists_exactly_the_public_names():
    """``__all__`` names every public object the package binds, plus the two
    process modules, whose same-named index functions are reached through them."""
    bound = {
        name
        for name, value in vars(manumap).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(manumap.__all__)) == len(manumap.__all__)
    assert set(manumap.__all__) == bound | {"additive", "machining"}
    assert all(hasattr(manumap, name) for name in manumap.__all__)


def test_readme_library_examples_run(tmp_path, monkeypatch):
    """README's fenced Python blocks run in order, in one namespace, in a
    directory that holds the split-redesign block as ``part.stl``: the
    first grades it and writes ``part.ply``, the second reads the tree."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 2
    block = slab_with_pockets((80.0, 80.0, 60.0), [((34.0, 34.0, 46.0, 46.0), 50.0)])
    write_binary_stl(block, tmp_path / "part.stl")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for code in blocks:
        exec(compile(code, "README.md", "exec"), namespace)
    assert (tmp_path / "part.ply").stat().st_size > 0
    assert len(namespace["rows"]) == len(block.vertices)
