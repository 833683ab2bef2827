import types

import manumap


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
