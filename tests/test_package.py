import triplesys


def test_every_exported_name_resolves():
    missing = [name for name in triplesys.__all__ if not hasattr(triplesys, name)]
    assert missing == []
    assert len(set(triplesys.__all__)) == len(triplesys.__all__)


def test_star_import():
    namespace = {}
    exec("from triplesys import *", namespace)
    assert set(triplesys.__all__) <= namespace.keys()
