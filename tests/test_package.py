import triplesys
from triplesys import InternalContradiction


def test_every_exported_name_resolves():
    missing = [name for name in triplesys.__all__ if not hasattr(triplesys, name)]
    assert missing == []
    assert len(set(triplesys.__all__)) == len(triplesys.__all__)


def test_star_import():
    namespace = {}
    exec("from triplesys import *", namespace)
    assert set(triplesys.__all__) <= namespace.keys()


def test_internal_contradiction_lists_its_state_by_key():
    # what a library caller sees in a traceback when a falsification fires
    assert str(InternalContradiction("m", {"b": 1, "a": [2]})) == "m [a=[2], b=1]"
    assert str(InternalContradiction("m")) == "m"
