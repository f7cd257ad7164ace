import pathlib
import subprocess
import sys

import triplesys
from triplesys import InternalContradiction

#: The public names.  A name joins or leaves the package's API only on
#: purpose, by an edit here; test oracles live in tests/conftest.py.
PUBLIC_NAMES = (
    "C5",
    "C5MINUS",
    "CATALOG",
    "Embedding",
    "F32",
    "InternalContradiction",
    "K4",
    "K4MINUS",
    "ParseError",
    "Pattern",
    "PreconditionViolated",
    "SearchOutcome",
    "StructureCertificate",
    "TripleSysError",
    "TripleSystem",
    "analyze_half_degree",
    "build_codegree_table",
    "construct_complete_k_partite",
    "decide_exists",
    "embeds_through_edge",
    "exact_copos_ex",
    "find_c5_witness",
    "find_c5minus_witness",
    "find_embedding",
    "is_free",
    "known_extremal_value",
    "local_search_lower_bound",
    "mask_vertices",
    "min_codegree",
    "min_positive_codegree",
    "parse_hypergraph",
    "pattern_by_name",
    "read_hypergraph",
    "serialize_hypergraph",
    "validate_embedding",
    "write_hypergraph",
)


def test_every_exported_name_resolves():
    missing = [name for name in triplesys.__all__ if not hasattr(triplesys, name)]
    assert missing == []
    assert len(set(triplesys.__all__)) == len(triplesys.__all__)


def test_the_public_names_are_pinned():
    assert tuple(sorted(triplesys.__all__)) == PUBLIC_NAMES


def test_star_import():
    namespace = {}
    exec("from triplesys import *", namespace)
    assert set(triplesys.__all__) <= namespace.keys()


def test_internal_contradiction_lists_its_state_by_key():
    # what a library caller sees in a traceback when a falsification fires
    assert str(InternalContradiction("m", {"b": 1, "a": [2]})) == "m [a=[2], b=1]"
    assert str(InternalContradiction("m")) == "m"


def test_importing_the_cli_loads_no_process_machinery():
    # Every command pays for a cold import, and only exact --jobs above 1
    # forks: the modules its forked path needs are imported there.
    src = str(pathlib.Path(triplesys.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import triplesys.cli; "
        "print(*sorted(set(sys.argv[1:]) & set(sys.modules)))"
    )
    deferred = ["pickle", "signal", "select", "concurrent.futures", "multiprocessing"]
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, *deferred],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout == "\n"
