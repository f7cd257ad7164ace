"""Positive co-degree toolkit for 3-uniform hypergraphs.

Computes pair co-degree invariants, builds the extremal complete balanced
k-partite constructions, extracts forbidden-configuration witnesses from
hosts above the extremal thresholds, and verifies the exact extremal
values at small vertex counts by exhaustive search.
"""

from .core import (
    TripleSystem,
    build_codegree_table,
    construct_complete_k_partite,
    known_extremal_value,
    mask_vertices,
    min_codegree,
    min_positive_codegree,
)
from .errors import InternalContradiction, PreconditionViolated, TripleSysError
from .fileio import (
    ParseError,
    parse_hypergraph,
    read_hypergraph,
    serialize_hypergraph,
    write_hypergraph,
)
from .patterns import (
    C5,
    C5MINUS,
    CATALOG,
    F32,
    K4,
    K4MINUS,
    Embedding,
    Pattern,
    embeds_through_edge,
    find_embedding,
    is_free,
    pattern_by_name,
    validate_embedding,
)
from .search import (
    SearchOutcome,
    decide_exists,
    exact_copos_ex,
    local_search_lower_bound,
)
from .witness import (
    StructureCertificate,
    analyze_half_degree,
    find_c5_witness,
    find_c5minus_witness,
)

__all__ = [
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
]

__version__ = "0.1.0"
