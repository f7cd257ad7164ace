"""Plain-text host files and JSON certificates.

The host format is line-oriented for diff-ability: a header ``n <count>``
followed by one edge per line as three ascending vertex indices separated
by single spaces.  ``#`` starts a comment line; blank lines are skipped;
duplicate edges are rejected.  Serialization is byte-stable (LF endings,
ASCII, lexicographic edge order), so parse(serialize(H)) == H.

A file in serialize_hypergraph's exact spelling is loaded through an
incidence cube: one byte per position (u, v, w), set by one store per edge
line.  The checks run once, in bulk, after the last line: the count of set
positions finds a repeated edge, and one mask finds a line that is not
ascending or names a vertex out of range.  Three field swaps of the cube,
read as one integer, put each edge in all six orders, and the cube then
unpacks into the host's pair-mask table, both in ``core`` and shared with
``TripleSystem``.  Any other file, and any file that fails a check, goes
through the line loop, which checks each line as it reads it, gives every
ParseError its line number, and builds the host as ``TripleSystem(n,
edges)`` after the last line: only ``core`` writes pair-mask tables.
Writing reads the pair masks too: neither builds the host's sorted edge tuple.
"""

from __future__ import annotations

import itertools
import json
import re

from .core import MAX_VERTICES, TripleSystem, _all_orders, _ascending, _cube_table
from .patterns import Embedding, pattern_by_name, validate_embedding
from .witness import StructureCertificate

_HEADER_LINE = re.compile(r"^n (\d+)$")
#: Each vertex index as serialize_hypergraph spells it.
_NAME = tuple(map(str, range(MAX_VERTICES)))
#: Each header line as serialize_hypergraph spells it: its vertex count.
_HEADER = {f"n {n}": n for n in range(MAX_VERTICES + 1)}
#: For each field width k of the cube, the three dicts (pu, pv, w) from each
#: index below 2**k, spelled as in _NAME, to its field of a cube position:
#: u << 2k, v << k and w.  An index of 2**k or more is in none of them.
_FIELDS = {
    k: tuple({s: v << f * k for v, s in enumerate(_NAME[: 1 << k])} for f in (2, 1, 0))
    for k in range(3, 7)
}


class ParseError(ValueError):
    """Malformed host file; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_hypergraph(text: str) -> TripleSystem:
    lines = text.splitlines()
    host = _parse_cube(lines)
    return _parse_lines(lines) if host is None else host


def _parse_cube(lines) -> TripleSystem | None:
    """The host of a file in serialize_hypergraph's spelling, or None.

    The cube holds one ASCII byte per position p = u << 2k | v << k | w,
    with k = max(3, bits of n - 1), which stands for "the pair {u, v} holds
    w".  Bytes are indexed from the top, so ``int(cube, 2)`` has bit p set
    for each edge line.  None means the line loop must read the file: a
    line or header in another spelling, an index of 2**k or more, a
    repeated edge, or a line that is not ascending or names a vertex >= n.
    """
    n = _HEADER.get(lines[0]) if lines else None
    if n is None:
        return None
    k = max(3, (n - 1).bit_length())
    pu, pv, w = _FIELDS[k]
    top = (1 << 3 * k) - 1
    cube = bytearray(b"0") * (top + 1)
    try:
        for line in itertools.islice(lines, 1, None):
            a, b, c = line.split(" ")
            cube[top - pu[a] - pv[b] - w[c]] = 49  # "1"
    except (KeyError, ValueError):
        return None
    x = int(cube, 2)
    del cube  # the largest object here: free it before the swaps
    if x.bit_count() != len(lines) - 1 or x & ~_ascending(n, k):
        return None
    return TripleSystem._from_masks(_cube_table(_all_orders(x, k), n, k))


def _parse_lines(lines) -> TripleSystem:
    """The line loop: every file the cube declines, and every ParseError."""
    edges = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if edges is None:
            m = _HEADER_LINE.match(line)
            if not m:
                raise ParseError(lineno, f"expected header 'n <count>', got {line!r}")
            n = int(m.group(1))
            if n > MAX_VERTICES:
                raise ParseError(lineno, f"vertex count {n} exceeds the cap of {MAX_VERTICES}")
            edges = set()
            continue
        match line.split(" "):
            case [a, b, c] if a.isdecimal() and b.isdecimal() and c.isdecimal():
                e = u, v, w = int(a), int(b), int(c)
            case _:
                raise ParseError(lineno, f"expected three space-separated integers, got {line!r}")
        if not u < v < w:
            raise ParseError(lineno, f"vertices must be distinct and ascending: {line!r}")
        if w >= n:
            if not n:
                raise ParseError(lineno, f"vertex {w} out of range: the host has no vertices")
            raise ParseError(lineno, f"vertex {w} out of range 0..{n - 1}")
        if e in edges:
            raise ParseError(lineno, f"duplicate edge {line!r}")
        edges.add(e)
    if edges is None:
        raise ParseError(1, "missing header 'n <count>'")
    return TripleSystem(n, edges)


def serialize_hypergraph(host: TripleSystem) -> str:
    """The edges in ``host.edges`` order, read off the masks of the pairs."""
    nbr, n = host.pair_masks, host.n
    out = [f"n {n}\n"]
    for u, row in enumerate(nbr):
        for v in range(u + 1, n):
            m, ws = row[v] >> v + 1, []  # the w > v, at bit w - v - 1
            while m:
                low = m & -m
                ws.append(_NAME[low.bit_length() + v])
                m ^= low
            if ws:
                out.append(f"{u} {v} " + f"\n{u} {v} ".join(ws) + "\n")
    return "".join(out)


def read_hypergraph(path: str) -> TripleSystem:
    with open(path, "r", encoding="ascii") as fh:
        return parse_hypergraph(fh.read())


def write_hypergraph(path: str, host: TripleSystem) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(serialize_hypergraph(host))


def embedding_to_json(emb: Embedding) -> dict:
    return {
        "kind": "embedding",
        "pattern": emb.pattern.name,
        "map": list(emb.map),
        "edges": [list(e) for e in emb.image_edges()],
    }


def certificate_to_json(cert: StructureCertificate) -> dict:
    return {
        "kind": "structure",
        "base": list(cert.base),
        "A": [sorted(s) for s in cert.a_sets],
        "B": [sorted(s) for s in cert.b_sets],
        "q": cert.q,
        "r0": cert.r0,
        "classes": [sorted(c) for c in cert.classes],
        "pairing": [list(p) for p in cert.pairing],
        "conclusion": "n divisible by 4",
    }


def result_to_json(result) -> dict:
    """Serialize an extractor result (embedding or structure certificate)."""
    if isinstance(result, Embedding):
        return embedding_to_json(result)
    return certificate_to_json(result)


def result_from_json(data: dict, host: TripleSystem):
    """Rebuild and re-validate a certificate against its host.

    Raises ValueError when the payload is malformed or fails validation.
    """
    try:
        kind = data.get("kind")
        if kind == "embedding":
            emb = Embedding(pattern_by_name(data["pattern"]), host, tuple(data["map"]))
            edges = [tuple(e) for e in data["edges"]]
            if not all(type(v) is int for v in itertools.chain(emb.map, *edges)):
                # a bool or a float equal to the right int is not what
                # result_to_json writes
                raise TypeError("map and edge entries must be ints")
            if not validate_embedding(emb):
                raise ValueError("embedding certificate failed validation")
            if sorted(edges) != sorted(emb.image_edges()):
                raise ValueError("embedding certificate edges do not match its map")
            return emb
        if kind == "structure":
            cert = StructureCertificate(
                host=host,
                base=tuple(data["base"]),
                a_sets=tuple(frozenset(s) for s in data["A"]),
                b_sets=tuple(frozenset(s) for s in data["B"]),
                q=data["q"],
                r0=data["r0"],
                classes=tuple(frozenset(c) for c in data["classes"]),
                pairing=tuple(tuple(p) for p in data["pairing"]),
            )
            if not cert.verify():
                raise ValueError("structure certificate failed validation")
            return cert
        raise ValueError(f"unknown certificate kind {kind!r}")
    except (AttributeError, KeyError, TypeError) as exc:
        # a payload of the wrong shape: not an object, a missing key, an
        # unknown pattern name, or a field of the wrong type
        raise ValueError(f"malformed certificate payload ({type(exc).__name__}: {exc})") from exc


def dump_json(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
