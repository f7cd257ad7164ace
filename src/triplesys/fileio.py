"""Plain-text host files and JSON certificates.

The host format is line-oriented for diff-ability: a header ``n <count>``
followed by one edge per line as three ascending vertex indices separated
by single spaces.  ``#`` starts a comment line; blank lines are skipped;
duplicate edges are rejected.  Serialization is byte-stable (LF endings,
ASCII, lexicographic edge order), so parse(serialize(H)) == H.

A file in serialize_hypergraph's exact spelling, with LF line ends and its
lines grouped by ascending first vertex as the writer writes them, loads
one block of lines per first vertex into an incidence cube: one split of
each block on its lead, then a table lookup and a byte store per line that
run in C, so no Python step runs per line.  The checks run once, in bulk,
after the last block: the count of set positions finds a repeated edge,
and one mask finds a line that is not ascending or names a vertex out of
range.  Three field swaps of the cube, read as one integer, put each edge
in all six orders, and the cube then unpacks into the host's pair-mask
table, both in ``core`` and shared with ``TripleSystem``.  Any other file,
and any file that fails a check, goes through the line loop, which checks
each line as it reads it, gives every ParseError its line number, and
builds the host as ``TripleSystem(n, edges)`` after the last line: only
``core`` writes pair-mask tables.
Writing reads the pair masks too: neither builds the host's sorted edge tuple.

Extractor results have one writer, ``result_to_json``, and one reader,
``result_from_json``, which re-validates what it reads against its host.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import operator
import re

from .core import MAX_VERTICES, TripleSystem, _all_orders, _ascending, _cube_table
from .patterns import Embedding, pattern_by_name, validate_embedding
from .witness import StructureCertificate

_HEADER_LINE = re.compile(r"^n (\d+)$")
#: Each vertex index as serialize_hypergraph spells it.
_NAME = tuple(map(str, range(MAX_VERTICES)))
#: Each header line as serialize_hypergraph spells it: its vertex count.
_HEADER = {f"n {n}": n for n in range(MAX_VERTICES + 1)}
#: The lead of each first vertex's lines as serialize_hypergraph writes them.
_LEAD = tuple(f"\n{s} " for s in _NAME)


class ParseError(ValueError):
    """Malformed host file; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_hypergraph(text: str) -> TripleSystem:
    """The host a host file's text describes.

    A file in serialize_hypergraph's spelling loads one block of lines per
    first vertex (_parse_blocks); every other file, and every file that
    fails its checks, goes through the line loop, which raises ParseError
    with the number of the first bad line.
    """
    host = _parse_blocks(text)
    return _parse_lines(text.splitlines()) if host is None else host


@functools.cache
def _pair_bytes(k: int) -> dict[str, int]:
    """For field width k: each "v w" with v < w < 2**k, spelled as in _NAME,
    to the byte of (v, w) in one first vertex's part of the cube.  Built on
    first use and kept (about 220 KB for k = 6): built for every k at
    import, the tables would slow the package import."""
    last = (1 << 2 * k) - 1
    return {
        f"{_NAME[v]} {_NAME[w]}": last - (v << k | w)
        for v in range(1 << k)
        for w in range(v + 1, 1 << k)
    }


def _parse_blocks(text: str) -> TripleSystem | None:
    """The host of a file in serialize_hypergraph's spelling, or None.

    The cube holds one ASCII byte per position p = u << 2k | v << k | w,
    with k = max(3, bits of n - 1), which stands for "the pair {u, v} holds
    w".  Bytes are indexed from the top, so ``int(cube, 2)`` has bit p set
    for each edge line.  The lines of each first vertex u, which the writer
    writes as one run of "\\n{u} {v} {w}", are split on their lead
    "\\n{u} " and stored in u's part of the cube, with no Python step per
    line.  None means the line loop must read the file: a header, line or
    line end in another spelling, lines not grouped by ascending first
    vertex, an index of 2**k or more, a repeated edge, or a line that is
    not ascending or names a vertex >= n.
    """
    head = text.find("\n")
    n = _HEADER.get(text[:head]) if head >= 0 and text.endswith("\n") else None
    if n is None:
        return None
    k = max(3, (n - 1).bit_length())
    table, part = _pair_bytes(k), 1 << 2 * k
    cube = bytearray(b"0") * (part << k)
    pos, last, count = head, len(text) - 1, 0  # pos: the "\n" before u's lines
    try:
        with memoryview(cube) as view:
            for u, lead in enumerate(_LEAD[:n]):
                if not text.startswith(lead, pos):
                    continue  # no line has first vertex u
                # u's lines end at the next first vertex's lead, or the last "\n"
                ends = (text.find(later, pos) for later in _LEAD[u + 1 : n])
                end = next((e for e in ends if e >= 0), last)
                pieces = text[pos + len(lead) : end].split(lead)
                base = part * ((1 << k) - 1 - u)  # u's part: bytes base..base + part
                # one byte store of "1" per piece, all in C; a piece that is
                # not a "v w" of the table raises KeyError
                offsets = map(table.__getitem__, pieces)
                stores = map(operator.setitem, itertools.repeat(view[base : base + part]),
                             offsets, itertools.repeat(49))
                collections.deque(stores, 0)
                count += len(pieces)
                pos = end
    except KeyError:
        return None
    if pos != last:  # text after the last first vertex's lines
        return None
    x = int(cube, 2)
    del cube  # the largest object here: free it before the swaps
    if x.bit_count() != count or x & ~_ascending(n, k):
        return None
    return TripleSystem._from_masks(_cube_table(_all_orders(x, k), n, k))


def _parse_lines(lines) -> TripleSystem:
    """The line loop: every file the block pass declines, and every ParseError."""
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


def result_to_json(result: Embedding | StructureCertificate) -> dict:
    """An embedding or a structure certificate as JSON, as ``free``,
    ``witness`` and ``analyze`` print it."""
    if isinstance(result, Embedding):
        return {
            "kind": "embedding",
            "pattern": result.pattern.name,
            "map": list(result.map),
            "edges": [list(e) for e in result.image_edges()],
        }
    return {
        "kind": "structure",
        "base": list(result.base),
        "A": [sorted(s) for s in result.a_sets],
        "B": [sorted(s) for s in result.b_sets],
        "q": result.q,
        "r0": result.r0,
        "classes": [sorted(c) for c in result.classes],
        "pairing": [list(p) for p in result.pairing],
        "conclusion": "n divisible by 4",
    }


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
