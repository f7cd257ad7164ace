"""Plain-text host files and JSON certificates.

The host format is line-oriented for diff-ability: a header ``n <count>``
followed by one edge per line as three ascending vertex indices separated
by single spaces.  ``#`` starts a comment line; blank lines are skipped;
duplicate edges are rejected.  Serialization is byte-stable (LF endings,
ASCII, lexicographic edge order), so parse(serialize(H)) == H.

Loading is one pass: each edge line is checked and written straight into
the host's pair-mask table, which finds a repeated edge by its mask bit,
and the finished table becomes the host without a second check.  The host
builds its sorted edge tuple only when something reads it.
"""

from __future__ import annotations

import json
import re

from .core import MAX_VERTICES, TripleSystem
from .patterns import Embedding, pattern_by_name, validate_embedding
from .witness import StructureCertificate

_HEADER_LINE = re.compile(r"^n (\d+)$")
#: Each vertex index as serialize_hypergraph spells it.
_INDEX = {str(v): v for v in range(MAX_VERTICES)}


class ParseError(ValueError):
    """Malformed host file; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_hypergraph(text: str) -> TripleSystem:
    nbr = None
    index = _INDEX.get
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if nbr is None:
            m = _HEADER_LINE.match(line)
            if not m:
                raise ParseError(lineno, f"expected header 'n <count>', got {line!r}")
            n = int(m.group(1))
            if n > MAX_VERTICES:
                raise ParseError(lineno, f"vertex count {n} exceeds the cap of {MAX_VERTICES}")
            nbr = [[0] * n for _ in range(n)]
            continue
        fields = line.split(" ")
        if len(fields) != 3:
            raise ParseError(
                lineno, f"expected three space-separated integers, got {line!r}"
            )
        a, b, c = fields
        u, v, w = index(a), index(b), index(c)
        if u is None or v is None or w is None:
            # a spelling serialize_hypergraph does not write: leading zeros,
            # other decimal digits, an index of 64 or more, or no number
            if not (a.isdecimal() and b.isdecimal() and c.isdecimal()):
                raise ParseError(
                    lineno, f"expected three space-separated integers, got {line!r}"
                )
            u, v, w = int(a), int(b), int(c)
        if not u < v < w:
            raise ParseError(lineno, f"vertices must be distinct and ascending: {line!r}")
        if w >= n:
            raise ParseError(lineno, f"vertex {w} out of range 0..{n - 1}")
        ru, rv, rw = nbr[u], nbr[v], nbr[w]
        uv = ru[v]
        if uv >> w & 1:
            raise ParseError(lineno, f"duplicate edge {line!r}")
        # core.flip written out: the edge is new, so each pair gains one bit
        ru[v] = rv[u] = uv | 1 << w
        ru[w] = rw[u] = ru[w] | 1 << v
        rv[w] = rw[v] = rv[w] | 1 << u
    if nbr is None:
        raise ParseError(1, "missing header 'n <count>'")
    return TripleSystem._from_masks(nbr)


def serialize_hypergraph(host: TripleSystem) -> str:
    lines = [f"n {host.n}"]
    lines.extend(f"{u} {v} {w}" for u, v, w in host.edges)
    return "\n".join(lines) + "\n"


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
            if not validate_embedding(emb):
                raise ValueError("embedding certificate failed validation")
            if sorted(tuple(e) for e in data["edges"]) != sorted(emb.image_edges()):
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
