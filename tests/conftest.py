"""Shared generators and independent oracles."""

from __future__ import annotations

import itertools
import random
import re

from triplesys import ParseError, TripleSystem, complete_triple_system
from triplesys.core import MAX_VERTICES, HostState


def random_host(n: int, rng: random.Random, density: float = 0.5) -> TripleSystem:
    """Uniformly random edge subset of the complete host."""
    edges = [t for t in itertools.combinations(range(n), 3) if rng.random() < density]
    return TripleSystem(n, edges)


def random_host_above(n: int, threshold: int, rng: random.Random) -> TripleSystem:
    """Random edge deletions from the complete host, rejection-sampled so the
    minimum positive co-degree never drops below the threshold.

    Each deletion is tried as a toggle on one HostState and toggled back if
    rejected, so no trial builds a host.
    """
    complete = complete_triple_system(n)
    edges = set(complete.edges)
    order = sorted(edges)
    rng.shuffle(order)
    state = HostState(complete)
    for t in order:
        state.toggle(t)
        delta = state.score()[0]  # 0 once edgeless
        if delta and delta >= threshold:
            edges.remove(t)
        else:
            state.toggle(t)
    return TripleSystem(n, edges)


def scan_min_positive_codegree(host: TripleSystem) -> int | None:
    """Direct per-pair edge scan, independent of the bitmask machinery."""
    best = None
    for u in range(host.n):
        for v in range(u + 1, host.n):
            count = sum(1 for e in host.edges if u in e and v in e)
            if count and (best is None or count < best):
                best = count
    return best


_EDGE_LINE = re.compile(r"^(\d+) (\d+) (\d+)$")
_HEADER_LINE = re.compile(r"^n (\d+)$")


def reference_parse_hypergraph(text: str) -> TripleSystem:
    """The host-file parser as it was before loading built the pair masks:
    a regex per line, a set of the edges seen, and a host built from the
    edge list.  Frozen here as the oracle for ``fileio.parse_hypergraph``."""
    n = None
    edges: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            m = _HEADER_LINE.match(line)
            if not m:
                raise ParseError(lineno, f"expected header 'n <count>', got {line!r}")
            n = int(m.group(1))
            if n > MAX_VERTICES:
                raise ParseError(lineno, f"vertex count {n} exceeds the cap of {MAX_VERTICES}")
            continue
        m = _EDGE_LINE.match(line)
        if not m:
            raise ParseError(
                lineno, f"expected three space-separated integers, got {line!r}"
            )
        t = tuple(int(g) for g in m.groups())
        if not t[0] < t[1] < t[2]:
            raise ParseError(lineno, f"vertices must be distinct and ascending: {line!r}")
        if t[2] >= n:
            raise ParseError(lineno, f"vertex {t[2]} out of range 0..{n - 1}")
        if t in seen:
            raise ParseError(lineno, f"duplicate edge {line!r}")
        seen.add(t)
        edges.append(t)
    if n is None:
        raise ParseError(1, "missing header 'n <count>'")
    return TripleSystem(n, edges)
