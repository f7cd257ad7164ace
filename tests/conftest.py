"""Shared generators and independent oracles."""

from __future__ import annotations

import itertools
import random
import re

from triplesys import ParseError, TripleSystem, complete_triple_system
from triplesys.core import MAX_VERTICES, HostState, flip


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


#: Steiner triple systems: the Fano plane on 0..6 (the translates of
#: {0, 1, 3} mod 7) and the affine plane AG(2, 3) on 0..8, where vertex v is
#: the point divmod(v, 3) and three distinct points are a line iff they sum
#: to zero in both coordinates.
FANO_LINES = tuple(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7))
AG23_LINES = tuple(
    t for t in itertools.combinations(range(9), 3)
    if all(sum(c) % 3 == 0 for c in zip(*(divmod(v, 3) for v in t)))
)


def steiner_join(lines, n: int) -> TripleSystem:
    """The Steiner triple system ``lines`` on T = 0..t-1 joined to the
    independent set S = t..n-1: the STS triples plus every {x, y, a} with x, y
    in T and a in S.  With t = n/2 + 1 every S-T and T-T pair has co-degree
    n/2, the pairs inside S none, and the host has no tight 5-cycle."""
    t = 1 + max(map(max, lines))
    cross = [(x, y, a) for x, y in itertools.combinations(range(t), 2) for a in range(t, n)]
    return TripleSystem(n, list(lines) + cross)


def blow_up(sizes, rng: random.Random) -> TripleSystem:
    """The complete partite host with parts of the given sizes, its vertices
    shuffled: every triple meeting three parts.  Two vertices of one part
    are twins."""
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    perm = list(range(len(part)))
    rng.shuffle(perm)
    edges = [
        (perm[u], perm[v], perm[w])
        for u, v, w in itertools.combinations(range(len(part)), 3)
        if len({part[u], part[v], part[w]}) == 3
    ]
    return TripleSystem(len(part), edges)


def no_twins(n: int) -> tuple[int, tuple[int, ...]]:
    """The twin pair of a table read as having no twins, every vertex in a
    class of its own: the pair to search a table that is no host's with."""
    return (1 << n) - 1, (0,) * n


def scan_min_positive_codegree(host: TripleSystem) -> int | None:
    """Direct per-pair edge scan, independent of the bitmask machinery."""
    best = None
    for u in range(host.n):
        for v in range(u + 1, host.n):
            count = sum(1 for e in host.edges if u in e and v in e)
            if count and (best is None or count < best):
                best = count
    return best


def interpreted_search_maps(nbr, plan, pins=()) -> tuple[int, ...] | None:
    """The backtracking interpreter that ran every search plan before the
    plans were generated into functions.  Frozen here as the oracle for
    ``patterns.search_maps`` and ``patterns.embeds_through_edge``.

    ``nbr[u][v]`` must be the bitmask of vertices completing {u, v} to an
    edge, on n = len(nbr) vertices.  ``pins`` gives the images of the plan's
    first positions, which must be distinct.  Candidates at each position
    are scanned in ascending host order, so without symmetry breaking the
    result is the least map in plan order.  Returns the map indexed by
    pattern vertex, or None.
    """
    n = len(nbr)
    order, closing, above = plan
    p = len(order)
    if p > n:
        return None
    img = list(pins) + [0] * (p - len(pins))
    used = 0
    for i, v in enumerate(pins):
        for x, y in closing[i]:
            if not nbr[img[x]][img[y]] >> v & 1:
                return None
        used |= 1 << v
    first = i = len(pins)
    full = (1 << n) - 1
    cands = [0] * p
    while i < p:
        c = full & ~used
        for x, y in closing[i]:
            c &= nbr[img[x]][img[y]]
        for x in above[i]:
            c &= -(2 << img[x])
        while not c:
            i -= 1
            if i < first:
                return None
            used ^= 1 << img[i]
            c = cands[i]
        low = c & -c
        img[i] = low.bit_length() - 1
        cands[i] = c ^ low
        used |= low
        i += 1
    m = [0] * p
    for i, v in enumerate(order):
        m[v] = img[i]
    return tuple(m)


def interpreted_through_edge(nbr, pattern, edge) -> bool:
    """The through-edge check as it was before its plans were generated into
    one function: the backtracking interpreter, once per through plan."""
    return any(
        interpreted_search_maps(nbr, plan, edge) is not None for plan in pattern.compiled.through
    )


def reference_triple_system(n: int, edges) -> TripleSystem:
    """``TripleSystem(n, edges)`` as it was before it built its table
    through the incidence cube: per edge a sort, three checks and a flip.
    Frozen here as the oracle for the constructor, and the one
    ``reference_parse_hypergraph`` builds its host with."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}, got {n}")
    nbr = [[0] * n for _ in range(n)]
    for e in edges:
        t = tuple(sorted(e))
        if len(t) != 3 or len(set(t)) != 3:
            raise ValueError(f"edge {t} does not have 3 distinct vertices")
        u, v, w = t
        if u < 0 or w >= n:
            if not n:
                raise ValueError(f"edge {t} has a vertex out of range: the host has no vertices")
            raise ValueError(f"edge {t} has a vertex outside 0..{n - 1}")
        if not nbr[u][v] >> w & 1:  # a repeated edge collapses
            flip(nbr, t)
    return TripleSystem._from_masks(nbr)


def reference_serialize_hypergraph(host: TripleSystem) -> str:
    """The host-file writer as it was before it read the pair masks: one
    line per entry of ``host.edges``.  Frozen here as the oracle for
    ``fileio.serialize_hypergraph``."""
    lines = [f"n {host.n}"]
    lines.extend(f"{u} {v} {w}" for u, v, w in host.edges)
    return "\n".join(lines) + "\n"


_EDGE_LINE = re.compile(r"^(\d+) (\d+) (\d+)$")
_HEADER_LINE = re.compile(r"^n (\d+)$")


def reference_parse_hypergraph(text: str) -> TripleSystem:
    """The host-file parser as it was before loading built the pair masks:
    a regex per line, a set of the edges seen, and a host built from the
    edge list by ``reference_triple_system``, so no incidence cube is
    involved.  Frozen here as the oracle for ``fileio.parse_hypergraph``."""
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
            if not n:
                raise ParseError(lineno, f"vertex {t[2]} out of range: the host has no vertices")
            raise ParseError(lineno, f"vertex {t[2]} out of range 0..{n - 1}")
        if t in seen:
            raise ParseError(lineno, f"duplicate edge {line!r}")
        seen.add(t)
        edges.append(t)
    if n is None:
        raise ParseError(1, "missing header 'n <count>'")
    return reference_triple_system(n, edges)
