"""3-uniform hypergraphs ("triple systems") and pair co-degree machinery.

Vertices are dense 0-indexed integers.  The vertex count is capped at 64 so
that every vertex set fits in one machine word: all neighborhood queries are
single-int bitmask operations, which keeps the set intersections used
throughout the witness extractors O(1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import PreconditionViolated

MAX_VERTICES = 64

Edge = tuple[int, int, int]


def mask_vertices(mask: int) -> tuple[int, ...]:
    """Ascending vertex indices of a set represented as a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class TripleSystem:
    """An immutable n-vertex 3-uniform hypergraph.

    Edges are stored both as a lexicographically sorted tuple (deterministic
    iteration) and as per-pair neighborhood bitmasks (fast co-degree and
    intersection queries).
    """

    __slots__ = ("n", "edges", "_nbr")

    def __init__(self, n: int, edges=()):
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}, got {n}")
        norm: set[Edge] = set()
        for e in edges:
            t = tuple(sorted(e))
            if len(t) != 3 or len(set(t)) != 3:
                raise ValueError(f"edge {t} does not have 3 distinct vertices")
            if not all(0 <= v < n for v in t):
                raise ValueError(f"edge {t} has a vertex outside 0..{n - 1}")
            norm.add(t)  # set semantics: a repeated edge collapses
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        nbr = [[0] * n for _ in range(n)]
        for u, v, w in self.edges:
            nbr[u][v] |= 1 << w
            nbr[v][u] |= 1 << w
            nbr[u][w] |= 1 << v
            nbr[w][u] |= 1 << v
            nbr[v][w] |= 1 << u
            nbr[w][v] |= 1 << u
        object.__setattr__(self, "_nbr", nbr)

    def __setattr__(self, name, value):
        raise AttributeError("TripleSystem is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TripleSystem):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"TripleSystem(n={self.n}, edges={len(self.edges)})"

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int, w: int) -> bool:
        return bool(self._nbr[u][v] >> w & 1)

    @property
    def pair_masks(self) -> list[list[int]]:
        """The table behind neighborhood_mask: ``pair_masks[u][v]`` for u != v.

        Shared with the host, so callers must not modify it.
        """
        return self._nbr

    def neighborhood_mask(self, u: int, v: int) -> int:
        """Bitmask of vertices w such that {u, v, w} is an edge; 0 if u == v."""
        if u == v:
            return 0
        return self._nbr[u][v]

    def neighborhood(self, u: int, v: int) -> tuple[int, ...]:
        return mask_vertices(self.neighborhood_mask(u, v))

    def codegree(self, u: int, v: int) -> int:
        return self.neighborhood_mask(u, v).bit_count()

    def relabel(self, perm) -> "TripleSystem":
        """Apply a vertex permutation (perm[old] = new)."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation of the vertex set")
        return TripleSystem(self.n, ((perm[u], perm[v], perm[w]) for u, v, w in self.edges))


class HostState:
    """A mutable copy of a host's pair masks, with a co-degree histogram.

    ``pair_masks`` has the layout of ``TripleSystem.pair_masks``, so the
    pattern searches run on it directly; ``hist[c]`` is the number of
    pairs with co-degree c.  ``toggle`` flips one triple in O(1), which
    lets a search try a move and take it back without rebuilding a host.
    """

    __slots__ = ("pair_masks", "hist")

    def __init__(self, host: TripleSystem):
        n = host.n
        self.pair_masks = [row[:] for row in host.pair_masks]
        hist = [0] * max(n - 1, 1)
        for u in range(n):
            row = self.pair_masks[u]
            for v in range(u + 1, n):
                hist[row[v].bit_count()] += 1
        self.hist = hist

    def toggle(self, edge) -> None:
        """Add the triple if absent, remove it if present."""
        u, v, w = edge
        nbr, hist = self.pair_masks, self.hist
        ru, rv, rw = nbr[u], nbr[v], nbr[w]
        # One block per pair, not a loop over the three: this runs at every
        # edge-phase node of the decision search, where a loop was measurably
        # slower.  The co-degree of all three pairs moves by the same d.
        m = ru[v]
        d = -1 if m >> w & 1 else 1
        c = m.bit_count()
        hist[c] -= 1
        hist[c + d] += 1
        ru[v] = rv[u] = m ^ (1 << w)
        m = ru[w]
        c = m.bit_count()
        hist[c] -= 1
        hist[c + d] += 1
        ru[w] = rw[u] = m ^ (1 << v)
        m = rv[w]
        c = m.bit_count()
        hist[c] -= 1
        hist[c + d] += 1
        rv[w] = rw[v] = m ^ (1 << u)

    def score(self) -> tuple[int, int]:
        """(min positive co-degree, -number of pairs attaining it); (0, 0) if edgeless."""
        hist = self.hist
        for c in range(1, len(hist)):
            if hist[c]:
                return (c, -hist[c])
        return (0, 0)


def complete_triple_system(n: int) -> TripleSystem:
    """All C(n, 3) triples on n vertices."""
    return TripleSystem(n, itertools.combinations(range(n), 3))


@dataclass(frozen=True)
class CodegreeTable:
    """The support pairs of a host (co-degree > 0), plus the derived invariants.

    ``min_positive_codegree`` is None exactly when the host has no edges:
    the quantity is only defined for hosts with at least one support pair.
    """

    host: TripleSystem
    min_positive_codegree: int | None
    support_pairs: frozenset[tuple[int, int]]


def build_codegree_table(host: TripleSystem) -> CodegreeTable:
    support: set[tuple[int, int]] = set()
    best: int | None = None
    for u in range(host.n):
        for v in range(u + 1, host.n):
            c = host.codegree(u, v)
            if c:
                support.add((u, v))
                if best is None or c < best:
                    best = c
    return CodegreeTable(host, best, frozenset(support))


def min_positive_codegree(host: TripleSystem) -> int | None:
    """Minimum co-degree over pairs with nonzero co-degree; None if edgeless."""
    best: int | None = None
    for u in range(host.n):
        row = host._nbr[u]
        for v in range(u + 1, host.n):
            c = row[v].bit_count()
            if c and (best is None or c < best):
                best = c
    return best


def min_codegree(host: TripleSystem) -> int:
    """Minimum co-degree over all pairs (the non-positive variant)."""
    if host.n < 2:
        return 0
    return min(
        host._nbr[u][v].bit_count()
        for u in range(host.n)
        for v in range(u + 1, host.n)
    )


@dataclass(frozen=True)
class PartitionSpec:
    """An ordered vertex partition."""

    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for part in self.parts:
            for v in part:
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two parts")
                seen.add(v)
        if seen != set(range(len(seen))):
            raise ValueError("parts must cover a dense 0-indexed vertex set")

    @property
    def n(self) -> int:
        return sum(len(p) for p in self.parts)

    def is_balanced(self) -> bool:
        sizes = [len(p) for p in self.parts]
        return max(sizes) - min(sizes) <= 1


def construct_complete_k_partite(n: int, k: int) -> tuple[TripleSystem, PartitionSpec]:
    """Complete balanced k-partite triple system on n vertices.

    Parts have sizes ceil(n/k) or floor(n/k), larger parts first, with
    vertices assigned in increasing index order; the edges are exactly the
    triples meeting three distinct parts.  The assignment is deterministic
    so fixtures built from it are byte-stable.
    """
    if k < 3:
        raise PreconditionViolated(f"need at least 3 parts, got k={k}")
    if n < k:
        raise PreconditionViolated(f"need n >= k, got n={n}, k={k}")
    big = n % k
    sizes = [n // k + 1] * big + [n // k] * (k - big)
    parts: list[tuple[int, ...]] = []
    start = 0
    for s in sizes:
        parts.append(tuple(range(start, start + s)))
        start += s
    part_of = [0] * n
    for i, part in enumerate(parts):
        for v in part:
            part_of[v] = i
    edges = [
        (u, v, w)
        for u, v, w in itertools.combinations(range(n), 3)
        if part_of[u] != part_of[v] and part_of[v] != part_of[w] and part_of[u] != part_of[w]
    ]
    return TripleSystem(n, edges), PartitionSpec(tuple(parts))


#: Families whose extremal value is known in closed form.
KNOWN_FAMILIES = ("c5minus", "c5", "k4minus")


def known_extremal_value(n: int, family: str) -> int:
    """Known exact value of the positive co-degree extremal function.

    For the tight-cycle-with-deleted-edge family and for the four-triple
    configuration with one missing edge the value is floor(n/3); for the
    tight 5-cycle it is 2k for n in {4k, 4k+1, 4k+2} and 2k+1 for n = 4k+3.
    Only defined for n >= 6.
    """
    fam = family.lower()
    if fam not in KNOWN_FAMILIES:
        raise ValueError(f"no known closed form for pattern {family!r}")
    if n < 6:
        raise PreconditionViolated(f"closed forms require n >= 6, got n={n}")
    if fam in ("c5minus", "k4minus"):
        return n // 3
    q, r = divmod(n, 4)
    return 2 * q + (1 if r == 3 else 0)
