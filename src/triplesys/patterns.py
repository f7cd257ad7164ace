"""Forbidden-configuration catalog and injective embedding search.

Containment is non-induced: a pattern occurs in a host when every pattern
edge maps to a host edge; extra host edges among the image vertices are
permitted.

Every query runs the search plans a pattern compiles on first use (see
CompiledPattern), each as straight-line code generated from its plans at
compile time.  find_embedding uses the identity vertex order without
breaking the pattern's symmetry, so it returns the lexicographically least
map.  The existence-only queries (is_free and embeds_through_edge) place the
most constrained vertex first and break the pattern's symmetry group Aut(F).
embeds_through_edge takes a bare pair-mask table, so the exact and the local
search run the one through-edge check on the tables they change.

The generated code hoists work out of the inner loops: each pair-mask term of
a later vertex's candidate mask is ANDed into a partial mask as soon as its
last operand is placed, and a branch is abandoned once such a partial is
empty (forward checking).  An earlier vertex is excluded by its own bit only
where no closing pair or symmetry bound of the position already excludes it.
Candidates are scanned in ascending host order and a pruned branch has no
completion, so every query returns the map a plain backtracking search
returns (tests/conftest.py keeps one as the oracle).

find_embedding and is_free also break the host's symmetry (lex-leader
symmetry breaking on the target): a looped pattern vertex may take only the
least unused vertex of each class of twins, vertices whose swap is an
automorphism of the host (TripleSystem.twins).  The least map in plan order
obeys this rule and the Aut(F) bounds, since swapping one of its vertices
with a smaller unused twin, or applying a symmetry the bounds break, would
give a smaller map; so both return what they returned without the rule.
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

    def __reduce__(self):
        # the compiled plans hold a generated function, which cannot be pickled
        return Pattern, (self.name, self.vertex_count, self.edges)


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
    """True iff the map is injective, of ints (no bool or float) in range,
    and carries every pattern edge."""
    m = emb.map
    if len(m) != emb.pattern.vertex_count or len(set(m)) != len(m):
        return False
    if not all(type(v) is int and 0 <= v < emb.host.n for v in m):
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


class CompiledPattern(
    namedtuple("CompiledPattern", "lex exists through through_check")
):
    """Everything the searches need from a pattern, computed once.

    ``lex`` searches vertices in index order without symmetry breaking;
    ``exists`` is the existence-only plan; search_maps runs the function
    generated from either.  ``through`` holds one plan per orbit of Aut(F)
    on the ordered pattern edges (a, b, c); each places a, b, c first, so
    pinning them to an ordered host edge covers every way a copy can use
    that edge.  ``through_check(nbr, edge)`` runs those plans, in order, as
    one generated function.  _search_source writes all three functions.
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
    through = tuple(_plan(pattern, incident, group, r) for r in reps)
    lex = _plan(pattern, incident, (), tuple(range(p)))
    exists = _plan(pattern, incident, group, ())
    for kind, plan in (("lex", lex), ("exists", exists)):
        _SEARCHES[plan] = _generate(_search_source((plan,), 0), "search", f"{kind} {pattern.name}")
    return CompiledPattern(
        lex=lex,
        exists=exists,
        through=through,
        through_check=_generate(_search_source(through, 3), "through_check", pattern.name),
    )


def _generate(source: str, name: str, label: str):
    namespace: dict = {}
    exec(compile(source, f"<{name} {label}>", "exec"), namespace)
    return namespace[name]


def _search_source(plans, pins: int) -> str:
    """Source of one function that runs the plans in turn, unrolled.

    With ``pins`` = 3 it is ``through_check(nbr, edge)``, which pins each
    plan's first three positions to ``edge`` and returns True or False.
    Those positions take an ordered pattern edge, and no other pattern edge
    lies inside it, so the one pair they close is (x0, x1) at x2 in every
    plan: the function tests that ``edge`` is in ``nbr`` once, before the
    first plan.  With no pins it is ``search(nbr, a0, nxt)``, which returns
    the first map found, or None; ``(a0, nxt)`` is the host's twin pair
    (TripleSystem.twins).  Every other position is a loop over its
    candidates in ascending host order, except the last: one mask test.

    A position's candidate mask is ANDed together while the earlier
    positions are placed, each term right after the last position it reads,
    into a partial mask that starts with its first pair-mask term (or with
    ``full``, one position ahead).  A loop moves on to its next candidate as
    soon as a later partial is empty: that branch has no completion.  An
    earlier vertex is excluded by its own bit, ``~b{k}``, only when no
    closing pair or ``above`` bound already excludes it (a pair's mask never
    holds the pair).

    In ``search`` the loops keep a running mask of the least unused member
    of each twin class, ``a{j+1} = a{j} ^ b{j} | nxt[x{j}]``, and AND it
    into each looped position's candidates in place of the ``~b{k}``
    exclusions; the last position keeps them.  The least map in plan order
    takes the least unused member of its class at every position, since
    swapping it with a smaller unused twin would give a smaller map, so the
    search returns the map it returns without twins.
    """
    if pins:
        lines = [
            "def through_check(nbr, edge):",
            " x0, x1, x2 = edge",
            " b0, b1, b2 = 1 << x0, 1 << x1, 1 << x2",
            " if not nbr[x0][x1] >> x2 & 1: return False",
        ]
    else:
        lines = ["def search(nbr, a0, nxt):"]
    head, full = len(lines), False
    for order, closing, above in plans:
        p = len(order)
        steps: dict[int, list] = {}  # depth d: (position, terms) once position d is bound
        for j in range(pins, p):
            terms = [(max(pair), f"nbr[x{pair[0]}][x{pair[1]}]") for pair in closing[j]]
            looped = not pins and j < p - 1
            if looped:
                terms.append((j - 1, f"a{j}"))
            elif not terms:
                terms, full = [(j - 1, "full")], True
            start = max(min(d for d, _ in terms), pins - 1)
            terms += [(a, f"-(2 << x{a})") for a in above[j]]
            if not looped:  # a{j} holds no earlier vertex
                excluded = {k for pair in closing[j] for k in pair}.union(above[j])
                terms += [(k, f"~b{k}") for k in range(j) if k not in excluded]
            for d in range(start, j):
                got = [t for e, t in terms if max(e, start) == d]
                if got:
                    steps.setdefault(d, []).append((j, got))
        pad = " "
        last = f"(c{p - 1} & -c{p - 1}).bit_length() - 1"
        images = (f"x{i}" if i < p - 1 else last for i in map(order.index, range(p)))
        found = "True" if pins else "(" + "".join(f"{x}, " for x in images) + ")"
        if p == pins:
            lines.append(f"{pad}return {found}")
        partial: dict[int, str] = {}
        for d in range(pins - 1, p - 1):
            if d >= pins:
                lines += [
                    f"{pad}while c{d}:",
                    f"{pad} b{d} = c{d} & -c{d}",
                    f"{pad} c{d} ^= b{d}",
                    f"{pad} x{d} = b{d}.bit_length() - 1",
                ]
                pad += " "
                if not pins and d < p - 2:
                    lines.append(f"{pad}a{d + 1} = a{d} ^ b{d} | nxt[x{d}]")
            for j, got in steps.get(d, ()):
                mask = " & ".join(([partial[j]] if j in partial else []) + got)
                if j > d + 1:
                    partial[j] = f"m{j}_{d}"
                    lines.append(f"{pad}{partial[j]} = {mask}")
                    if d >= pins:  # inside a loop
                        lines.append(f"{pad}if not {partial[j]}: continue")
                elif j < p - 1:
                    lines.append(f"{pad}c{j} = {mask}")
                else:
                    lines.append(f"{pad}if c{j} := {mask}: return {found}")
    if full:
        lines.insert(head, " full = (1 << len(nbr)) - 1")
    lines.append(" return " + ("False" if pins else "None"))
    return "\n".join(lines) + "\n"


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
    gets no bounds and only the symmetries fixing it are broken.
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


# The search generated from each compiled lex and exists plan.  It depends on
# the plan alone, so equal plans of two patterns may share it.
_SEARCHES: dict = {}


def search_maps(nbr, plan: SearchPlan, twins) -> tuple[int, ...] | None:
    """The first map, indexed by pattern vertex, that the search generated
    from a compiled ``lex`` or ``exists`` plan finds in the pair-mask table
    ``nbr``, or None.  Candidates are scanned in ascending host order, so
    the ``lex`` plan gives the least map.

    ``twins`` is the table's twin pair (TripleSystem.twins), and each
    looped position takes only the least unused vertex of a twin class.
    That leaves the answer unchanged, since a smaller unused twin of a
    vertex of the least map would give a smaller map.  A table that is no
    host's is searched with ``((1 << n) - 1, (0,) * n)``, every vertex in a
    class of its own."""
    return _SEARCHES[plan](nbr, *twins)


def find_embedding(host: TripleSystem, pattern: Pattern) -> Embedding | None:
    """Lexicographically least embedding of the pattern, or None.

    Searches pattern vertices in index order without breaking the
    pattern's symmetry; candidates for each vertex are the intersection of
    the pair neighborhoods of every pattern edge it completes, scanned in
    ascending host order, one unused vertex per class of the host's twins.
    The returned map is therefore the minimum under tuple order, which
    makes certificates reproducible.
    """
    m = search_maps(host.pair_masks, pattern.compiled.lex, host.twins)
    return None if m is None else Embedding(pattern, host, m)


def embeds_through_edge(nbr, pattern: Pattern, edge) -> bool:
    """True iff some embedding into the pair-mask table ``nbr``, on
    n = len(nbr) vertices, maps a pattern edge onto ``edge``.

    The incremental check behind single-edge moves: after toggling one edge
    on, any new pattern copy must pass through it.  Runs one pinned search
    per orbit of ordered pattern edges, which covers every (pattern edge,
    vertex permutation) pin, in the function CompiledPattern.through_check
    generated from those plans.
    """
    return pattern.compiled.through_check(nbr, edge)


def is_free(host: TripleSystem, pattern: Pattern) -> bool:
    """True iff the host contains no copy of the pattern."""
    return search_maps(host.pair_masks, pattern.compiled.exists, host.twins) is None
