"""Witness extraction for hosts above the extremal co-degree thresholds.

Each extractor replays a constructive case analysis step by step: starting
from a 4-vertex anchor configuration it scans pair neighborhoods for the
vertex the counting argument promises, and assembles the forbidden
configuration named by the matching case.  In the boundary regime where the
minimum positive co-degree equals exactly n/2, the analysis either surfaces
a tight 5-cycle or produces a structure certificate (an A/B partition of
the vertex set with an involutive pairing of equivalence classes) whose
arithmetic forces n to be divisible by 4.

Every existential scan picks the least-index qualifying vertex and anchor
searches use the lexicographic embedding order, so certificates are
reproducible run to run.  InternalContradiction marks states that only the
underlying mathematics proves unreachable; it firing on a valid input would
falsify the theory, so it carries the complete local state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import TripleSystem, _codegree_text, mask_vertices, min_positive_codegree
from .errors import InternalContradiction, PreconditionViolated
from .patterns import C5, C5MINUS, K4, K4MINUS, Embedding, find_embedding, validate_embedding

#: Index pairs of a 4-vertex base, lexicographic.
IDX_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

#: The six base pairs grouped into the three complementary pairings.
PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))

FACT_NAMES = {
    1: "pair-codegrees-half",
    2: "pairing-complement",
    3: "cross-pair-neighborhoods",
    4: "balanced-difference",
    5: "apex-neighborhood-exclusion",
    6: "size-arithmetic",
    7: "empty-pair-characterization",
    8: "partner-in-b",
    9: "inherited-nonempty",
    10: "equivalence-classes",
}


class _FoundC5(Exception):
    """Internal control flow: a tight 5-cycle surfaced inside the machinery."""

    def __init__(self, map5):
        super().__init__("found C5")
        self.map5 = tuple(map5)


@dataclass(frozen=True)
class StructureCertificate:
    """A/B partition data around a base K4 that forces 4 | n.

    a_sets[i] and b_sets[i] are indexed by base position: a_sets[i] is the
    triple intersection of the pair neighborhoods avoiding base[i], and
    b_sets[i] the triple intersection of those through base[i].  classes
    partitions the unique nonempty B-set by the empty-pair relation, and
    pairing is a fixed-point-free involution on class indices matching
    classes of equal size, so the nonempty B-set has even size and
    n = 4q + 2*r0 is divisible by 4.
    """

    host: TripleSystem
    base: tuple[int, int, int, int]
    a_sets: tuple[frozenset[int], frozenset[int], frozenset[int], frozenset[int]]
    b_sets: tuple[frozenset[int], frozenset[int], frozenset[int], frozenset[int]]
    q: int
    r0: int
    classes: tuple[frozenset[int], ...]
    pairing: tuple[tuple[int, int], ...]

    def verify(self) -> bool:
        """Re-check every invariant from scratch; True iff all hold.  A base
        other than four distinct int host vertices spanning a K4, A-cells,
        B-cells, classes or a pairing of None, other than four A- and four
        B-cells, a q, r0, cell member or class member other than an int, a
        class other than a frozenset, or a pairing entry other than a tuple
        of two int class indices gives False, not an error: a float or a
        bool equal to the right int is refused too.  Not checked,
        as cells equal to a K4 base's imply them: each base vertex is in its
        own A-cell, and a nonempty B-cell has r0 > 0."""
        host, base = self.host, self.base
        n = host.n
        if any(s is None for s in (self.a_sets, self.b_sets, self.classes, self.pairing)):
            return False
        nm = _k4_matrix(host, base)
        if nm is None or len(self.a_sets) != 4 or len(self.b_sets) != 4:
            return False
        if type(self.q) is not int or type(self.r0) is not int:
            return False
        cells = list(self.a_sets) + list(self.b_sets)
        if sum(len(c) for c in cells) != n or any(type(v) is not int for c in cells for v in c):
            return False
        if set().union(*cells) != set(range(n)):
            return False
        amask, bmask = _ab_cells(nm)
        for i in range(4):
            if self.a_sets[i] != frozenset(mask_vertices(amask[i])):
                return False
            if self.b_sets[i] != frozenset(mask_vertices(bmask[i])):
                return False
        nonempty = [i for i in range(4) if self.b_sets[i]]
        if len(nonempty) > 1:
            return False
        if not nonempty:
            if self.r0 != 0 or self.classes or self.pairing:
                return False
            if any(len(a) != self.q for a in self.a_sets):
                return False
        else:
            i = nonempty[0]
            if self.r0 != len(self.b_sets[i]):
                return False
            if any(len(self.a_sets[j]) != self.q for j in range(4) if j != i):
                return False
            if len(self.a_sets[i]) != self.q + self.r0:
                return False
            covered: set[int] = set()
            for cls in self.classes:
                if not isinstance(cls, frozenset) or not cls or covered & cls:
                    return False
                if any(type(v) is not int for v in cls):
                    return False
                covered |= cls
            if covered != self.b_sets[i]:
                return False
            # class semantics: empty pair neighborhoods inside, nonempty across
            nbr = host.pair_masks
            for ci, cls in enumerate(self.classes):
                for a in cls:
                    for b in cls:
                        if a < b and nbr[a][b]:
                            return False
                    for cj in range(ci + 1, len(self.classes)):
                        for b in self.classes[cj]:
                            if not nbr[a][b]:
                                return False
            seen: set[int] = set()
            indices = range(len(self.classes))
            for entry in self.pairing:
                if not (isinstance(entry, tuple) and len(entry) == 2):
                    return False
                x, y = entry
                if type(x) is not int or type(y) is not int or x == y or seen & {x, y}:
                    return False
                if x not in indices or y not in indices or len(self.classes[x]) != len(self.classes[y]):
                    return False
                seen |= {x, y}
            if seen != set(indices):
                return False
        if n != 4 * self.q + 2 * self.r0:
            return False
        return self.r0 % 2 == 0 and n % 4 == 0


def _neighbor_matrix(host: TripleSystem, base):
    """The 4x4 matrix of base-pair neighborhoods; the diagonal is 0, as in
    every pair-mask table."""
    nbr = host.pair_masks
    return [[nbr[u][v] for v in base] for u in base]


def _ab_cells(nm) -> tuple[list[int], list[int]]:
    """A- and B-cells of a base from its 4x4 neighbor matrix, by base position.

    amask[i] is the triple intersection of the three pair neighborhoods
    avoiding base position i, bmask[i] that of the three through it.
    """
    amask = []
    bmask = []
    for i in range(4):
        j, k, l = (x for x in range(4) if x != i)
        amask.append(nm[j][k] & nm[k][l] & nm[l][j])
        bmask.append(nm[i][j] & nm[i][k] & nm[i][l])
    return amask, bmask


def _k4_matrix(host: TripleSystem, base):
    """The base's neighbor matrix, or None unless ``base`` is four distinct int
    host vertices spanning a K4: {b_i, b_j, b_k} is an edge iff b_k is in N(b_i, b_j)."""
    if len(base) != 4 or len(set(base)) != 4:
        return None
    if not all(type(v) is int and 0 <= v < host.n for v in base):
        return None
    nm = _neighbor_matrix(host, base)
    k4 = nm[0][1] >> base[2] & nm[0][1] >> base[3] & nm[2][3] >> base[0] & nm[2][3] >> base[1]
    return nm if k4 & 1 else None


def _outside(n: int, base) -> int:
    """Mask of the vertices 0..n-1 that are not in ``base``."""
    m = (1 << n) - 1
    for v in base:
        m &= ~(1 << v)
    return m


def _fifth_vertex(n: int, base, nm, h: int, pairs=IDX_PAIRS) -> int | None:
    """The least vertex outside the base in at least h of the neighborhoods of
    ``pairs`` (base positions, all six by default), or None: every extractor's scan."""
    for v5 in mask_vertices(_outside(n, base)):
        if sum(nm[i][j] >> v5 & 1 for i, j in pairs) >= h:
            return v5
    return None


def _c5_from_quad(base, nm, v5) -> tuple[int, int, int, int, int] | None:
    """C5 through a K4 base and a vertex lying in both sets of a pairing.

    Requires v5 to also lie in one of the four crossing sets; scans pairings
    and crossings in fixed order, so the result is deterministic.
    """
    for (a, b), (c, d) in PAIRINGS:
        if nm[a][b] >> v5 & 1 and nm[c][d] >> v5 & 1:
            for x, y in ((a, c), (a, d), (b, c), (b, d)):
                if nm[x][y] >> v5 & 1:
                    px = a + b - x
                    py = c + d - y
                    return (base[px], base[x], v5, base[y], base[py])
    return None


def _first_quad_c5(n: int, base, nm) -> tuple[int, int, int, int, int] | None:
    """The first _c5_from_quad map over the vertices outside a K4 base, by
    increasing vertex, or None.  On a K4 base every such map is a tight
    5-cycle: two of its edges are base triples, the other three hold v5."""
    for v5 in mask_vertices(_outside(n, base)):
        m5 = _c5_from_quad(base, nm, v5)
        if m5 is not None:
            return m5
    return None


def _set_state(base, nm) -> dict:
    return {
        "base": tuple(base),
        "neighborhoods": {
            (base[i], base[j]): mask_vertices(nm[i][j]) for i, j in IDX_PAIRS
        },
    }


def _k4minus_base(host: TripleSystem) -> tuple[int, int, int, int]:
    """Anchor base (apex first) from the least embedding of the 3-of-4 configuration.

    Pattern vertex 2 is the one covered by all three pattern edges, so it
    maps to the apex; the possibly-missing edge is the other three vertices.
    """
    emb = find_embedding(host, K4MINUS)
    if emb is None:
        raise InternalContradiction(
            "no K4-minus found although the co-degree threshold guarantees one",
            {"n": host.n, "min_positive_codegree": min_positive_codegree(host)},
        )
    apex = emb.map[2]
    rest = sorted((emb.map[0], emb.map[1], emb.map[3]))
    return (apex, rest[0], rest[1], rest[2])


def _codegree_above(host: TripleSystem, divisor: int) -> int:
    """The extractors' gate: n >= 6 and a min positive co-degree above n/divisor."""
    n = host.n
    if n < 6:
        raise PreconditionViolated(f"need n >= 6, got n={n}")
    delta = min_positive_codegree(host)
    threshold = n // divisor + 1
    if delta is None or delta < threshold:
        raise PreconditionViolated(
            f"need min positive co-degree >= {threshold} (strictly above n/{divisor}),"
            f" got {_codegree_text(delta)}"
        )
    return delta


def find_c5minus_witness(host: TripleSystem) -> Embedding:
    """Locate a tight 5-cycle minus one edge in a host with co-degree above n/3.

    Follows the two-case analysis: anchor a 3-of-4 configuration
    v1v2v3, v1v2v4, v1v3v4; if v2v3v4 is absent, scan for a fifth vertex in
    two of N(v2,v1), N(v2,v3), N(v2,v4); otherwise take the least fifth
    vertex in two of the six pair neighborhoods of the resulting K4 and
    dispatch on whether the first two pairs holding it overlap.
    """
    delta = _codegree_above(host, 3)
    base = _k4minus_base(host)
    nm = _neighbor_matrix(host, base)
    if not host.has_edge(base[1], base[2], base[3]):
        # Case 1: pivot v2 = base[1]; the three sets through it.
        pivot = ((1, 0), (1, 2), (1, 3))
        v5 = _fifth_vertex(host.n, base, nm, 2, pivot)
        if v5 is None:
            raise InternalContradiction(
                "no fifth vertex in two of the pivot neighborhoods",
                {"base": base, "sets": [mask_vertices(nm[i][j]) for i, j in pivot], "delta": delta},
            )
        in0, in2, in3 = (nm[i][j] >> v5 & 1 for i, j in pivot)
        if in0 and in2:
            m = (base[2], base[3], base[0], base[1], v5)
        elif in0 and in3:
            m = (base[3], base[2], base[0], base[1], v5)
        else:
            m = (base[3], base[0], base[2], base[1], v5)
        return _validated(host, C5MINUS, m)
    # Case 2: the anchor is a full K4.
    v5 = _fifth_vertex(host.n, base, nm, 2)
    if v5 is None:
        # the reduced neighborhoods: the base-pair neighborhoods less the base
        outside = _outside(host.n, base)
        reduced = {(i, j): mask_vertices(nm[i][j] & outside) for i, j in IDX_PAIRS}
        raise InternalContradiction(
            "no fifth vertex in two of the reduced neighborhoods",
            {"base": base, "reduced": reduced, "delta": delta},
        )
    p1, p2 = [(i, j) for i, j in IDX_PAIRS if nm[i][j] >> v5 & 1][:2]
    common = set(p1) & set(p2)
    if common:
        c = common.pop()
        o1 = p1[0] + p1[1] - c
        o2 = p2[0] + p2[1] - c
        rem = 6 - c - o1 - o2
        m = (base[o2], base[rem], base[o1], base[c], v5)
    else:
        m = (v5, base[p1[0]], base[p1[1]], base[p2[0]], base[p2[1]])
    return _validated(host, C5MINUS, m)


def _validated(host: TripleSystem, pattern, map_tuple) -> Embedding:
    emb = Embedding(pattern, host, tuple(map_tuple))
    if not validate_embedding(emb):
        raise InternalContradiction(
            "extracted embedding failed validation",
            {"pattern": pattern.name, "map": tuple(map_tuple)},
        )
    return emb


def _extract_c5_k4free(host: TripleSystem) -> tuple[int, ...]:
    """Tight 5-cycle in a K4-free host with co-degree at least n/2.

    Anchors a 3-of-4 configuration, takes the least fifth vertex in four of
    the six base-pair neighborhoods, and branches on how many of the three
    apex neighborhoods contain it: one or two.  The comments say why no other
    state occurs once a caller has found no K4, as both do; a wrong map would
    still fail their _validated.  Four hits then fix the cycle's memberships.
    """
    base = _k4minus_base(host)
    nm = _neighbor_matrix(host, base)
    v5 = _fifth_vertex(host.n, base, nm, 4)
    if v5 is None:
        raise InternalContradiction(
            "no fifth vertex in four of the six base neighborhoods",
            {"base": base, **_set_state(base, nm)},
        )
    # At least one hit: only three of the six pairs avoid the apex.  Not three:
    # the fourth hit N(v_x, v_y) would make {v_0, v_x, v_y, v5} a K4.
    apex_hits = [t for t in (1, 2, 3) if nm[0][t] >> v5 & 1]
    if len(apex_hits) == 2:
        x, y = apex_hits
        z = 6 - x - y
        # not N(v_x, v_y), which would close the K4 {v_0, v_x, v_y, v5}; so
        # the other two hits are N(v_x, v_z) and N(v_y, v_z)
        return (base[z], v5, base[y], base[0], base[x])
    # the other three hits are the three pairs that avoid the apex
    x = apex_hits[0]
    y, z = sorted(t for t in (1, 2, 3) if t != x)
    return (base[0], base[x], v5, base[z], base[y])


def find_c5_witness(host: TripleSystem) -> Embedding:
    """Locate a tight 5-cycle in a host with co-degree strictly above n/2.

    If the host is K4-free, runs the apex-count branch analysis on a 3-of-4
    anchor; otherwise takes the least fifth vertex in four of the six pair
    neighborhoods of a K4 and closes the cycle through the first pairing
    that contains it twice.  No K4-free host passes the gate at n <= 8:
    co+ex(n, K4) is 2, 3 and 3 at n = 6, 7 and 8, so the K4-free branch
    needs n >= 9.
    """
    delta = _codegree_above(host, 2)
    k4 = find_embedding(host, K4)
    if k4 is None:
        return _validated(host, C5, _extract_c5_k4free(host))
    base = k4.map
    nm = _neighbor_matrix(host, base)
    v5 = _fifth_vertex(host.n, base, nm, 4)
    if v5 is None:
        raise InternalContradiction(
            "no fifth vertex in four of the six base neighborhoods",
            {"base": base, "delta": delta, **_set_state(base, nm)},
        )
    # four hits over three pairings fill one pairing and cross it twice
    return _validated(host, C5, _c5_from_quad(base, nm, v5))


# ---------------------------------------------------------------------------
# Boundary regime: minimum positive co-degree exactly n/2
# ---------------------------------------------------------------------------


@dataclass
class _Ctx:
    """A base K4 whose six neighborhoods passed the half-degree fact checks."""

    base: tuple[int, int, int, int]
    nm: list  # 4x4 symmetric neighborhood masks
    amask: list  # per base position: triple intersection avoiding it
    bmask: list  # per base position: triple intersection through it
    qdiff: int  # the common value |A_i| - |B_i|

    @property
    def nonempty(self) -> list[int]:
        return [i for i in range(4) if self.bmask[i]]


class _HalfDegreeAnalyzer:
    """Shared machinery for hosts with minimum positive co-degree exactly n/2.

    Every public step either completes its literal verification, raises
    _FoundC5 with an explicit tight 5-cycle, or raises InternalContradiction
    from a state that only the theory rules out.  No raise guards a state that
    the checks just made exclude, or one after a call that always raises; a
    call that always raises carries a "raises:" comment saying why.  In
    particular, a context from make_ctx has complementary pairings, so
    aaa_equal cannot establish an equality that would put a vertex in both
    sets of a pairing.
    """

    def __init__(self, host: TripleSystem, on_fact: Callable[[str], None] | None = None):
        self.host = host
        self.n = host.n
        self.full = (1 << host.n) - 1
        self._on_fact = on_fact

    def fact(self, fact_id: int) -> None:
        if self._on_fact is not None:
            self._on_fact(FACT_NAMES[fact_id])

    def analyzed_nm(self, base):
        """Verify the six neighborhoods of a K4 base, hunting for a C5 first.

        Confirms that every pair neighborhood has size exactly n/2 and that
        the three pairings are complementary; any vertex lying in both sets
        of a pairing yields a C5 instead.
        """
        n = self.n
        nm = _k4_matrix(self.host, base)
        if nm is None:
            raise InternalContradiction("base is not a K4", {"base": tuple(base)})
        m5 = _first_quad_c5(n, base, nm)
        if m5 is not None:
            raise _FoundC5(m5)
        for i, j in IDX_PAIRS:
            if nm[i][j].bit_count() * 2 != n:
                raise InternalContradiction(
                    "base pair with co-degree different from n/2 and no doubled vertex",
                    {"pair": (base[i], base[j]), **_set_state(base, nm)},
                )
        for (a, b), (c, d) in PAIRINGS:
            if nm[a][b] ^ nm[c][d] != self.full:
                raise InternalContradiction(
                    "pairing is not complementary despite exact sizes",
                    _set_state(base, nm),
                )
        self.fact(1)
        self.fact(2)
        return nm

    def make_ctx(self, base) -> _Ctx:
        base = tuple(base)
        nm = self.analyzed_nm(base)
        amask, bmask = _ab_cells(nm)
        # N(v_i, v_j) is the union of A_k, A_l, B_i and B_j, so the exact
        # sizes analyzed_nm verified give every position the same difference
        self.fact(4)
        return _Ctx(base, nm, amask, bmask, amask[0].bit_count() - bmask[0].bit_count())

    def aaa_equal(self, ctx: _Ctx, a: int, i: int, b: int, j: int) -> None:
        """Verify N(a,b) == N(vi,vj) for a in the i-th and b in the j-th A-cell.

        Walks through the two derived K4 bases; each is re-analyzed, so any
        failure surfaces a C5.  Returning normally means the equality was
        established literally.
        """
        nbr, ctx_nm = self.host.pair_masks, ctx.nm
        k, l = (x for x in range(4) if x not in (i, j))
        vj, vk, vl = ctx.base[j], ctx.base[k], ctx.base[l]
        state = {"a": a, "b": b, "i": i, "j": j, "base": ctx.base}
        # a and b are A-cell members at every call site, so that is not re-checked
        self.analyzed_nm((a, vj, vk, vl))
        if nbr[a][vk] != ctx_nm[i][k] or nbr[a][vl] != ctx_nm[i][l]:
            raise InternalContradiction(
                "substituted base vertex has different neighborhoods", state
            )
        if not (nbr[a][vk] >> b & 1 and nbr[a][vl] >> b & 1 and ctx_nm[k][l] >> b & 1):
            raise InternalContradiction("second A-cell member lost its memberships", state)
        self.analyzed_nm((a, b, vk, vl))
        if nbr[a][b] != ctx_nm[i][j]:
            raise InternalContradiction(
                "cross-pair neighborhood differs although both derived bases verified", state
            )

    def exclusion_sweep(self, ctx: _Ctx) -> None:
        """Apex exclusion for every B-cell, in position order.

        For each member a of a B-cell and each other base vertex, the
        pair neighborhood N(a, v_jj) must miss every cell at a third
        position: a hit in a B-cell is a C5, and a hit in an A-cell becomes
        a C5 or an impossible state once the cross-pair equality is re-derived.
        Returning normally means the exclusion holds literally.
        """
        self.fact(5)
        nbr = self.host.pair_masks
        for i in range(4):
            for a in mask_vertices(ctx.bmask[i]):
                for jj in range(4):
                    if jj == i:
                        continue
                    nav = nbr[a][ctx.base[jj]]
                    for kk in range(4):
                        if kk in (i, jj):
                            continue
                        hit_b = nav & ctx.bmask[kk]
                        if hit_b:
                            b = (hit_b & -hit_b).bit_length() - 1
                            raise _FoundC5((a, ctx.base[i], ctx.base[kk], b, ctx.base[jj]))
                        for w in mask_vertices(nav & ctx.amask[kk]):
                            # raises: a is in N(w, v_jj), so N(w, v_jj) = N(v_kk, v_jj) would
                            # put a in both sets of a pairing analyzed_nm found complementary
                            self.aaa_equal(ctx, w, kk, ctx.base[jj], jj)

    def two_nonempty_hunt(self, ctx: _Ctx):
        """At least two nonempty B-cells: a C5 must surface; never returns."""
        self.exclusion_sweep(ctx)
        raise InternalContradiction(
            "two nonempty B-cells but every exclusion check passed",
            {
                "base": ctx.base,
                "B": [mask_vertices(m) for m in ctx.bmask],
                "A": [mask_vertices(m) for m in ctx.amask],
                "n": self.n,
            },
        )

    def ensure_pair_empty(self, ctx: _Ctx, a: int, b: int, jpos: int) -> None:
        """Members of one A-cell (of a unique-nonempty-B base) span no edge."""
        m = self.host.pair_masks[a][b]
        if m == 0:
            return
        for mm in range(4):
            if mm == jpos:
                continue
            for w in mask_vertices(m & ctx.amask[mm]):
                # raises: a is in N(w, b), so N(w, b) = N(v_mm, v_jpos) would put
                # a in both sets of a pairing analyzed_nm found complementary
                self.aaa_equal(ctx, w, mm, b, jpos)
        raise InternalContradiction(
            "support pair inside an A-cell with co-degree below n/2",
            {"a": a, "b": b, "jpos": jpos, "neighborhood": mask_vertices(m), "base": ctx.base},
        )

    def k4_partner(self, ctx: _Ctx, a: int, istar: int, j2: int) -> int:
        """Least b in the nonempty B-cell forming a K4 with a and two base vertices.

        Failing that (fact 8), re-derives N(a, v_istar) in the istar-th A-cell:
        a C5 or a contradiction.  Requires certificate's exclusion and fact-6
        sweeps to have run on ctx, as secondary_ctx, the only caller, ensures:
        they refute a hit of N(a, v_j2) in a foreign A-cell and in the pivot's
        (there a would lie in N(w, v_j2), a pair inside one A-cell)."""
        row = self.host.pair_masks[a]
        vi, vj = ctx.base[istar], ctx.base[j2]
        cand = ctx.bmask[istar] & ~(1 << a) & row[vi] & row[vj]
        if cand:
            return (cand & -cand).bit_length() - 1
        # The counting argument says a partner must exist; re-derive it, which
        # either surfaces a C5 or proves the state impossible.
        self.fact(8)
        nav_i = row[vi]
        k2 = min(x for x in range(4) if x not in (istar, j2))
        for c in mask_vertices(nav_i & ctx.amask[istar]):
            self.aaa_equal(ctx, c, istar, ctx.base[k2], k2)
            raise _FoundC5((vi, a, c, ctx.base[k2], vj))
        raise InternalContradiction(
            "no K4 partner although the counting argument guarantees one",
            {
                "a": a,
                "istar": istar,
                "j2": j2,
                "base": ctx.base,
                "B": mask_vertices(ctx.bmask[istar]),
            },
        )

    def secondary_ctx(self, ctx: _Ctx, istar: int, j2: int, v5: int) -> _Ctx:
        """Analyzed context for the base (v_istar, v_j2, v5, v6), v6 the K4 partner
        of v5: its apex B-cell must be the only nonempty one (fact 9), so fact 7
        applies.  Two nonempty B-cells go to the C5 hunt; an empty apex B-cell
        alone is a contradiction."""
        v6 = self.k4_partner(ctx, v5, istar, j2)
        s_base = (ctx.base[istar], ctx.base[j2], v5, v6)
        sctx = self.make_ctx(s_base)
        self.fact(9)
        ne = sctx.nonempty
        if len(ne) >= 2:
            self.two_nonempty_hunt(sctx)
        if not sctx.bmask[0]:
            raise InternalContradiction(
                "secondary base lost its apex B-cell",
                {
                    "secondary_base": s_base,
                    "nonempty_positions": ne,
                    "A_sizes": [m.bit_count() for m in sctx.amask],
                    "primary_base": ctx.base,
                    "n": self.n,
                },
            )
        self.fact(7)
        return sctx

    def certificate(self, ctx: _Ctx) -> StructureCertificate:
        """Build the structure certificate for a base with at most one nonempty B-cell."""
        nbr = self.host.pair_masks
        nonempty = ctx.nonempty
        if not nonempty:
            self.fact(6)
            return self._emit(ctx, 0, (), ())
        istar = nonempty[0]
        r0 = ctx.bmask[istar].bit_count()
        # Cross-pair neighborhood sweep
        self.fact(3)
        for i in range(4):
            for j in range(i + 1, 4):
                target = ctx.nm[i][j]
                for a in mask_vertices(ctx.amask[i]):
                    for b in mask_vertices(ctx.amask[j]):
                        if nbr[a][b] != target:
                            # raises: its last check is this inequality
                            self.aaa_equal(ctx, a, i, b, j)
        # Only B-cell istar is nonempty, so only its members' A-cell hits can fire.
        self.exclusion_sweep(ctx)
        # Empty pairs inside each balanced A-cell
        self.fact(6)
        for j in range(4):
            if j == istar:
                continue
            members = mask_vertices(ctx.amask[j])
            for x in range(len(members)):
                for y in range(x + 1, len(members)):
                    self.ensure_pair_empty(ctx, members[x], members[y], j)
        # Equivalence classes of the empty-pair relation on the B-cell
        self.fact(10)
        bbits = mask_vertices(ctx.bmask[istar])
        j2 = min(x for x in range(4) if x != istar)
        sim: dict[int, int] = {}
        for a in bbits:
            m = 1 << a
            for b in bbits:
                if b != a and nbr[a][b] == 0:
                    m |= 1 << b
            sim[a] = m
        for a in bbits:
            for b in mask_vertices(sim[a]):
                if b == a or sim[b] == sim[a]:
                    continue
                diff = (sim[a] ^ sim[b]) & ~(1 << a) & ~(1 << b)
                c = (diff & -diff).bit_length() - 1
                if sim[a] >> c & 1:
                    v5, v7, v8 = a, b, c
                else:
                    v5, v7, v8 = b, a, c
                self._transitivity(ctx, istar, j2, v5, v7, v8)  # never returns
        class_masks: list[int] = []
        for a in bbits:
            if sim[a] not in class_masks:
                class_masks.append(sim[a])
        # Involutive pairing of classes through K4 partners
        f: dict[int, int] = {}
        for ci, cmask in enumerate(class_masks):
            v5 = (cmask & -cmask).bit_length() - 1
            sctx = self.secondary_ctx(ctx, istar, j2, v5)
            if (sctx.amask[2] | sctx.amask[3]) & ~ctx.bmask[istar]:
                raise InternalContradiction(
                    "secondary A-cell leaves the primary B-cell",
                    {"secondary_base": sctx.base, "primary_base": ctx.base},
                )
            # the A-cells at v5 and its K4 partner v6 are their classes; sim[v5] is cmask
            for pos, what, key in ((2, "class", "a5s"), (3, "partner class", "a6s")):
                v, acell = sctx.base[pos], sctx.amask[pos]
                for a in mask_vertices(acell & ~sim[v]):
                    # raises: a is a B-cell member outside sim[v], so N(a, v) is nonempty
                    self.ensure_pair_empty(sctx, a, v, pos)
                if sim[v] != acell:
                    raise InternalContradiction(
                        f"{what} does not match the secondary A-cell",
                        {"class": mask_vertices(sim[v]), key: mask_vertices(acell)},
                    )
            f[ci] = class_masks.index(sim[sctx.base[3]])
        for ci, cj in f.items():
            if ci == cj or f[cj] != ci or class_masks[ci].bit_count() != class_masks[cj].bit_count():
                raise InternalContradiction(
                    "class pairing is not a size-preserving fixed-point-free involution",
                    {"pairing": f, "sizes": [m.bit_count() for m in class_masks]},
                )
        pairing = tuple(sorted((min(ci, cj), max(ci, cj)) for ci, cj in f.items() if ci < cj))
        classes = tuple(frozenset(mask_vertices(m)) for m in class_masks)
        return self._emit(ctx, r0, classes, pairing)

    def _transitivity(self, ctx: _Ctx, istar: int, j2: int, v5: int, v7: int, v8: int):
        """Transitivity failed literally: surface the C5 it implies; never returns.
        The case split that picks (v5, v7, v8) makes N(v7, v8) nonempty, so the
        closing ensure_pair_empty raises."""
        sctx = self.secondary_ctx(ctx, istar, j2, v5)
        a5s = sctx.amask[2]
        if not (a5s >> v7 & 1 and a5s >> v8 & 1):
            raise InternalContradiction(
                "empty-paired vertices missing from the secondary A-cell",
                {"v5": v5, "v7": v7, "v8": v8, "secondary_base": sctx.base},
            )
        self.ensure_pair_empty(sctx, v7, v8, 2)  # raises: N(v7, v8) is nonempty

    def _emit(self, ctx: _Ctx, r0: int, classes, pairing) -> StructureCertificate:
        cert = StructureCertificate(
            host=self.host,
            base=ctx.base,
            a_sets=tuple(frozenset(mask_vertices(m)) for m in ctx.amask),
            b_sets=tuple(frozenset(mask_vertices(m)) for m in ctx.bmask),
            q=ctx.qdiff,
            r0=r0,
            classes=classes,
            pairing=pairing,
        )
        if not cert.verify():
            raise InternalContradiction(
                "assembled certificate failed self-validation",
                {"base": ctx.base, "q": ctx.qdiff, "r0": r0},
            )
        return cert


def analyze_half_degree(
    host: TripleSystem, on_fact: Callable[[str], None] | None = None
) -> Embedding | StructureCertificate:
    """Boundary analysis for hosts with minimum positive co-degree exactly n/2.

    Returns either a validated tight 5-cycle embedding or a structure
    certificate proving n is divisible by 4.  K4-free hosts are handled by
    the apex-count branch extraction directly; by the exact values of
    co+ex(n, K4), none reaches that branch at n <= 8.  ``on_fact`` receives
    the name of each structural fact as it is exercised.
    """
    n = host.n
    if n % 2:
        raise PreconditionViolated(f"need even n, got n={n}")
    delta = min_positive_codegree(host)
    if delta is None or delta != n // 2:
        raise PreconditionViolated(
            f"need min positive co-degree exactly n/2 = {n // 2},"
            f" got {_codegree_text(delta)}"
        )
    k4 = find_embedding(host, K4)
    if k4 is None:
        return _validated(host, C5, _extract_c5_k4free(host))
    analyzer = _HalfDegreeAnalyzer(host, on_fact)
    try:
        ctx = analyzer.make_ctx(k4.map)
        if len(ctx.nonempty) >= 2:
            analyzer.two_nonempty_hunt(ctx)
        return analyzer.certificate(ctx)
    except _FoundC5 as found:
        return _validated(host, C5, found.map5)
