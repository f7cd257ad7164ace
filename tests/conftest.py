"""Shared generators and independent oracles.

Generators: the complete host, random hosts, Steiner joins and blow-ups, and
``relabel``.  Oracles, each written apart from the fast path it checks:
``naive_find_embedding`` for the pattern searches, ``check_fact`` for the
ten structural facts behind ``analyze_half_degree``, the per-pair edge scan
for the co-degree, the interpreted search plans, the constructor, parser
and writer as they were before they read the pair masks, and the local
search in its first step order.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass

from triplesys import (
    C5,
    Embedding,
    ParseError,
    Pattern,
    PreconditionViolated,
    TripleSystem,
    embeds_through_edge,
    mask_vertices,
    min_positive_codegree,
)
from triplesys.core import MAX_VERTICES, HostState, flip
from triplesys.witness import (
    FACT_NAMES,
    IDX_PAIRS,
    PAIRINGS,
    _ab_cells,
    _first_quad_c5,
    _k4_matrix,
    _validated,
)


def complete_triple_system(n: int) -> TripleSystem:
    """All C(n, 3) triples on n vertices."""
    return TripleSystem(n, itertools.combinations(range(n), 3))


def relabel(host: TripleSystem, perm) -> TripleSystem:
    """Apply a vertex permutation (perm[old] = new)."""
    perm = tuple(perm)
    if sorted(perm) != list(range(host.n)):
        raise ValueError("not a permutation of the vertex set")
    return TripleSystem(host.n, ((perm[u], perm[v], perm[w]) for u, v, w in host.edges))


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


def naive_find_embedding(host: TripleSystem, pattern: Pattern) -> Embedding | None:
    """Independent oracle: trial of every injective map in lexicographic order.

    Only sensible for small hosts; used to cross-check find_embedding.
    """
    for m in itertools.permutations(range(host.n), pattern.vertex_count):
        if all(host.has_edge(m[x], m[y], m[z]) for x, y, z in pattern.edges):
            return Embedding(pattern, host, m)
    return None


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


def reference_local_search(start: TripleSystem, pattern: Pattern, budget: int, seed: int):
    """``search.local_search_lower_bound`` from ``start`` in the step order
    it had before it scored a proposal first: toggle the triple, check an
    addition through its edge, score, and toggle a rejected move back.
    Frozen here as the oracle for the search's hosts and its order of work.

    Keeps its own mask table and co-degree histogram, and reads each score
    by walking the histogram from 1.  Returns the best host and the trail:
    per proposal, the triple, the score the toggle gives, whether that is
    at least the current score, and whether a copy of the pattern went
    through it (None for a removal, which is not checked).
    """
    n = start.n
    rng = random.Random(seed)
    nbr = [row[:] for row in start.pair_masks]
    hist = [0] * max(n - 1, 1)
    for u in range(n):
        for v in range(u + 1, n):
            hist[nbr[u][v].bit_count()] += 1

    def toggle(t) -> bool:
        u, v, w = t
        d = -1 if nbr[u][v] >> w & 1 else 1
        for a, b in ((u, v), (u, w), (v, w)):
            c = nbr[a][b].bit_count()
            hist[c] -= 1
            hist[c + d] += 1
        flip(nbr, t)
        return d == 1

    def score() -> tuple[int, int]:
        return next(((c, -hist[c]) for c in range(1, len(hist)) if hist[c]), (0, 0))

    best, current = start, score()
    best_score = current
    triples = list(itertools.combinations(range(n), 3))
    trail = []
    for _ in range(budget):
        t = triples[rng.randrange(len(triples))]
        hit = embeds_through_edge(nbr, pattern, t) if toggle(t) else None
        gives = score()
        trail.append((t, gives, gives >= current, hit))
        if hit or gives < current:
            toggle(t)
            continue
        current = gives
        if gives > best_score:
            best, best_score = TripleSystem._from_masks([row[:] for row in nbr]), gives
    return best, trail


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


@dataclass(frozen=True)
class FactReport:
    """Outcome of checking one structural fact literally, as quantified."""

    fact_id: int
    name: str
    hypothesis_met: bool
    holds: bool
    counterexample: tuple | None = None
    c5_found: Embedding | None = None
    detail: str = ""


def check_fact(host: TripleSystem, base, fact_id: int) -> FactReport:
    """Check one structural fact literally, as quantified, over a K4 base.

    The report records whether the fact-specific hypotheses hold (they are
    never assumed), whether the statement itself holds, a concrete
    counterexample tuple when it fails, and a validated C5 embedding when
    the failure mode directly exhibits one.  Raises PreconditionViolated
    unless ``base`` is four distinct host vertices spanning a K4 and
    ``fact_id`` is an int in 1..10.
    """
    base = tuple(base)
    nm = _k4_matrix(host, base)
    if nm is None:
        raise PreconditionViolated(f"base {base} is not 4 distinct host vertices spanning a K4")
    if type(fact_id) is not int or fact_id not in FACT_NAMES:
        raise PreconditionViolated(f"fact_id must be in 1..10, got {fact_id}")
    n = host.n
    delta = min_positive_codegree(host)
    ambient = n % 2 == 0 and delta == n // 2
    full = (1 << n) - 1
    amask, bmask = _ab_cells(nm)
    name = FACT_NAMES[fact_id]
    nbr = host.pair_masks

    def quad_c5() -> Embedding | None:
        m5 = _first_quad_c5(n, base, nm)
        return None if m5 is None else _validated(host, C5, m5)

    if fact_id == 1:
        holds, cex = True, None
        for i, j in IDX_PAIRS:
            if nm[i][j].bit_count() * 2 != n:
                holds, cex = False, (base[i], base[j], nm[i][j].bit_count())
                break
        if holds:
            for v in range(n):
                c = sum(nm[i][j] >> v & 1 for i, j in IDX_PAIRS)
                if c != 3:
                    holds, cex = False, (v, c)
                    break
        return FactReport(fact_id, name, ambient, holds, cex, None if holds else quad_c5())

    if fact_id == 2:
        holds, cex = True, None
        for (a, b), (c, d) in PAIRINGS:
            if nm[a][b] ^ nm[c][d] != full:
                bad = (nm[a][b] ^ nm[c][d] ^ full) & full
                v = (bad & -bad).bit_length() - 1
                holds, cex = False, ((base[a], base[b]), (base[c], base[d]), v)
                break
        return FactReport(fact_id, name, ambient, holds, cex, None if holds else quad_c5())

    if fact_id == 3:
        for i in range(4):
            for j in range(i + 1, 4):
                for a in mask_vertices(amask[i]):
                    for b in mask_vertices(amask[j]):
                        if nbr[a][b] != nm[i][j]:
                            return FactReport(fact_id, name, ambient, False, (a, b))
        return FactReport(fact_id, name, ambient, True)

    if fact_id == 4:
        diffs = tuple(amask[i].bit_count() - bmask[i].bit_count() for i in range(4))
        holds = len(set(diffs)) == 1
        return FactReport(fact_id, name, ambient, holds, None if holds else diffs)

    if fact_id == 5:
        for i in range(4):
            for a in mask_vertices(bmask[i]):
                for jj in range(4):
                    if jj == i:
                        continue
                    nav = nbr[a][base[jj]]
                    for kk in range(4):
                        if kk in (i, jj):
                            continue
                        hit = nav & (amask[kk] | bmask[kk])
                        if hit:
                            w = (hit & -hit).bit_length() - 1
                            c5 = None
                            hit_b = nav & bmask[kk]
                            if hit_b:
                                # a is in B_i and b in B_kk and N(a, v_jj): the map closes
                                b = (hit_b & -hit_b).bit_length() - 1
                                c5 = _validated(host, C5, (a, base[i], base[kk], b, base[jj]))
                            return FactReport(
                                fact_id, name, ambient, False, (a, base[jj], w), c5
                            )
        for i in range(4):
            if not bmask[i]:
                continue
            for jj in range(4):
                if jj == i:
                    continue
                total = (
                    amask[i].bit_count()
                    + amask[jj].bit_count()
                    + bmask[i].bit_count()
                    + bmask[jj].bit_count()
                )
                if 2 * total < 2 + n:
                    return FactReport(fact_id, name, ambient, False, (base[i], base[jj], total))
        return FactReport(fact_id, name, ambient, True)

    # Facts 6-10 assume the n/2 regime and exactly one nonempty B-cell.
    nonempty = [i for i in range(4) if bmask[i]]
    if not (ambient and len(nonempty) == 1):
        return FactReport(
            fact_id, name, False, True,
            detail="needs exactly one nonempty B-cell under the n/2 regime",
        )
    i = nonempty[0]

    if fact_id == 6:
        r = bmask[i].bit_count()
        sizes = {amask[j].bit_count() for j in range(4) if j != i}
        if len(sizes) != 1:
            return FactReport(fact_id, name, True, False, tuple(sorted(sizes)))
        q = sizes.pop()
        if n != 4 * q + 2 * r:
            return FactReport(fact_id, name, True, False, (q, r, n))
        if not (4 * amask[i].bit_count() > n > 4 * q):
            return FactReport(fact_id, name, True, False, (amask[i].bit_count(), q))
        for j in range(4):
            if j == i:
                continue
            members = mask_vertices(amask[j])
            for x in range(len(members)):
                for y in range(x + 1, len(members)):
                    if nbr[members[x]][members[y]]:
                        return FactReport(
                            fact_id, name, True, False, (members[x], members[y])
                        )
        return FactReport(fact_id, name, True, True)

    if fact_id == 7:
        for j in range(4):
            if j == i:
                continue
            for a in range(n):
                empty = nbr[a][base[j]] == 0
                member = bool(amask[j] >> a & 1)
                if empty != member:
                    return FactReport(fact_id, name, True, False, (a, base[j]))
        return FactReport(fact_id, name, True, True)

    if fact_id == 8:
        for a in mask_vertices(bmask[i]):
            for j in range(4):
                if j == i:
                    continue
                cand = bmask[i] & ~(1 << a) & nbr[a][base[i]] & nbr[a][base[j]]
                if not cand:
                    return FactReport(fact_id, name, True, False, (a, base[j]))
        return FactReport(fact_id, name, True, True)

    if fact_id == 9:
        members = mask_vertices(bmask[i])
        for j in range(4):
            if j == i:
                continue
            for x in range(len(members)):
                for y in range(x + 1, len(members)):
                    a, b = members[x], members[y]
                    s_nm = _k4_matrix(host, (base[i], base[j], a, b))
                    if s_nm is not None and not _ab_cells(s_nm)[1][0]:
                        return FactReport(fact_id, name, True, False, (base[j], a, b))
        return FactReport(fact_id, name, True, True)

    # fact_id == 10
    members = mask_vertices(bmask[i])
    empty = {
        (a, b): nbr[a][b] == 0 for a in members for b in members if a != b
    }
    for a in members:
        for b in members:
            for c in members:
                if len({a, b, c}) != 3:
                    continue
                if empty[(a, b)] and empty[(b, c)] and not empty[(a, c)]:
                    return FactReport(fact_id, name, True, False, (a, b, c))
    return FactReport(fact_id, name, True, True)
