"""Exact extremal values at desk scale, plus stochastic lower-bound search.

The exact computation answers "is there an F-free n-vertex host whose
minimum positive co-degree is at least k" by depth-first assignment over
pair states: every pair is either dead (co-degree 0) or live (co-degree at
least k).  A live pair with fewer than k remaining compatible third
vertices fails immediately; within a completed pair skeleton, edges are
chosen among the skeleton's triangles with unit propagation on the per-pair
counts and incremental pattern detection through each added edge.  Isomorph
rejection happens at the top of the tree: the pair states inside the first
min(n, 5) vertices are enumerated once per orbit under that symmetric
group, by brute-force canonical minimization.

The exact value then comes from ascending k starting at the value of the
complete balanced k-partite seed construction, so tight instances need a
single refutation call.

Both searches keep the host they are changing in one core.HostState: the
edge phase and the local search toggle one triple at a time and run the
through-edge pattern check on its pair masks, so no move rebuilds a host.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass

from .core import (
    HostState,
    TripleSystem,
    construct_complete_k_partite,
    known_extremal_value,
    mask_vertices,
    min_positive_codegree,
    KNOWN_FAMILIES,
)
from .errors import InternalContradiction, PreconditionViolated
from .patterns import Pattern, embeds_through, is_free, pattern_by_name

EXACT_MAX_N = 7
EXACT_MIN_N = 4


@dataclass(frozen=True)
class SearchOutcome:
    """An exact extremal value with one witness host and search statistics."""

    n: int
    pattern: str
    value: int
    extremal: TripleSystem
    nodes_explored: int
    elapsed: float


def _seed_construction(n: int, pattern: Pattern) -> TripleSystem:
    """F-free complete balanced k-partite start: 4 parts for the tight
    5-cycle, 3 parts otherwise."""
    k = 4 if pattern.name == "c5" else 3
    host, _ = construct_complete_k_partite(n, k)
    return host


def _pairs_within(m: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(m) for v in range(u + 1, m)]


@functools.cache
def _canonical_top_masks(m: int) -> tuple[int, ...]:
    """One live-set representative per orbit of 2-colorings of the K_m pairs.

    Cached: every decision call at the same m needs the same tuple.
    """
    pairs = _pairs_within(m)
    index = {p: i for i, p in enumerate(pairs)}
    perms = list(itertools.permutations(range(m)))
    reps = []
    for mask in range(1 << len(pairs)):
        smallest = mask
        for perm in perms:
            mapped = 0
            rest = mask
            while rest:
                low = rest & -rest
                u, v = pairs[low.bit_length() - 1]
                rest ^= low
                a, b = perm[u], perm[v]
                mapped |= 1 << index[(a, b) if a < b else (b, a)]
            if mapped < smallest:
                smallest = mapped
                break
        if smallest == mask:
            reps.append(mask)
    return tuple(reps)


class _Decision:
    """One decision run: does an F-free host with min positive co-degree >= k exist."""

    def __init__(self, n: int, pattern: Pattern, k: int):
        self.n = n
        self.pattern = pattern
        self.k = k
        self.nodes = 0
        self.all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        self.empty = TripleSystem(n)

    def run_branch(self, top_pairs, top_mask: int):
        """Explore one top-level pair-state assignment; edges of the found host or None."""
        n = self.n
        state: dict[tuple[int, int], bool] = {}  # decided pairs: True = live
        ndadj = [((1 << n) - 1) & ~(1 << v) for v in range(n)]
        for i, p in enumerate(top_pairs):
            state[p] = bool(top_mask >> i & 1)
            if not state[p]:
                u, v = p
                ndadj[u] &= ~(1 << v)
                ndadj[v] &= ~(1 << u)
        if not self._live_ok(state, ndadj):
            self.nodes += 1
            return None
        rest = [p for p in self.all_pairs if p not in state]
        return self._assign(state, ndadj, rest, 0)

    def _live_ok(self, state, ndadj) -> bool:
        k = self.k
        for (u, v), live in state.items():
            if live:
                cand = ndadj[u] & ndadj[v] & ~(1 << u) & ~(1 << v)
                if cand.bit_count() < k:
                    return False
        return True

    def _assign(self, state, ndadj, rest, idx):
        self.nodes += 1
        if idx == len(rest):
            if not any(state.values()):
                return None
            return self._edge_phase(state)
        u, v = rest[idx]
        # live first: solution-bearing skeletons are dense
        state[(u, v)] = True
        cand = ndadj[u] & ndadj[v] & ~(1 << u) & ~(1 << v)
        if cand.bit_count() >= self.k:
            found = self._assign(state, ndadj, rest, idx + 1)
            if found is not None:
                return found
        state[(u, v)] = False
        ndadj[u] &= ~(1 << v)
        ndadj[v] &= ~(1 << u)
        if self._live_ok(state, ndadj):
            found = self._assign(state, ndadj, rest, idx + 1)
            if found is not None:
                return found
        del state[(u, v)]
        ndadj[u] |= 1 << v
        ndadj[v] |= 1 << u
        return None

    def _edge_phase(self, state):
        """Pick edges inside the live skeleton: every live pair needs k of its
        triangles, dead pairs none, and no pattern copy may complete."""
        n, k, pattern = self.n, self.k, self.pattern
        live = [p for p, flag in state.items() if flag]
        ladj = [0] * n
        for u, v in live:
            ladj[u] |= 1 << v
            ladj[v] |= 1 << u
        tris = []
        for u, v in sorted(live):
            for w in mask_vertices(ladj[u] & ladj[v]):
                if w > v:
                    tris.append((u, v, w))
        tris.sort()
        pair_tris: dict[tuple[int, int], list[int]] = {p: [] for p in live}
        for ti, (u, v, w) in enumerate(tris):
            pair_tris[(u, v)].append(ti)
            pair_tris[(u, w)].append(ti)
            pair_tris[(v, w)].append(ti)

        TS_UNDEC, TS_IN, TS_OUT = 0, 1, 2
        tstate = [TS_UNDEC] * len(tris)
        # edges chosen so far; the co-degree of a pair counts its triangles in
        host = HostState(self.empty)
        nbr, toggle = host.pair_masks, host.toggle
        cnt_undec = {p: len(pair_tris[p]) for p in live}
        trail: list[tuple] = []

        def set_in(ti: int) -> bool:
            self.nodes += 1
            u, v, w = tris[ti]
            tstate[ti] = TS_IN
            toggle(tris[ti])
            for p in ((u, v), (u, w), (v, w)):
                cnt_undec[p] -= 1
            trail.append(("in", ti))
            return not embeds_through(nbr, n, pattern, tris[ti])

        def set_out(ti: int) -> bool:
            self.nodes += 1
            u, v, w = tris[ti]
            tstate[ti] = TS_OUT
            trail.append(("out", ti))
            forced = []
            for p in ((u, v), (u, w), (v, w)):
                cnt_undec[p] -= 1
                total = nbr[p[0]][p[1]].bit_count() + cnt_undec[p]
                if total < self.k:
                    return False
                if total == self.k and cnt_undec[p]:
                    forced.extend(tj for tj in pair_tris[p] if tstate[tj] == TS_UNDEC)
            for tj in forced:
                if tstate[tj] == TS_UNDEC and not set_in(tj):
                    return False
            return True

        def undo(mark: int):
            while len(trail) > mark:
                kind, ti = trail.pop()
                u, v, w = tris[ti]
                tstate[ti] = TS_UNDEC
                if kind == "in":
                    toggle(tris[ti])
                for p in ((u, v), (u, w), (v, w)):
                    cnt_undec[p] += 1

        def dfs(from_idx: int):
            ti = from_idx
            while ti < len(tris) and tstate[ti] != TS_UNDEC:
                ti += 1
            if ti == len(tris):
                return tuple(tris[i] for i in range(len(tris)) if tstate[i] == TS_IN)
            mark = len(trail)
            if set_in(ti):
                found = dfs(ti + 1)
                if found is not None:
                    return found
            undo(mark)
            if set_out(ti):
                found = dfs(ti + 1)
                if found is not None:
                    return found
            undo(mark)
            return None

        if not live:
            return None
        return dfs(0)


def _run_branch(args):
    """Worker entry point: one top-level branch of one decision run."""
    n, pattern_name, k, m, top_mask = args
    pattern = pattern_by_name(pattern_name)
    dec = _Decision(n, pattern, k)
    edges = dec.run_branch(_pairs_within(m), top_mask)
    return edges, dec.nodes


def decide_exists(n: int, pattern: Pattern, k: int, jobs: int = 1):
    """F-free host with min positive co-degree >= k, or None, plus node count.

    The result (host and count) is independent of ``jobs``: branches are
    combined in their canonical order and counted up to the first success,
    exactly as a sequential run would.
    """
    m = min(n, 5)
    masks = _canonical_top_masks(m)
    branch_args = [(n, pattern.name, k, m, mask) for mask in masks]
    nodes = 0
    if jobs <= 1:
        for args in branch_args:
            edges, branch_nodes = _run_branch(args)
            nodes += branch_nodes
            if edges is not None:
                return TripleSystem(n, edges), nodes
        return None, nodes
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for edges, branch_nodes in pool.map(_run_branch, branch_args):
            nodes += branch_nodes
            if edges is not None:
                return TripleSystem(n, edges), nodes
    return None, nodes


def exact_copos_ex(
    n: int, pattern: Pattern | str, jobs: int = 1, on_progress=None
) -> SearchOutcome:
    """Exact maximum of the minimum positive co-degree over F-free n-vertex hosts.

    Ascends k from the seed construction's value; each refuted k certifies
    the value below it by exhausted search.  Capped at n <= 7.
    ``on_progress`` receives one status line per decision call.
    """
    if isinstance(pattern, str):
        pattern = pattern_by_name(pattern)
    if not EXACT_MIN_N <= n <= EXACT_MAX_N:
        raise PreconditionViolated(
            f"exact search supports {EXACT_MIN_N} <= n <= {EXACT_MAX_N}, got n={n}"
        )
    start = time.perf_counter()
    extremal = _seed_construction(n, pattern)
    if not is_free(extremal, pattern):
        raise InternalContradiction(
            "seed construction contains the forbidden pattern",
            {"n": n, "pattern": pattern.name},
        )
    value = min_positive_codegree(extremal)
    assert value is not None
    nodes = 0
    k = value + 1
    while k <= n - 2:
        if on_progress is not None:
            on_progress(f"deciding co-degree >= {k} for {pattern.name}-free hosts on {n} vertices")
        host, branch_nodes = decide_exists(n, pattern, k, jobs=jobs)
        nodes += branch_nodes
        if on_progress is not None:
            on_progress(
                f"co-degree >= {k}: {'satisfiable' if host is not None else 'exhausted, none'}"
            )
        if host is None:
            break
        if not is_free(host, pattern) or (min_positive_codegree(host) or 0) < k:
            raise InternalContradiction(
                "decision search returned an invalid witness",
                {"n": n, "pattern": pattern.name, "k": k},
            )
        value, extremal = k, host
        k += 1
    return SearchOutcome(
        n=n,
        pattern=pattern.name,
        value=value,
        extremal=extremal,
        nodes_explored=nodes,
        elapsed=time.perf_counter() - start,
    )


LOCAL_MIN_N = 8
LOCAL_MAX_N = 24


def local_search_lower_bound(
    n: int, pattern: Pattern | str, budget: int, seed: int
) -> TripleSystem:
    """Hill-climb on the minimum positive co-degree with single-edge toggles.

    Starts from the k-partite seed construction and keeps the best host
    seen; every accepted move preserves pattern-freeness (additions are
    checked incrementally through the toggled edge).  Each proposal is
    toggled into one HostState, whose co-degree histogram gives the score
    without a rescan, and toggled back if rejected; only the seed and the
    returned host are built as TripleSystem.  Deterministic for a fixed
    seed: one ``randrange`` per step.  A result exceeding the known
    closed-form value would falsify it and raises InternalContradiction.
    """
    if isinstance(pattern, str):
        pattern = pattern_by_name(pattern)
    if not LOCAL_MIN_N <= n <= LOCAL_MAX_N:
        raise PreconditionViolated(
            f"local search supports {LOCAL_MIN_N} <= n <= {LOCAL_MAX_N}, got n={n}"
        )
    if budget < 0:
        raise PreconditionViolated(f"budget must be nonnegative, got {budget}")
    rng = random.Random(seed)
    seed_host = _seed_construction(n, pattern)
    state = HostState(seed_host)
    cur_score = best_score = state.score()
    edges = set(seed_host.edges)
    best_edges = None  # None while the seed is still the best host
    all_triples = list(itertools.combinations(range(n), 3))
    for _ in range(budget):
        t = all_triples[rng.randrange(len(all_triples))]
        adding = t not in edges
        state.toggle(t)
        if adding and embeds_through(state.pair_masks, n, pattern, t):
            state.toggle(t)
            continue
        score = state.score()
        if score < cur_score:
            state.toggle(t)
            continue
        cur_score = score
        if adding:
            edges.add(t)
        else:
            edges.remove(t)
        if score > best_score:
            best_edges, best_score = tuple(edges), score
    best = seed_host if best_edges is None else TripleSystem(n, best_edges)
    if not is_free(best, pattern):
        raise InternalContradiction(
            "local search accepted a host containing the pattern",
            {"n": n, "pattern": pattern.name},
        )
    delta = min_positive_codegree(best)
    if pattern.name in KNOWN_FAMILIES and n >= 6 and delta is not None:
        bound = known_extremal_value(n, pattern.name)
        if delta > bound:
            raise InternalContradiction(
                "local search exceeded the known extremal value",
                {"n": n, "pattern": pattern.name, "delta": delta, "bound": bound},
            )
    return best

