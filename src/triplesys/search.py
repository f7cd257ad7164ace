"""Exact extremal values at desk scale, plus stochastic lower-bound search.

The exact computation answers "is there an F-free n-vertex host whose
minimum positive co-degree is at least k" by depth-first assignment over
pair states: every pair is either dead (co-degree 0) or live (co-degree at
least k).  A live pair with fewer than k remaining compatible third
vertices fails immediately; within a completed pair skeleton, edges are
chosen among the skeleton's triangles with unit propagation on the per-pair
counts and incremental pattern detection through each added edge.  The
whole state is bitmasks: rows in the pair-mask layout (live and not-dead
pairs in the skeleton, chosen triangles per pair in the edge phase) and
each phase's lex string below, over whose positions a pair's open count is
read, so every count is a popcount of a mask and cannot drift.  Both
phases are generators: one top-level branch yields the hosts it reaches,
in search order, and decide_exists takes the first host in branch order.
Isomorph rejection happens at the top of the tree: the pair states inside
the first min(n, 5) vertices are enumerated once per orbit under that
symmetric group, from a stored table of the least mask of each orbit.

Inside a branch, lex-leader pruning (Crawford, Ginsberg, Luks and Roy, KR
1996; Codish, Miller, Prosser and Stuckey, IJCAI 2013) breaks the symmetry
the top assignment leaves, with one check for both phases.  Each phase
reads its partial assignment as a bit string of set, clear and undecided
positions in lexicographic order: the pairs after the top ones, live as
set, and then the skeleton's triangles, chosen as set.  The check prunes
once a vertex transposition maps every completion to a lex-greater string:
in the skeleton phase the adjacent ones that fix the top assignment, in the
edge phase every one that fixes both the top assignment and the skeleton.
Both phases read the positions a transposition swaps off one table per n
of the pairs, or the triangles, that it moves.  Both phases decide set
first (and a forced triangle is chosen), so their leaves come in
decreasing lex order, and the first skeleton with a host and its first
host are the greatest of their orbits and never pruned.
Each branch's first host, and with it every decide_exists result, is the
one the unpruned search finds, and a branch yields every host up to the
relabellings that fix its top assignment.

The exact value then comes from ascending k starting at the value of the
complete balanced k-partite seed construction, so tight instances need a
single refutation call.  decide_exists is the one decision driver: it
runs the top branches in process, in order.  Given more than one worker,
a call that has counted about a fork's cost in nodes with two or more
branches left forks children for those, for that call alone.  The children
take branches from one pipe of tickets, one byte per branch, and send each
branch's first host and node count back; the parent combines them in
branch order and kills the children once the answer is in.

Both searches change their host one triple at a time with core.flip and
run patterns.embeds_through_edge on the pair masks, so no move rebuilds a
host.  That check runs a function generated when the pattern is compiled,
which the parent does before it forks, so the children inherit it.  The
edge phase flips a plain table of chosen triangles, and undoes a move by
flipping the triangles its lex string gained; the local search keeps its
host in one core.HostState, whose co-degree histogram gives the score.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import random
from dataclasses import dataclass

from .core import (
    HostState,
    TripleSystem,
    construct_complete_k_partite,
    flip,
    known_extremal_value,
    mask_vertices,
    min_positive_codegree,
    KNOWN_FAMILIES,
)
from .errors import InternalContradiction, PreconditionViolated
from .patterns import CATALOG, Pattern, embeds_through_edge, is_free, pattern_by_name

EXACT_MAX_N = 8
EXACT_MIN_N = 4


@dataclass(frozen=True)
class SearchOutcome:
    """An exact extremal value with one witness host and search statistics."""

    n: int
    pattern: str
    value: int
    extremal: TripleSystem
    nodes_explored: int


def _seed_construction(n: int, pattern: Pattern) -> TripleSystem:
    """F-free complete balanced k-partite start: 4 parts for the tight
    5-cycle, 3 parts otherwise."""
    k = 4 if pattern.name == "c5" else 3
    host, _ = construct_complete_k_partite(n, k)
    return host


def _pairs_within(m: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(m) for v in range(u + 1, m)]


# One live set per orbit of the 2-colourings of the pairs of K_m, m = min(n, 5),
# under the symmetric group: the least mask of each orbit over _pairs_within(m),
# in ascending order.  A test regenerates both tuples by brute force.
_TOP_MASKS = {
    4: (0, 1, 3, 7, 11, 12, 13, 15, 30, 31, 63),
    5: (0, 1, 3, 7, 15, 19, 20, 21, 23, 28, 29, 31, 54, 55, 58, 59, 62, 63, 126, 127,
        183, 184, 185, 187, 191, 207, 220, 221, 223, 254, 255, 495, 511, 1023),
}


@functools.cache
def _transpositions(n: int, r: int) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
    """For each transposition (a, b), a < b, of range(n): the r-sets it moves,
    the ones holding a and not b, each with its image, in lex order.  A set
    is its vertex bitmask."""
    sets = [sum(1 << x for x in c) for c in itertools.combinations(range(n), r)]
    return {
        (a, b): tuple((s, s ^ (1 << a | 1 << b)) for s in sets if s >> a & 1 and not s >> b & 1)
        for a, b in itertools.combinations(range(n), 2)
    }


def _swaps(n: int, r: int, rank, transpositions) -> list[list[tuple[int, int]]]:
    """Each transposition's position pairs (i, j), i < j, in order of i, as
    _Decision._lex_ok reads them: ``rank`` maps the r-set bitmasks of a bit
    string's positions, which every one of ``transpositions`` maps onto
    themselves, to their positions."""
    moves = _transpositions(n, r)
    return [[(rank[s], rank[t]) for s, t in moves[ab] if s in rank] for ab in transpositions]


class _Decision:
    """The F-free hosts with min positive co-degree >= k, one top branch at a time.

    ``hosts`` chains the two phases, both generators; ``nodes`` counts the
    work done up to the last host taken, and no other attribute changes:
    a branch's state is local.  Skeleton phase: ``live[u]`` holds the pairs
    at u decided live and ``ndadj[u]`` those not decided dead.  Edge phase:
    its ``_lex_ok`` string over the skeleton's triangles is its state, and
    ``chosen[u][v]``, changed only through core.flip, holds the third
    vertices of the chosen triangles for the pattern check.  A live pair's
    open and undecided triangles are its mask of positions less the cleared
    and the decided ones.
    """

    def __init__(self, n: int, pattern: Pattern, k: int):
        self.n = n
        self.pattern = pattern
        self.k = k
        self.nodes = 0

    def hosts(self, top_mask: int):
        """Yield the hosts of one top-level pair-state assignment, the live
        pairs ``top_mask`` marks among the pairs inside the first min(n, 5)
        vertices, in order.  Up to a relabelling that fixes the top
        assignment, every host of the branch is yielded, and the first host
        is the one the search without lex-leader pruning finds.  The edge
        phase gets the transpositions that fix the top assignment."""
        n, k = self.n, self.k
        top_pairs = _pairs_within(min(n, 5))
        live = [0] * n
        ndadj = [((1 << n) - 1) & ~(1 << v) for v in range(n)]
        for i, (u, v) in enumerate(top_pairs):
            if top_mask >> i & 1:
                live[u] |= 1 << v
                live[v] |= 1 << u
            else:
                ndadj[u] &= ~(1 << v)
                ndadj[v] &= ~(1 << u)
        if not all(self._live_ok(live, ndadj, u) for u in range(n)):
            self.nodes += 1
            return
        top = set(top_pairs)
        rest = [p for p in _pairs_within(n) if p not in top]
        rank = {1 << u | 1 << v: i for i, (u, v) in enumerate(rest)}
        # the transpositions that fix the top assignment: rows a and b
        # agree in both tables off the pair {a, b}
        top_fixing = [
            (a, b)
            for a, b in _pairs_within(n)
            if not (live[a] ^ live[b] | ndadj[a] ^ ndadj[b]) & ~(1 << a | 1 << b)
        ]
        rest_swaps = _swaps(n, 2, rank, [(a, b) for a, b in top_fixing if b == a + 1])

        def skeletons(idx, ones):
            """Yield ``live``, changed in place, at each complete skeleton with
            a live pair; ``ones`` marks the live ones of rest[:idx]."""
            self.nodes += 1
            if idx == len(rest):
                if any(live):
                    yield live
                return
            u, v = rest[idx]
            decided = (2 << idx) - 1
            # live first: solution-bearing skeletons are dense
            if (ndadj[u] & ndadj[v]).bit_count() >= k:
                live[u] |= 1 << v
                live[v] |= 1 << u
                if self._lex_ok(rest_swaps, ones | 1 << idx, decided):
                    yield from skeletons(idx + 1, ones | 1 << idx)
                live[u] &= ~(1 << v)
                live[v] &= ~(1 << u)
            # Killing {u, v} shrinks only the candidates of live pairs at u or v.
            ndadj[u] &= ~(1 << v)
            ndadj[v] &= ~(1 << u)
            if (
                self._live_ok(live, ndadj, u)
                and self._live_ok(live, ndadj, v)
                and self._lex_ok(rest_swaps, ones, decided)
            ):
                yield from skeletons(idx + 1, ones)
            ndadj[u] |= 1 << v
            ndadj[v] |= 1 << u

        for skeleton in skeletons(0, 0):
            yield from self._edge_phase(skeleton, top_fixing)

    def _live_ok(self, live, ndadj, u) -> bool:
        """Every live pair at u keeps k candidate third vertices."""
        row, pairs = ndadj[u], live[u]
        while pairs:
            low = pairs & -pairs
            if (row & ndadj[low.bit_length() - 1]).bit_count() < self.k:
                return False
            pairs ^= low
        return True

    def _lex_ok(self, swaps, ones, decided) -> bool:
        """False when a swap maps every completion of the bit string to a
        lex-greater one.  Bit i of ``decided`` marks position i decided and
        bit i of ``ones`` marks it set; a swap is its moved position pairs
        (i, j), i < j, in order of i.  It prunes when, at its first pair not
        decided and equal, i is decided clear and j decided set."""
        for moved in swaps:
            for i, j in moved:
                if not decided >> i & decided >> j & 1:
                    break
                if ones >> i & 1 != ones >> j & 1:
                    if ones >> j & 1:
                        return False
                    break
        return True

    def _edge_phase(self, live, fixing):
        """Yield every host inside the live skeleton whose triangle bit string
        no transposition of ``fixing`` that fixes the skeleton maps to a
        lex-greater one: every live pair gets k of its triangles, dead pairs
        none, and no pattern copy completes.  ``fixing`` lists transpositions
        (a, b), a < b; the ones that move the skeleton are dropped here."""
        n, k, pattern = self.n, self.k, self.pattern
        # triangles of the skeleton in lexicographic order
        tris = [
            (u, v, w)
            for u in range(n)
            for v in mask_vertices(live[u] >> (u + 1) << (u + 1))
            for w in mask_vertices(live[u] & live[v] >> (v + 1) << (v + 1))
        ]
        rank = {1 << u | 1 << v | 1 << w: i for i, (u, v, w) in enumerate(tris)}
        swaps = _swaps(
            n, 3, rank, [(a, b) for a, b in fixing if not (live[a] ^ live[b]) & ~(1 << a | 1 << b)]
        )
        # the positions of each live pair's triangles, and per position its
        # three pairs' masks: a pair's open triangles are those not cleared,
        # ``decided & ~ones``, and its undecided ones are ``~decided``
        at = [[0] * n for _ in range(n)]
        for i, (u, v, w) in enumerate(tris):
            at[u][v] |= 1 << i
            at[u][w] |= 1 << i
            at[v][w] |= 1 << i
        pairs_at = [(at[u][v], at[u][w], at[v][w]) for u, v, w in tris]
        chosen = [[0] * n for _ in range(n)]
        ones = decided = 0  # the chosen and the decided positions of tris

        def set_in(i: int) -> bool:
            nonlocal ones, decided
            self.nodes += 1
            t = tris[i]
            flip(chosen, t)
            ones |= 1 << i
            decided |= 1 << i
            return not embeds_through_edge(chosen, pattern, t)

        def set_out(i: int) -> bool:
            nonlocal decided
            self.nodes += 1
            decided |= 1 << i
            cleared = decided & ~ones
            totals = [(m & ~cleared).bit_count() for m in pairs_at[i]]
            if min(totals) < k:
                return False
            # a pair with k open triangles forces in its undecided ones, pair
            # by pair in ascending position, which is ascending third vertex;
            # the three pairs share no triangle but tris[i]
            for m, total in zip(pairs_at[i], totals):
                forced = m & ~decided if total == k else 0
                while forced:
                    low = forced & -forced
                    if not set_in(low.bit_length() - 1):
                        return False
                    forced ^= low
            return True

        def dfs(i: int):
            nonlocal ones, decided
            # a triangle after i is decided only if it was forced in; bit i
            # of ones is set iff tris[i] is chosen, and none past the last
            while ones >> i & 1:
                i += 1
            if i == len(tris):
                yield TripleSystem._from_masks([row[:] for row in chosen])
                return
            string = ones, decided
            for step in (set_in, set_out):
                if step(i) and self._lex_ok(swaps, ones, decided):
                    yield from dfs(i + 1)
                added = ones ^ string[0]  # each flip is its own inverse
                while added:
                    low = added & -added
                    flip(chosen, tris[low.bit_length() - 1])
                    added ^= low
                ones, decided = string

        return dfs(0)


def _run_branch(n: int, pattern: Pattern, k: int, mask: int):
    """One top-level branch: its first host or None, and its node count."""
    dec = _Decision(n, pattern, k)
    return next(dec.hosts(mask), None), dec.nodes


def _forked_branches(n: int, pattern: Pattern, k: int, start: int, workers: int):
    """Yield _run_branch's result for each top branch from index ``start``
    on, in order, computed by ``workers`` forked children (POSIX only).

    The branch indices in _TOP_MASKS go into a pipe as one ticket byte each
    before the fork; a child reads one ticket at a time, runs that branch
    and writes its record to a shared record pipe, and stops after its first
    host.  Tickets go out in order, so every branch before the first host
    is taken, and its record arrives, before any child stops.  A branch's
    exception is raised here when its turn comes.  However the caller
    stops, every child is killed and reaped before this generator closes.
    """
    # Lazy, as the forked path is the only user: keeps them out of the
    # package's import time.
    import pickle
    import signal

    pattern.compiled  # compile once here, so that every child inherits it
    masks = _TOP_MASKS[min(n, 5)]
    tickets, ticket_end = os.pipe()
    os.write(ticket_end, bytes(range(start, len(masks))))  # at most 34 bytes: never blocks
    os.close(ticket_end)
    records, record_end = os.pipe()
    stream = open(records, "rb")
    pids = []
    try:
        try:
            for _ in range(workers):
                pid = os.fork()
                if pid == 0:
                    _branch_worker(tickets, record_end, n, pattern, k, masks)
                pids.append(pid)
        finally:
            # only the children hold these now: the record stream ends when
            # the last child exits
            os.close(tickets)
            os.close(record_end)
        arrived = {}
        for index in range(start, len(masks)):
            while index not in arrived:
                try:
                    i, outcome, nodes = pickle.load(stream)
                except EOFError:
                    raise RuntimeError(
                        f"every branch worker exited before top branch {index} was returned"
                    ) from None
                arrived[i] = outcome, nodes
            outcome, nodes = arrived.pop(index)
            if isinstance(outcome, BaseException):
                raise outcome
            yield outcome, nodes
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # an exited child stays a zombie until reaped
        for pid in pids:
            os.waitpid(pid, 0)
        stream.close()


def _branch_worker(tickets: int, records: int, n: int, pattern: Pattern, k: int, masks):
    """A forked child of _forked_branches: runs the branches whose tickets it
    takes until its first host or the last ticket, then exits without
    returning, so nothing of the parent's (buffered output, atexit
    handlers) runs."""
    import pickle
    import select

    try:
        while ticket := os.read(tickets, 1):
            index = ticket[0]
            try:
                outcome, nodes = _run_branch(n, pattern, k, masks[index])
            except BaseException as exc:  # the parent raises it in branch order
                outcome, nodes = exc, 0
            try:
                record = pickle.dumps((index, outcome, nodes))
            except Exception:
                record = b""
            # A pipe writes up to PIPE_BUF bytes at once, never split by
            # another child's record; one with a host at n <= 8 takes under
            # 300.  An exception that does not pickle, or not that short,
            # travels as a RuntimeError naming it.
            if not 0 < len(record) <= select.PIPE_BUF:
                record = pickle.dumps((index, RuntimeError(repr(outcome)[:500]), nodes))
            os.write(records, record)
            if outcome is not None:
                break
    finally:
        os._exit(0)


def _catalog_pattern(pattern: Pattern | str, task: str) -> Pattern:
    """The catalog pattern that ``pattern`` names (KeyError if none) or is; any
    other Pattern raises PreconditionViolated naming ``task``, since the seed
    construction and the closed forms know it by name alone."""
    if isinstance(pattern, str):
        return pattern_by_name(pattern)
    if CATALOG.get(pattern.name) != pattern:
        raise PreconditionViolated(f"{task} takes catalog patterns only, got {pattern}")
    return pattern


def _check_exact_input(n: int, pattern: Pattern | str) -> Pattern:
    """The catalog pattern to search, after rejecting n outside
    EXACT_MIN_N..EXACT_MAX_N or a pattern not in the catalog.  decide_exists
    takes the same input as exact_copos_ex, so it makes only decisions an
    exact run can make."""
    if not EXACT_MIN_N <= n <= EXACT_MAX_N:
        raise PreconditionViolated(
            f"exact search supports {EXACT_MIN_N} <= n <= {EXACT_MAX_N}, got n={n}"
        )
    return _catalog_pattern(pattern, "exact search")


# A call that forks at its first branch took 4.0-7.5 ms longer than the same
# call in process: (6, c5, 3), (7, c5, 4) and (7, k4, 4), workers=2 against
# workers=1, medians of 30 on a shared 2-core x86 machine, Python 3.11.  The
# search ran 220-470 nodes/ms there at n = 7 and 8, so a fork costs about
# 1,000-3,000 nodes, and a call forks only once it has counted 1,000 nodes
# in process, the low end, where the tests and CI pin the n = 8 forks.  A
# node count, not a time, so whether a call forks depends on (n, pattern,
# k, workers) alone.
_FORK_AFTER_NODES = 1_000


def _branch_results(n: int, pattern: Pattern, k: int, workers: int):
    """Yield _run_branch's result for each top branch, in order: in this
    process until the nodes counted reach _FORK_AFTER_NODES with at least
    two branches left for as many workers, and then the branches left from
    _forked_branches."""
    masks = _TOP_MASKS[min(n, 5)]
    nodes = 0
    for i, mask in enumerate(masks):
        forks = min(workers, len(masks) - i)  # never more workers than branches left
        if forks > 1 and nodes >= _FORK_AFTER_NODES:
            yield from _forked_branches(n, pattern, k, i, forks)
            return
        result = _run_branch(n, pattern, k, mask)
        nodes += result[1]
        yield result


def decide_exists(n: int, pattern: Pattern, k: int, workers: int = 1):
    """F-free host with min positive co-degree >= k, or None, plus node count.

    Runs the top branches in this process, in order.  Given more than one
    worker, once the call has counted _FORK_AFTER_NODES nodes, about the
    cost of a fork, it hands the branches left, if two or more, to
    min(workers, branches left) children forked for this call.  That needs
    POSIX and, as any fork does, a caller running no other threads; no
    child outlives the call, whether it returns or raises.  The result does
    not depend on ``workers``: branches are combined in their canonical
    order and counted up to the first success, exactly as a sequential run
    would, and an exception a branch raises reaches the caller with its own
    type.  PreconditionViolated is raised unless ``pattern`` is the
    catalog's pattern of its name and n is in range.
    """
    pattern = _check_exact_input(n, pattern)
    nodes = 0
    with contextlib.closing(_branch_results(n, pattern, k, workers)) as branches:
        for host, branch_nodes in branches:
            nodes += branch_nodes
            if host is not None:
                return host, nodes
    return None, nodes


def exact_copos_ex(
    n: int, pattern: Pattern | str, jobs: int = 1, on_progress=None
) -> SearchOutcome:
    """Exact maximum of the minimum positive co-degree over F-free n-vertex hosts.

    Ascends k from the seed construction's value; each refuted k certifies
    the value below it by exhausted search.  Capped at n <= EXACT_MAX_N.
    Every decision call gets ``jobs`` as decide_exists's ``workers``.
    ``on_progress`` receives one status line per decision call.
    """
    pattern = _check_exact_input(n, pattern)
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
        host, branch_nodes = decide_exists(n, pattern, k, jobs)
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
    )


LOCAL_MIN_N = 8
LOCAL_MAX_N = 24


def local_search_lower_bound(
    n: int, pattern: Pattern | str, budget: int, seed: int
) -> TripleSystem:
    """Hill-climb on the minimum positive co-degree with single-edge toggles.

    Starts from the k-partite seed construction and keeps the best host
    seen; every accepted move preserves pattern-freeness (a toggle that
    says it added its triple is checked incrementally through that edge).
    Each proposal is toggled into one HostState, whose co-degree histogram
    gives the score without a rescan, and toggled back if rejected; the
    masks are the only copy of the current host, snapshotted as a
    TripleSystem at each new best.  Deterministic for a fixed seed: one
    ``randrange`` per step.  A result exceeding the known closed-form value
    would falsify it and raises InternalContradiction.
    """
    pattern = _catalog_pattern(pattern, "local search")
    if not LOCAL_MIN_N <= n <= LOCAL_MAX_N:
        raise PreconditionViolated(
            f"local search supports {LOCAL_MIN_N} <= n <= {LOCAL_MAX_N}, got n={n}"
        )
    if budget < 0:
        raise PreconditionViolated(f"budget must be nonnegative, got {budget}")
    rng = random.Random(seed)
    best = _seed_construction(n, pattern)
    state = HostState(best)
    nbr = state.pair_masks
    cur_score = best_score = state.score()
    all_triples = list(itertools.combinations(range(n), 3))
    for _ in range(budget):
        t = all_triples[rng.randrange(len(all_triples))]
        if state.toggle(t) and embeds_through_edge(nbr, pattern, t):
            state.toggle(t)
            continue
        score = state.score()
        if score < cur_score:
            state.toggle(t)
            continue
        cur_score = score
        if score > best_score:
            best, best_score = state.snapshot(), score
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

