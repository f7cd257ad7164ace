import contextlib
import gc
import hashlib
import itertools
import os
import random
import signal
import time
import types

import pytest

from triplesys import (
    CATALOG,
    InternalContradiction,
    Pattern,
    PreconditionViolated,
    TripleSystem,
    construct_complete_k_partite,
    decide_exists,
    embeds_through_edge,
    exact_copos_ex,
    is_free,
    known_extremal_value,
    local_search_lower_bound,
    min_positive_codegree,
    pattern_by_name,
    serialize_hypergraph,
)
from triplesys import cli, search
from triplesys.core import HostState, flip

from conftest import (
    naive_find_embedding,
    reference_local_search,
    relabel,
    scan_min_positive_codegree,
)

#: A fork threshold that splits calls between this process and workers:
#: (6, c5, 3) runs branches 0..14 here and forks for 15..33, and (7, k4, 3)
#: runs 0..5 here and forks for 6..33, where its first host is branch 19.
MIXED = 20


@pytest.fixture
def fork_at_once(monkeypatch):
    """A decision call with workers forks before its first branch, so every
    branch runs in a child, as the forked-path tests need."""
    monkeypatch.setattr(search, "_FORK_AFTER_NODES", 0)


def _record_forks(monkeypatch):
    """The list of the first branch of each forked remainder, in call order."""
    starts = []
    forked = search._forked_branches

    def recording(n, pattern, k, start, workers):
        starts.append(start)
        return forked(n, pattern, k, start, workers)

    monkeypatch.setattr(search, "_forked_branches", recording)
    return starts


def _moved_pairs(positions, index, a: int, b: int) -> list[tuple[int, int]]:
    """The slow oracle of search._swaps: the position pairs (i, j), i < j, in
    order, that the transposition (a, b), a < b, swaps.  ``positions`` are
    sorted vertex tuples in lex order that it maps onto themselves, and
    ``index`` gives their positions."""
    return [
        (i, index[tuple(sorted(b if x == a else x for x in p))])
        for i, p in enumerate(positions)
        if a in p and b not in p
    ]


def _bits(vertices) -> int:
    return sum(1 << x for x in vertices)


def _transposed(sets, a, b):
    """The image of a set of vertex tuples under the transposition (a, b)."""
    swap = {a: b, b: a}
    return {tuple(sorted(swap.get(x, x) for x in p)) for p in sets}


class TestDecision:
    @pytest.mark.parametrize("m", [4, 5])
    def test_top_masks_are_the_least_of_each_orbit(self, m):
        # Brute force: the least image of every live set over _pairs_within(m)
        # under all m! relabellings, which regenerates the stored table.
        pairs = search._pairs_within(m)
        index = {p: i for i, p in enumerate(pairs)}
        images = [
            [1 << index[tuple(sorted((g[u], g[v])))] for u, v in pairs]
            for g in itertools.permutations(range(m))
        ]
        least = {
            min(sum(bit for i, bit in enumerate(image) if mask >> i & 1) for image in images)
            for mask in range(1 << len(pairs))
        }
        assert search._TOP_MASKS[m] == tuple(sorted(least))

    @pytest.mark.parametrize("n", range(4, 9))
    def test_the_transposition_table_is_regenerated_by_brute_force(self, n):
        # every r-set each transposition moves, with its image, in lex order
        for r in (2, 3):
            table = search._transpositions(n, r)
            assert sorted(table) == search._pairs_within(n)
            for (a, b), moves in table.items():
                expected = [
                    (_bits(s), _bits(image))
                    for s in itertools.combinations(range(n), r)
                    for (image,) in [_transposed([s], a, b)]
                    if image != s and a in s
                ]
                assert list(moves) == expected, (r, a, b)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_skeleton_swaps_match_the_slow_oracle(self, n):
        # the pairs after the top ones, under each adjacent transposition
        # that keeps the top assignment's live pairs, for every top mask
        top_pairs = search._pairs_within(min(n, 5))
        rest = [p for p in search._pairs_within(n) if p not in top_pairs]
        index = {p: i for i, p in enumerate(rest)}
        rank = {_bits(p): i for i, p in enumerate(rest)}
        for mask in search._TOP_MASKS[min(n, 5)]:
            live = {p for i, p in enumerate(top_pairs) if mask >> i & 1}
            adjacent = [
                (a, a + 1)
                for a in range(n - 1)
                if _transposed(top_pairs, a, a + 1) == set(top_pairs)
                and _transposed(live, a, a + 1) == live
            ]
            assert search._swaps(n, 2, rank, adjacent) == [
                _moved_pairs(rest, index, a, b) for a, b in adjacent
            ], mask

    def test_edge_phase_swaps_match_the_slow_oracle(self, monkeypatch):
        # every complete skeleton of four n = 7 branches, under the
        # transpositions of the top assignment that fix the skeleton
        calls = []
        edge_phase, swaps = search._Decision._edge_phase, search._swaps

        def recording_phase(self, live, fixing):
            calls.append([live[:], list(fixing)])
            return edge_phase(self, live, fixing)

        def recording_swaps(n, r, rank, transpositions):
            result = swaps(n, r, rank, transpositions)
            if r == 3:
                calls[-1] += [dict(rank), list(transpositions), result]
            return result

        monkeypatch.setattr(search._Decision, "_edge_phase", recording_phase)
        monkeypatch.setattr(search, "_swaps", recording_swaps)
        masks = search._TOP_MASKS[5]
        for mask in (masks[5], masks[20], masks[-2], masks[-1]):
            for _ in search._Decision(7, pattern_by_name("c5minus"), 2).hosts(mask):
                pass
        assert len(calls) > 100
        for live, fixing, rank, transpositions, result in calls:
            pairs = {(u, v) for u, v in search._pairs_within(7) if live[u] >> v & 1}
            tris = [
                t for t in itertools.combinations(range(7), 3)
                if set(itertools.combinations(t, 2)) <= pairs
            ]
            assert rank == {_bits(t): i for i, t in enumerate(tris)}
            assert transpositions == [
                (a, b) for a, b in fixing if _transposed(pairs, a, b) == pairs
            ]
            index = {t: i for i, t in enumerate(tris)}
            assert result == [_moved_pairs(tris, index, a, b) for a, b in transpositions]

    @pytest.mark.parametrize(
        "pattern",
        [Pattern("c5", 4, ((0, 1, 2), (1, 2, 3))), Pattern("c6", 4, ((0, 1, 2), (1, 2, 3)))],
        ids=["custom-c5", "non-catalog-name"],
    )
    def test_only_catalog_patterns_are_decided(self, pattern):
        # the exact search knows a pattern by its name (the seed construction
        # and the closed forms look it up), and decide_exists takes the same
        # input, so a custom "c5" is refused, not taken for the catalog's C5
        with pytest.raises(PreconditionViolated, match="catalog patterns only"):
            decide_exists(6, pattern, 2)
        with pytest.raises(PreconditionViolated, match="catalog patterns only"):
            exact_copos_ex(6, pattern)

    def test_no_free_host_above_the_extremal_value_at_six(self):
        for name in ("c5", "c5minus"):
            host, _ = decide_exists(6, pattern_by_name(name), 3)
            assert host is None

    def test_witness_found_at_the_extremal_value(self):
        host, _ = decide_exists(6, pattern_by_name("c5"), 2)
        assert host is not None
        assert is_free(host, pattern_by_name("c5"))
        assert min_positive_codegree(host) >= 2

    def test_worker_count_does_not_change_the_result(self, monkeypatch):
        # workers against the in-process path, on satisfiable calls and
        # refutations alike: same host, same node count, whether every
        # branch is forked, a prefix runs here and the rest is forked, or
        # the default threshold decides
        verdicts = set()
        starts = _record_forks(monkeypatch)
        for fork_after in (0, MIXED, search._FORK_AFTER_NODES):
            monkeypatch.setattr(search, "_FORK_AFTER_NODES", fork_after)
            for name in sorted(CATALOG):
                pattern = pattern_by_name(name)
                for n in (6, 7):
                    for k in range(1, n - 1):
                        host, nodes = decide_exists(n, pattern, k)
                        verdicts.add(host is None)
                        for workers in (2, 3):
                            forked = decide_exists(n, pattern, k, workers)
                            assert forked == (host, nodes), (fork_after, name, n, k, workers)
        assert verdicts == {True, False}
        assert 0 in starts and any(start > 0 for start in starts)

    def test_workers_are_capped_at_the_branch_count(self, monkeypatch, fork_at_once):
        # A stand-in for the forked path runs the branches in this process,
        # so no child is ever started; it records how many were asked for.
        asked = []

        def in_process(n, pattern, k, start, workers):
            asked.append(workers)
            masks = search._TOP_MASKS[min(n, 5)][start:]
            return (search._run_branch(n, pattern, k, mask) for mask in masks)

        monkeypatch.setattr(search, "_forked_branches", in_process)
        # each of these runs makes one decision call
        assert exact_copos_ex(6, "c5", jobs=5000) == exact_copos_ex(6, "c5", jobs=1)
        assert exact_copos_ex(4, "c5minus", jobs=5000) == exact_copos_ex(4, "c5minus", jobs=1)
        assert asked == [len(search._TOP_MASKS[5]), len(search._TOP_MASKS[4])]
        assert exact_copos_ex(6, "c5", jobs=0) == exact_copos_ex(6, "c5", jobs=1)
        assert len(asked) == 2  # jobs < 2 runs in this process

        calls = []

        def recording(n, pattern, k, workers=1):
            host, nodes = decide_exists(n, pattern, k, workers)
            calls.append((k, workers, host, nodes))
            return host, nodes

        monkeypatch.setattr(search, "decide_exists", recording)
        outcome = exact_copos_ex(7, "k4", jobs=2)
        # every decision call of an exact run gets the same count: k = 3
        # finds a host and k = 4 refutes, and the run counts the nodes of both
        assert [(k, workers) for k, workers, _, _ in calls] == [(3, 2), (4, 2)]
        assert asked[2:] == [2, 2]
        assert calls[0][2] == outcome.extremal and calls[1][2] is None
        assert outcome.nodes_explored == sum(nodes for *_, nodes in calls)
        assert outcome == exact_copos_ex(7, "k4", jobs=1)
        assert [workers for _, workers, _, _ in calls[2:]] == [1, 1]
        assert len(asked) == 4

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_every_top_branch_returns_none_or_a_valid_host(self, monkeypatch, name, k):
        # Every host of every branch, not only the first success: exact
        # stops at the first host in branch order, so an invalid host past
        # it would otherwise go unseen.  Checked with the independent oracles.
        pattern = pattern_by_name(name)
        passed = set()  # the triangles the edge phase's pattern check let in

        def recording(nbr, pattern, edge):
            hit = embeds_through_edge(nbr, pattern, edge)
            if not hit:
                passed.add(edge)
            return hit

        monkeypatch.setattr(search, "embeds_through_edge", recording)
        seen = set()
        for i, mask in enumerate(search._TOP_MASKS[5]):
            for host in search._Decision(6, pattern, k).hosts(mask):
                assert naive_find_embedding(host, pattern) is None, f"branch {i}"
                assert (scan_min_positive_codegree(host) or 0) >= k, f"branch {i}"
                assert host not in seen, f"branch {i} repeats a host"
                assert passed.issuperset(host.edges), f"branch {i} skips a pattern check"
                seen.add(host)
        # No 6-vertex host of these patterns reaches co-degree 3.  With
        # lex-leader pruning in both phases a branch yields only the hosts
        # that no transposition fixing their skeleton and the top
        # assignment maps to a lex-greater one.
        expected = {"c5": 56, "c5minus": 5, "f32": 44, "k4": 105, "k4minus": 2}
        assert len(seen) == (expected[name] if k == 2 else 0)

    @pytest.mark.parametrize("n,ks", [(6, (2, 3, 4)), (7, (3,))])
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_lex_pruning_keeps_each_top_branch_first_host(self, monkeypatch, name, n, ks):
        # The unpruned search is the reference: its first host in a branch
        # sits on the lex-greatest host-bearing skeleton of its orbit, which
        # the pruning must keep.
        pattern = pattern_by_name(name)
        for k in ks:
            pruned = _first_hosts(n, pattern, k)
            with monkeypatch.context() as m:
                m.setattr(search._Decision, "_lex_ok", lambda self, *args: True)
                reference = _first_hosts(n, pattern, k)
            assert pruned == reference, f"k={k}"

    def test_the_unpruned_reference_prunes_nothing(self, monkeypatch):
        # One patch of _lex_ok switches off both phases' pruning: the node
        # count is the one recorded before the skeleton phase took it up.
        monkeypatch.setattr(search._Decision, "_lex_ok", lambda self, *args: True)
        assert exact_copos_ex(7, "c5minus").nodes_explored == 37412

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_lex_pruning_keeps_a_host_of_every_orbit(self, monkeypatch, name):
        # Within a branch the pruned hosts are reference hosts, and each
        # reference host maps onto a pruned one by a relabelling that fixes
        # the branch's top assignment.
        pattern = pattern_by_name(name)
        top_pairs = search._pairs_within(5)
        for mask in search._TOP_MASKS[5]:
            pruned = set(search._Decision(6, pattern, 2).hosts(mask))
            with monkeypatch.context() as m:
                m.setattr(search._Decision, "_lex_ok", lambda self, *args: True)
                reference = list(search._Decision(6, pattern, 2).hosts(mask))
            assert pruned <= set(reference)
            live = {p for i, p in enumerate(top_pairs) if mask >> i & 1}
            stabilizer = [
                perm + (5,)
                for perm in itertools.permutations(range(5))
                if {tuple(sorted((perm[u], perm[v]))) for u, v in live} == live
            ]
            for host in reference:
                assert any(relabel(host, g) in pruned for g in stabilizer), f"mask {mask}"

    @pytest.mark.parametrize("name", ["c5", "f32", "k4minus"])
    def test_the_edge_phase_takes_its_skeleton_and_transpositions(self, name):
        # A fresh search runs the edge phase on the complete skeleton at
        # n = 6, k = 2, which no top branch set up: unpruned, and pruned by
        # every transposition, which all fix that skeleton.
        pattern = pattern_by_name(name)
        dec = search._Decision(6, pattern, 2)
        live = [0b111111 & ~(1 << u) for u in range(6)]
        reference = list(dec._edge_phase(live, []))
        pruned = set(dec._edge_phase(live, search._pairs_within(6)))
        assert len(set(reference)) == len(reference) and pruned <= set(reference)
        for host in reference:
            assert naive_find_embedding(host, pattern) is None
            assert all(m.bit_count() >= 2 for u, row in enumerate(host.pair_masks)
                       for m in row[u + 1:])
            assert any(relabel(host, g) in pruned for g in itertools.permutations(range(6)))
        # the branch state lives in locals: only the node count changed
        assert vars(dec) == {"n": 6, "pattern": pattern, "k": 2, "nodes": dec.nodes}

    def test_a_call_leaves_no_cyclic_garbage(self):
        # The phases' generators call themselves through an argument, not
        # through a cell of their own, so reference counting frees each
        # branch's state: the collector finds none of it.
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            decide_exists(7, pattern_by_name("c5minus"), 3)
            gc.collect()
            left = [
                o for o in gc.garbage
                if isinstance(o, types.CellType)
                or (isinstance(o, (types.FunctionType, types.GeneratorType))
                    and o.__qualname__.startswith("_Decision."))
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert left == []

    def test_the_first_host_is_the_one_decide_exists_returns(self):
        pattern = pattern_by_name("c5")
        dec = search._Decision(6, pattern, 2)
        for mask in search._TOP_MASKS[5]:
            first = next(dec.hosts(mask), None)
            if first is not None:
                break
        host, nodes = decide_exists(6, pattern, 2)
        assert host == first
        assert nodes == dec.nodes


def decision_digest(ns) -> str:
    """One sha256 over every decide_exists result at each n of ``ns``: for
    each pattern and each k in 1..n-2, its node count and host file bytes."""
    digest = hashlib.sha256()
    for n in ns:
        for name in ("c5", "c5minus", "k4minus", "k4", "f32"):
            for k in range(1, n - 1):
                host, nodes = decide_exists(n, pattern_by_name(name), k)
                record = (n, name, k, nodes, serialize_hypergraph(host) if host is not None else None)
                digest.update(repr(record).encode())
    return digest.hexdigest()


#: decision_digest at n = 5..7 and at n = 8, recorded before the edge phase
#: read its pair counts off its lex string.  CI checks the n = 8 one.
DECISION_DIGESTS = {
    (5, 6, 7): "360c230b26212762a5e54c6dc1d390026610ae37096635cb2cbc49063ad1ef2f",
    (8,): "b43eb84c13bbec8a60784c53cffc4197b82c450d70c7c388525a3433e836eea3",
}


def test_decisions_match_the_recorded_digest():
    # pins every host, not only the node counts: a change in the order the
    # search takes its branches, skeletons or triangles shows here
    assert decision_digest((5, 6, 7)) == DECISION_DIGESTS[5, 6, 7]


def _first_hosts(n, pattern, k):
    """The first host of every top branch at n, or None, in branch order."""
    return [
        next(search._Decision(n, pattern, k).hosts(mask), None)
        for mask in search._TOP_MASKS[min(n, 5)]
    ]


class Provoked(Exception):
    """A branch failure a test provokes; defined at module level, so it pickles."""


def _raise_provoked(index):
    raise Provoked(f"branch {index}")


def _contradict(index):
    raise InternalContradiction("provoked in a worker", {"branch": index})


def _fail_branches(monkeypatch, failing, failure):
    """Make the top branches whose indices are in ``failing`` call
    ``failure(index)`` first.  Forked children inherit the patch."""
    masks = search._TOP_MASKS[5]
    original = search._Decision.hosts

    def hosts(self, mask):
        index = masks.index(mask)
        if index in failing:
            failure(index)
        return original(self, mask)

    monkeypatch.setattr(search._Decision, "hosts", hosts)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this process after ``seconds``: a forked call
    that waits forever fails instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"no result in {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("fork_at_once")
class TestForkedBranches:
    """decide_exists with workers: no child outlives the call, and nothing a
    branch does is hidden from the caller.  Every branch runs in a child,
    except in the mixed cases, where a prefix runs in this process."""

    def test_a_satisfiable_call(self, monkeypatch):
        pattern = pattern_by_name("k4")
        firsts = _first_hosts(7, pattern, 3)
        found = next(i for i, host in enumerate(firsts) if host is not None)
        assert found == 19  # the 20th of 34 branches: children still run later ones
        expected = decide_exists(7, pattern, 3)
        assert expected[0] == firsts[found]

        # A sequential run never reaches the branches after the first host:
        # a child that hangs in one is killed, and a failure in one never
        # surfaces, wherever a child ran it.
        def hang_or_fail(index):
            if index == found + 1:
                time.sleep(600)
            _raise_provoked(index)

        _fail_branches(monkeypatch, range(found + 1, 34), hang_or_fail)
        for workers in (2, 3):
            with _deadline(60):
                assert decide_exists(7, pattern, 3, workers) == expected
            _assert_no_child_left()

    def test_a_satisfiable_call_after_a_prefix_in_process(self, monkeypatch):
        pattern = pattern_by_name("k4")
        expected = decide_exists(7, pattern, 3)
        monkeypatch.setattr(search, "_FORK_AFTER_NODES", MIXED)
        starts = _record_forks(monkeypatch)

        # the host is branch 19's, from a child; the child that hangs in
        # branch 20 is killed, and the failures after it never surface
        def hang_or_fail(index):
            if index == 20:
                time.sleep(600)
            _raise_provoked(index)

        _fail_branches(monkeypatch, range(20, 34), hang_or_fail)
        for workers in (2, 3):
            with _deadline(60):
                assert decide_exists(7, pattern, 3, workers) == expected
            _assert_no_child_left()
        assert starts == [6, 6]

    def test_a_refutation(self):
        pattern = pattern_by_name("k4")
        expected = decide_exists(7, pattern, 4)
        assert expected[0] is None
        with _deadline(60):
            assert decide_exists(7, pattern, 4, 2) == expected
        _assert_no_child_left()

    def test_a_branch_exception_reaches_the_caller_with_its_type(self, monkeypatch):
        pattern = pattern_by_name("c5")  # (6, c5, 3) is a refutation: every branch runs
        _fail_branches(monkeypatch, {5, 30}, _raise_provoked)
        with _deadline(60), pytest.raises(Provoked, match="^branch 5$"):
            decide_exists(6, pattern, 3, 2)
        _assert_no_child_left()

        _fail_branches(monkeypatch, {5}, _contradict)
        with _deadline(60), pytest.raises(InternalContradiction) as raised:
            decide_exists(6, pattern, 3, 2)
        assert raised.value.state == {"branch": 5}
        _assert_no_child_left()

        class Unpicklable(Exception):
            pass  # local: pickle cannot find it by name

        def unpicklable(index):
            raise Unpicklable(f"branch {index}")

        _fail_branches(monkeypatch, {5}, unpicklable)
        with _deadline(60), pytest.raises(RuntimeError, match=r"Unpicklable\('branch 5'\)"):
            decide_exists(6, pattern, 3, 2)
        _assert_no_child_left()

    def test_a_branch_exception_in_a_mixed_call_keeps_its_type(self, monkeypatch):
        pattern = pattern_by_name("c5")
        monkeypatch.setattr(search, "_FORK_AFTER_NODES", MIXED)
        starts = _record_forks(monkeypatch)
        # branch 30 runs in a child
        _fail_branches(monkeypatch, {30}, _raise_provoked)
        with _deadline(60), pytest.raises(Provoked, match="^branch 30$"):
            decide_exists(6, pattern, 3, 2)
        _assert_no_child_left()
        assert starts == [15]
        # branch 5 runs in this process, before any fork
        _fail_branches(monkeypatch, {5, 30}, _contradict)
        with _deadline(60), pytest.raises(InternalContradiction) as raised:
            decide_exists(6, pattern, 3, 2)
        assert raised.value.state == {"branch": 5}
        _assert_no_child_left()
        assert starts == [15]

    def test_a_worker_contradiction_exits_three(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        _fail_branches(monkeypatch, {5}, _contradict)
        with _deadline(60):
            code = cli.main(["exact", "--n", "6", "--pattern", "c5", "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.endswith("internal contradiction: provoked in a worker\n  branch = 5\n")
        assert list(tmp_path.iterdir()) == []
        _assert_no_child_left()

    def test_a_worker_that_exits_without_its_record(self, monkeypatch):
        _fail_branches(monkeypatch, {5}, lambda index: os._exit(0))
        with _deadline(60), pytest.raises(RuntimeError, match="before top branch 5"):
            decide_exists(6, pattern_by_name("c5"), 3, 2)
        _assert_no_child_left()

    def test_a_worker_that_exits_in_a_mixed_call(self, monkeypatch):
        # the error names the branch by its index among all top branches,
        # not among the ones left when the call forked
        monkeypatch.setattr(search, "_FORK_AFTER_NODES", MIXED)
        starts = _record_forks(monkeypatch)
        parent = os.getpid()

        def exit_in_a_child(index):
            if os.getpid() == parent:  # an os._exit here would end the test run
                raise AssertionError(f"branch {index} ran before the fork")
            os._exit(0)

        _fail_branches(monkeypatch, {20}, exit_in_a_child)
        with _deadline(60), pytest.raises(RuntimeError, match="before top branch 20 was"):
            decide_exists(6, pattern_by_name("c5"), 3, 2)
        _assert_no_child_left()
        assert starts == [15]


class TestForkThreshold:
    """The default threshold: a call forks only once it has run about a
    fork's cost in this process, and then its output does not change."""

    def test_no_call_forks_up_to_seven(self, monkeypatch):
        def refuse():
            raise AssertionError("a decision call forked")

        monkeypatch.setattr(os, "fork", refuse)
        for n in range(4, 8):
            for name in sorted(CATALOG):
                expected = exact_copos_ex(n, name)
                for jobs in (2, 3):
                    assert exact_copos_ex(n, name, jobs=jobs) == expected, (n, name, jobs)

    def test_a_long_call_takes_its_host_from_a_worker(self, monkeypatch):
        forks = []
        fork = os.fork

        def counting():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        expected = exact_copos_ex(8, "f32")
        monkeypatch.setattr(os, "fork", counting)
        starts = _record_forks(monkeypatch)
        with _deadline(120):
            outcome = exact_copos_ex(8, "f32", jobs=2)
        _assert_no_child_left()
        assert outcome == expected and outcome.value == 4
        # only the k = 4 call forks, before branch 31: no host came before
        # it, so the host is a worker's
        assert starts == [31] and len(forks) == 2


class TestExactValues:
    @pytest.mark.parametrize(
        "n,pattern,expected",
        # the k4minus rows double as empirical verification of the
        # floor(n/3) value this package takes as given
        [(6, "c5minus", 2), (6, "c5", 2), (6, "k4minus", 2), (7, "c5", 3), (7, "k4minus", 2)],
    )
    def test_matches_closed_forms(self, n, pattern, expected):
        outcome = exact_copos_ex(n, pattern)
        assert outcome.value == expected == known_extremal_value(n, pattern)
        assert is_free(outcome.extremal, pattern_by_name(pattern))
        assert min_positive_codegree(outcome.extremal) == outcome.value

    def test_repeat_runs_identical(self):
        a = exact_copos_ex(6, "c5")
        b = exact_copos_ex(6, "c5")
        assert (a.value, a.extremal, a.nodes_explored) == (b.value, b.extremal, b.nodes_explored)

    @pytest.mark.parametrize(
        "n,pattern,nodes",
        # Recorded node counts: the decision search prunes on pattern checks
        # through each added edge and on per-pair triangle counts, so a wrong
        # check or a drifting count changes these counts.
        # Re-recorded when lex-leader pruning came in, and again when the
        # edge phase took it up: it drops only partial assignments whose
        # every completion a transposition fixing the top assignment maps
        # to a lex-greater one.
        [(6, "k4minus", 157), (6, "k4", 301), (6, "c5minus", 227), (6, "c5", 278),
         (6, "f32", 253), (7, "c5minus", 4747), (7, "k4minus", 2049), (7, "k4", 892)],
    )
    def test_node_counts_are_stable(self, n, pattern, nodes):
        assert exact_copos_ex(n, pattern).nodes_explored == nodes

    # Node counts at n = 8, so a change in how the search prunes shows here.
    NODES_AT_EIGHT = {"c5": 863, "c5minus": 632_428, "k4minus": 84_345, "k4": 45_243, "f32": 2_897}

    @pytest.mark.parametrize(
        "pattern,expected", [("c5", 4), ("c5minus", 2), ("k4minus", 2), ("k4", 3), ("f32", 4)]
    )
    def test_values_at_eight(self, pattern, expected):
        outcome = exact_copos_ex(8, pattern)
        assert outcome.value == expected
        assert outcome.nodes_explored == self.NODES_AT_EIGHT[pattern]
        if pattern in ("c5", "c5minus", "k4minus"):
            assert expected == known_extremal_value(8, pattern)
        assert naive_find_embedding(outcome.extremal, pattern_by_name(pattern)) is None
        assert scan_min_positive_codegree(outcome.extremal) == expected

    def test_range_enforced(self):
        with pytest.raises(PreconditionViolated):
            exact_copos_ex(9, "c5")
        with pytest.raises(PreconditionViolated):
            exact_copos_ex(3, "c5")
        for n in (3, 9):  # the decision driver takes the same range
            with pytest.raises(PreconditionViolated, match="exact search supports 4 <= n <= 8"):
                decide_exists(n, pattern_by_name("c5"), 2)


class TestLocalSearch:
    def test_zero_budget_returns_the_seed(self):
        host = local_search_lower_bound(9, "c5minus", 0, seed=1)
        seed_host, _ = construct_complete_k_partite(9, 3)
        assert host == seed_host
        assert min_positive_codegree(host) == 3

    def test_twelve_vertices_reaches_the_bound(self):
        host = local_search_lower_bound(12, "c5", 200, seed=3)
        assert min_positive_codegree(host) >= 6
        assert is_free(host, pattern_by_name("c5"))

    def test_ten_vertices_never_beats_the_bound(self):
        for seed in range(5):
            host = local_search_lower_bound(10, "c5", 150, seed=seed)
            assert is_free(host, pattern_by_name("c5"))
            assert min_positive_codegree(host) <= 4

    def test_deterministic_for_fixed_seed(self):
        a = local_search_lower_bound(11, "c5minus", 120, seed=42)
        b = local_search_lower_bound(11, "c5minus", 120, seed=42)
        assert a == b

    @pytest.mark.parametrize(
        "n,pattern,seed,budget,edges_sha",
        # Recorded before the search read its host off the pair masks alone.
        [(10, "c5", 4, 600, "ca4962b9d87390d3f9425acada460b51dc25d4971b33384d3eb11503efbb3f0a"),
         (12, "c5minus", 9, 800, "0721496b12013d26202960f674d0547548d35f2e5413c0c7ca8c704755481441"),
         (9, "k4", 2, 500, "fedf34e1fb338031a9f08aa7ab685371702b6f7788d35a89ca376a9e8a027bff")],
    )
    def test_edgeless_start_keeps_its_best_host(self, monkeypatch, n, pattern, seed, budget, edges_sha):
        # From the edgeless host the first addition raises the score, so this
        # is the run that takes the improvement branch and returns its snapshot.
        monkeypatch.setattr(search, "_seed_construction", lambda n, pattern: TripleSystem(n))
        host = local_search_lower_bound(n, pattern, budget, seed)
        assert min_positive_codegree(host) == 1
        assert _sha256(host.edges) == edges_sha

    @pytest.mark.parametrize(
        "pattern",
        [Pattern("c5", 4, ((0, 1, 2), (1, 2, 3))), Pattern("zz", 4, ((0, 1, 2), (1, 2, 3)))],
        ids=["custom-c5", "non-catalog-name"],
    )
    def test_only_catalog_patterns_are_searched(self, pattern):
        # the seed construction looks the pattern up by name, so the seed of
        # either contains it, and the search used to report that at budget 0
        # as InternalContradiction, the falsification detector
        with pytest.raises(PreconditionViolated, match="local search takes catalog patterns only"):
            local_search_lower_bound(8, pattern, 0, 1)

    def test_range_enforced(self):
        with pytest.raises(PreconditionViolated):
            local_search_lower_bound(7, "c5", 10, seed=0)
        with pytest.raises(PreconditionViolated):
            local_search_lower_bound(25, "c5", 10, seed=0)
        with pytest.raises(PreconditionViolated):
            local_search_lower_bound(10, "c5", -1, seed=0)


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _search_trail(monkeypatch, n, pattern, budget, seed):
    """The search's host, and its trail: every proposal in step order with
    the score it would give, and whether a copy of the pattern went through
    it wherever the search ran the through-edge check."""
    trail = []
    score_after, toggle = HostState.score_after, HostState.toggle
    toggling = []  # toggle reads its new minimum through score_after too

    def scoring(state, edge):
        score = score_after(state, edge)
        if not toggling:
            trail.append((tuple(edge), score))
        return score

    def flipping(state, edge):
        toggling.append(edge)
        try:
            return toggle(state, edge)
        finally:
            toggling.pop()

    def checking(nbr, pattern, edge):
        hit = embeds_through_edge(nbr, pattern, edge)
        trail[-1] += (hit,)
        return hit

    monkeypatch.setattr(HostState, "score_after", scoring)
    monkeypatch.setattr(HostState, "toggle", flipping)
    monkeypatch.setattr(search, "embeds_through_edge", checking)
    return local_search_lower_bound(n, pattern, budget, seed), trail


def _reference_run(start, pattern, budget, seed):
    """reference_local_search's host and the trail the search should leave:
    a proposal whose score passes is checked if it adds its triple."""
    host, trail = reference_local_search(start, pattern_by_name(pattern), budget, seed)
    return host, [
        (t, s, hit) if passes and hit is not None else (t, s) for t, s, passes, hit in trail
    ]


class TestLocalSearchGolden:
    """Runs recorded before the search scored a proposal before flipping it.

    In these runs no move is ever accepted (every toggle from the k-partite
    seed lowers the score), so each returned host is the seed and the output
    alone cannot show a change in the RNG use or the order of the work.
    The test therefore pins the search's trail: every proposal in step
    order, with the score it would give and, where that score passes,
    whether a copy went through it.  Here none passes, so the search runs
    no through-edge check.  The replica of the first step order (toggle,
    check, score) must still make the trail recorded then: the proposed
    additions, each checked, and whether a copy went through it.
    """

    # (n, pattern, seed, budget), checks and hits of the first step order,
    # SHA-256 of the sorted edges, SHA-256 of that order's trail
    # [(triple, hit), ...]
    GOLDEN = [
        ((12, "c5", 3, 200), 109, 107,
         "d5b0b59fce1739dcc84f960b5abed19b78b2b024655901ce9b8f917c25b5620f",
         "35ac3faa61b496a252987615eeaec3c460fb264b2c96dd228238a7e85f24b180"),
        ((12, "c5minus", 7, 300), 200, 189,
         "79480a0bc7fb927d60cc99c2daea98f4320214529df3727cb909fdab543b63b8",
         "28a8f1e36b34d0e13aa143af30a5b883e4dac6b6a8aebf4d5828e4b4e6a2c9ad"),
        ((12, "k4", 0, 300), 210, 0,
         "79480a0bc7fb927d60cc99c2daea98f4320214529df3727cb909fdab543b63b8",
         "5fa029527dbfec9d6e82de68de9aa906d0e4fdeada44e1754167a980f894ce80"),
        ((24, "c5", 21, 300), 186, 178,
         "de3889b496d55cc8c98efe5f2483bd4af47a63ac3a15dcb6a9463df82196a735",
         "c6af0adea5e75a8e4197dfb30c33eb426896aa84439d14c7ddc23d83546bf3d9"),
        ((24, "f32", 5, 300), 231, 28,
         "3bfb12c96a494e3bb32b889eedcde96d55e2ed426327f56a2de8ab798485b0db",
         "97b32d09a7b30ef2f2f77b61b0df6369315224b1d4b540a30b503519a25234bf"),
        ((24, "k4minus", 8, 300), 225, 198,
         "3bfb12c96a494e3bb32b889eedcde96d55e2ed426327f56a2de8ab798485b0db",
         "0dddae25934887095ad8e34df6645b8ee4fad3bae44a8b7761e67ae2f2e7cf1b"),
    ]

    # (n, pattern, seed, budget) -> SHA-256 of the search's trail
    SEARCH_TRAILS = {
        (12, "c5", 3, 200): "859fa0d41a29517848419c62fb7f27ef8f40bde42c21544a9b36a0d435c79330",
        (12, "c5minus", 7, 300): "e6c961496348c8e86e9ad21701d4eb3c4a42022544e909711debbcf15ca5f8ae",
        (12, "k4", 0, 300): "118cfad05b233de9533c6010b40ae9e3ee5b524a7781bb492c62bcff6fdd41f7",
        (24, "c5", 21, 300): "a9b19c406a1effbb33c3f147b8850362fe6b78da4d8a862fce8017e16d528127",
        (24, "f32", 5, 300): "bb29a795e9a0a3e07a43792d98b94ae06f43b63df6240e2d0294acb719cd6e88",
        (24, "k4minus", 8, 300): "e3f4df00f20abdfd465a1cf44a46b71f8c115aaf92e4c4157d46224afa4a17f9",
    }

    @pytest.mark.parametrize("args,checks,hits,edges_sha,trail_sha", GOLDEN)
    def test_matches_the_recorded_run(self, monkeypatch, args, checks, hits, edges_sha, trail_sha):
        n, pattern, seed, budget = args
        host, trail = _search_trail(monkeypatch, n, pattern, budget, seed)
        assert _sha256(host.edges) == edges_sha
        assert _sha256(trail) == self.SEARCH_TRAILS[args]
        # the first step order, from the same seed host: its checks, and
        # every proposal's score, which none passes
        pattern = pattern_by_name(pattern)
        start = search._seed_construction(n, pattern)
        reference, first_order = reference_local_search(start, pattern, budget, seed)
        checked = [(t, hit) for t, _, _, hit in first_order if hit is not None]
        assert (len(checked), sum(hit for _, hit in checked)) == (checks, hits)
        assert _sha256(checked) == trail_sha
        assert reference == host
        assert [(t, s) for t, s, _, _ in first_order] == trail


def _greedy_free_host(n, pattern, seed):
    """A random host free of the pattern: the triples in a shuffled order,
    each kept unless a copy goes through it.  Every triple it lacks closes a
    copy, so from here the search's checks hit and its removals pay."""
    rng = random.Random(seed)
    order = list(itertools.combinations(range(n), 3))
    rng.shuffle(order)
    nbr = [[0] * n for _ in range(n)]
    for t in order:
        flip(nbr, t)
        if embeds_through_edge(nbr, pattern, t):
            flip(nbr, t)
    return TripleSystem._from_masks(nbr)


def _run_from(monkeypatch, start, pattern, budget, seed):
    """The search from the host ``start``, as _search_trail gives it."""
    monkeypatch.setattr(search, "_seed_construction", lambda n, pattern: start)
    return _search_trail(monkeypatch, start.n, pattern, budget, seed)


class TestAgainstTheFirstStepOrder:
    """The search against reference_local_search, which toggles, checks and
    scores each proposal in that order, host for host and step for step."""

    @pytest.mark.parametrize("n", [8, 13, 24])
    @pytest.mark.parametrize("pattern", list(CATALOG))
    def test_from_the_seed_construction(self, monkeypatch, n, pattern):
        start = search._seed_construction(n, pattern_by_name(pattern))
        for seed, budget in ((0, 150), (1, 400)):
            host, trail = _search_trail(monkeypatch, n, pattern, budget, seed)
            assert (host, trail) == _reference_run(start, pattern, budget, seed)

    @pytest.mark.parametrize(
        "n,pattern,seed,budget",
        # test_edgeless_start_keeps_its_best_host's runs
        [(10, "c5", 4, 600), (12, "c5minus", 9, 800), (9, "k4", 2, 500)],
    )
    def test_from_the_edgeless_host(self, monkeypatch, n, pattern, seed, budget):
        host, trail = _run_from(monkeypatch, TripleSystem(n), pattern, budget, seed)
        assert (host, trail) == _reference_run(TripleSystem(n), pattern, budget, seed)
        # the first addition is checked and taken; no later proposal passes
        assert [step for step in trail if len(step) == 3] == [(host.edges[0], (1, -3), False)]

    @pytest.mark.parametrize("n", [8, 13, 24])
    @pytest.mark.parametrize("pattern", list(CATALOG))
    def test_from_a_greedy_free_host(self, monkeypatch, n, pattern):
        start = _greedy_free_host(n, pattern_by_name(pattern), n)
        host, trail = _run_from(monkeypatch, start, pattern, 300, n)
        assert (host, trail) == _reference_run(start, pattern, 300, n)
        assert any(step[2] for step in trail if len(step) == 3)  # a check hit

    @pytest.mark.parametrize("start", ["edgeless", "greedy"])
    @pytest.mark.parametrize(
        "n,pattern,seed,budget", [(10, "c5", 4, 600), (12, "c5minus", 9, 800), (9, "k4", 2, 500)]
    )
    def test_every_addition_the_score_lets_through_takes_the_public_check(
        self, monkeypatch, start, n, pattern, seed, budget
    ):
        # A private copy of the through-edge check in the search would leave
        # this wrapper on the public one short of the additions that need it.
        pattern = pattern_by_name(pattern)
        host = TripleSystem(n) if start == "edgeless" else _greedy_free_host(n, pattern, seed)
        checked = []

        def recording(nbr, pattern, edge):
            checked.append(tuple(edge))
            return embeds_through_edge(nbr, pattern, edge)

        monkeypatch.setattr(search, "_seed_construction", lambda n, pattern: host)
        monkeypatch.setattr(search, "embeds_through_edge", recording)
        local_search_lower_bound(n, pattern, budget, seed)
        _, first_order = reference_local_search(host, pattern, budget, seed)
        passed = [t for t, _, passes, hit in first_order if passes and hit is not None]
        assert passed and checked == passed
