import itertools
import random

import pytest

from triplesys import (
    CATALOG,
    PreconditionViolated,
    TripleSystem,
    canonical_key,
    complete_triple_system,
    construct_complete_k_partite,
    decide_exists,
    exact_copos_ex,
    is_free,
    known_extremal_value,
    local_search_lower_bound,
    min_positive_codegree,
    pattern_by_name,
)

from conftest import random_host


def brute_force_copos_ex(n: int, pattern_name: str) -> int:
    """Independent oracle: all 2^C(n,3) edge subsets."""
    pattern = pattern_by_name(pattern_name)
    triples = list(itertools.combinations(range(n), 3))
    best = 0
    for bits in range(1, 1 << len(triples)):
        host = TripleSystem(n, (triples[i] for i in range(len(triples)) if bits >> i & 1))
        delta = min_positive_codegree(host)
        if delta is not None and delta > best and is_free(host, pattern):
            best = delta
    return best


class TestCanonicalKey:
    def test_invariant_under_100_random_relabelings(self):
        rng = random.Random(5)
        host = random_host(6, rng)
        key = canonical_key(host)
        for _ in range(100):
            perm = list(range(6))
            rng.shuffle(perm)
            assert canonical_key(host.relabel(perm)) == key

    def test_distinguishes_single_edge_from_edgeless(self):
        assert canonical_key(TripleSystem(3, [(0, 1, 2)])) != canonical_key(TripleSystem(3))

    def test_two_labelings_of_the_partite_host_agree(self):
        host, _ = construct_complete_k_partite(6, 3)
        shuffled = host.relabel((4, 5, 0, 1, 2, 3))  # relabel the parts
        assert canonical_key(host) == canonical_key(shuffled)

    def test_exactness_on_all_four_vertex_hosts(self):
        # equal keys must mean isomorphic: check by explicit orbit computation
        triples = list(itertools.combinations(range(4), 3))
        by_key = {}
        for bits in range(1 << 4):
            host = TripleSystem(4, (triples[i] for i in range(4) if bits >> i & 1))
            by_key.setdefault(canonical_key(host), set()).add(host.edges)
        for members in by_key.values():
            # every member of a key class is a relabeling of the first
            first = TripleSystem(4, next(iter(members)))
            orbit = {
                first.relabel(p).edges for p in itertools.permutations(range(4))
            }
            assert members <= orbit

    def test_rejects_large_hosts(self):
        with pytest.raises(PreconditionViolated):
            canonical_key(complete_triple_system(8))


class TestDecision:
    def test_no_free_host_above_the_extremal_value_at_six(self):
        for name in ("c5", "c5minus"):
            host, _ = decide_exists(6, pattern_by_name(name), 3)
            assert host is None

    def test_witness_found_at_the_extremal_value(self):
        host, _ = decide_exists(6, pattern_by_name("c5"), 2)
        assert host is not None
        assert is_free(host, pattern_by_name("c5"))
        assert min_positive_codegree(host) >= 2

    def test_worker_count_does_not_change_the_result(self):
        pattern = pattern_by_name("c5")
        host1, nodes1 = decide_exists(6, pattern, 2, jobs=1)
        host2, nodes2 = decide_exists(6, pattern, 2, jobs=2)
        assert host1 == host2
        assert nodes1 == nodes2
        none1, n1 = decide_exists(6, pattern, 3, jobs=1)
        none2, n2 = decide_exists(6, pattern, 3, jobs=2)
        assert none1 is None and none2 is None and n1 == n2


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

    @pytest.mark.parametrize("pattern", sorted(CATALOG))
    def test_matches_brute_force_at_four(self, pattern):
        assert exact_copos_ex(4, pattern).value == brute_force_copos_ex(4, pattern)

    @pytest.mark.parametrize("pattern", sorted(CATALOG))
    def test_matches_brute_force_at_five(self, pattern):
        assert exact_copos_ex(5, pattern).value == brute_force_copos_ex(5, pattern)

    def test_repeat_runs_identical(self):
        a = exact_copos_ex(6, "c5")
        b = exact_copos_ex(6, "c5")
        assert (a.value, a.extremal, a.nodes_explored) == (b.value, b.extremal, b.nodes_explored)

    @pytest.mark.parametrize(
        "n,pattern,nodes",
        # Recorded node counts: the decision search prunes on pattern checks
        # through each added edge, so a wrong check changes these counts.
        [(6, "k4minus", 228), (6, "k4", 634), (6, "c5minus", 365), (6, "c5", 477),
         (6, "f32", 417), (7, "c5minus", 39096)],
    )
    def test_node_counts_are_stable(self, n, pattern, nodes):
        assert exact_copos_ex(n, pattern).nodes_explored == nodes

    def test_range_enforced(self):
        with pytest.raises(PreconditionViolated):
            exact_copos_ex(8, "c5")
        with pytest.raises(PreconditionViolated):
            exact_copos_ex(3, "c5")


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

    def test_range_enforced(self):
        with pytest.raises(PreconditionViolated):
            local_search_lower_bound(7, "c5", 10, seed=0)
        with pytest.raises(PreconditionViolated):
            local_search_lower_bound(25, "c5", 10, seed=0)
        with pytest.raises(PreconditionViolated):
            local_search_lower_bound(10, "c5", -1, seed=0)
