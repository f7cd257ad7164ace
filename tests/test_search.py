import hashlib
import itertools

import pytest

from triplesys import (
    CATALOG,
    PreconditionViolated,
    TripleSystem,
    construct_complete_k_partite,
    decide_exists,
    exact_copos_ex,
    is_free,
    known_extremal_value,
    local_search_lower_bound,
    min_positive_codegree,
    pattern_by_name,
)
from triplesys import search
from triplesys.patterns import embeds_through


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


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


class TestLocalSearchGolden:
    """Runs recorded before the incremental host state replaced host rebuilds.

    In these runs no move is ever accepted (every toggle from the k-partite
    seed lowers the score), so each returned host is the seed and the output
    alone cannot show a change in the RNG use or the order of the checks.
    The test therefore also pins the trail of through-edge pattern checks:
    the proposed addition and whether a copy went through it, in step order.
    """

    # (n, pattern, seed, budget), checks, hits, SHA-256 of the sorted edges,
    # SHA-256 of the trail [(triple, hit), ...]
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

    @pytest.mark.parametrize("args,checks,hits,edges_sha,trail_sha", GOLDEN)
    def test_matches_the_recorded_run(self, monkeypatch, args, checks, hits, edges_sha, trail_sha):
        trail = []

        def recording(nbr, n, pattern, edge):
            hit = embeds_through(nbr, n, pattern, edge)
            trail.append((tuple(edge), hit))
            return hit

        n, pattern, seed, budget = args
        monkeypatch.setattr(search, "embeds_through", recording)
        host = local_search_lower_bound(n, pattern, budget, seed)
        assert _sha256(host.edges) == edges_sha
        assert (len(trail), sum(hit for _, hit in trail)) == (checks, hits)
        assert _sha256(trail) == trail_sha
