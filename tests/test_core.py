import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from triplesys import (
    PartitionSpec,
    PreconditionViolated,
    TripleSystem,
    build_codegree_table,
    complete_triple_system,
    construct_complete_k_partite,
    known_extremal_value,
    min_codegree,
    min_positive_codegree,
)
from triplesys.core import HostState

from conftest import random_host, scan_min_positive_codegree


class TestTripleSystem:
    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            TripleSystem(4, [(0, 1)])
        with pytest.raises(ValueError):
            TripleSystem(4, [(0, 1, 1)])
        with pytest.raises(ValueError):
            TripleSystem(4, [(0, 1, 4)])
        with pytest.raises(ValueError):
            TripleSystem(65)

    def test_normalizes_and_dedupes(self):
        h = TripleSystem(5, [(2, 1, 0), (0, 1, 2), (4, 3, 2)])
        assert h.edges == ((0, 1, 2), (2, 3, 4))

    def test_immutable(self):
        h = TripleSystem(3, [(0, 1, 2)])
        with pytest.raises(AttributeError):
            h.n = 5

    def test_neighborhood_and_codegree(self):
        h = TripleSystem(5, [(0, 1, 2), (0, 1, 3)])
        assert h.neighborhood(0, 1) == (2, 3)
        assert h.codegree(0, 1) == 2
        assert h.codegree(1, 0) == 2
        assert h.neighborhood(0, 0) == ()
        assert h.has_edge(1, 0, 2)
        assert not h.has_edge(0, 1, 4)

    def test_relabel(self):
        h = TripleSystem(4, [(0, 1, 2)])
        g = h.relabel((3, 2, 1, 0))
        assert g.edges == ((1, 2, 3),)
        with pytest.raises(ValueError):
            h.relabel((0, 0, 1, 2))


class TestCodegreeTable:
    def test_single_edge(self):
        table = build_codegree_table(TripleSystem(3, [(0, 1, 2)]))
        assert table.min_positive_codegree == 1
        assert table.support_pairs == {(0, 1), (0, 2), (1, 2)}

    def test_complete_on_five(self):
        assert min_positive_codegree(complete_triple_system(5)) == 3

    def test_balanced_3_partite_9(self):
        host, _ = construct_complete_k_partite(9, 3)
        assert min_positive_codegree(host) == 3

    def test_edgeless_undefined(self):
        h = TripleSystem(10)
        assert min_positive_codegree(h) is None
        assert build_codegree_table(h).min_positive_codegree is None
        assert min_codegree(h) == 0

    def test_table_matches_host(self):
        rng = random.Random(7)
        host = random_host(7, rng)
        table = build_codegree_table(host)
        for (u, v), nbhd in table.neighborhoods.items():
            for w in range(host.n):
                assert (w in nbhd) == host.has_edge(u, v, w) if w not in (u, v) else True
            assert nbhd == set(host.neighborhood(v, u))  # symmetry

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 8), st.randoms(use_true_random=False))
    def test_min_positive_codegree_matches_edge_scan(self, n, rng):
        host = random_host(n, rng)
        assert min_positive_codegree(host) == scan_min_positive_codegree(host)


class TestHostState:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 12), st.randoms(use_true_random=False))
    def test_toggles_match_a_rebuilt_host(self, n, rng):
        host = random_host(n, rng, density=rng.random())
        state = HostState(host)
        edges = set(host.edges)
        triples = list(itertools.combinations(range(n), 3))
        pairs = list(itertools.combinations(range(n), 2))
        for _ in range(40):
            t = triples[rng.randrange(len(triples))]
            state.toggle(t)
            edges ^= {t}
            rebuilt = TripleSystem(n, edges)
            assert state.pair_masks == rebuilt.pair_masks
            hist = [sum(1 for u, v in pairs if rebuilt.codegree(u, v) == c) for c in range(n - 1)]
            assert state.hist == hist
            delta = min_positive_codegree(rebuilt)
            if delta is None:
                expected = (0, 0)
            else:
                expected = (delta, -sum(1 for u, v in pairs if rebuilt.codegree(u, v) == delta))
            assert state.score() == expected

    def test_copies_the_host_table(self):
        host = TripleSystem(4, [(0, 1, 2)])
        state = HostState(host)
        state.toggle((0, 1, 2))
        assert host.has_edge(0, 1, 2)
        assert state.score() == (0, 0)


class TestConstruction:
    def test_three_parts_of_six(self):
        host, spec = construct_complete_k_partite(6, 3)
        assert spec.parts == ((0, 1), (2, 3), (4, 5))
        assert spec.is_balanced()
        assert host.edge_count == 8  # product of the part sizes
        assert min_positive_codegree(host) == 2

    def test_four_singleton_parts(self):
        host, spec = construct_complete_k_partite(4, 4)
        assert host.edges == tuple(complete_triple_system(4).edges)
        assert all(len(p) == 1 for p in spec.parts)

    def test_eleven_vertices_four_parts(self):
        host, spec = construct_complete_k_partite(11, 4)
        assert [len(p) for p in spec.parts] == [3, 3, 3, 2]  # larger parts first
        # n = 4k+3 with k = 2: the minimum positive co-degree must be 2k+1
        assert scan_min_positive_codegree(host) == 5
        assert min_positive_codegree(host) == known_extremal_value(11, "c5")

    def test_edge_count_is_product_of_part_sizes(self):
        for n in range(6, 20):
            host, spec = construct_complete_k_partite(n, 3)
            a, b, c = (len(p) for p in spec.parts)
            assert host.edge_count == a * b * c

    def test_rejects_bad_ranges(self):
        with pytest.raises(PreconditionViolated):
            construct_complete_k_partite(2, 3)
        with pytest.raises(PreconditionViolated):
            construct_complete_k_partite(5, 2)

    def test_partition_spec_validation(self):
        with pytest.raises(ValueError):
            PartitionSpec(((0, 1), (1, 2)))
        with pytest.raises(ValueError):
            PartitionSpec(((0, 1), (3,)))
        assert not PartitionSpec(((0, 1, 2), (3,))).is_balanced()


class TestKnownExtremalValue:
    @pytest.mark.parametrize(
        "n,family,expected",
        [
            (6, "c5minus", 2),
            (6, "c5", 2),
            (7, "c5", 3),
            (6, "k4minus", 2),
            (30, "c5minus", 10),
            (12, "c5", 6),
            (15, "c5", 7),
        ],
    )
    def test_values(self, n, family, expected):
        assert known_extremal_value(n, family) == expected

    def test_case_insensitive(self):
        assert known_extremal_value(8, "C5") == 4

    def test_rejects_small_n_and_unknown_family(self):
        with pytest.raises(PreconditionViolated):
            known_extremal_value(5, "c5")
        with pytest.raises(ValueError):
            known_extremal_value(9, "k4")

    def test_three_partite_matches_floor_third(self):
        for n in range(6, 31):
            host, _ = construct_complete_k_partite(n, 3)
            assert min_positive_codegree(host) == n // 3

    def test_four_partite_matches_closed_form(self):
        for n in range(6, 31):
            host, _ = construct_complete_k_partite(n, 4)
            assert min_positive_codegree(host) == known_extremal_value(n, "c5")
