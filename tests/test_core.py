import contextlib
import copy
import io
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from triplesys import (
    PreconditionViolated,
    TripleSystem,
    analyze_half_degree,
    build_codegree_table,
    complete_triple_system,
    construct_complete_k_partite,
    find_c5_witness,
    known_extremal_value,
    min_codegree,
    min_positive_codegree,
    parse_hypergraph,
    serialize_hypergraph,
    write_hypergraph,
)
from triplesys import cli
from triplesys.core import HostState, mask_vertices

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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 9), st.randoms(use_true_random=False))
    def test_unsorted_and_repeated_edges(self, n, rng):
        edges = [tuple(rng.sample(range(n), 3)) for _ in range(rng.randrange(3 * n))]
        edges += rng.sample(edges, len(edges) // 2)  # repeats, in any vertex order
        edges = [tuple(rng.sample(e, 3)) for e in edges]
        host = TripleSystem(n, edges)
        assert host.edges == tuple(sorted({tuple(sorted(e)) for e in edges}))
        assert host.edge_count == len(host.edges)
        masks = [[0] * n for _ in range(n)]
        for e in edges:
            for u, v, w in itertools.permutations(e):
                masks[u][v] |= 1 << w
        assert host.pair_masks == masks

    def test_immutable(self):
        h = TripleSystem(3, [(0, 1, 2)])
        with pytest.raises(AttributeError):
            h.n = 5
        with pytest.raises(AttributeError):
            h.edges = ()

    def test_copy_deepcopy_and_pickle(self):
        host = complete_triple_system(6)
        witness = find_c5_witness(host)
        certificate = analyze_half_degree(construct_complete_k_partite(8, 4)[0])
        for route in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            for original in (host, witness, certificate):
                assert route(original) == original
            clone = route(host)
            assert clone.edges == host.edges
            assert clone.pair_masks is not host.pair_masks
            assert not any(a is b for a, b in zip(clone.pair_masks, host.pair_masks))

    def test_neighborhood_and_codegree(self):
        h = TripleSystem(5, [(0, 1, 2), (0, 1, 3)])
        nbr = h.pair_masks
        assert mask_vertices(nbr[0][1]) == (2, 3)
        assert nbr[0][1].bit_count() == 2
        assert nbr[1][0].bit_count() == 2
        assert mask_vertices(nbr[0][0]) == ()
        assert h.has_edge(1, 0, 2)
        assert not h.has_edge(0, 1, 4)

    def test_zero_diagonal_however_built(self):
        # The witness code reads pair_masks[u][u] as the empty neighborhood of
        # a pair, so no way of making a host may write the diagonal.
        host = complete_triple_system(7)
        state = HostState(TripleSystem(7))
        for t in itertools.combinations(range(7), 3):
            state.toggle(t)
        padded = "n 7\n" + "".join(f"0{u} 0{v} 0{w}\n" for u, v, w in host.edges)
        hosts = (
            host,
            parse_hypergraph(serialize_hypergraph(host)),
            parse_hypergraph(padded),
            state.snapshot(),
            host.relabel((6, 5, 4, 3, 2, 1, 0)),
            pickle.loads(pickle.dumps(host)),
        )
        for h in hosts:
            assert h == host
            assert [h.pair_masks[u][u] for u in range(7)] == [0] * 7

    def test_relabel(self):
        h = TripleSystem(4, [(0, 1, 2)])
        g = h.relabel((3, 2, 1, 0))
        assert g.edges == ((1, 2, 3),)
        with pytest.raises(ValueError):
            h.relabel((0, 0, 1, 2))


def scan_codegrees(host: TripleSystem) -> list[int]:
    """Co-degree of every pair, by a per-pair scan of the edge list."""
    return [
        sum(1 for e in host.edges if u in e and v in e)
        for u, v in itertools.combinations(range(host.n), 2)
    ]


class TestCodegreeTable:
    def test_single_edge(self):
        assert build_codegree_table(TripleSystem(3, [(0, 1, 2)])) == [0, 3]
        assert build_codegree_table(TripleSystem(4, [(0, 1, 2)])) == [3, 3, 0]

    def test_complete_on_five(self):
        host = complete_triple_system(5)
        assert build_codegree_table(host) == [0, 0, 0, 10]
        assert min_positive_codegree(host) == 3

    def test_balanced_3_partite_9(self):
        host, _ = construct_complete_k_partite(9, 3)
        assert build_codegree_table(host) == [9, 0, 0, 27, 0, 0, 0, 0]
        assert min_positive_codegree(host) == 3

    def test_edgeless_undefined(self):
        h = TripleSystem(10)
        assert min_positive_codegree(h) is None
        assert build_codegree_table(h) == [45] + [0] * 8
        assert min_codegree(h) == 0
        for n in (0, 1):
            assert build_codegree_table(TripleSystem(n)) == [0]
            assert min_positive_codegree(TripleSystem(n)) is None
            assert min_codegree(TripleSystem(n)) == 0

    def test_table_matches_host(self):
        rng = random.Random(7)
        host = random_host(7, rng)
        degrees = scan_codegrees(host)
        table = build_codegree_table(host)
        assert table == [degrees.count(c) for c in range(6)]
        assert min_positive_codegree(host) == scan_min_positive_codegree(host)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 8), st.randoms(use_true_random=False))
    def test_min_positive_codegree_matches_edge_scan(self, n, rng):
        host = random_host(n, rng)
        assert min_positive_codegree(host) == scan_min_positive_codegree(host)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 9),
        st.one_of(st.just(0.0), st.floats(0, 1)),
        st.randoms(use_true_random=False),
    )
    def test_histogram_and_stats_match_edge_scan(self, tmp_path_factory, n, density, rng):
        host = random_host(n, rng, density)
        degrees = scan_codegrees(host)
        positive = [c for c in degrees if c]
        assert build_codegree_table(host) == [degrees.count(c) for c in range(max(n - 1, 1))]
        assert min_codegree(host) == min(degrees, default=0)
        path = tmp_path_factory.mktemp("stats") / "host.txt"
        write_hypergraph(str(path), host)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["stats", str(path)]) == 0
        assert out.getvalue().splitlines() == [
            f"n {n}",
            f"edges {len(host.edges)}",
            f"min_positive_codegree {min(positive, default='undefined')}",
            f"support_pairs {len(positive)}",
            f"min_codegree {min(degrees, default=0)}",
            f"max_codegree {max(positive, default='undefined')}",
        ]


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
            assert state.snapshot() == rebuilt
            codegree = [rebuilt.pair_masks[u][v].bit_count() for u, v in pairs]
            hist = [codegree.count(c) for c in range(n - 1)]
            assert state.hist == hist
            delta = min_positive_codegree(rebuilt)
            if delta is None:
                expected = (0, 0)
            else:
                expected = (delta, -codegree.count(delta))
            assert state.score() == expected

    def test_copies_the_host_table(self):
        host = TripleSystem(4, [(0, 1, 2)])
        state = HostState(host)
        state.toggle((0, 1, 2))
        assert host.has_edge(0, 1, 2)
        assert state.score() == (0, 0)


class TestConstruction:
    def test_three_parts_of_six(self):
        host, parts = construct_complete_k_partite(6, 3)
        assert parts == ((0, 1), (2, 3), (4, 5))
        assert host.edge_count == 8  # product of the part sizes
        assert min_positive_codegree(host) == 2

    def test_four_singleton_parts(self):
        host, parts = construct_complete_k_partite(4, 4)
        assert host.edges == tuple(complete_triple_system(4).edges)
        assert parts == ((0,), (1,), (2,), (3,))

    def test_eleven_vertices_four_parts(self):
        host, parts = construct_complete_k_partite(11, 4)
        assert [len(p) for p in parts] == [3, 3, 3, 2]  # larger parts first
        # n = 4k+3 with k = 2: the minimum positive co-degree must be 2k+1
        assert scan_min_positive_codegree(host) == 5
        assert min_positive_codegree(host) == known_extremal_value(11, "c5")

    def test_edge_count_is_product_of_part_sizes(self):
        for n in range(6, 20):
            host, parts = construct_complete_k_partite(n, 3)
            a, b, c = (len(p) for p in parts)
            assert host.edge_count == a * b * c

    def test_rejects_bad_ranges(self):
        with pytest.raises(PreconditionViolated):
            construct_complete_k_partite(2, 3)
        with pytest.raises(PreconditionViolated):
            construct_complete_k_partite(5, 2)
        with pytest.raises(PreconditionViolated, match="n <= 64"):
            construct_complete_k_partite(65, 3)


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
