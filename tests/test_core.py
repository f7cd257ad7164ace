import contextlib
import copy
import io
import itertools
import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from triplesys import (
    PreconditionViolated,
    TripleSystem,
    analyze_half_degree,
    build_codegree_table,
    construct_complete_k_partite,
    find_c5_witness,
    known_extremal_value,
    min_codegree,
    min_positive_codegree,
    parse_hypergraph,
    serialize_hypergraph,
    write_hypergraph,
)
from triplesys import cli, core
from triplesys.core import HostState, mask_vertices

from conftest import (
    AG23_LINES,
    FANO_LINES,
    blow_up,
    complete_triple_system,
    no_twins,
    random_host,
    reference_triple_system,
    relabel,
    scan_min_positive_codegree,
    steiner_join,
)

#: One n per field width of the cube, 3 to 6 bits, at its least and
#: greatest n, and the hosts too small for an edge.
_CUBE_NS = (0, 1, 3, 8, 9, 16, 17, 32, 33, 64)
#: Bad edges, each made from a triple of distinct vertices (a, b, c) of a
#: host on n vertices whose cube has k-bit fields.
_BAD_EDGES = {
    "two": lambda a, b, c, n, k: (a, b),
    "four": lambda a, b, c, n, k: (a, b, c, a),
    "repeated": lambda a, b, c, n, k: (a, b, a),
    "minus-one": lambda a, b, c, n, k: (a, b, -1),
    "n": lambda a, b, c, n, k: (a, b, n),
    "beyond-the-cube": lambda a, b, c, n, k: (a, b, 2**k + 2),
    "float": lambda a, b, c, n, k: (a, float(b), c),
    "str": lambda a, b, c, n, k: (a, str(b), c),
    "bool": lambda a, b, c, n, k: (1, True, 2),
}


@st.composite
def _edge_lists(draw):
    """(n, edges): random triples in shuffled vertex order, some repeated,
    and up to two bad edges from _BAD_EDGES at random places."""
    n = draw(st.sampled_from(_CUBE_NS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = []
    if n >= 3:
        edges = [tuple(rng.sample(range(n), 3)) for _ in range(draw(st.integers(0, 4 * n)))]
        edges += [tuple(rng.sample(e, 3)) for e in edges[: draw(st.integers(0, len(edges)))]]
        rng.shuffle(edges)
    k = max(3, (n - 1).bit_length())
    for bad in draw(st.lists(st.sampled_from(sorted(_BAD_EDGES)), max_size=2)):
        a, b, c = rng.sample(range(max(n, 3)), 3)
        edges.insert(rng.randint(0, len(edges)), _BAD_EDGES[bad](a, b, c, n, k))
    return n, edges


def _build_outcome(build, n, edges):
    """A construction's result in comparable form: the table, or the error."""
    try:
        host = build(n, edges)
    except Exception as err:
        return ("error", type(err), str(err))
    return ("host", host.n, host.pair_masks)


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
        with pytest.raises(ValueError) as err:
            TripleSystem(0, [(0, 1, 2)])
        assert str(err.value) == "edge (0, 1, 2) has a vertex out of range: the host has no vertices"

    @settings(max_examples=300, deadline=None)
    @given(_edge_lists())
    @example((0, [(0, 1, 2)]))
    @example((3, [(1, True, 2)]))
    @example((3, [(0, True, 2), (2, 1, 0)]))
    @example((64, [(63, 0, 1), (0, 1, 66)]))
    @example((9, [(8, 0, 1), (1, 0, -1)]))
    def test_constructor_matches_the_reference(self, case):
        n, edges = case
        assert _build_outcome(TripleSystem, n, edges) == _build_outcome(
            reference_triple_system, n, edges
        )
        # a one-pass iterator: the loop must see the edges the cube saw
        assert _build_outcome(TripleSystem, n, iter(edges)) == _build_outcome(
            reference_triple_system, n, edges
        )

    def test_valid_edge_lists_never_reach_the_loop(self, monkeypatch):
        # every other test passes with a cube that declines every list
        def loop(n, edges):
            raise AssertionError("the edge loop read a valid edge list")

        rng = random.Random(27)
        lists = [
            list(itertools.combinations(range(64), 3)),
            list(construct_complete_k_partite(64, 4)[0].edges),
            list(steiner_join(FANO_LINES, 64).edges),
            [tuple(rng.sample(range(64), 3)) for _ in range(3000)],
        ]
        # each in shuffled vertex order, every edge twice
        lists += [[tuple(rng.sample(e, 3)) for e in edges * 2] for edges in lists]
        monkeypatch.setattr(core, "_edge_loop", loop)
        for edges in lists:
            assert TripleSystem(64, edges) == reference_triple_system(64, edges)
        assert complete_triple_system(64).edge_count == 41664
        assert TripleSystem(64).edge_count == 0

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
            relabel(host, (6, 5, 4, 3, 2, 1, 0)),
            pickle.loads(pickle.dumps(host)),
            construct_complete_k_partite(7, 7)[0],  # seven singleton parts
        )
        for h in hosts:
            assert h == host
            assert [h.pair_masks[u][u] for u in range(7)] == [0] * 7

    def test_relabel(self):
        h = TripleSystem(4, [(0, 1, 2)])
        g = relabel(h, (3, 2, 1, 0))
        assert g.edges == ((1, 2, 3),)
        with pytest.raises(ValueError):
            relabel(h, (0, 0, 1, 2))


def twin_classes(host: TripleSystem) -> list[list[int]]:
    """The classes ``host.twins`` lists, each in ascending order."""
    first, nxt = host.twins
    assert len(nxt) == host.n
    classes = []
    for v in mask_vertices(first):
        members = [v]
        while nxt[members[-1]]:
            members.append(nxt[members[-1]].bit_length() - 1)
        classes.append(members)
    return classes


def check_twin_classes(host: TripleSystem) -> list[list[int]]:
    """Brute force: the listed classes are exactly the sets of vertices whose
    swaps fix the host, ``relabel(host, swap) == host``.  A swap moves only
    the edges through its two vertices, so those are the edges tried.  Swaps
    compose, so it is enough that consecutive members of a class swap and
    the least members of two classes do not."""
    classes = twin_classes(host)
    assert sorted(v for c in classes for v in c) == list(range(host.n))
    through = [[] for _ in range(host.n)]
    for e in host.edges:
        for v in e:
            through[v].append(e)

    def swap_fixes(x, y):
        swap = {x: y, y: x}
        return all(
            host.has_edge(*(swap.get(v, v) for v in e)) for e in through[x] + through[y]
        )

    for c in classes:
        assert c == sorted(c)
        assert all(swap_fixes(x, y) for x, y in zip(c, c[1:]))
    for c, d in itertools.combinations(classes, 2):
        assert not swap_fixes(c[0], d[0])
    return classes


class TestTwins:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10),
        st.sampled_from([0.02, 0.1, 0.5, 0.9, 0.98]),
        st.randoms(use_true_random=False),
    )
    def test_random_hosts(self, n, density, rng):
        host = random_host(n, rng, density=density)
        classes = check_twin_classes(host)
        if n < 2:  # no edges, and at most one vertex
            assert host.twins == no_twins(n)
        # on hosts this small, every swap is tried on the whole host too
        for x, y in itertools.combinations(range(n), 2):
            perm = list(range(n))
            perm[x], perm[y] = y, x
            same = any(x in c and y in c for c in classes)
            assert (relabel(host, perm) == host) == same

    @pytest.mark.parametrize(
        "sizes", [(1, 2, 3), (5, 1, 1, 4), (2, 2, 2, 2, 2), (7, 3, 1), (1, 1, 1), (9, 4, 4, 12)]
    )
    def test_blow_ups(self, sizes):
        # each part is a class, except that the parts of one vertex make one
        # class together
        host = blow_up(sizes, random.Random(sum(sizes)))
        classes = check_twin_classes(host)
        singles = sizes.count(1)
        expected = sorted([s for s in sizes if s > 1] + ([singles] if singles else []))
        assert sorted(map(len, classes)) == expected

    def test_complete_host_is_one_class(self):
        host = complete_triple_system(64)
        assert check_twin_classes(host) == [list(range(64))]

    @pytest.mark.parametrize("lines, n", [(FANO_LINES, 12), (AG23_LINES, 16)], ids=["fano", "ag23"])
    def test_steiner_join(self, lines, n):
        # the independent set S is one class; no swap fixes the Steiner system
        t = n // 2 + 1
        host = steiner_join(lines, n)
        assert check_twin_classes(host) == [[v] for v in range(t)] + [list(range(t, n))]

    @pytest.mark.parametrize("k", [3, 4])
    def test_partite_host_with_edges_removed_has_no_twins(self, k):
        rng = random.Random(k)
        host = blow_up([64 // k + (i < 64 % k) for i in range(k)], rng)
        assert len(check_twin_classes(host)) == k
        thinned = TripleSystem(64, [e for e in host.edges if rng.random() >= 0.05])
        assert check_twin_classes(thinned) == [[v] for v in range(64)]


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


def _scanned_score(nbr) -> tuple[int, int]:
    """HostState.score read off a fresh scan of the pair masks."""
    codegrees = [m.bit_count() for u, row in enumerate(nbr) for m in row[u + 1:]]
    low = min((c for c in codegrees if c), default=0)
    return (low, -codegrees.count(low)) if low else (0, 0)


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
            assert state.toggle(t) is (t not in edges)  # True iff it added t
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

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(4, 24),
        st.sampled_from(["edgeless", "complete", "random"]),
        st.randoms(use_true_random=False),
    )
    def test_score_after_is_the_score_a_toggle_gives(self, n, start, rng):
        if start == "random":
            host = random_host(n, rng, density=rng.random())
        else:
            host = complete_triple_system(n) if start == "complete" else TripleSystem(n)
        state = HostState(host)
        nbr = state.pair_masks
        triples = list(itertools.combinations(range(n), 3))
        pairs = list(itertools.combinations(range(n), 2))
        for _ in range(6):
            # random triples, and triples on pairs at co-degree 0 and at the
            # minimum, completed by a random third vertex: each adds or removes
            codegree = {p: nbr[p[0]][p[1]].bit_count() for p in pairs}
            low = min((c for c in codegree.values() if c), default=0)
            proposals = [triples[rng.randrange(len(triples))] for _ in range(8)]
            for c in {0, low}:
                at = [p for p in pairs if codegree[p] == c]
                for u, v in rng.sample(at, min(len(at), 6)):
                    w = rng.choice([x for x in range(n) if x not in (u, v)])
                    proposals.append(tuple(sorted((u, v, w))))
            for t in proposals:
                before = ([row[:] for row in nbr], state.hist[:], state.low)
                score = state.score_after(t)
                assert ([row[:] for row in nbr], state.hist, state.low) == before
                state.toggle(t)
                assert score == state.score() == _scanned_score(nbr)
                state.toggle(t)
            state.toggle(triples[rng.randrange(len(triples))])

    def test_copies_the_host_table(self):
        host = TripleSystem(4, [(0, 1, 2)])
        state = HostState(host)
        state.toggle((0, 1, 2))
        assert host.has_edge(0, 1, 2)
        assert state.score() == (0, 0)


def reference_k_partite(n, k):
    """The construction by enumeration: balanced parts, larger first, in index
    order, and every triple that meets three distinct parts, through the
    checking constructor."""
    big = n % k
    sizes = [n // k + 1] * big + [n // k] * (k - big)
    parts, start = [], 0
    for size in sizes:
        parts.append(tuple(range(start, start + size)))
        start += size
    part_of = {v: i for i, part in enumerate(parts) for v in part}
    edges = [
        t for t in itertools.combinations(range(n), 3) if len({part_of[v] for v in t}) == 3
    ]
    return TripleSystem(n, edges), tuple(parts)


class TestConstruction:
    def test_matches_the_enumeration_up_to_sixteen(self):
        # host equality compares the pair-mask tables, diagonal included
        for n in range(3, 17):
            for k in range(3, n + 1):
                assert construct_complete_k_partite(n, k) == reference_k_partite(n, k), (n, k)

    @pytest.mark.parametrize("k", [3, 4, 5, 63, 64])
    def test_matches_the_enumeration_at_sixty_four(self, k):
        assert construct_complete_k_partite(64, k) == reference_k_partite(64, k)

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
