import hashlib
import inspect
import itertools
import random
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from triplesys import (
    C5,
    K4,
    Embedding,
    InternalContradiction,
    PreconditionViolated,
    StructureCertificate,
    TripleSystem,
    analyze_half_degree,
    construct_complete_k_partite,
    find_c5_witness,
    find_embedding,
    find_c5minus_witness,
    is_free,
    known_extremal_value,
    mask_vertices,
    min_positive_codegree,
    validate_embedding,
)
from triplesys.fileio import result_to_json
from triplesys.witness import (
    FACT_NAMES, IDX_PAIRS, _ab_cells, _c5_from_quad, _Ctx, _extract_c5_k4free, _fifth_vertex,
    _FoundC5, _HalfDegreeAnalyzer, _k4minus_base, _neighbor_matrix,
)

from conftest import (
    AG23_LINES, FANO_LINES, check_fact, complete_triple_system, naive_find_embedding,
    random_host, random_host_above, relabel, scan_min_positive_codegree, steiner_join,
)


def _without_pair(n, u, v):
    """Complete host minus every edge through one pair; co-degree n/2 at even n."""
    edges = [e for e in complete_triple_system(n).edges if not (u in e and v in e)]
    return TripleSystem(n, edges)


def _deep_host_8():
    """8 vertices, co-degree 4, with a K4 whose apex B-cell is {4, 5}.

    Drives the analysis through the class and pairing machinery; the cell
    structure forces a tight 5-cycle, which the machinery must surface.
    """
    e = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    e += [(1, 2, 6), (1, 3, 6), (2, 3, 6), (1, 2, 7), (1, 3, 7), (2, 3, 7)]
    e += [(0, 1, 4), (0, 2, 4), (0, 3, 4), (0, 1, 5), (0, 2, 5), (0, 3, 5)]
    e += [(1, 4, 6), (2, 4, 6), (3, 4, 6), (1, 4, 7), (2, 4, 7), (3, 4, 7)]
    e += [(1, 5, 6), (2, 5, 6), (3, 5, 6), (1, 5, 7), (2, 5, 7), (3, 5, 7)]
    e += [(1, 4, 5), (2, 4, 5), (3, 4, 5), (0, 4, 5)]
    e += [(4, 5, 6), (4, 5, 7)]
    return TripleSystem(8, e)


class TestFindC5MinusWitness:
    def test_complete_six(self):
        emb = find_c5minus_witness(complete_triple_system(6))
        assert emb.pattern.name == "c5minus" and validate_embedding(emb)

    def test_extremal_construction_rejected(self):
        host, _ = construct_complete_k_partite(9, 3)
        with pytest.raises(PreconditionViolated):
            find_c5minus_witness(host)

    def test_small_host_rejected(self):
        with pytest.raises(PreconditionViolated):
            find_c5minus_witness(complete_triple_system(5))

    def test_edgeless_host_says_undefined(self):
        # an edgeless host has no min positive co-degree: the message says
        # so as `stats` does
        with pytest.raises(PreconditionViolated) as exc:
            find_c5minus_witness(TripleSystem(7))
        assert str(exc.value) == (
            "need min positive co-degree >= 3 (strictly above n/3), got undefined"
        )

    def test_missing_anchor_edge_case(self):
        # The least 3-of-4 anchor is (2,0,1,3) and its fourth edge {0,1,3}
        # is absent, so the pivot-neighborhood case must fire.
        edges = [e for e in complete_triple_system(6).edges if e != (0, 1, 3)]
        host = TripleSystem(6, edges)
        assert min_positive_codegree(host) == 3
        emb = find_c5minus_witness(host)
        assert validate_embedding(emb)
        assert not host.has_edge(0, 1, 3)

    def test_disjoint_reduced_pairs_case(self):
        # Hand-built so the least qualifying fifth vertex (4) lies in exactly
        # the reduced neighborhoods of the disjoint base pairs {0,1} and {2,3}.
        e = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4), (2, 3, 4)]
        e += [(0, 2, 5), (0, 3, 5), (1, 2, 5), (1, 3, 5)]
        e += [(0, 4, 6), (0, 4, 7), (1, 4, 6), (1, 4, 7)]
        e += [(2, 4, 6), (2, 4, 7), (3, 4, 6), (3, 4, 7)]
        e += [(0, 5, 6), (1, 5, 6), (2, 5, 6), (3, 5, 6)]
        e += [(0, 6, 7), (1, 6, 7), (2, 6, 7), (3, 6, 7)]
        e += [(0, 5, 7), (1, 5, 7), (2, 5, 7), (3, 5, 7)]
        host = TripleSystem(8, e)
        assert min_positive_codegree(host) == 3  # threshold for n = 8
        emb = find_c5minus_witness(host)
        assert validate_embedding(emb)
        assert emb.map[0] == 4  # disjoint-pairs shape starts at the fifth vertex

    def test_deterministic(self):
        host = complete_triple_system(7)
        assert find_c5minus_witness(host).map == find_c5minus_witness(host).map


class TestFindC5Witness:
    def test_complete_six_and_seven(self):
        for n in (6, 7):
            emb = find_c5_witness(complete_triple_system(n))
            assert emb.pattern.name == "c5" and validate_embedding(emb)

    def test_extremal_construction_rejected(self):
        host, _ = construct_complete_k_partite(8, 4)
        with pytest.raises(PreconditionViolated):
            find_c5_witness(host)

    def test_small_host_rejected(self):
        with pytest.raises(PreconditionViolated):
            find_c5_witness(complete_triple_system(5))

    def test_edgeless_host_says_undefined(self):
        with pytest.raises(PreconditionViolated) as exc:
            find_c5_witness(TripleSystem(8))
        assert str(exc.value) == (
            "need min positive co-degree >= 5 (strictly above n/2), got undefined"
        )


class TestK4FreeExtraction:
    """The extractor branches on the apex hits of the fifth vertex: how many
    of the three neighborhoods through the apex of the anchor that
    _k4minus_base picks contain it.  That anchor is the least 3-of-4
    configuration, not the one (0, 1, 2, 3) the hosts are written around."""

    @staticmethod
    def _apex_hits(host):
        base = _k4minus_base(host)
        nm = _neighbor_matrix(host, base)
        v5 = _fifth_vertex(host, base, nm, 4)
        return sum(nm[0][t] >> v5 & 1 for t in (1, 2, 3))

    @pytest.mark.parametrize("hit_pair", [(1, 2), (1, 3), (2, 3)])
    def test_fifth_vertex_in_one_apex_neighborhood(self, hit_pair):
        # K4-free; vertex 4 lies in N(0, x), N(0, y), N(x, z) and N(y, z).  The
        # anchor contains vertex 4, such as (1, 0, 3, 4) for (x, y) = (1, 2),
        # and its fifth vertex lies in one apex neighborhood.
        x, y = hit_pair
        z = 6 - x - y
        edges = [(0, 1, 2), (0, 1, 3), (0, 2, 3)]
        edges += [tuple(sorted((0, t, 4))) for t in (x, y)]
        edges += [tuple(sorted((x, z, 4))), tuple(sorted((y, z, 4)))]
        host = TripleSystem(6, edges)
        assert is_free(host, K4)
        assert self._apex_hits(host) == 1
        emb = Embedding(C5, host, _extract_c5_k4free(host))
        assert validate_embedding(emb)

    @pytest.mark.parametrize("hit", [1, 2, 3])
    def test_fifth_vertex_in_two_apex_neighborhoods(self, hit):
        # K4-free; vertex 4 lies in N(0, hit) and the three pairs of {1, 2, 3}.
        # The anchor has apex hit and contains vertex 4, such as (1, 0, 2, 4)
        # for hit 1, and its fifth vertex lies in two apex neighborhoods.
        edges = [(0, 1, 2), (0, 1, 3), (0, 2, 3), tuple(sorted((0, hit, 4)))]
        edges += [(1, 2, 4), (1, 3, 4), (2, 3, 4)]
        host = TripleSystem(6, edges)
        assert is_free(host, K4)
        assert self._apex_hits(host) == 2
        emb = Embedding(C5, host, _extract_c5_k4free(host))
        assert validate_embedding(emb)


class TestFifthVertex:
    """Each extractor's fifth-vertex scan, called as the extractor calls it,
    on a host where the vertex the counting argument promises is missing: a
    K4 on 0..3, and each vertex outside it in h - 1 of the scanned pairs'
    neighborhoods."""

    PIVOT = ((1, 0), (1, 2), (1, 3))

    @pytest.mark.parametrize("h, rest, message", [
        # find_c5minus_witness, the anchor without v2v3v4
        (2, (PIVOT, "pivot"), "no fifth vertex in two of the pivot neighborhoods"),
        # find_c5minus_witness, the anchor a K4
        (2, (IDX_PAIRS, "reduced"), "no fifth vertex in two of the reduced neighborhoods"),
        # _extract_c5_k4free and find_c5_witness
        (4, (), "no fifth vertex in four of the six base neighborhoods"),
    ], ids=["c5minus-pivot", "c5minus-k4", "c5-and-k4-free"])
    def test_no_fifth_vertex_is_a_contradiction(self, h, rest, message):
        pairs = rest[0] if rest else IDX_PAIRS
        base = (0, 1, 2, 3)
        edges = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        edges += [(base[i], base[j], v) for v in (4, 5, 6) for i, j in pairs[:h - 1]]
        host = TripleSystem(7, edges)
        with pytest.raises(InternalContradiction) as exc:
            _fifth_vertex(host, base, _neighbor_matrix(host, base), h, *rest)
        assert exc.value.args[0] == message
        state = exc.value.state
        assert set(state) == {"base", "delta", "neighborhoods"}
        assert state["base"] == base
        assert state["delta"] == min_positive_codegree(host)
        # the scanned neighborhoods less the base: all of 4..6 in the first h - 1
        reduced = state["neighborhoods"]
        assert list(reduced) == [(base[i], base[j]) for i, j in pairs]
        assert list(reduced.values()) == [(4, 5, 6)] * (h - 1) + [()] * (len(pairs) - h + 1)


class TestAnalyzeHalfDegree:
    def test_all_triples_on_four_vertices(self):
        cert = analyze_half_degree(complete_triple_system(4))
        assert isinstance(cert, StructureCertificate)
        assert cert.a_sets == (frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3}))
        assert all(not b for b in cert.b_sets)
        assert cert.q == 1 and cert.r0 == 0
        assert cert.verify()

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_balanced_4_partite(self, n):
        host, parts = construct_complete_k_partite(n, 4)
        cert = analyze_half_degree(host)
        assert isinstance(cert, StructureCertificate)
        assert cert.q == n // 4 and cert.r0 == 0
        assert all(not b for b in cert.b_sets)
        assert set(cert.a_sets) == {frozenset(p) for p in parts}
        assert cert.verify()

    def test_below_half_rejected(self):
        host, _ = construct_complete_k_partite(10, 4)
        with pytest.raises(PreconditionViolated):
            analyze_half_degree(host)

    def test_odd_vertex_count_rejected(self):
        with pytest.raises(PreconditionViolated):
            analyze_half_degree(complete_triple_system(5))

    def test_edgeless_host_says_undefined(self):
        with pytest.raises(PreconditionViolated) as exc:
            analyze_half_degree(TripleSystem(8))
        assert str(exc.value) == "need min positive co-degree exactly n/2 = 4, got undefined"

    def test_dense_boundary_host_yields_cycle(self):
        host = _without_pair(6, 4, 5)
        assert min_positive_codegree(host) == 3
        emb = analyze_half_degree(host)
        assert emb.pattern.name == "c5" and validate_embedding(emb)

    def test_deep_machinery_surfaces_cycle(self):
        host = _deep_host_8()
        assert min_positive_codegree(host) == 4
        exercised = []
        emb = analyze_half_degree(host, on_fact=exercised.append)
        assert validate_embedding(emb)
        # the host reaches the class machinery before the cycle surfaces
        assert FACT_NAMES[10] in exercised

    def test_cross_pair_violation_surfaces_cycle(self):
        # 10 vertices, co-degree 5, cells A = ({0,4,5}, {1,6}, {2,7}, {3,8}),
        # B = ({9},,,) around the anchor; the edge {1,4,5} breaks one
        # cross-cell neighborhood equality, so the analysis walks through the
        # derived bases and must surface the cycle there.
        missing = [
            (0, 1, 4), (0, 1, 5), (0, 1, 6), (0, 2, 4), (0, 2, 5), (0, 2, 7),
            (0, 3, 4), (0, 3, 5), (0, 3, 8), (1, 2, 6), (1, 2, 7), (1, 2, 9),
            (1, 3, 6), (1, 3, 8), (1, 3, 9), (2, 3, 7), (2, 3, 8), (2, 3, 9),
        ]
        keep = set(complete_triple_system(10).edges) - set(missing)
        host = TripleSystem(10, keep)
        assert min_positive_codegree(host) == 5
        exercised = []
        emb = analyze_half_degree(host, on_fact=exercised.append)
        assert validate_embedding(emb) and emb.pattern.name == "c5"
        assert FACT_NAMES[3] in exercised  # the cross-pair sweep ran

    def test_intransitive_empty_pairs_surface_cycle(self):
        # 12 vertices, co-degree 6, one nonempty B-cell {8,9,10,11} where
        # 8 is empty-paired with both 9 and 10 but 9 and 10 are not: the
        # equivalence check fails and the partner machinery must deliver
        # the cycle through a secondary base.
        missing = [
            (0, 1, 4), (0, 1, 5), (0, 1, 6), (0, 1, 7), (0, 2, 4), (0, 2, 5),
            (0, 2, 6), (0, 2, 7), (0, 3, 4), (0, 3, 5), (0, 3, 6), (0, 3, 7),
            (0, 8, 9), (0, 8, 10), (1, 2, 8), (1, 2, 9), (1, 2, 10), (1, 2, 11),
            (1, 3, 8), (1, 3, 9), (1, 3, 10), (1, 3, 11), (1, 4, 5), (1, 4, 6),
            (1, 4, 7), (1, 5, 6), (1, 5, 7), (1, 6, 7), (1, 8, 9), (1, 8, 10),
            (2, 3, 8), (2, 3, 9), (2, 3, 10), (2, 3, 11), (2, 4, 5), (2, 4, 6),
            (2, 4, 7), (2, 5, 6), (2, 5, 7), (2, 6, 7), (2, 8, 9), (2, 8, 10),
            (3, 4, 5), (3, 4, 6), (3, 4, 7), (3, 5, 6), (3, 5, 7), (3, 6, 7),
            (3, 8, 9), (3, 8, 10), (4, 8, 9), (4, 8, 10), (5, 8, 9), (5, 8, 10),
            (6, 8, 9), (6, 8, 10), (7, 8, 9), (7, 8, 10), (8, 9, 10), (8, 9, 11),
            (8, 10, 11),
        ]
        keep = set(complete_triple_system(12).edges) - set(missing)
        host = TripleSystem(12, keep)
        assert min_positive_codegree(host) == 6
        nbr = host.pair_masks
        assert not nbr[8][9] and not nbr[8][10]
        assert nbr[9][10]
        exercised = []
        emb = analyze_half_degree(host, on_fact=exercised.append)
        assert validate_embedding(emb) and emb.pattern.name == "c5"
        assert FACT_NAMES[10] in exercised  # the equivalence check ran

    def test_two_nonempty_cells_surface_cycle(self):
        # 10 vertices, co-degree 5: the anchor K4 (0,1,2,3) passes the
        # neighborhood checks with cells A = ({0,4,5}, {1,6}, {2}, {3}) and
        # two nonempty B-cells ({7,8} and {9}), so the exclusion hunt must
        # produce the cycle.  Stored as the complement of the complete host.
        missing = [
            (0, 1, 4), (0, 1, 5), (0, 1, 6), (0, 2, 4), (0, 2, 5), (0, 2, 9),
            (0, 3, 4), (0, 3, 5), (0, 3, 9), (1, 2, 6), (1, 2, 7), (1, 2, 8),
            (1, 3, 6), (1, 3, 7), (1, 3, 8), (2, 3, 7), (2, 3, 8), (2, 3, 9),
        ]
        keep = set(complete_triple_system(10).edges) - set(missing)
        host = TripleSystem(10, keep)
        assert min_positive_codegree(host) == 5
        exercised = []
        emb = analyze_half_degree(host, on_fact=exercised.append)
        assert validate_embedding(emb) and emb.pattern.name == "c5"
        assert FACT_NAMES[5] in exercised  # the exclusion sweep ran

    def test_boundary_sweep_never_contradicts(self):
        rng = random.Random(20250808)
        certs = cycles = 0
        for n in (6, 8):
            for _ in range(40):
                host = random_host_above(n, n // 2, rng)
                if min_positive_codegree(host) != n // 2:
                    continue
                result = analyze_half_degree(host)
                if isinstance(result, StructureCertificate):
                    assert result.verify()
                    # cross-check: every applicable fact holds on the same base
                    for fact_id in range(1, 11):
                        assert check_fact(host, result.base, fact_id).holds
                    certs += 1
                else:
                    assert validate_embedding(result)
                    cycles += 1
        assert certs + cycles > 0


class TestSteinerJoin:
    """The first valid hosts whose boundary certificate has r0 > 0: a Steiner
    triple system on T = 0..n/2 joined to an independent S.  The base K4
    takes three T vertices and one S vertex; its apex B-cell is the rest of
    T, split into r0 singleton classes that the secondary bases pair up."""

    @pytest.mark.parametrize("lines, n", [(FANO_LINES, 12), (AG23_LINES, 16)], ids=["fano", "ag23"])
    def test_certified_with_singleton_classes(self, lines, n):
        host = steiner_join(lines, n)
        assert is_free(host, C5)
        delta = min_positive_codegree(host)
        assert delta == scan_min_positive_codegree(host) == known_extremal_value(n, "c5") == n // 2
        cert = analyze_half_degree(host)
        assert isinstance(cert, StructureCertificate)
        assert (cert.q, cert.r0) == (1, n // 2 - 2)
        assert [len(c) for c in cert.classes] == [1] * cert.r0
        assert cert.verify()
        for fact_id in range(1, 11):
            report = check_fact(host, cert.base, fact_id)
            assert report.hypothesis_met and report.holds, report

    def test_fano_join_certificate(self):
        host = steiner_join(FANO_LINES, 12)
        assert naive_find_embedding(host, C5) is None
        cert = analyze_half_degree(host)
        assert cert.base == (0, 1, 3, 7)
        assert cert.b_sets == (frozenset(), frozenset(), frozenset(), frozenset({2, 4, 5, 6}))
        assert cert.classes == tuple(frozenset({v}) for v in (2, 4, 5, 6))
        assert cert.pairing == ((0, 3), (1, 2))


class TestCheckFact:
    def test_rejects_non_k4_base(self):
        host, _ = construct_complete_k_partite(8, 4)
        # 0,1 share a part: not a K4; then five entries over four vertices,
        # the K4 (0, 2, 4, 6) with a repeated vertex, a vertex outside the host
        # and a float vertex
        for base in [
            (0, 1, 2, 3), (0, 1, 2, 3, 3), (0, 2, 4, 6, 6), (0, 2, 4, 4), (0, 2, 4, 8), (0, 2, 4, 6.0)
        ]:
            with pytest.raises(PreconditionViolated, match="spanning a K4"):
                check_fact(host, base, 1)

    def test_rejects_bad_fact_id(self):
        # a bool or a float equal to a valid fact id is not one
        host, _ = construct_complete_k_partite(8, 4)
        for fact_id in (11, True, 1.0):
            with pytest.raises(PreconditionViolated):
                check_fact(host, (0, 2, 4, 6), fact_id)

    def test_four_partite_eight_facts_one_and_two(self):
        host, _ = construct_complete_k_partite(8, 4)
        base = (0, 2, 4, 6)
        r1 = check_fact(host, base, 1)
        assert r1.hypothesis_met and r1.holds and r1.counterexample is None
        r2 = check_fact(host, base, 2)
        assert r2.hypothesis_met and r2.holds

    def test_all_triples_host_fact_four(self):
        report = check_fact(complete_triple_system(4), (0, 1, 2, 3), 4)
        assert report.holds

    def test_all_facts_hold_on_certified_hosts(self):
        for host, base in [
            (complete_triple_system(4), (0, 1, 2, 3)),
            (construct_complete_k_partite(8, 4)[0], (0, 2, 4, 6)),
        ]:
            for fact_id in range(1, 11):
                report = check_fact(host, base, fact_id)
                assert report.holds, (fact_id, report)

    def test_failing_fact_reports_counterexample_and_cycle(self):
        host = _without_pair(6, 4, 5)
        report = check_fact(host, (0, 1, 2, 3), 1)
        assert report.hypothesis_met
        assert not report.holds
        assert report.counterexample is not None
        assert report.c5_found is not None and validate_embedding(report.c5_found)

    def test_hypothesis_not_met_reported(self):
        host = complete_triple_system(6)  # co-degree 4 != 3 = n/2
        report = check_fact(host, (0, 1, 2, 3), 1)
        assert not report.hypothesis_met
        assert not report.holds
        report7 = check_fact(host, (0, 1, 2, 3), 7)
        assert not report7.hypothesis_met and report7.holds  # vacuous

    @pytest.mark.parametrize("fact_id", range(1, 11))
    def test_every_hypothesis_is_met_on_the_deep_host(self, fact_id):
        # its apex B-cell {4, 5} is nonempty, so facts 5-10 have cells to scan;
        # on the hosts above, facts 6-10 hold only vacuously
        report = check_fact(_deep_host_8(), (0, 1, 2, 3), fact_id)
        assert report.hypothesis_met and report.holds, report

    def test_names_match_catalog(self):
        host = complete_triple_system(4)
        for fact_id, name in FACT_NAMES.items():
            assert check_fact(host, (0, 1, 2, 3), fact_id).name == name


def _planted_cells_host(d, b_sizes, rng):
    """A host whose base (0, 1, 2, 3) has cells of sizes |A_i| = b_i + d, |B_i| = b_i.

    Every edge through two base vertices follows the planted cells, so each
    base pair has co-degree exactly n/2 and the pairings are complementary;
    the edges with at most one base vertex are random.
    """
    cells = [(0, i) for i in range(4) for _ in range(b_sizes[i] + d - 1)]
    cells += [(1, i) for i in range(4) for _ in range(b_sizes[i])]
    n = 4 + len(cells)
    edges = [t for t in itertools.combinations(range(4, n), 3) if rng.random() < 0.5]
    edges += [(v, w, x) for v in range(4) for w, x in itertools.combinations(range(4, n), 2)
              if rng.random() < 0.5]
    edges += list(itertools.combinations(range(4), 3))
    for w, (kind, i) in enumerate(cells, start=4):
        for j, k in itertools.combinations(range(4), 2):
            if (i in (j, k)) == (kind == 1):
                edges.append((j, k, w))
    return TripleSystem(n, edges)


class TestABCells:
    """_ab_cells against set intersections of the base-pair neighborhoods."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_cells_match_set_intersections(self, data):
        from triplesys.witness import (
            _ab_cells, _FoundC5, _HalfDegreeAnalyzer, _neighbor_matrix,
        )

        rng = data.draw(st.randoms(use_true_random=False))
        if data.draw(st.booleans()):
            d = data.draw(st.integers(1, 2))
            b_sizes = data.draw(st.lists(st.integers(0, 2), min_size=4, max_size=4))
            assume(2 * sum(b_sizes) + 4 * d <= 12)
            host = _planted_cells_host(d, b_sizes, rng)
            base = (0, 1, 2, 3)
        else:
            n = data.draw(st.integers(4, 12))
            base = tuple(rng.sample(range(n), 4))
            k4 = list(itertools.combinations(base, 3))
            host = TripleSystem(n, random_host(n, rng, rng.random()).edges + tuple(k4))
        perm = list(range(host.n))
        rng.shuffle(perm)
        host = relabel(host, perm)
        base = tuple(perm[v] for v in base)

        def nbhd(i, j):
            return frozenset(mask_vertices(host.pair_masks[base[i]][base[j]]))

        amask, bmask = _ab_cells(_neighbor_matrix(host, base))
        a_sets, b_sets = [], []
        for i in range(4):
            j, k, l = (x for x in range(4) if x != i)
            a_sets.append(nbhd(j, k) & nbhd(k, l) & nbhd(j, l))
            b_sets.append(nbhd(i, j) & nbhd(i, k) & nbhd(i, l))
            assert frozenset(mask_vertices(amask[i])) == a_sets[i]
            assert frozenset(mask_vertices(bmask[i])) == b_sets[i]
        analyzer = _HalfDegreeAnalyzer(host)
        try:
            analyzer.analyzed_nm(base)
        except (_FoundC5, InternalContradiction):
            return
        # Exact co-degrees n/2 and complementary pairings force a partition,
        # so make_ctx must accept the base.
        ctx = analyzer.make_ctx(base)
        assert (ctx.amask, ctx.bmask) == (amask, bmask)
        cells = a_sets + b_sets
        assert sum(len(c) for c in cells) == host.n
        assert frozenset().union(*cells) == set(range(host.n))
        # The identities that let the analysis skip re-checking them: a K4
        # base lies in its own A-cells, and with at most one nonempty B-cell
        # the sizes follow from the partition and the common difference.
        assert all(base[i] in a_sets[i] for i in range(4))
        nonempty = [i for i in range(4) if b_sets[i]]
        if len(nonempty) <= 1:
            istar = nonempty[0] if nonempty else 0
            r0 = len(b_sets[istar])
            for j in range(4):
                assert len(a_sets[j]) == ctx.qdiff + (r0 if j == istar else 0)
            assert host.n == 4 * ctx.qdiff + 2 * r0


class TestCertificateVerify:
    @staticmethod
    def _assert_refused_under(cert, check_text):
        """verify returns False, and returns it on the line under the one
        holding check_text."""
        lines, first = inspect.getsourcelines(StructureCertificate.verify)
        check = first + next(i for i, line in enumerate(lines) if check_text in line)
        code = StructureCertificate.verify.__code__
        returns = []

        def trace(frame, event, arg):
            if frame.f_code is not code:
                return None
            if event == "return":
                returns.append(frame.f_lineno)
            return trace

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            verified = cert.verify()
        finally:
            sys.settrace(previous)
        assert verified is False
        assert returns == [check + 1]  # the return False under that check

    def test_two_nonempty_b_cells_fail_at_their_count(self):
        # The true cells of a planted base with |B_0| = |B_1| = 2 partition
        # the twelve vertices, so verify passes the sum and union checks and
        # the cell comparisons, and must return at the nonempty-B count.
        host = _planted_cells_host(1, (2, 2, 0, 0), random.Random(0))
        base = (0, 1, 2, 3)
        amask, bmask = _ab_cells(_neighbor_matrix(host, base))
        cert = StructureCertificate(
            host, base,
            tuple(frozenset(mask_vertices(m)) for m in amask),
            tuple(frozenset(mask_vertices(m)) for m in bmask),
            q=1, r0=2, classes=(), pairing=(),
        )
        assert [len(b) for b in cert.b_sets] == [2, 2, 0, 0]
        self._assert_refused_under(cert, "len(nonempty) > 1")

    def test_apex_a_cell_fails_at_its_size(self):
        # A K4 on 0..3 and vertex 4 in the three pair neighborhoods through
        # 0: the true cells are A_i = {i} and B_0 = {4}.  They partition the
        # host, r0 = |B_0| = 1 and every other A-cell has q = 1 member, so
        # verify must return at |A_0| = q + r0, which 1 != 2 fails.
        k4 = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        host = TripleSystem(5, k4 + [(0, 1, 4), (0, 2, 4), (0, 3, 4)])
        cert = StructureCertificate(
            host, (0, 1, 2, 3),
            tuple(frozenset({i}) for i in range(4)),
            (frozenset({4}), frozenset(), frozenset(), frozenset()),
            q=1, r0=1, classes=(frozenset({4}),), pairing=(),
        )
        amask, bmask = _ab_cells(_neighbor_matrix(host, cert.base))
        assert cert.a_sets == tuple(frozenset(mask_vertices(m)) for m in amask)
        assert cert.b_sets == tuple(frozenset(mask_vertices(m)) for m in bmask)
        self._assert_refused_under(cert, "self.q + self.r0")


class TestQuadExtraction:
    def test_every_pairing_and_crossing_combination(self):
        # Minimal hosts: a base K4 plus a fifth vertex lying in exactly both
        # sets of one pairing and one crossing set; the emitted five-edge
        # shape must be a valid tight 5-cycle in every one of the 12 cases.
        from triplesys.witness import PAIRINGS, _c5_from_quad, _neighbor_matrix

        base = (0, 1, 2, 3)
        for (a, b), (c, d) in PAIRINGS:
            for x, y in ((a, c), (a, d), (b, c), (b, d)):
                edges = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
                for i, j in ((a, b), (c, d), (x, y)):
                    edges.append(tuple(sorted((base[i], base[j], 4))))
                host = TripleSystem(5, edges)
                nm = _neighbor_matrix(host, base)
                m = _c5_from_quad(base, nm, 4)
                assert m is not None
                assert validate_embedding(Embedding(C5, host, m)), (a, b, c, d, x, y)

    def test_no_crossing_returns_none(self):
        from triplesys.witness import _c5_from_quad, _neighbor_matrix

        # v5 in both sets of the first pairing but in no crossing set
        edges = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4), (2, 3, 4)]
        host = TripleSystem(5, edges)
        assert _c5_from_quad((0, 1, 2, 3), _neighbor_matrix(host, (0, 1, 2, 3)), 4) is None


class TestFourHits:
    """A fifth vertex in four of the six base-pair neighborhoods closes a C5,
    for every set of pairs it can meet: the extractors rely on this instead
    of checking the memberships at run time."""

    K4_BASE = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

    @staticmethod
    def _hosts(anchor):
        """The anchor on 0..3 plus vertex 4 in the pair neighborhoods of each
        set of at least four base pairs."""
        for bits in range(64):
            hits = [p for b, p in enumerate(IDX_PAIRS) if bits >> b & 1]
            if len(hits) >= 4:
                yield TripleSystem(5, anchor + [(i, j, 4) for i, j in hits])

    def test_k4_anchor(self):
        hosts = list(self._hosts(self.K4_BASE))
        assert len(hosts) == 22
        base = (0, 1, 2, 3)
        for host in hosts:
            m = _c5_from_quad(base, _neighbor_matrix(host, base), 4)
            assert m is not None and validate_embedding(Embedding(C5, host, m)), host.edges

    def test_k4minus_anchor(self):
        hosts = [h for h in self._hosts(self.K4_BASE[:3]) if is_free(h, K4)]
        assert len(hosts) == 6
        for host in hosts:
            assert validate_embedding(Embedding(C5, host, _extract_c5_k4free(host))), host.edges


class TestAnalyzerMachinery:
    """Direct checks of the half-degree helper steps on concrete hosts."""

    def _analyzer_and_ctx(self):
        from triplesys.witness import _HalfDegreeAnalyzer

        host, _ = construct_complete_k_partite(8, 4)
        analyzer = _HalfDegreeAnalyzer(host)
        return analyzer, analyzer.make_ctx((0, 2, 4, 6))

    def test_cross_pair_equality_verified_through_derived_bases(self):
        analyzer, ctx = self._analyzer_and_ctx()
        # 1 shares a part with base vertex 0, 3 with base vertex 2
        analyzer.aaa_equal(ctx, 1, 0, 3, 1)  # returns: equality established

    def test_pair_inside_one_cell_is_empty(self):
        analyzer, ctx = self._analyzer_and_ctx()
        analyzer.ensure_pair_empty(ctx, 2, 3, 1)  # both in the part {2, 3}

    def test_two_nonempty_hunt_emits_the_cycle_shape(self):
        # Synthetic context over the complete host: the scan must surface the
        # five-edge shape through the first cross-cell adjacency it meets.
        from triplesys.witness import _Ctx, _FoundC5, _HalfDegreeAnalyzer, _neighbor_matrix

        host = complete_triple_system(7)
        analyzer = _HalfDegreeAnalyzer(host)
        base = (0, 1, 2, 3)
        ctx = _Ctx(base, _neighbor_matrix(host, base), [0, 0, 0, 0], [1 << 4, 1 << 5, 0, 0], 0)
        with pytest.raises(_FoundC5) as found:
            analyzer.two_nonempty_hunt(ctx)
        emb = Embedding(C5, host, found.value.map5)
        assert validate_embedding(emb)


class TestSoundnessSweep:
    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_extractors_on_random_hosts(self, n):
        from triplesys import C5MINUS, find_embedding

        rng = random.Random(1000 + n)
        for _ in range(25):
            host = random_host_above(n, n // 3 + 1, rng)
            emb = find_c5minus_witness(host)
            assert emb.pattern.name == "c5minus" and validate_embedding(emb)
            # agreement: the generic search also sees a copy (not necessarily
            # the same one)
            assert find_embedding(host, C5MINUS) is not None
            host = random_host_above(n, n // 2 + 1, rng)
            emb = find_c5_witness(host)
            assert emb.pattern.name == "c5" and validate_embedding(emb)
            assert find_embedding(host, C5) is not None


def _typed_host(q, groups, cross, linked, flipped, rng):
    """A host built from cell labels around the base (0, 1, 2, 3), relabelled.

    Base vertex i heads the cell A_i; the sizes are q + r0, q, q, q, and the
    B-cell at base position 0 holds r0 vertices split into labelled groups
    of the sizes in ``groups``.  A triple's edge status depends only on its
    labels: an edge is three distinct A-cells, or A_0, another A-cell and a
    B vertex, or two B vertices of ``linked`` groups with an A-cell in
    ``cross``.  Each label triple in ``flipped`` has its status inverted.
    Returns the host and the image of the base.
    """
    r0 = sum(groups)
    labels = [("A", i) for i in range(4)]
    labels += [("A", i) for i, size in enumerate((q + r0, q, q, q)) for _ in range(size - 1)]
    labels += [("B", g) for g, size in enumerate(groups) for _ in range(size)]
    n = len(labels)
    edges = []
    for t in itertools.combinations(range(n), 3):
        kind = tuple(sorted(labels[v] for v in t))
        a = [i for k, i in kind if k == "A"]
        b = [g for k, g in kind if k == "B"]
        if not b:
            edge = len(set(a)) == 3
        elif len(b) == 1:
            edge = a[0] == 0 and a[1] != 0
        else:
            edge = len(b) == 2 and (b[0], b[1]) in linked and a[0] in cross
        if edge != (kind in flipped):
            edges.append(t)
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(TripleSystem(n, edges), perm), tuple(perm[:4])


#: (q, groups, cross, linked) of the typed hosts.  The first and third give
#: certificates with r0 = 2 and r0 = 4 on their base, the second has no K4
#: partner in the B-cell, and the last two make the empty-pair relation on
#: the B-cell intransitive.
_TYPED = [
    (1, (1, 1), (0, 1), {(0, 1)}),
    (1, (1, 1), (0,), {(0, 1)}),
    (2, (2, 2), (0, 1), {(0, 1)}),
    (1, (1, 1, 1), (0, 1), {(1, 2)}),
    (1, (1, 1, 1, 1), (0, 1), {(1, 2), (0, 3), (1, 3), (2, 3)}),
]


def _golden_corpus():
    """(host, planted base or None) pairs, from one seeded generator."""
    rng = random.Random(14)
    for n in range(6, 15):
        # above n/2, exactly n/2 (even n only), and above n/3
        for threshold, count in ((n // 2 + 1, 4), (n // 2, 0 if n % 2 else 10), (n // 3 + 1, 2)):
            for _ in range(count):
                yield random_host_above(n, threshold, rng), None
    for n in range(8, 25, 2):
        for k in range(3, 7):
            perm = list(range(n))
            rng.shuffle(perm)
            yield relabel(construct_complete_k_partite(n, k)[0], perm), None
    yield _deep_host_8(), None
    yield _without_pair(6, 4, 5), None
    for d in (1, 2):
        for b_sizes in itertools.product(range(3), repeat=4):
            if 2 * sum(b_sizes) + 4 * d <= 14:
                host = _planted_cells_host(d, b_sizes, rng)
                perm = list(range(host.n))
                rng.shuffle(perm)
                yield relabel(host, perm), None
    for q, groups, cross, linked in _TYPED:
        labels = [("A", i) for i in range(4)] + [("B", g) for g in range(len(groups))]
        kinds = list(itertools.combinations_with_replacement(labels, 3))
        for flipped in [()] + [(k,) for k in kinds] + [rng.sample(kinds, 2) for _ in range(20)]:
            yield _typed_host(q, groups, cross, linked, set(flipped), rng)


class TestWitnessGolden:
    """Every boundary-analysis outcome on a seeded corpus, pinned by two hashes.

    Per host it records analyze_half_degree's result with every fact it
    reports, both extractors' results, and check_fact's ten reports on the
    first K4.  On a typed host it also drives the analyzer on the planted
    base, whatever the host's co-degree, and asks k4_partner for every member
    of each nonempty B-cell; on any other host at an even n >= 6 it does the
    same for a random layout of cells around the first K4.  A result is its
    result_to_json, a partner its vertex, a surfaced cycle its map, and an
    error its class, message and sorted state.

    SHA256 pins everything but the direct k4_partner calls, PARTNERS_SHA256
    those calls alone.  The analysis calls k4_partner only after its fact-6
    and exclusion sweeps; a direct call skips them, so its outcome on a state
    those sweeps refute is not part of the analysis.
    """

    SHA256 = "1dc420252c6f48bc422b5415b5dde10c46c367c3841e671368030dd7fc7c6a25"
    PARTNERS_SHA256 = "5ee5fc654e7a23736060255c34bc2ea5ff8734d2026d33668624aac9a91e29d2"

    @staticmethod
    def _outcome(run):
        try:
            result = run()
        except _FoundC5 as found:
            return ("C5", found.map5)
        except (PreconditionViolated, InternalContradiction) as exc:
            return (type(exc).__name__, exc.args[0], sorted(getattr(exc, "state", {}).items()))
        return result if isinstance(result, int) else result_to_json(result)

    def _partners(self, host, ctx):
        analyzer = _HalfDegreeAnalyzer(host)
        return [
            self._outcome(lambda: analyzer.k4_partner(ctx, a, istar, j2))
            for istar in ctx.nonempty
            for j2 in range(4) if j2 != istar
            for a in mask_vertices(ctx.bmask[istar])
        ]

    def _planted(self, host, base):
        facts = []
        analyzer = _HalfDegreeAnalyzer(host, facts.append)

        def analyze():
            ctx = analyzer.make_ctx(base)
            if len(ctx.nonempty) >= 2:
                analyzer.two_nonempty_hunt(ctx)
            return analyzer.certificate(ctx)

        record = [self._outcome(analyze), facts]
        try:
            ctx = _HalfDegreeAnalyzer(host).make_ctx(base)
        except (_FoundC5, InternalContradiction):
            return record, []
        return record, self._partners(host, ctx)

    def _laid_out(self, host, base, rng):
        """The certificate step and k4_partner on a random layout of balanced
        cells around the base, at an even n >= 6: sizes q + r0 and q, and r0 > 0
        vertices in the B-cell at a random position, whatever the host's
        neighborhoods say.  This meets states the theory rules out."""
        istar = rng.randrange(4)
        r0 = rng.choice([r for r in range(1, host.n // 2) if (host.n - 2 * r) % 4 == 0])
        q = (host.n - 2 * r0) // 4
        rest = [v for v in range(host.n) if v not in base]
        rng.shuffle(rest)
        amask = [1 << v for v in base]
        bmask = [0, 0, 0, 0]
        for v in rest[:r0]:
            bmask[istar] |= 1 << v
        cells = [i for i in range(4) for _ in range(q - 1 + (r0 if i == istar else 0))]
        for v, i in zip(rest[r0:], cells):
            amask[i] |= 1 << v
        ctx = _Ctx(base, _neighbor_matrix(host, base), amask, bmask, q)
        facts = []
        analyzer = _HalfDegreeAnalyzer(host, facts.append)
        return [self._outcome(lambda: analyzer.certificate(ctx)), facts], self._partners(host, ctx)

    def test_matches_the_recorded_outcomes(self):
        rng = random.Random(1014)
        records, partners = [], []
        for host, base in _golden_corpus():
            facts = []
            record = [
                self._outcome(lambda: analyze_half_degree(host, on_fact=facts.append)),
                facts,
                self._outcome(lambda: find_c5_witness(host)),
                self._outcome(lambda: find_c5minus_witness(host)),
            ]
            k4 = find_embedding(host, K4)
            for fact_id in range(1, 11) if k4 is not None else ():
                r = check_fact(host, k4.map, fact_id)
                c5 = None if r.c5_found is None else r.c5_found.map
                record.append((fact_id, r.name, r.hypothesis_met, r.holds, r.counterexample, c5, r.detail))
            extra, host_partners = [], []
            if base is not None:
                extra, host_partners = self._planted(host, base)
            elif k4 is not None and host.n % 2 == 0 and host.n >= 6:
                extra, host_partners = self._laid_out(host, k4.map, rng)
            records.append(record + extra)
            partners.append(host_partners)
        assert hashlib.sha256(repr(records).encode()).hexdigest() == self.SHA256
        assert hashlib.sha256(repr(partners).encode()).hexdigest() == self.PARTNERS_SHA256
