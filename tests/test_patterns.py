import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from triplesys import (
    C5,
    C5MINUS,
    CATALOG,
    F32,
    K4,
    K4MINUS,
    Embedding,
    Pattern,
    TripleSystem,
    complete_triple_system,
    construct_complete_k_partite,
    embeds_through_edge,
    find_embedding,
    is_free,
    naive_find_embedding,
    pattern_by_name,
    validate_embedding,
)

from conftest import random_host


class TestCatalog:
    def test_exact_edge_sets(self):
        assert set(K4MINUS.edges) == {(0, 1, 2), (1, 2, 3), (0, 2, 3)}
        assert set(K4.edges) == {(0, 1, 2), (1, 2, 3), (0, 2, 3), (0, 1, 3)}
        assert set(C5MINUS.edges) == {(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4)}
        assert set(C5.edges) == set(C5MINUS.edges) | {(0, 1, 4)}
        assert set(F32.edges) == {(0, 1, 2), (0, 3, 4), (1, 3, 4), (2, 3, 4)}
        assert sorted(CATALOG) == ["c5", "c5minus", "f32", "k4", "k4minus"]

    def test_lookup_case_insensitive(self):
        assert pattern_by_name("C5Minus") is C5MINUS
        with pytest.raises(KeyError):
            pattern_by_name("c6")

    @pytest.mark.parametrize("edge", [(0, 1, 1), (0, 1, 4), (-1, 0, 1)])
    def test_bad_edge_rejected(self, edge):
        with pytest.raises(ValueError, match="bad pattern edge"):
            Pattern("bad", 4, ((0, 1, 2), edge))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate pattern edge"):
            Pattern("dup", 4, ((0, 1, 2), (1, 2, 3), (0, 1, 2)))


class TestFindEmbedding:
    def test_complete_five_contains_c5_identity(self):
        emb = find_embedding(complete_triple_system(5), C5)
        assert emb is not None and emb.map == (0, 1, 2, 3, 4)

    def test_balanced_4_partite_8_is_c5_free(self):
        host, _ = construct_complete_k_partite(8, 4)
        assert find_embedding(host, C5) is None

    def test_balanced_3_partite_6_is_k4minus_free(self):
        host, _ = construct_complete_k_partite(6, 3)
        assert find_embedding(host, K4MINUS) is None
        assert naive_find_embedding(host, K4MINUS) is None

    def test_balanced_3_partite_9_is_c5minus_free(self):
        host, _ = construct_complete_k_partite(9, 3)
        assert is_free(host, C5MINUS)

    def test_pattern_as_its_own_host(self):
        host = TripleSystem(5, C5MINUS.edges)
        assert not is_free(host, C5MINUS)
        assert find_embedding(host, C5MINUS).map == (0, 1, 2, 3, 4)

    def test_4_partite_12_contains_k4(self):
        host, _ = construct_complete_k_partite(12, 4)
        assert not is_free(host, K4)

    def test_pattern_larger_than_host(self):
        assert find_embedding(complete_triple_system(4), C5) is None


class TestValidateEmbedding:
    def test_identity_into_complete_five(self):
        emb = Embedding(C5, complete_triple_system(5), (0, 1, 2, 3, 4))
        assert validate_embedding(emb)

    def test_repeated_image_vertex(self):
        emb = Embedding(C5, complete_triple_system(5), (0, 0, 1, 2, 3))
        assert not validate_embedding(emb)

    def test_out_of_range_vertex(self):
        emb = Embedding(C5, complete_triple_system(5), (0, 1, 2, 3, 7))
        assert not validate_embedding(emb)

    def test_no_valid_map_into_c5minus_free_host(self):
        host, _ = construct_complete_k_partite(6, 3)
        for m in itertools.permutations(range(6), 5):
            assert not validate_embedding(Embedding(C5MINUS, host, m))

    def test_every_found_embedding_validates(self):
        rng = random.Random(3)
        for _ in range(30):
            host = random_host(rng.randint(4, 7), rng)
            for pattern in CATALOG.values():
                emb = find_embedding(host, pattern)
                if emb is not None:
                    assert validate_embedding(emb)


class TestOracleAgreement:
    def test_matches_naive_enumeration_and_is_lex_least(self):
        # permutations() yields maps in lexicographic order, so the naive
        # first hit is the least map; the pruned search must return it.
        rng = random.Random(11)
        for _ in range(60):
            host = random_host(rng.randint(3, 7), rng, density=rng.uniform(0.2, 0.9))
            for pattern in CATALOG.values():
                fast = find_embedding(host, pattern)
                slow = naive_find_embedding(host, pattern)
                assert (fast is None) == (slow is None)
                if fast is not None:
                    assert fast.map == slow.map


class TestInvariance:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 7), st.randoms(use_true_random=False))
    def test_relabeling_preserves_freeness(self, n, rng):
        host = random_host(n, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = host.relabel(perm)
        for pattern in CATALOG.values():
            assert is_free(host, pattern) == is_free(relabeled, pattern)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 7), st.randoms(use_true_random=False))
    def test_subhosts_of_free_hosts_stay_free(self, n, rng):
        host = random_host(n, rng)
        kept = [e for e in host.edges if rng.random() < 0.6]
        sub = TripleSystem(n, kept)
        for pattern in CATALOG.values():
            if is_free(host, pattern):
                assert is_free(sub, pattern)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(5, 7), st.randoms(use_true_random=False))
    def test_embeds_through_edge_detects_new_copies(self, n, rng):
        host = random_host(n, rng, density=0.4)
        missing = [
            t for t in itertools.combinations(range(n), 3) if not host.has_edge(*t)
        ]
        if not missing:
            return
        t = missing[rng.randrange(len(missing))]
        grown = TripleSystem(n, host.edges + (t,))
        for pattern in CATALOG.values():
            if is_free(host, pattern):
                assert is_free(grown, pattern) == (
                    not embeds_through_edge(grown.pair_masks, pattern, t)
                )


def _pin_enumeration(host, pattern, t) -> bool:
    """Every (pattern edge, permutation of t) pin, completed by brute force."""
    for pe in pattern.edges:
        for img in itertools.permutations(t):
            pinned = dict(zip(pe, img))
            rest = [v for v in range(pattern.vertex_count) if v not in pinned]
            others = [h for h in range(host.n) if h not in img]
            for tail in itertools.permutations(others, len(rest)):
                m = {**pinned, **dict(zip(rest, tail))}
                if all(host.has_edge(m[x], m[y], m[z]) for x, y, z in pattern.edges):
                    return True
    return False


class TestCompiledSearch:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 8), st.floats(0.05, 0.8), st.randoms(use_true_random=False))
    def test_is_free_matches_naive(self, n, density, rng):
        host = random_host(n, rng, density=density)
        for pattern in CATALOG.values():
            assert is_free(host, pattern) == (naive_find_embedding(host, pattern) is None)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(5, 8), st.floats(0.1, 0.7), st.randoms(use_true_random=False))
    def test_orbit_through_edge_matches_every_pin(self, n, density, rng):
        host = random_host(n, rng, density=density)
        triples = list(itertools.combinations(range(n), 3))
        edges = list(host.edges) or triples
        for t in (edges[rng.randrange(len(edges))], triples[rng.randrange(len(triples))]):
            for pattern in CATALOG.values():
                through = embeds_through_edge(host.pair_masks, pattern, t)
                assert through == _pin_enumeration(host, pattern, t)

    # |Aut(F)| and the number of orbits of Aut(F) on ordered pattern edges.
    GROUPS = {"k4minus": (6, 3), "k4": (24, 1), "c5minus": (2, 12), "c5": (10, 3), "f32": (12, 4)}

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_group_and_orbit_counts_match_brute_force(self, name):
        pattern = CATALOG[name]
        p = pattern.vertex_count
        itself = TripleSystem(p, pattern.edges)
        group = [g for g in itertools.permutations(range(p)) if itself.relabel(g) == itself]
        ordered = [t for e in pattern.edges for t in itertools.permutations(e)]
        # Burnside: orbits = mean number of ordered edges a group element fixes.
        fixed = sum(1 for g in group for t in ordered if all(g[v] == v for v in t))
        assert (len(group), fixed // len(group)) == self.GROUPS[name]
        compiled = pattern.compiled
        assert len(compiled.automorphisms) == len(group)
        reps = [plan.order[:3] for plan in compiled.through]
        assert len(reps) == fixed // len(group)
        covered = {tuple(g[v] for v in r) for g in group for r in reps}
        assert covered == set(ordered)
