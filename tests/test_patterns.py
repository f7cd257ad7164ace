import itertools
import pickle
import random
import re

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
    construct_complete_k_partite,
    embeds_through_edge,
    find_embedding,
    is_free,
    pattern_by_name,
    validate_embedding,
)

from triplesys.core import flip
from triplesys.patterns import _SEARCHES, _search_source, search_maps

from conftest import (
    AG23_LINES,
    FANO_LINES,
    blow_up,
    complete_triple_system,
    interpreted_search_maps,
    interpreted_through_edge,
    naive_find_embedding,
    no_twins,
    random_host,
    relabel,
    steiner_join,
)


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

    @pytest.mark.parametrize("m", [(False, True, 2, 3), (0, 1.0, 2, 3)], ids=["bools", "float"])
    def test_entries_equal_to_ints_are_not_vertices(self, m):
        host = complete_triple_system(6)
        assert validate_embedding(Embedding(K4, host, (0, 1, 2, 3)))
        assert not validate_embedding(Embedding(K4, host, m))

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
        relabeled = relabel(host, perm)
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


def _skewed(n, rng, sparsity):
    """A pair-mask table whose cell for each ordered pair (u, v) is drawn on
    its own: every w other than u and v lies in it with probability
    2 ** -sparsity.  It is no host's table, but every search reads each cell
    in the orientation its plan gives, so the interpreter still defines the
    answer."""
    full = (1 << n) - 1
    nbr = [[0] * n for _ in range(n)]
    for u, v in itertools.permutations(range(n), 2):
        cell = full
        for _ in range(sparsity):
            cell &= rng.getrandbits(n)
        nbr[u][v] = cell & ~(1 << u | 1 << v)
    return nbr


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

    # A pattern that is only its pinned edge, and one whose through plans loop
    # twice, over positions no pair closes, under symmetry bounds and with
    # a closing pair of two unpinned positions.
    CUSTOM = (
        Pattern("edge", 3, ((0, 1, 2),)),
        Pattern("chain", 6, ((0, 1, 2), (2, 3, 4), (3, 4, 5))),
    )

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(5, 64),
        st.integers(3, 9),
        st.floats(0.2, 0.9),
        st.randoms(use_true_random=False),
    )
    def test_generated_through_check_matches_interpreter(self, n, k, density, rng):
        # Dense triples among k vertices that always include n - 1, so copies
        # through a pin are common, plus n triples scattered over the host.
        core = rng.sample(range(n - 1), min(k, n) - 1) + [n - 1]
        nbr = [[0] * n for _ in range(n)]
        edges = [t for t in itertools.combinations(sorted(core), 3) if rng.random() < density]
        edges += [tuple(sorted(rng.sample(range(n), 3))) for _ in range(n)]
        edges = sorted(set(edges))
        for t in edges:
            flip(nbr, t)
        pins = [list(t) for t in rng.sample(edges, min(4, len(edges)))]
        pins += [rng.sample(core, 3) for _ in range(2)] + [rng.sample(range(n), 3)]
        for t in pins:
            rng.shuffle(t)
            for pattern in (*CATALOG.values(), *self.CUSTOM):
                assert embeds_through_edge(nbr, pattern, t) == interpreted_through_edge(
                    nbr, pattern, t
                )
        # The unpinned searches return the interpreter's map, not just its
        # verdict, with every vertex in a class of its own and with the
        # table's twin classes (its untouched vertices make one); chain, on
        # 6 vertices, meets hosts of 5.
        twins = TripleSystem._from_masks(nbr).twins
        for pattern in (*CATALOG.values(), *self.CUSTOM):
            for plan in (pattern.compiled.lex, pattern.compiled.exists):
                least = interpreted_search_maps(nbr, plan)
                assert search_maps(nbr, plan, no_twins(n)) == least
                assert search_maps(nbr, plan, twins) == least
        # On a host's table a dropped symmetry bound never changes an answer:
        # the least map meets every bound.  On a skewed table the images of a
        # map under Aut(F) are no longer maps, so it does, and so does a
        # dropped exclusion of an earlier vertex.
        skew = _skewed(n, rng, rng.randrange(1, 4))
        for pattern in (*CATALOG.values(), *self.CUSTOM):
            for plan in (pattern.compiled.lex, pattern.compiled.exists):
                assert search_maps(skew, plan, no_twins(n)) == interpreted_search_maps(skew, plan)
            for t in pins:
                assert embeds_through_edge(skew, pattern, t) == interpreted_through_edge(
                    skew, pattern, t
                )

    def test_sources_assign_full_only_where_they_read_it(self):
        # ``full`` is the candidate mask of a position no pair closes; a
        # source without such a position must not compute it on every call
        for pattern in CATALOG.values():
            compiled = pattern.compiled
            for source in (
                _search_source(compiled.through, 3),
                _search_source((compiled.lex,), 0),
                _search_source((compiled.exists,), 0),
            ):
                uses = len(re.findall(r"\bfull\b", source))
                assigns = source.count(" full = ")
                assert assigns == (uses > assigns), (pattern.name, source)

    def test_through_checks_test_the_pinned_edge_once_first(self):
        # every plan pins an ordered pattern edge, whose only closing pair is
        # (x0, x1) at x2, so one test before the first plan serves them all
        for pattern in (*CATALOG.values(), *self.CUSTOM):
            lines = _search_source(pattern.compiled.through, 3).splitlines()
            assert lines[3] == " if not nbr[x0][x1] >> x2 & 1: return False", pattern.name
            assert sum(">>" in line for line in lines) == 1, pattern.name

    def test_searches_on_the_64_vertex_host_shapes(self):
        # The hosts `free` meets in the 64-vertex benchmark, where a later
        # candidate set empties most often: balanced 3- and 4-partite hosts,
        # and a 3-partite host with a copy of every pattern planted on seeded
        # vertices.  As in `free`, find_embedding runs where the pattern
        # occurs: on a free host its search in index order, with no symmetry
        # bounds, is an exhaustive search |Aut(F)| times as long.
        three, _ = construct_complete_k_partite(64, 3)
        four, _ = construct_complete_k_partite(64, 4)
        rng = random.Random(64)
        edges = set(three.edges)
        for pattern in CATALOG.values():
            spot = rng.sample(range(64), pattern.vertex_count)
            edges |= {tuple(sorted(spot[v] for v in e)) for e in pattern.edges}
        planted = TripleSystem(64, sorted(edges))
        verdicts = []
        for host in (three, four, planted):
            for pattern in CATALOG.values():
                free = interpreted_search_maps(host.pair_masks, pattern.compiled.exists) is None
                assert is_free(host, pattern) == free
                if not free:
                    least = interpreted_search_maps(host.pair_masks, pattern.compiled.lex)
                    assert find_embedding(host, pattern).map == least
                verdicts.append(free)
        assert verdicts == [True] * 5 + [False] * 3 + [True] * 2 + [False] * 5

    def test_searches_on_hosts_with_twins(self):
        # Hosts whose twin classes are large, where the searches try one
        # vertex of a class at a time: relabelled blow-ups, balanced at
        # n = 64 as in the benchmark and unbalanced below, the complete host
        # and the Steiner joins.  The lex search is cheap on a free blow-up,
        # so find_embedding runs on every host.
        rng = random.Random(24)
        hosts = [
            blow_up((22, 21, 21), rng),
            blow_up((16, 16, 16, 16), rng),
            blow_up((9, 7, 5, 3), rng),
            blow_up((3, 3, 2), rng),
            blow_up((1, 2, 4), rng),
            blow_up((2, 1, 1, 1, 3), rng),
            complete_triple_system(64),
            complete_triple_system(7),
            steiner_join(FANO_LINES, 12),
            steiner_join(AG23_LINES, 16),
        ]
        verdicts = []
        for host in hosts:
            for pattern in CATALOG.values():
                nbr, compiled = host.pair_masks, pattern.compiled
                free = interpreted_search_maps(nbr, compiled.exists) is None
                assert is_free(host, pattern) == free
                least = None if free else interpreted_search_maps(nbr, compiled.lex)
                emb = find_embedding(host, pattern)
                assert (emb and emb.map) == least
                if host.n <= 8:
                    slow = naive_find_embedding(host, pattern)
                    assert (slow and slow.map) == least
                verdicts.append(free)
        assert verdicts == (
            [True] * 5 + ([False] * 3 + [True] * 2) * 2 + [True] * 10
            + [False] * 15 + [False, False, False, True, False] * 2
        )

    def test_lex_and_exists_searches_are_labelled_apart(self):
        # pstats keys a function by its code's file name, line and name, so
        # the two searches of a pattern need two labels to get two rows
        for pattern in CATALOG.values():
            lex = _SEARCHES[pattern.compiled.lex].__code__.co_filename
            exists = _SEARCHES[pattern.compiled.exists].__code__.co_filename
            assert lex.startswith("<search lex ") and exists.startswith("<search exists ")

    def test_compiled_patterns_pickle(self):
        # Every pattern occurs in the complete host; none in a book of three
        # edges on one pair.
        hosts = (complete_triple_system(6), TripleSystem(6, ((0, 1, 2), (0, 1, 3), (0, 1, 4))))
        for pattern in CATALOG.values():
            assert pattern.compiled.through_check
            clone = pickle.loads(pickle.dumps(pattern))
            assert clone == pattern and clone.compiled.through == pattern.compiled.through
            assert clone.compiled.through_check is not pattern.compiled.through_check
            for host, free in zip(hosts, (False, True)):
                assert is_free(host, clone) == is_free(host, pattern) == free
                assert find_embedding(host, clone) == find_embedding(host, pattern)

    # |Aut(F)| and the number of orbits of Aut(F) on ordered pattern edges.
    GROUPS = {"k4minus": (6, 3), "k4": (24, 1), "c5minus": (2, 12), "c5": (10, 3), "f32": (12, 4)}

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_group_and_orbit_counts_match_brute_force(self, name):
        pattern = CATALOG[name]
        p = pattern.vertex_count
        itself = TripleSystem(p, pattern.edges)
        group = [g for g in itertools.permutations(range(p)) if relabel(itself, g) == itself]
        ordered = [t for e in pattern.edges for t in itertools.permutations(e)]
        # Burnside: orbits = mean number of ordered edges a group element fixes.
        fixed = sum(1 for g in group for t in ordered if all(g[v] == v for v in t))
        assert (len(group), fixed // len(group)) == self.GROUPS[name]
        reps = [plan.order[:3] for plan in pattern.compiled.through]
        assert len(reps) == fixed // len(group)
        covered = {tuple(g[v] for v in r) for g in group for r in reps}
        assert covered == set(ordered)
