"""An exhaustive decider at n = 7 that shares nothing with the search.

``exists(n, edges, k)`` says whether some host on n vertices holds no copy
of the pattern with edge list ``edges`` and puts every pair it covers in at
least k of its edges, with at least one edge.  Each triple of
``itertools.combinations(range(n), 3)`` is a variable, decided in that
order, in before out.  The copies of the pattern are the images of its
edges under ``itertools.permutations``, with no symmetry breaking, each
filed under its last triple: a triple goes in only if it completes no copy.
A branch ends once a pair it covers can no longer reach k.  Only the
catalog's edge lists come from ``triplesys``; the comparison with
``decide_exists`` is the test's.

The decider at n <= 6 is ``test_brute_force.py``; that one evaluates every
edge set at once and cannot reach n = 7 (2^35 edge sets).
"""

import itertools

import pytest

from triplesys import CATALOG, decide_exists

#: co+ex(7, F) for each pattern: the largest k the decider says exists.
VALUES_AT_SEVEN = {"c5": 3, "c5minus": 2, "f32": 3, "k4": 3, "k4minus": 2}


def exists(n: int, edges, k: int) -> bool:
    triples = list(itertools.combinations(range(n), 3))
    index = {t: i for i, t in enumerate(triples)}
    pairs = {p: i for i, p in enumerate(itertools.combinations(range(n), 2))}
    pairs_of = [(pairs[u, v], pairs[u, w], pairs[v, w]) for u, v, w in triples]
    size = 1 + max(max(e) for e in edges)
    copies = {
        sum({1 << index[tuple(sorted(image[v] for v in e))] for e in edges})
        for image in itertools.permutations(range(n), size)
    }
    # the copies by their last triple, as the mask of their other triples
    closes = [[] for _ in triples]
    for copy in copies:
        last = copy.bit_length() - 1
        closes[last].append(copy ^ 1 << last)
    covered = [0] * len(pairs)  # per pair: its triples in
    left = [n - 2] * len(pairs)  # per pair: its triples not yet decided

    def search(t: int, chosen: int) -> bool:
        if t == len(triples):
            return chosen != 0
        ps = pairs_of[t]
        for p in ps:
            left[p] -= 1
        found = False
        if not any(rest & chosen == rest for rest in closes[t]):
            for p in ps:
                covered[p] += 1
            if all(covered[p] + left[p] >= k for p in ps):
                found = search(t + 1, chosen | 1 << t)
            for p in ps:
                covered[p] -= 1
        if not found and all(not covered[p] or covered[p] + left[p] >= k for p in ps):
            found = search(t + 1, chosen)
        for p in ps:
            left[p] += 1
        return found

    return search(0, 0)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_decide_exists_at_seven_matches_the_decider(name):
    edges = CATALOG[name].edges
    verdicts = [exists(7, edges, k) for k in range(1, 6)]
    assert verdicts == [k <= VALUES_AT_SEVEN[name] for k in range(1, 6)]
    for k, verdict in enumerate(verdicts, start=1):
        host, _ = decide_exists(7, CATALOG[name], k)
        assert (host is not None) == verdict, f"k={k}"
