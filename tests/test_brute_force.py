"""Brute-force oracle for the exact search at n <= 6.

Every edge set over the C(n, 3) triangles is checked, all at once: bit E
of each big integer below stands for the edge set E, whose bit t holds
triangle t of ``itertools.combinations(range(n), 3)``.  An AND or OR of
two such integers evaluates a condition on all 2^C(n, 3) edge sets.  The
triangle masks and the pattern's copy masks are built here from
``Pattern.edges`` and ``itertools.permutations`` alone, so the oracle
shares no code with the decision search, the generated pattern searches or
``build_codegree_table``.
"""

import functools
import itertools

import pytest

from triplesys import CATALOG, decide_exists, exact_copos_ex, pattern_by_name
from triplesys import search


@functools.cache
def _triangles(n: int):
    """The triangles, and for each the integer of the edge sets holding it."""
    triangles = list(itertools.combinations(range(n), 3))
    size = 1 << len(triangles)
    member = []
    for t in range(len(triangles)):
        run = 1 << t
        # bit t of E is set exactly when E mod 2^(t+1) >= 2^t
        sets = ((1 << run) - 1) << run
        width = 2 * run
        while width < size:
            sets |= sets << width
            width *= 2
        member.append(sets)
    return triangles, (1 << size) - 1, member


def _all_of(full, member, indices):
    both = full
    for i in indices:
        both &= member[i]
    return both


def _free_sets(n: int, pattern) -> int:
    """The edge sets holding no copy of the pattern."""
    triangles, full, member = _triangles(n)
    index = {t: i for i, t in enumerate(triangles)}
    copies = {
        frozenset(index[tuple(sorted(image[v] for v in e))] for e in pattern.edges)
        for image in itertools.permutations(range(n), pattern.vertex_count)
    }
    hit = 0
    for copy in copies:
        hit |= _all_of(full, member, copy)
    return full & ~hit


@functools.cache
def _codegree_sets(n: int, k: int) -> int:
    """The nonempty edge sets whose every covered pair lies in k of their triangles."""
    triangles, full, member = _triangles(n)
    ok = full & ~1
    for u, v in itertools.combinations(range(n), 2):
        through = [i for i, t in enumerate(triangles) if u in t and v in t]
        covered = enough = 0
        for i in through:
            covered |= member[i]
        for chosen in itertools.combinations(through, k):
            enough |= _all_of(full, member, chosen)
        ok &= ~(covered & ~enough)
    return ok


def _edge_set(n: int, edges) -> int:
    index = {t: i for i, t in enumerate(_triangles(n)[0])}
    return sum(1 << index[t] for t in edges)


def _members(sets: int) -> set[int]:
    return {e for e, bit in enumerate(reversed(bin(sets)[2:])) if bit == "1"}


def _relabellings(n: int, edge_sets: set[int]) -> set[int]:
    """Close the edge sets under relabelling, with the adjacent
    transpositions that generate the symmetric group."""
    triangles = _triangles(n)[0]
    index = {t: i for i, t in enumerate(triangles)}
    swaps = []
    for a in range(n - 1):
        perm = list(range(n))
        perm[a], perm[a + 1] = a + 1, a
        swaps.append([index[tuple(sorted(perm[v] for v in t))] for t in triangles])
    seen = set(edge_sets)
    frontier = list(edge_sets)
    while frontier:
        e = frontier.pop()
        for image in swaps:
            mapped = sum(1 << image[t] for t in range(len(triangles)) if e >> t & 1)
            if mapped not in seen:
                seen.add(mapped)
                frontier.append(mapped)
    return seen


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_exact_and_decide_match_brute_force(name, n):
    pattern = pattern_by_name(name)
    free = _free_sets(n, pattern)
    hosts = {k: free & _codegree_sets(n, k) for k in range(1, n - 1)}
    assert exact_copos_ex(n, pattern).value == max(k for k, sets in hosts.items() if sets)
    for k, sets in hosts.items():
        host, _ = decide_exists(n, pattern, k)
        if sets:
            assert host is not None and sets >> _edge_set(n, host.edges) & 1, f"k={k}"
        else:
            assert host is None, f"k={k}"


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_every_host_at_six_is_a_relabelling_of_a_yielded_one(name):
    # k = 1 is left out: up to 478k labelled hosts qualify, and the top
    # branches would yield tens of thousands of them.
    pattern = pattern_by_name(name)
    free = _free_sets(6, pattern)
    for k in range(2, 5):
        brute = _members(free & _codegree_sets(6, k))
        yielded = set()
        for mask in search._TOP_MASKS[5]:
            for host in search._Decision(6, pattern, k).hosts(mask):
                e = _edge_set(6, host.edges)
                assert e in brute, f"k={k} mask={mask}"
                yielded.add(e)
        assert _relabellings(6, yielded) == brute, f"k={k}"
