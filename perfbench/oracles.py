"""Independent references for the benchmark's output checks.

Nothing here calls the package's search or co-degree code: host files are
parsed by a separate reader, co-degrees are counted from the edge list,
containment is decided by a set-based backtracking written apart from
``patterns.search_maps``, and freeness of complete k-partite hosts follows
from the colouring argument.  The pattern edge lists are copied from the
catalog table in the README, not imported.
"""

from __future__ import annotations

import itertools
from collections import Counter

#: name -> (vertex count, edges on vertices a..e = 0..4)
PATTERNS = {
    "k4minus": (4, ((0, 1, 2), (1, 2, 3), (2, 3, 0))),
    "k4": (4, ((0, 1, 2), (1, 2, 3), (2, 3, 0), (3, 0, 1))),
    "c5minus": (5, ((0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0))),
    "c5": (5, ((0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1))),
    "f32": (5, ((0, 1, 2), (0, 3, 4), (1, 3, 4), (2, 3, 4))),
}

PATTERN_NAMES = tuple(PATTERNS)


def part_sizes(n: int, k: int) -> list[int]:
    """Balanced part sizes, larger parts first."""
    return [n // k + 1] * (n % k) + [n // k] * (k - n % k)


def k_partite_edges(sizes, perm) -> list[tuple[int, int, int]]:
    """Rainbow triples of the complete partite host, vertex v renamed perm[v]."""
    part_of = [i for i, s in enumerate(sizes) for _ in range(s)]
    n = len(part_of)
    edges = []
    for u, v, w in itertools.combinations(range(n), 3):
        if part_of[u] != part_of[v] and part_of[v] != part_of[w] and part_of[u] != part_of[w]:
            edges.append(tuple(sorted((perm[u], perm[v], perm[w]))))
    edges.sort()
    return edges


def parse_host(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    """Read a host file; raises ValueError on anything unexpected."""
    lines = [ln for ln in text.split("\n") if ln and not ln.startswith("#")]
    head = lines[0].split(" ")
    if len(head) != 2 or head[0] != "n":
        raise ValueError(f"bad header {lines[0]!r}")
    n = int(head[1])
    edges = []
    for ln in lines[1:]:
        u, v, w = (int(x) for x in ln.split(" "))
        if not 0 <= u < v < w < n:
            raise ValueError(f"bad edge line {ln!r}")
        edges.append((u, v, w))
    if len(set(edges)) != len(edges):
        raise ValueError("duplicate edge")
    return n, edges


def codegree_stats(n: int, edges) -> dict:
    """Edge count and co-degree summary, counted pair by pair."""
    count: Counter = Counter()
    for u, v, w in edges:
        count[(u, v)] += 1
        count[(u, w)] += 1
        count[(v, w)] += 1
    positive = [c for c in count.values() if c]
    all_pairs = n * (n - 1) // 2
    return {
        "n": n,
        "edges": len(edges),
        "min_positive_codegree": min(positive) if positive else None,
        "support_pairs": len(positive),
        "min_codegree": (min(positive) if len(positive) == all_pairs else 0) if positive else 0,
        "max_codegree": max(positive) if positive else None,
    }


def contains(n: int, edges, pattern: str) -> bool:
    """True iff some injective map carries every pattern edge onto a host edge."""
    p, pedges = PATTERNS[pattern]
    third: dict[tuple[int, int], set[int]] = {}
    for e in edges:
        for a, b in itertools.combinations(e, 2):
            (c,) = set(e) - {a, b}
            third.setdefault((a, b), set()).add(c)
            third.setdefault((b, a), set()).add(c)
    closes: list[list[tuple[int, int]]] = [[] for _ in range(p)]
    for e in pedges:
        last = max(e)
        closes[last].append(tuple(x for x in e if x != last))
    image: list[int] = []
    everyone = set(range(n))

    def extend() -> bool:
        i = len(image)
        if i == p:
            return True
        cand = set(everyone)
        for x, y in closes[i]:
            cand &= third.get((image[x], image[y]), set())
        for v in cand.difference(image):
            image.append(v)
            if extend():
                return True
            image.pop()
        return False

    return extend()


def partite_contains(sizes, pattern: str) -> bool:
    """Colouring argument: a complete partite host contains the pattern iff
    the pattern has a colouring with every edge rainbow and no colour used
    more often than its part has vertices."""
    p, pedges = PATTERNS[pattern]
    for colours in itertools.product(range(len(sizes)), repeat=p):
        if any(len({colours[a], colours[b], colours[c]}) < 3 for a, b, c in pedges):
            continue
        use = Counter(colours)
        if all(use[i] <= sizes[i] for i in use):
            return True
    return False


def embedding_problems(edge_set, payload: dict, pattern: str) -> list[str]:
    """Re-check an embedding payload against the host's edge set."""
    p, pedges = PATTERNS[pattern]
    vmap = payload.get("map")
    if payload.get("kind") != "embedding" or payload.get("pattern") != pattern:
        return [f"expected a {pattern} embedding, got {payload.get('kind')}/{payload.get('pattern')}"]
    if len(vmap) != p or len(set(vmap)) != p:
        return [f"map {vmap} is not injective on {p} vertices"]
    images = [tuple(sorted((vmap[a], vmap[b], vmap[c]))) for a, b, c in pedges]
    problems = [f"image {t} is not a host edge" for t in images if t not in edge_set]
    if [tuple(e) for e in payload.get("edges", ())] != images:
        problems.append("listed edges do not match the map")
    return problems
