"""3-uniform hypergraphs ("triple systems") and pair co-degree machinery.

Vertices are dense 0-indexed integers.  The vertex count is capped at 64 so
that every vertex set fits in one machine word: all neighborhood queries are
single-int bitmask operations, which keeps the set intersections used
throughout the witness extractors O(1).
"""

from __future__ import annotations

import functools
import struct

from .errors import PreconditionViolated

MAX_VERTICES = 64


def mask_vertices(mask: int) -> tuple[int, ...]:
    """Ascending vertex indices of a set represented as a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _mask_edges(nbr) -> tuple[tuple[int, int, int], ...]:
    """The triples (u, v, w), u < v < w, of a pair-mask table, read off the
    masks in lexicographic order because u, v and the bits of w all ascend."""
    n = len(nbr)
    out = []
    for u in range(n):
        row = nbr[u]
        for v in range(u + 1, n):
            m = row[v] >> (v + 1)
            while m:
                low = m & -m
                out.append((u, v, low.bit_length() + v))
                m ^= low
    return tuple(out)


def flip(masks, t) -> None:
    """Toggle the triple t = (u, v, w) in the masks of its three pairs.

    A flip is its own inverse, so a search undoes a move by flipping the
    same triple again.  Tables built whole are written without it:
    ``construct_complete_k_partite`` in closed form, and ``TripleSystem``
    and ``fileio.parse_hypergraph`` from an incidence cube, except for an
    edge list the cube declines, which ``_edge_loop`` flips in.
    """
    u, v, w = t
    ru, rv, rw = masks[u], masks[v], masks[w]
    ru[v] = rv[u] = ru[v] ^ (1 << w)
    ru[w] = rw[u] = ru[w] ^ (1 << v)
    rv[w] = rw[v] = rv[w] ^ (1 << u)


@functools.cache
def _ascending(n: int, k: int) -> int:
    """The cube positions (u, v, w) with u < v < w < n."""
    f = 1 << k - 3  # bytes in one field
    # the fields of one u-block: field v holds the w with v < w < n
    row = b"".join(((1 << n) - (2 << v)).to_bytes(f, "little") for v in range(n - 1))
    row = row.ljust(f << k, b"\0")
    # block u keeps only the fields v > u
    return int.from_bytes(
        b"".join(bytes(f * (u + 1)) + row[f * (u + 1):] for u in range(1 << k)), "little"
    )


def _all_orders(x: int, k: int) -> int:
    """The cube x with each position in all six orders of its fields: swap
    (w, v), then (v, u), then (w, v), each time keeping both."""
    size = 1 << 3 * k
    for lo in (0, k, 0):  # swap the fields at bits lo and lo + k
        y = x
        for i in range(lo, lo + k):  # one bit of each field at a time
            d, m = _delta_swap(i, k, size)
            t = (y ^ y >> d) & m
            y ^= t | t << d
        x |= y
    return x


@functools.cache
def _delta_swap(i: int, k: int, size: int) -> tuple[int, int]:
    """(d, m) for the delta swap that exchanges bits i and i + k of every
    position index: m holds the positions with bit i set and bit i + k
    clear, each of which trades places with the one d above it."""
    m = ((1 << (1 << i)) - 1) << (1 << i)  # bit i set, over 2 << i positions
    p = 2 << i
    while p < size:  # double the pattern, except where bit i + k turns on
        if p != 1 << i + k:
            m |= m << p
        p <<= 1
    return (1 << i + k) - (1 << i), m


def _cube_table(x: int, n: int, k: int) -> list[list[int]]:
    """The pair-mask table of an n-vertex cube x with k-bit fields, which
    has bit u << 2k | v << k | w set for each edge in all six orders: field
    (u, v) is the mask of {u, v}, read for u < v and shared with its mirror."""
    cells = x.to_bytes(1 << 3 * k - 3, "little")
    f, fmt = 1 << k - 3, "BHIQ"[k - 3]
    nbr: list[list[int]] = []
    for u in range(n):
        upper = struct.unpack_from(f"<{n - u - 1}{fmt}", cells, ((u << k) + u + 1) * f)
        nbr.append([row[u] for row in nbr] + [0, *upper])
    return nbr


def _edge_loop(n: int, edges) -> list[list[int]]:
    """The table of an edge list the cube declines, checked edge by edge."""
    nbr = [[0] * n for _ in range(n)]
    for e in edges:
        t = tuple(sorted(e))
        if len(t) != 3 or len(set(t)) != 3:
            raise ValueError(f"edge {t} does not have 3 distinct vertices")
        u, v, w = t
        if u < 0 or w >= n:
            if not n:
                raise ValueError(f"edge {t} has a vertex out of range: the host has no vertices")
            raise ValueError(f"edge {t} has a vertex outside 0..{n - 1}")
        if not nbr[u][v] >> w & 1:  # a repeated edge collapses
            flip(nbr, t)
    return nbr


def _twin_table(nbr) -> tuple[int, tuple[int, ...]]:
    """``TripleSystem.twins`` of the pair-mask table nbr.

    Swapping x and y is an automorphism exactly when, for every other vertex
    z, the masks of {x, z} and {y, z} differ at most in bits x and y.  Swaps
    compose, so twins form classes, and each vertex is compared only with
    the least member of each class found so far among vertices of its degree.
    """
    n = len(nbr)
    # row v of the table as one int, the mask of {v, z} at bits 64z..64z+63
    pack = struct.Struct(f"<{n}Q").pack
    rows = [int.from_bytes(pack(*row), "little") for row in nbr]
    bit0 = sum(1 << 64 * z for z in range(n))
    # where the rows of two twins may differ: the masks of the pair itself,
    # and their own bits in every mask
    own = [((1 << 64) - 1) << 64 * v | bit0 << v for v in range(n)]
    first, nxt = 0, [0] * n
    last = {}  # least member of a class: its greatest member so far
    leasts: dict[int, list[int]] = {}  # twice a degree: least members of classes
    for y, row in enumerate(rows):
        same = leasts.setdefault(row.bit_count(), [])
        for x in same:
            if not (row ^ rows[x]) & ~(own[x] | own[y]):
                nxt[last[x]] = 1 << y
                last[x] = y
                break
        else:
            same.append(y)
            last[y] = y
            first |= 1 << y
    return first, tuple(nxt)


class TripleSystem:
    """An immutable n-vertex 3-uniform hypergraph.

    The host is its table of per-pair neighborhood bitmasks (fast co-degree
    and intersection queries), built from an edge list in any vertex order
    through an incidence cube, as in ``fileio``.  The lexicographically
    sorted edge tuple (deterministic iteration) and the twin classes are
    read off the table the first time ``edges`` or ``twins`` is asked for,
    and kept.
    """

    __slots__ = ("n", "_nbr", "_edges", "_twins")

    def __init__(self, n: int, edges=()):
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}, got {n}")
        edges = tuple(edges)  # _edge_loop may need a second pass
        k = max(3, (n - 1).bit_length())
        k2, top, hi = 2 * k, (1 << 3 * k) - 1, 0
        cube = bytearray(b"0") * (top + 1)  # one byte per position, from the top
        try:
            for a, b, c in edges:
                hi |= a | b | c
                cube[top - (a << k2 | b << k | c)] = 49  # "1"
        except Exception:  # whatever it is, _edge_loop raises it
            hi = -1
        x = _all_orders(int(cube, 2), k)
        # no index spills out of its k-bit field, and x is six orders of
        # edges: a repeated index or one >= n has no order in _ascending
        ok = 0 <= hi < 1 << k and x.bit_count() == 6 * (x & _ascending(n, k)).bit_count()
        self._seal(_cube_table(x, n, k) if ok else _edge_loop(n, edges))

    @classmethod
    def _from_masks(cls, nbr) -> "TripleSystem":
        """The host whose pair-mask table is nbr, built without a check.

        nbr must have at most MAX_VERTICES rows and be a valid table:
        symmetric, zero on the diagonal, and holding each triple in all three
        of its pairs or in none, as every table ``flip`` writes does.  The
        host takes it over, so the caller must not modify it afterwards.
        """
        host = object.__new__(cls)
        host._seal(nbr)
        return host

    def _seal(self, nbr) -> None:
        """Fix n and the table: the one way a table becomes a host."""
        object.__setattr__(self, "n", len(nbr))
        object.__setattr__(self, "_nbr", nbr)
        object.__setattr__(self, "_edges", None)
        object.__setattr__(self, "_twins", None)

    def __setattr__(self, name, value):
        raise AttributeError("TripleSystem is immutable")

    def __reduce__(self):
        # the default restores slots through the blocked __setattr__
        return TripleSystem._from_masks, ([row[:] for row in self._nbr],)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TripleSystem):
            return NotImplemented
        # a table holds each edge in its three pairs and nothing else
        return self.n == other.n and self._nbr == other._nbr

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"TripleSystem(n={self.n}, edges={self.edge_count})"

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """The edges (u, v, w), u < v < w, in lexicographic order."""
        edges = self._edges
        if edges is None:
            edges = _mask_edges(self._nbr)
            object.__setattr__(self, "_edges", edges)
        return edges

    @property
    def twins(self) -> tuple[int, tuple[int, ...]]:
        """The classes of exchangeable vertices, as ``(first, nxt)``.

        Two vertices are twins when swapping them is an automorphism of the
        host.  ``first`` is the mask of the least vertex of each class, and
        ``nxt[v]`` the bit of the next member of v's class above v, or 0.
        """
        twins = self._twins
        if twins is None:
            twins = _twin_table(self._nbr)
            object.__setattr__(self, "_twins", twins)
        return twins

    @property
    def edge_count(self) -> int:
        # each edge sets one bit in the mask of each of its three pairs
        return sum(m.bit_count() for u, row in enumerate(self._nbr) for m in row[u + 1:]) // 3

    def has_edge(self, u: int, v: int, w: int) -> bool:
        return bool(self._nbr[u][v] >> w & 1)

    @property
    def pair_masks(self) -> list[list[int]]:
        """The neighborhood table: ``pair_masks[u][v]`` is the bitmask of the
        vertices w such that {u, v, w} is an edge, and the diagonal is 0.

        Shared with the host, so callers must not modify it.
        """
        return self._nbr


class HostState:
    """A mutable copy of a host's pair masks, with a co-degree histogram.

    ``pair_masks`` has the layout of ``TripleSystem.pair_masks``, so the
    pattern searches run on it directly; ``hist[c]`` is the number of
    pairs with co-degree c.  ``toggle`` flips one triple, says whether it
    added it and moves three histogram entries, so the local search can try
    a move, score it off the histogram and take it back without a rebuild.
    """

    __slots__ = ("pair_masks", "hist")

    def __init__(self, host: TripleSystem):
        self.pair_masks = [row[:] for row in host.pair_masks]
        self.hist = build_codegree_table(host)

    def toggle(self, edge) -> bool:
        """Add the triple if absent, remove it if present; True if added."""
        u, v, w = edge
        nbr, hist = self.pair_masks, self.hist
        added = not nbr[u][v] >> w & 1
        d = 1 if added else -1  # all three co-degrees move by d
        for a, b in ((u, v), (u, w), (v, w)):
            c = nbr[a][b].bit_count()
            hist[c] -= 1
            hist[c + d] += 1
        flip(nbr, edge)
        return added

    def snapshot(self) -> TripleSystem:
        """A snapshot of the masks as an immutable host."""
        return TripleSystem._from_masks([row[:] for row in self.pair_masks])

    def score(self) -> tuple[int, int]:
        """(min positive co-degree, -number of pairs attaining it); (0, 0) if edgeless."""
        hist = self.hist
        for c in range(1, len(hist)):
            if hist[c]:
                return (c, -hist[c])
        return (0, 0)


def build_codegree_table(host: TripleSystem) -> list[int]:
    """The co-degree histogram: ``table[c]`` pairs {u, v} have co-degree c.

    One entry per possible co-degree 0..n-2, and at least one entry, so
    ``table[0]`` exists on every host.  Every other co-degree fact in this
    module is read off this one scan of the pair table.
    """
    n = host.n
    table = [0] * max(n - 1, 1)
    for u, row in enumerate(host._nbr):
        for m in row[u + 1:]:
            table[m.bit_count()] += 1
    return table


def min_positive_codegree(host: TripleSystem) -> int | None:
    """Minimum co-degree over pairs with nonzero co-degree; None if edgeless."""
    table = build_codegree_table(host)
    return next((c for c in range(1, len(table)) if table[c]), None)


def _codegree_text(delta: int | None) -> str:
    """A min positive co-degree as printed, an edgeless host's None included."""
    return "undefined" if delta is None else str(delta)


def min_codegree(host: TripleSystem) -> int:
    """Minimum co-degree over all pairs (the non-positive variant); 0 if n < 2."""
    table = build_codegree_table(host)
    return next((c for c, count in enumerate(table) if count), 0)


def construct_complete_k_partite(
    n: int, k: int
) -> tuple[TripleSystem, tuple[tuple[int, ...], ...]]:
    """Complete balanced k-partite triple system on n vertices, and its parts.

    Parts have sizes ceil(n/k) or floor(n/k), larger parts first, with
    vertices assigned in increasing index order; the edges are exactly the
    triples meeting three distinct parts.  The assignment is deterministic
    so fixtures built from it are byte-stable.  The pair-mask table is
    written in closed form: a pair inside one part has an empty
    neighborhood, a pair across two parts every vertex outside both.
    """
    if k < 3:
        raise PreconditionViolated(f"need at least 3 parts, got k={k}")
    if n < k:
        raise PreconditionViolated(f"need n >= k, got n={n}, k={k}")
    if n > MAX_VERTICES:
        raise PreconditionViolated(f"need n <= {MAX_VERTICES}, got n={n}")
    q, big = divmod(n, k)
    # part i starts at i*q + min(i, big): the first big parts have q + 1 vertices
    ends = [i * q + min(i, big) for i in range(k + 1)]
    parts = tuple(tuple(range(a, b)) for a, b in zip(ends, ends[1:]))
    part_mask = [((1 << len(p)) - 1) << p[0] for p in parts for _ in p]  # per vertex
    full = (1 << n) - 1
    nbr = [[0 if mu == mv else full ^ mu ^ mv for mv in part_mask] for mu in part_mask]
    return TripleSystem._from_masks(nbr), parts


#: Families whose extremal value is known in closed form.
KNOWN_FAMILIES = ("c5minus", "c5", "k4minus")


def known_extremal_value(n: int, family: str) -> int:
    """Known exact value of the positive co-degree extremal function.

    For the tight-cycle-with-deleted-edge family and for the four-triple
    configuration with one missing edge the value is floor(n/3); for the
    tight 5-cycle it is 2k for n in {4k, 4k+1, 4k+2} and 2k+1 for n = 4k+3.
    Only defined for n >= 6.
    """
    fam = family.lower()
    if fam not in KNOWN_FAMILIES:
        raise ValueError(f"no known closed form for pattern {family!r}")
    if n < 6:
        raise PreconditionViolated(f"closed forms require n >= 6, got n={n}")
    if fam in ("c5minus", "k4minus"):
        return n // 3
    q, r = divmod(n, 4)
    return 2 * q + (1 if r == 3 else 0)
