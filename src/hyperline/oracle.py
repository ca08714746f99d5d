"""Brute-force ground truth for small instances.

`cover_search` decides membership by exhaustive backtracking over clique
covers, independently of the threshold-based recognizer, so the two can
be played against each other in tests.  Its candidates come from one
index per (vertex count n, min(p, n)), built once and cached: for each
vertex pair and each mask of other vertices, every vertex subset
holding the pair whose other vertices lie in the mask, with bitmaps
that let one AND test whether the subset is a clique of the graph, one
AND whether it shares more than p vertices with any chosen clique, and
one add and AND whether it overloads a vertex.  So the search reads a
reached edge's candidates off in one lookup, by the edge and its ends'
common neighbourhood, and runs all three tests inline, on an explicit
stack of candidate iterators.  Also here: an isomorphism test for
small graphs, by backtracking on the adjacency masks, and an
exhaustive scan of the constant-degree realizability criterion.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterable

from ._value import Value, _set_field
from .baranyai import regular_hypergraph
from .errors import DivisibilityError, InputError, ResourceLimitError
from .errors import _require_ints, _require_k_and_p
from .graph import Graph, _bits, _mask
from .reconstruction import CliqueCover

DEFAULT_BUDGET = 2_000_000
COVER_SIZE_BOUND = 8
ISO_SIZE_BOUND = 10

# The search keeps each vertex's load, the number of chosen cliques
# holding it, in a counter of _LOAD_WIDTH bits at bit _LOAD_WIDTH*v, so a
# clique's load increment bumps all its vertices' counters in one add.
# A counter starts cap + 1 below its top bit, cap <= C(8, 2) = 28 being
# the load a vertex may take, so it reaches the top bit exactly when a
# clique would overload the vertex, and never carries into the next.
_LOAD_WIDTH = 6
_LOAD_ONES = tuple(
    sum(1 << _LOAD_WIDTH * v for v in range(n)) for n in range(COVER_SIZE_BOUND + 1)
)

# (n, q) -> {pair bit: (u, v, entries by common-neighbourhood mask)};
# q = min(p, n), since no subset of n vertices holds more than n of them.
_indexes: dict[tuple[int, int], dict[int, tuple[int, int, list]]] = {}


def _pair_index(n: int, q: int) -> dict[int, tuple[int, int, list]]:
    """For each pair bit u*n + v (u < v): (u, v, by_common), where
    by_common[cn], for each mask cn of vertices other than u and v, lists
    every vertex subset holding u and v whose other vertices all lie in
    cn, largest first and lexicographic within a size (slots whose mask
    holds u or v are None).  A graph's cliques holding (u, v), in that
    order, are the entries of its common-neighbourhood slot whose pair
    bitmap lies inside the graph's.

    An entry is (vertices, pair bitmap, bitmap of its (q+1)-subsets, load
    increment).  Each (q+1)-subset of the n vertices has its own bit, so
    two subsets share more than q vertices exactly when their third
    fields meet; the fourth holds a 1 in the load counter of each vertex.
    Each subset's entry is built once and appended, for each of its
    pairs, to every slot whose mask holds its other vertices: 3^(n-2)
    appends per pair.
    """
    index = _indexes.get((n, q))
    if index is None:
        index = {}
        for u, v in combinations(range(n), 2):
            ends = 1 << u | 1 << v
            index[1 << u * n + v] = (u, v, [None if cn & ends else [] for cn in range(1 << n)])
        bit = {ws: i for i, ws in enumerate(combinations(range(n), q + 1))}
        for size in range(n, 1, -1):
            for vs in combinations(range(n), size):
                pairs = [1 << u * n + v for u, v in combinations(vs, 2)]
                entry = (
                    vs,
                    sum(pairs),
                    sum(1 << bit[ws] for ws in combinations(vs, q + 1)),
                    sum(1 << _LOAD_WIDTH * v for v in vs),
                )
                mask = _mask(vs)
                rest = (1 << n) - 1 ^ mask
                for pair in pairs:
                    u, v, by_common = index[pair]
                    other = mask ^ (1 << u | 1 << v)
                    sub = rest
                    while True:  # sub runs over every subset of rest
                        by_common[other | sub].append(entry)
                        if not sub:
                            break
                        sub = sub - 1 & rest
        _indexes[(n, q)] = index
    return index


def cover_search(
    g: Graph,
    k: int,
    p: int,
    budget: int = DEFAULT_BUDGET,
) -> CliqueCover | None:
    """Exhaustive search for a clique cover with vertex load <= k and
    pairwise overlaps <= p; None is a definitive negative.

    Covers the first uncovered edge in lexicographic order (edge (u, v),
    u < v, is bit u*n + v of the graph's pair bitmap); the cliques holding
    it are tried largest first, lexicographic within a size, and the
    first complete cover wins, so the result is deterministic.  An edge's
    candidates are the `_pair_index(n, min(p, n))` slot of the edge and
    its ends' common neighbourhood: every subset S of N(u) & N(v) with u
    and v added, in that order.
    Such a subset is a clique exactly when S is one, that is when its
    pair bitmap misses the graph's absent pairs, and that test runs with
    the other two: `taken` is the OR of the chosen cliques' (p+1)-subset
    bitmaps, so a clique shares more than p vertices with a chosen one
    iff it meets `taken`; `loads` packs the vertex load counters, so a
    clique overloads a vertex iff adding its increment sets a counter's
    top bit (`guard`).  The search runs on an explicit stack with one
    frame per chosen clique: the level's candidate iterator, its
    uncovered, loads and taken, and the clique.  The root and each
    clique chosen is one node; a graph of more than `COVER_SIZE_BOUND`
    vertices, or a search past the node budget, raises rather than
    guessing.
    """
    _require_k_and_p(k, p)
    _require_ints(budget=budget)
    if budget < 1:
        raise InputError(f"budget must be positive, got {budget}")
    n = g.n
    if n > COVER_SIZE_BOUND:
        raise ResourceLimitError(
            f"graph has {n} vertices, oracle bound is {COVER_SIZE_BOUND}"
        )

    adj = g._adj
    uncovered = 0
    for u, row in enumerate(adj):
        uncovered |= row >> u + 1 << u * n + u + 1
    if not uncovered:
        return CliqueCover(n, [])

    index = _pair_index(n, min(p, n))
    # Nonnegative, as an AND with a negative int takes a slower path.
    absent = (1 << n * n) - 1 ^ uncovered
    # While an edge is uncovered, fewer cliques than edges are chosen, so
    # a load cap above the edge count never binds.
    cap = min(k, uncovered.bit_count())
    ones = _LOAD_ONES[n]
    guard = ones << _LOAD_WIDTH - 1
    loads = guard - (cap + 1) * ones
    taken = 0
    u, v, by_common = index[uncovered & -uncovered]
    cliques = iter(by_common[adj[u] & adj[v]])
    frames: list[tuple] = []
    nodes = 1
    while True:
        # Descend into the first clique left that passes all three tests;
        # when none does, back up to the frame that chose this level's.
        # Fields are read by position, so that a candidate the first test
        # drops costs one subscript rather than a four-way unpack.
        for entry in cliques:
            if entry[2] & taken or entry[1] & absent or (loads + entry[3]) & guard:
                continue
            vertices, bitmap, subsets, spread = entry
            nodes += 1
            if nodes > budget:
                raise ResourceLimitError(f"cover search exceeded {budget} nodes")
            frames.append((cliques, uncovered, loads, taken, vertices))
            uncovered &= ~bitmap
            if not uncovered:
                return CliqueCover(n, [frame[4] for frame in frames])
            loads += spread
            taken |= subsets
            u, v, by_common = index[uncovered & -uncovered]
            cliques = iter(by_common[adj[u] & adj[v]])
            break
        else:
            if not frames:
                return None
            cliques, uncovered, loads, taken, _ = frames.pop()


def graphs_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Adjacency-preserving bijection test by pruned backtracking on the
    adjacency masks.  Vertices are matched only within classes of equal
    (degree, sorted neighbour degrees), and a candidate image is taken
    only when its row agrees with the vertex's row on every vertex
    already placed, which one AND and one comparison decide."""
    if g1.n > ISO_SIZE_BOUND or g2.n > ISO_SIZE_BOUND:
        raise ResourceLimitError(f"isomorphism bound is {ISO_SIZE_BOUND} vertices")
    adj1, adj2 = g1._adj, g2._adj
    n = len(adj1)
    if n != len(adj2):
        return False

    def signatures(adj: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
        degrees = [row.bit_count() for row in adj]
        return [(d, tuple(sorted(degrees[w] for w in _bits(row)))) for d, row in zip(degrees, adj)]

    sig1, sig2 = signatures(adj1), signatures(adj2)
    if sorted(sig1) != sorted(sig2):
        return False

    pools = {s: [v for v in range(n) if sig2[v] == s] for s in set(sig1)}
    order = sorted(range(n), key=lambda v: (len(pools[sig1[v]]), v))
    mapping = [0] * n

    def assign(idx: int, placed: int, used: int) -> bool:
        # placed: the vertices of g1 mapped so far; used: their images
        if idx == n:
            return True
        u = order[idx]
        image = 0  # the images of u's placed neighbours
        for w in _bits(adj1[u] & placed):
            image |= 1 << mapping[w]
        for v in pools[sig1[u]]:
            if not used >> v & 1 and adj2[v] & used == image:
                mapping[u] = v
                if assign(idx + 1, placed | 1 << u, used | 1 << v):
                    return True
        return False

    return assign(0, 0, 0)


class ScanReport(Value):
    """Outcome of the realizability scan; discrepancies should stay empty."""

    cases: int
    discrepancies: tuple[str, ...]

    def __init__(self, cases: int = 0, discrepancies: Iterable[str] = ()):
        _set_field(self, "cases", cases)
        _set_field(self, "discrepancies", tuple(discrepancies))

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def scan_regular_realizability(n_max: int, k_max: int) -> ScanReport:
    """Check, for every N <= n_max, k <= k_max, and feasible degree, that
    constant-degree construction succeeds exactly when k divides d*N and
    that the built hypergraph has the right degrees."""
    _require_ints(n_max=n_max, k_max=k_max)
    if n_max < 2 or n_max > 12 or k_max < 2:
        raise InputError(f"scan bounds out of range: n_max={n_max}, k_max={k_max}")
    cases = 0
    discrepancies: list[str] = []
    for big_n in range(2, n_max + 1):
        for k in range(2, min(k_max, big_n) + 1):
            for d in range(1, comb(big_n - 1, k - 1) + 1):
                cases += 1
                tag = f"N={big_n} k={k} d={d}"
                expect_ok = (d * big_n) % k == 0
                try:
                    hg = regular_hypergraph(big_n, k, d)
                except DivisibilityError:
                    if expect_ok:
                        discrepancies.append(f"{tag}: rejected but k divides dN")
                    continue
                if not expect_ok:
                    discrepancies.append(f"{tag}: built but k does not divide dN")
                    continue
                if not hg.is_k_uniform(k):
                    discrepancies.append(f"{tag}: edges are not {k}-uniform")
                if hg.degree_sequence() != [d] * big_n:
                    discrepancies.append(f"{tag}: degree sequence is not constant {d}")
    return ScanReport(cases, discrepancies)
