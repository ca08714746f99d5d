"""Brute-force ground truth for small instances.

`cover_search` decides membership by exhaustive backtracking over clique
covers, independently of the threshold-based recognizer, so the two can
be played against each other in tests.  Its candidates come from one
table per (vertex count n, min(p, n)), built once and cached: for each
vertex pair, every vertex subset holding it, with bitmaps that let one
AND test whether the subset is a clique of the graph, one AND whether
it shares more than p vertices with any chosen clique, and one add and
AND whether it overloads a vertex.  The table is indexed once more by
each pair's common neighbourhood, so the search reads a reached edge's
candidates off in one lookup and runs all three tests inline, on an
explicit stack of candidate iterators.  Also here: a small-graph
isomorphism test and an exhaustive scan of the constant-degree
realizability criterion.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterable

from ._value import Value, _set_field
from .baranyai import regular_hypergraph
from .errors import DivisibilityError, InputError, ResourceLimitError, _require_ints
from .graph import Graph, _mask
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

# (vertices, pair bitmap, bitmap of its (q+1)-subsets, load increment)
_Entry = tuple[tuple[int, ...], int, int, int]

# (n, q) -> {pair bit: entries}; q = min(p, n), since no subset of n
# vertices holds more than n of them.
_tables: dict[tuple[int, int], dict[int, list[_Entry]]] = {}
# (n, q) -> {pair bit: (u, v, entries by common-neighbourhood mask)}
_indexes: dict[tuple[int, int], dict[int, tuple[int, int, list]]] = {}


def _subset_table(n: int, q: int) -> dict[int, list[_Entry]]:
    """For each pair bit u*n + v (u < v), every vertex subset of at least 2
    of n vertices holding u and v, largest first and lexicographic within
    a size: a graph's cliques holding (u, v), in that order, are the
    entries whose pair bitmap lies inside the graph's.

    Each (q+1)-subset of the n vertices has its own bit, so two subsets
    share more than q vertices exactly when their third fields meet.
    The fourth field holds a 1 in the load counter of each vertex.
    """
    table = _tables.get((n, q))
    if table is None:
        index = {ws: i for i, ws in enumerate(combinations(range(n), q + 1))}
        table = {1 << u * n + v: [] for u, v in combinations(range(n), 2)}
        for size in range(n, 1, -1):
            for vs in combinations(range(n), size):
                pairs = [1 << u * n + v for u, v in combinations(vs, 2)]
                entry = (
                    vs,
                    sum(pairs),
                    sum(1 << index[ws] for ws in combinations(vs, q + 1)),
                    sum(1 << _LOAD_WIDTH * v for v in vs),
                )
                for pair in pairs:
                    table[pair].append(entry)
        _tables[(n, q)] = table
    return table


def _pair_index(n: int, q: int) -> dict[int, tuple[int, int, list]]:
    """For each pair bit u*n + v: (u, v, by_common), where by_common[cn],
    for each mask cn of vertices other than u and v, lists the pair's
    `_subset_table(n, q)` entries whose other vertices all lie in cn, in
    table order (slots whose mask holds u or v are None).  Each entry is
    appended to every superset of its other-vertex mask, 3^(n-2) appends
    per pair, and the lists share the table's entry tuples.
    """
    index = _indexes.get((n, q))
    if index is None:
        index = {}
        for pair, entries in _subset_table(n, q).items():
            u, v = divmod(pair.bit_length() - 1, n)
            ends = 1 << u | 1 << v
            by_common: list = [None if cn & ends else [] for cn in range(1 << n)]
            for entry in entries:
                other = _mask(entry[0]) ^ ends
                rest = sub = (1 << n) - 1 ^ ends ^ other
                while True:  # sub runs over every subset of rest
                    by_common[other | sub].append(entry)
                    if not sub:
                        break
                    sub = sub - 1 & rest
            index[pair] = (u, v, by_common)
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
    candidates are `_pair_index`'s list for the edge and its ends' common
    neighbourhood: every subset S of N(u) & N(v) with u and v added.
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
    _require_ints(k=k, p=p, budget=budget)
    if k < 2 or p < 1:
        raise InputError(f"need k >= 2 and p >= 1, got k={k}, p={p}")
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
    """Adjacency-preserving bijection test by pruned backtracking."""
    if g1.n > ISO_SIZE_BOUND or g2.n > ISO_SIZE_BOUND:
        raise ResourceLimitError(f"isomorphism bound is {ISO_SIZE_BOUND} vertices")
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    n = g1.n

    def signature(g: Graph, v: int) -> tuple:
        return (g.degree(v), tuple(sorted(g.degree(u) for u in g.neighbors(v))))

    sig1 = [signature(g1, v) for v in range(n)]
    sig2 = [signature(g2, v) for v in range(n)]
    if sorted(sig1) != sorted(sig2):
        return False

    pools = {s: [v for v in range(n) if sig2[v] == s] for s in set(sig1)}
    order = sorted(range(n), key=lambda v: (len(pools[sig1[v]]), v))
    mapping = [-1] * n
    used = [False] * n

    def assign(idx: int) -> bool:
        if idx == n:
            return True
        u = order[idx]
        for v in pools[sig1[u]]:
            if used[v]:
                continue
            ok = True
            for w in g1.neighbors(u):
                if mapping[w] != -1 and not g2.has_edge(v, mapping[w]):
                    ok = False
                    break
            if ok:
                for w in range(n):
                    if mapping[w] != -1 and not g1.has_edge(u, w) and g2.has_edge(v, mapping[w]):
                        ok = False
                        break
            if ok:
                mapping[u] = v
                used[v] = True
                if assign(idx + 1):
                    return True
                mapping[u] = -1
                used[v] = False
        return False

    return assign(0)


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
