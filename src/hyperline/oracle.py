"""Brute-force ground truth for small instances.

`cover_search` decides membership by exhaustive backtracking over clique
covers, independently of the threshold-based recognizer, so the two can
be played against each other in tests.  Also here: a small-graph
isomorphism test and an exhaustive scan of the constant-degree
realizability criterion.
"""

from __future__ import annotations

from math import comb

from ._value import Value
from .baranyai import regular_hypergraph
from .errors import DivisibilityError, InputError, ResourceLimitError
from .graph import Graph, _bits
from .reconstruction import CliqueCover

DEFAULT_BUDGET = 2_000_000
COVER_SIZE_BOUND = 8
ISO_SIZE_BOUND = 10


def _clique_masks(g: Graph) -> list[tuple[int, int]]:
    """(vertex mask, edge bitmap) of every clique with at least 2 vertices,
    largest first and lexicographic within a size.

    Each clique of size s + 1 extends one of size s, in list order, by a
    common neighbour above its largest vertex, in increasing order; so
    every level is lexicographic, starting from the single vertices.
    Edge (u, v), u < v, is bit u*n + v, which puts the bits in
    lexicographic edge order; with `spread` the OR of 1 << u*n over the
    clique's vertices, adding vertex w adds the edges `spread << w`.
    """
    n = g.n
    adj = g._adj
    # (vertex mask, edge bitmap, spread, common neighbours above the last vertex)
    level = [(1 << u, 0, 1 << u * n, adj[u] >> (u + 1) << (u + 1)) for u in range(n)]
    levels = []
    while level:
        grown = []
        for mask, bitmap, spread, common in level:
            while common:
                low = common & -common
                common ^= low
                w = low.bit_length() - 1
                grown.append(
                    (mask | low, bitmap | spread << w, spread | 1 << w * n, common & adj[w])
                )
        levels.append(grown)
        level = grown
    return [(mask, bitmap) for level in reversed(levels) for mask, bitmap, _, _ in level]


def cover_search(
    g: Graph,
    k: int,
    p: int,
    budget: int = DEFAULT_BUDGET,
) -> CliqueCover | None:
    """Exhaustive search for a clique cover with vertex load <= k and
    pairwise overlaps <= p; None is a definitive negative.

    Covers the first uncovered edge in lexicographic order; the cliques
    holding it, listed under its bit, are tried in `_clique_masks` order
    and the first complete cover wins, so the result is deterministic.
    `loaded[j]` masks the vertices in more than j chosen cliques, so a
    clique overloads a vertex iff it meets `loaded[k-1]`.  Each search
    call is one node; a graph of more than `COVER_SIZE_BOUND` vertices,
    or a search past the node budget, raises rather than guessing.
    """
    if k < 2 or p < 1:
        raise InputError(f"need k >= 2 and p >= 1, got k={k}, p={p}")
    if budget < 1:
        raise InputError(f"budget must be positive, got {budget}")
    if g.n > COVER_SIZE_BOUND:
        raise ResourceLimitError(
            f"graph has {g.n} vertices, oracle bound is {COVER_SIZE_BOUND}"
        )

    candidates: dict[int, list[tuple[int, int]]] = {}
    for clique in _clique_masks(g):
        bitmap = clique[1]
        while bitmap:
            low = bitmap & -bitmap
            bitmap ^= low
            candidates.setdefault(low, []).append(clique)
    if not candidates:
        return CliqueCover(g.n, [])

    # While an edge is uncovered, fewer cliques than edges are chosen, so
    # only the first edge-count load masks can ever be nonempty.
    depth = min(k, len(candidates))
    chosen: list[int] = []
    nodes = 0

    def search(uncovered: int, loaded: tuple[int, ...]) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise ResourceLimitError(f"cover search exceeded {budget} nodes")
        if not uncovered:
            return True
        full = loaded[-1]
        for cmask, bitmap in candidates[uncovered & -uncovered]:
            if cmask & full:
                continue
            for prev in chosen:
                if (prev & cmask).bit_count() > p:
                    break
            else:
                chosen.append(cmask)
                below = loaded[0]
                grown = [below | cmask]
                for above in loaded[1:]:
                    grown.append(above | below & cmask)
                    below = above
                if search(uncovered & ~bitmap, tuple(grown)):
                    return True
                chosen.pop()
        return False

    if search(sum(candidates), (0,) * depth):  # the keys are the edge bits
        return CliqueCover(g.n, [tuple(_bits(cmask)) for cmask in chosen])
    return None


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
    """Outcome of the realizability scan; discrepancies should stay empty.

    Mutable, so unhashable; each report gets its own discrepancy list."""

    cases: int
    discrepancies: list[str]

    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, cases: int = 0, discrepancies: list[str] | None = None):
        self.cases = cases
        self.discrepancies = [] if discrepancies is None else discrepancies

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def scan_regular_realizability(n_max: int, k_max: int) -> ScanReport:
    """Check, for every N <= n_max, k <= k_max, and feasible degree, that
    constant-degree construction succeeds exactly when k divides d*N and
    that the built hypergraph has the right degrees."""
    if n_max < 2 or n_max > 12 or k_max < 2:
        raise InputError(f"scan bounds out of range: n_max={n_max}, k_max={k_max}")
    report = ScanReport()
    for big_n in range(2, n_max + 1):
        for k in range(2, min(k_max, big_n) + 1):
            for d in range(1, comb(big_n - 1, k - 1) + 1):
                report.cases += 1
                tag = f"N={big_n} k={k} d={d}"
                expect_ok = (d * big_n) % k == 0
                try:
                    hg = regular_hypergraph(big_n, k, d)
                except DivisibilityError:
                    if expect_ok:
                        report.discrepancies.append(f"{tag}: rejected but k divides dN")
                    continue
                if not expect_ok:
                    report.discrepancies.append(f"{tag}: built but k does not divide dN")
                    continue
                if not hg.is_k_uniform(k):
                    report.discrepancies.append(f"{tag}: edges are not {k}-uniform")
                if hg.degree_sequence() != [d] * big_n:
                    report.discrepancies.append(f"{tag}: degree sequence is not constant {d}")
    return report
