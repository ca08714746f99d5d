"""Clique covers: the certificate value, its validity, and the
correspondence with hypergraphs.

A valid cover is a family of cliques such that (i) every edge of the graph
lies in at least one entry, (ii) no vertex lies in more than k entries, and
(iii) two distinct entries share at most p vertices.  Such a family is
exactly the vertex-star structure of a k-uniform hypergraph with pair
multiplicity at most p whose line graph is the given graph, and the two
directions of that correspondence are `cover_to_hypergraph` and
`hypergraph_to_cover`, both the vertex-star transpose (`_stars`).  Finding
a cover is the recognizer's job: the big-clique family, `krausz_cover` and
`reconstruct` live in `recognition`, which builds on this module and is
never imported by it.  Its forbidden structure F3, two big maximal cliques
sharing more than p vertices, is condition (iii) applied to the big-clique
family, and `check_f3` finds its pair with the scan that checks (iii) here
(`_overlapping_pairs`).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ._value import Value, _set_field
from .errors import InputError, _require_ints
from .graph import Graph, _mask
from .hypergraph import Hypergraph, _sorted_entries


class CliqueCover(Value):
    """Ordered family of vertex sets of a graph on `n` vertices.

    Entries may repeat and singletons are allowed; validity against a
    particular graph and (k, p) is checked by `validate_cover`, not here.
    """

    n: int
    cliques: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, cliques: Iterable[Iterable[int]]):
        _set_field(self, "n", n)
        _set_field(self, "cliques", _sorted_entries(n, cliques, "cover entry"))

    def __len__(self) -> int:
        return len(self.cliques)


class CoverDiagnostics(Value):
    ok: bool
    failure: str | None

    def __init__(self, ok: bool, failure: str | None = None):
        _set_field(self, "ok", ok)
        _set_field(self, "failure", failure)

    def __bool__(self) -> bool:
        return self.ok


def validate_cover(g: Graph, cover: CliqueCover, k: int, p: int) -> CoverDiagnostics:
    """Check the three cover conditions against g; report the first violation.

    Entries that are not cliques of g at all are an input error, distinct
    from a condition failure.
    """
    _require_ints(k=k, p=p)
    if k < 1 or p < 1:
        raise InputError(f"need k >= 1 and p >= 1, got k={k}, p={p}")
    if cover.n != g.n:
        raise InputError(f"cover is over {cover.n} vertices, graph has {g.n}")

    adj = g._adj
    masks = []
    covered = [0] * g.n  # covered[u]: union of the entries containing u
    load = [0] * g.n
    for pos, entry in enumerate(cover.cliques):
        m = _mask(entry)
        for u in entry:
            if m & ~adj[u] & ~(1 << u):
                raise InputError(f"cover entry {pos} {entry} is not a clique")
            covered[u] |= m
            load[u] += 1
        masks.append(m)

    for u in range(g.n):
        missed = (adj[u] & ~covered[u]) >> (u + 1)
        if missed:
            v = u + (missed & -missed).bit_length()
            return CoverDiagnostics(False, f"edge ({u}, {v}) is not covered by any clique")

    for v in range(g.n):
        if load[v] > k:
            return CoverDiagnostics(False, f"vertex {v} lies in {load[v]} cliques, limit {k}")

    for i, j in _overlapping_pairs(masks, p):
        shared = (masks[i] & masks[j]).bit_count()
        return CoverDiagnostics(False, f"cliques {i} and {j} share {shared} vertices, limit {p}")
    return CoverDiagnostics(True)


def _overlapping_pairs(masks: list[int], p: int) -> Iterator[tuple[int, int]]:
    """The pairs i < j of vertex masks sharing more than p vertices, in
    order, found by one AND each as they are asked for; the first one is
    the first pair to break condition (iii)."""
    for i, a in enumerate(masks):
        for j in range(i + 1, len(masks)):
            if (a & masks[j]).bit_count() > p:
                yield i, j


def _stars(n: int, entries: Iterable[Iterable[int]]) -> list[list[int]]:
    """For each v in [0, n), the indices of the entries holding v, in
    order: the transpose of a family of vertex sets."""
    stars: list[list[int]] = [[] for _ in range(n)]
    for idx, entry in enumerate(entries):
        for v in entry:
            stars[v].append(idx)
    return stars


def cover_to_hypergraph(g: Graph, cover: CliqueCover, k: int, p: int) -> Hypergraph:
    """Build a hypergraph whose line graph is exactly g, from a valid cover.

    The cover is padded with k - g(v) fresh singleton entries per vertex v
    (g(v) = number of entries containing v), so every vertex of g lies in
    exactly k padded entries.  Hypergraph vertices are the padded entries,
    originals first, then singletons ordered by (vertex, copy); the edge
    for graph vertex v is the set of padded entries containing v.
    """
    diag = validate_cover(g, cover, k, p)
    if not diag:
        raise InputError(f"cover is not valid: {diag.failure}")

    stars = _stars(g.n, cover.cliques)
    next_index = len(cover.cliques)
    for v in range(g.n):
        for _ in range(k - len(stars[v])):
            stars[v].append(next_index)
            next_index += 1
    return Hypergraph(next_index, [tuple(star) for star in stars])


def hypergraph_to_cover(hg: Hypergraph) -> CliqueCover:
    """Vertex stars of the hypergraph as a cover of its line graph.

    One entry per hypergraph vertex with at least one incident edge,
    holding the indices of the edges through it, in vertex order.
    """
    return CliqueCover(hg.m, [tuple(s) for s in _stars(hg.n, hg.edges) if s])
