"""Clique-cover machinery: from a recognized line graph back to a hypergraph.

A valid cover is a family of cliques such that (i) every edge of the graph
lies in at least one entry, (ii) no vertex lies in more than k entries, and
(iii) two distinct entries share at most p vertices.  Such a family is
exactly the vertex-star structure of a k-uniform hypergraph with pair
multiplicity at most p whose line graph is the given graph, and the two
directions of that correspondence are `cover_to_hypergraph` and
`hypergraph_to_cover`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .errors import InputError, InternalContradictionError, NotAMemberError
from .graph import Graph, _mask, maximal_cliques
from .hypergraph import Hypergraph

if TYPE_CHECKING:  # pragma: no cover
    from .recognition import Thresholds


@dataclass(frozen=True)
class CliqueCover:
    """Ordered family of vertex sets of a graph on `n` vertices.

    Entries may repeat and singletons are allowed; validity against a
    particular graph and (k, p) is checked by `validate_cover`, not here.
    """

    n: int
    cliques: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, cliques: Iterable[Iterable[int]]):
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        normalized = []
        for pos, entry in enumerate(cliques):
            vs = sorted(entry)
            if not vs:
                raise InputError(f"cover entry {pos} is empty")
            for a, b in zip(vs, vs[1:]):
                if a == b:
                    raise InputError(f"cover entry {pos} repeats vertex {a}")
            if vs[0] < 0 or vs[-1] >= n:
                raise InputError(f"cover entry {pos} has a vertex outside [0, {n})")
            normalized.append(tuple(vs))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "cliques", tuple(normalized))

    def __len__(self) -> int:
        return len(self.cliques)


@dataclass(frozen=True)
class CoverDiagnostics:
    ok: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_cover(g: Graph, cover: CliqueCover, k: int, p: int) -> CoverDiagnostics:
    """Check the three cover conditions against g; report the first violation.

    Entries that are not cliques of g at all are an input error, distinct
    from a condition failure.
    """
    if k < 1 or p < 1:
        raise InputError(f"need k >= 1 and p >= 1, got k={k}, p={p}")
    if cover.n != g.n:
        raise InputError(f"cover is over {cover.n} vertices, graph has {g.n}")

    adj = [g.adjacency_mask(u) for u in range(g.n)]
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

    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            shared = (masks[i] & masks[j]).bit_count()
            if shared > p:
                return CoverDiagnostics(
                    False, f"cliques {i} and {j} share {shared} vertices, limit {p}"
                )

    return CoverDiagnostics(True)


def krausz_cover(g: Graph, t: "Thresholds") -> CliqueCover:
    """All maximal cliques of size at least the big-clique bound, in
    lexicographic order.

    Precondition: g passed the four forbidden-structure checks and its
    minimum edge degree meets the bound in t; under that hypothesis this
    family is a valid cover, and any validation failure here means the
    caller broke the precondition.
    """
    return _certified_cover(g, t, _big_cliques(g, t))


def _big_cliques(g: Graph, t: "Thresholds") -> list[tuple[int, ...]]:
    """Maximal cliques of size at least the big-clique bound, in
    lexicographic order; none can exist when the bound exceeds n, and
    then nothing is enumerated."""
    if t.clique_size_bound > g.n:
        return []
    return maximal_cliques(g, t.clique_size_bound)


def _certified_cover(g: Graph, t: "Thresholds", big: list[tuple[int, ...]]) -> CliqueCover:
    """`krausz_cover` from an already enumerated big-clique family."""
    cover = CliqueCover(g.n, big)
    diag = validate_cover(g, cover, t.k, t.p)
    if not diag:
        raise InternalContradictionError(
            f"big-clique family is not a valid cover ({diag.failure}); "
            "the recognition preconditions cannot have held"
        )
    return cover


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

    load = [0] * g.n
    for entry in cover.cliques:
        for u in entry:
            load[u] += 1

    stars: list[list[int]] = [[] for _ in range(g.n)]
    for idx, entry in enumerate(cover.cliques):
        for u in entry:
            stars[u].append(idx)
    next_index = len(cover.cliques)
    for v in range(g.n):
        for _ in range(k - load[v]):
            stars[v].append(next_index)
            next_index += 1
    return Hypergraph(next_index, [tuple(star) for star in stars])


def hypergraph_to_cover(hg: Hypergraph) -> CliqueCover:
    """Vertex stars of the hypergraph as a cover of its line graph.

    One entry per hypergraph vertex with at least one incident edge,
    holding the indices of the edges through it, in vertex order.
    """
    stars: list[list[int]] = [[] for _ in range(hg.n)]
    for idx, e in enumerate(hg.edges):
        for v in e:
            stars[v].append(idx)
    return CliqueCover(hg.m, [tuple(s) for s in stars if s])


def reconstruct(g: Graph, k: int, p: int) -> Hypergraph:
    """Recognize g and return a k-uniform witness hypergraph whose line
    graph equals g vertex-for-vertex.

    Raises NotAMemberError (carrying the verdict) unless recognition
    returns Member.
    """
    from .recognition import Member, recognize

    verdict = recognize(g, k, p)
    if not isinstance(verdict, Member):
        raise NotAMemberError(
            verdict, f"graph was not recognized as a member: {type(verdict).__name__}"
        )
    return cover_to_hypergraph(g, verdict.cover, k, p)
