"""Simple undirected graphs and the structural queries the recognizer needs.

Adjacency is stored as one bitmask per vertex, and the hot kernels work
on those masks directly, each stopping as soon as its outcome is fixed:

- a claw's leaves are grown depth first over a candidate mask, on an
  explicit stack so the recursion limit puts no bound on the leaf
  count, each step keeping only the candidates outside the chosen
  leaf's neighborhood; the center and every level below it follow one
  rule: a level with fewer candidates than leaves still needed is never
  opened, nor one with at least twice as many that a greedy partition
  into cliques, highest-first or lowest-first, splits into fewer parts
  than that, as a clique holds at most one leaf (`find_claw`);
- maximal cliques come from pivoted Bron-Kerbosch run on an explicit
  stack of masks, so the interpreter's recursion limit puts no bound on
  clique size; nothing is enumerated when the requested size exceeds
  n or fewer vertices than that size reach the degree such a clique
  needs (the degree floor that lets the recognizer's big-clique family
  cost one comparison on small graphs), branches that cannot reach the
  requested size are cut, a frame is dropped as soon as one of its
  excluded vertices sees all its candidates, since it then holds no
  maximal clique, before its candidates are scanned, and a frame whose
  candidates already form a clique reports its one maximal clique whole;
  the same frame loop also runs from a given clique and its common
  neighbours, listing only the maximal cliques that hold that clique
  (`_cliques_from`);
- a clique is grown greedily from a given one, each step adding the
  candidate with the most neighbours among the candidates, or all of
  them once they form a clique (`_grow_clique`); a candidate set is
  peeled to its t-core, pass by pass (`_core`);
- "which vertices have at least t neighbours among these" is one
  threshold count over the members' rows, kept in bit-sliced counters
  (`_met_at_least`);
- a mask's binary digits come out as the bytes 0 and 1 (`_digits`), a
  selector for `itertools.compress`, or spread each bit to a byte of its
  own (`_fields`), so that one addition of such ints adds every byte at
  once.

Each exit drops only work that cannot change the result, so every
output is that of the plain search.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

from ._value import Value, _set_field
from .errors import InputError, _iterate, _require_ints, _require_vertex
from .hypergraph import Hypergraph


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(vertices: Iterable[int]) -> int:
    """Bitmask with bit v set for each given vertex v."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _first_bits(mask: int, count: int) -> tuple[int, ...]:
    """The lowest `count` set bit positions of mask, in increasing order."""
    return tuple(islice(_bits(mask), count))


# The binary digits of a mask as the bytes 0 and 1.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _digits(mask: int) -> bytes:
    """The binary digits of mask, lowest first, as the bytes 0 and 1: a
    selector for `itertools.compress` that stops at its highest set bit."""
    return format(mask, "b").encode().translate(_DIGIT_BYTES)[::-1]


def _fields(mask: int) -> int:
    """mask with each bit i moved to the low bit of byte i: one one-byte
    field per vertex, so that adding such ints counts, in each byte, the
    masks that hold its vertex, as long as no count reaches 256."""
    return int.from_bytes(format(mask, "b").encode().translate(_DIGIT_BYTES), "big")


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        _require_ints(n=n)
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        adj = [0] * n
        for edge in _iterate("edge list", edges):
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise InputError(f"edge {edge} is not a pair") from None
            if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) has a vertex outside [0, {n})")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)

    @classmethod
    def from_adjacency_masks(cls, masks: Iterable[int]) -> "Graph":
        """The graph whose vertex v has neighbourhood mask masks[v]; the
        masks are trusted to be symmetric and loop-free."""
        g = cls.__new__(cls)
        g._adj = tuple(masks)
        g.n = len(g._adj)
        return g

    def adjacency_mask(self, v: int) -> int:
        _require_vertex(v, self.n)
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        _require_vertex(u, self.n)
        _require_vertex(v, self.n)
        return u != v and bool(self._adj[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        _require_vertex(v, self.n)
        return tuple(_bits(self._adj[v]))

    def degree(self, v: int) -> int:
        _require_vertex(v, self.n)
        return self._adj[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            higher = self._adj[u] >> (u + 1) << (u + 1)
            for v in _bits(higher):
                yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"


class Claw(Value):
    """Induced star: center adjacent to pairwise non-adjacent leaves."""

    center: int
    leaves: tuple[int, ...]

    def __init__(self, center: int, leaves: tuple[int, ...]):
        _set_field(self, "center", center)
        _set_field(self, "leaves", leaves)


def _met_at_least(adj: tuple[int, ...], members: int, t: int, scope: int) -> int:
    """Mask of the vertices of scope adjacent to at least t (>= 1) vertices
    of members.

    Counts are kept bit-sliced: plane i holds bit i of every vertex's
    count, so adding a member's row, cut to scope, is one ripple-carry add
    over whole masks.  The carry out of the top plane marks vertices whose
    count passed 2**len(planes) - 1 >= t: the count saturates there, and
    they stay met however many rows follow.  The planes are then compared
    with t from the top bit down.
    """
    planes = [0] * t.bit_length()
    top = len(planes)
    over = 0
    while members:
        low = members & -members
        members ^= low
        carry = adj[low.bit_length() - 1] & scope
        i = 0
        while carry:
            if i == top:
                over |= carry
                break
            plane = planes[i]
            planes[i] = plane ^ carry
            carry &= plane
            i += 1
    above = over  # count > t on the planes read so far
    equal = -1  # count == t on the planes read so far (-1: every vertex)
    for i in range(top - 1, -1, -1):
        if t >> i & 1:
            equal &= planes[i]
        else:
            above |= equal & planes[i]
    return above | equal


def line_graph(hg: Hypergraph) -> Graph:
    """Intersection graph of the hyperedges.

    Vertex i corresponds to edge i of the hypergraph; two vertices are
    adjacent iff the edges share at least one vertex.  Each hypergraph
    vertex v gets a star mask holding bit i for every edge i through v,
    and row i is the OR of the stars of edge i's vertices with bit i
    cleared.  Identical repeated edges intersect, so their copies are
    adjacent.
    """
    star = [0] * hg.n
    for i, e in enumerate(hg.edges):
        bit = 1 << i
        for v in e:
            star[v] |= bit
    adj = []
    for i, e in enumerate(hg.edges):
        row = 0
        for v in e:
            row |= star[v]
        adj.append(row & ~(1 << i))
    return Graph.from_adjacency_masks(tuple(adj))


def edge_degree(g: Graph, u: int, v: int) -> int:
    """Number of triangles containing the edge uv."""
    if not g.has_edge(u, v):
        raise InputError(f"({u}, {v}) is not an edge")
    return (g._adj[u] & g._adj[v]).bit_count()


def min_edge_degree(g: Graph) -> int:
    """Minimum over edges of the triangle count; undefined on edgeless graphs.

    Each row is scanned above its own vertex, so every edge is met once.
    """
    adj = g._adj
    best = g.n  # above any triangle count, which is at most n - 2
    for u, nu in enumerate(adj):
        higher = nu >> (u + 1)
        while higher:
            low = higher & -higher
            higher ^= low
            d = (nu & adj[u + low.bit_length()]).bit_count()
            if d < best:
                if d == 0:
                    return 0
                best = d
    if best == g.n:
        raise InputError("minimum edge degree is undefined for an edgeless graph")
    return best


def common_neighborhood(g: Graph, vertices: Iterable[int]) -> frozenset[int]:
    """Vertices adjacent to every vertex of the given set, excluding the set itself."""
    witness = list(_iterate("vertex list", vertices))
    if not witness:
        raise InputError("common neighborhood of an empty set is undefined")
    mask = (1 << g.n) - 1
    own = 0
    for w in witness:
        _require_vertex(w, g.n)
        mask &= g._adj[w]
        own |= 1 << w
    return frozenset(_bits(mask & ~own))


def maximal_cliques(g: Graph, min_size: int = 1) -> list[tuple[int, ...]]:
    """All inclusion-maximal cliques with at least `min_size` vertices,
    each sorted, listed lexicographically.

    Pivoted Bron-Kerbosch on bitmasks, driven by an explicit stack so a
    clique of any size is found without recursion.  A frame holds the
    clique R so far, its candidates P and its excluded vertices X; P|X is
    every vertex adjacent to all of R.  Each vertex of P|X has its
    neighbors in P counted, X first:

    - a vertex of X adjacent to all of P extends every clique of R|P, so
      the frame holds no maximal clique and is dropped at once; on line
      graphs of graphs about half the frames end so, and scanning X
      first spares them the scan over P;
    - otherwise the counts of X and P pick the pivot (Tomita-Tanaka-
      Takahashi: the most neighbors in P), and the scan over P tells
      whether P is already a clique, each vertex seeing all the others;
      if so, R|P is the one maximal clique of the frame and is reported
      whole, where expanding it would walk down one frame per vertex of
      P;
    - otherwise the frame branches on the vertices of P outside the
      pivot's neighborhood.

    Every clique a frame can still report lies inside R|P, so a frame
    whose clique size plus candidate count falls below `min_size` is
    never pushed; with the default every maximal clique is listed, and
    isolated vertices show up as singletons.  Each maximal clique is
    found exactly once whatever the pivot and the frame order, and the
    result is sorted, so neither shows in the output.

    Each vertex of a clique of `min_size` vertices has degree at least
    min_size - 1, so before anything is allocated the list is returned
    empty when min_size exceeds n, or when fewer than min_size vertices
    reach that degree.  A min_size that is not an int raises InputError.
    """
    if type(min_size) is not int:
        _require_ints(min_size=min_size)
    n = g.n
    if min_size > n:
        return []
    adj = g._adj
    heavy = 0
    for row in adj:
        if row.bit_count() >= min_size - 1:
            heavy += 1
    if heavy < min_size:
        return []
    found = _cliques_from(adj, 0, 0, (1 << n) - 1, min_size) if n else []
    return sorted(tuple(_bits(m)) for m in found)


def _cliques_from(adj: tuple[int, ...], r: int, size: int, p: int, min_size: int) -> list[int]:
    """Masks of the cliques of at least `min_size` vertices that are
    maximal inside r | p and hold the clique r of `size` vertices, p being
    vertices adjacent to all of r: `maximal_cliques`' frame loop, run from
    the frame (r, p) with no excluded vertex.  From r = 0 and p every
    vertex it lists the maximal cliques of the graph; from a clique r and
    its common neighbours p it lists those that hold r."""
    found: list[int] = []
    # Each frame is (r, size, p, count, x): the clique so far and its
    # size, the candidates and their count, and the excluded vertices.
    count = p.bit_count()
    stack = [(r, size, p, count, 0)] if size + count >= min_size else []
    while stack:
        r, size, p, count, x = stack.pop()
        best = -1
        rest = x
        while rest:
            low = rest & -rest
            rest ^= low
            row = adj[low.bit_length() - 1]
            seen = (row & p).bit_count()
            if seen == count:  # this excluded vertex sees all of p
                break
            if seen > best:
                best = seen
                pivot = row
        else:
            others = count - 1  # neighbors in p of a vertex of p that sees all of p
            clique = True
            rest = p
            while rest:
                low = rest & -rest
                rest ^= low
                row = adj[low.bit_length() - 1]
                seen = (row & p).bit_count()
                if seen < others:
                    clique = False
                if seen > best:
                    best = seen
                    pivot = row
            if clique:
                found.append(r | p)
                continue
            # Each branch vertex gets its child frame, then moves from the
            # candidates to the excluded vertices of the frames after it.
            todo = p & ~pivot
            size += 1
            while todo:
                low = todo & -todo
                todo ^= low
                row = adj[low.bit_length() - 1]
                sub = p & row
                subcount = sub.bit_count()
                if size + subcount >= min_size:
                    stack.append((r | low, size, sub, subcount, x & row))
                p ^= low
                x |= low
                count -= 1
                if size + count <= min_size:  # a later child reaches size + count - 1 at most
                    break
    return found


def _grow_clique(adj: tuple[int, ...], clique: int, cand: int) -> int:
    """The clique `clique` (a mask) grown greedily inside cand, whose
    vertices all see the whole clique: each step adds the candidate with
    the most neighbours among the candidates, the lowest on a tie, and
    keeps only the candidates that see it.  Candidates that already form
    a clique, each seeing all the others, are added whole.  The result is
    a maximal clique of the subgraph that clique | cand induces."""
    while cand:
        others = cand.bit_count() - 1
        best = -1
        whole = True
        rest = cand
        while rest:
            low = rest & -rest
            rest ^= low
            seen = (adj[low.bit_length() - 1] & cand).bit_count()
            if seen < others:
                whole = False
            if seen > best:
                best, pick = seen, low
        if whole:
            return clique | cand
        clique |= pick
        cand &= adj[pick.bit_length() - 1]
    return clique


def _seeing(adj: tuple[int, ...], cand: int, t: int) -> int:
    """The vertices of cand with at least t neighbours in cand: one AND
    and one count each, which on the few dozen vertices of a common
    neighbourhood is quicker than `_met_at_least`'s counters."""
    kept = 0
    rest = cand
    while rest:
        low = rest & -rest
        rest ^= low
        if (adj[low.bit_length() - 1] & cand).bit_count() >= t:
            kept |= low
    return kept


def _core(adj: tuple[int, ...], cand: int, t: int) -> int:
    """The t-core of the subgraph that cand induces: cand peeled, pass by
    pass, of the vertices with fewer than t neighbours left in it.  Every
    vertex of a clique of t + 1 vertices inside cand stays."""
    while True:
        kept = _seeing(adj, cand, t)
        if kept == cand:
            return cand
        cand = kept


def find_claw(g: Graph, r: int) -> Claw | None:
    """First claw with exactly r leaves: lowest center, then lexicographically
    least leaf set.  None if the graph has no such induced star.

    The leaves are grown depth first from the center's neighborhood mask,
    on an explicit stack so the interpreter's recursion limit puts no
    bound on r.  A level takes its lowest candidate left as a leaf and
    opens the level below on the candidates above that leaf outside its
    neighborhood; a level out of candidates hands back to the level
    above.  When one leaf is still needed the lowest candidate is it.
    The center is the level that needs r leaves from its neighborhood.

    One rule decides whether a level is opened.  A level that needs t
    leaves from c candidates is never opened when c < t.  When c >= 2t
    it is not opened either if a greedy partition of its candidates into
    cliques has fewer than t parts (`_fewer_parts`, the colouring bound
    of Tomita and Seki's MCQ taken on the complement): a clique holds at
    most one leaf.  The highest-first partition is tried first, then the
    lowest-first one; the neighborhoods of line graphs are a few cliques
    joined by stray edges, which lead one order or the other to split a
    clique in two.  Below 2t the plain search settles a level in about
    as few steps as a partition would take.  Every cut drops only levels
    holding no leaf set, so the cuts change the time, never the claw
    found.
    """
    if type(r) is not int or r < 1:
        _require_ints(r=r)
        raise InputError(f"claw size must be positive, got {r}")
    adj = g._adj
    for center, nbrs in enumerate(adj):
        count = nbrs.bit_count()
        if count < r:  # a centre needs r neighbours
            continue
        if r == 1:
            return Claw(center, ((nbrs & -nbrs).bit_length() - 1,))
        if count >= 2 * r and _fewer_parts(adj, nbrs, r):
            continue
        # The current level's candidates, their count and the leaves it
        # still needs; `opened` links the levels above it, innermost
        # first, as (candidates left, their count, leaf, next level).
        cand, need, opened = nbrs, r, None
        while True:
            while count >= need:
                low = cand & -cand
                cand ^= low
                count -= 1
                v = low.bit_length() - 1
                rest = cand & ~adj[v]
                left = rest.bit_count()
                if left >= need - 1:
                    if need == 2:
                        leaves = [(rest & -rest).bit_length() - 1, v]
                        while opened is not None:
                            leaves.append(opened[2])
                            opened = opened[3]
                        return Claw(center, tuple(reversed(leaves)))
                    if left < 2 * need - 2 or not _fewer_parts(adj, rest, need - 1):
                        opened = (cand, count, v, opened)
                        cand, count, need = rest, left, need - 1
            if opened is None:
                break
            cand, count, _, opened = opened
            need += 1
    return None


def _fewer_parts(adj: tuple[int, ...], cand: int, need: int) -> bool:
    """Whether a greedy partition of cand into cliques has fewer than
    `need` parts.  Each part starts at the highest vertex left and grows
    by the highest remaining common neighbor; where that gives `need`
    parts, the parts are grown again from the lowest vertex left by the
    lowest remaining common neighbor.  Each pass stops as its part
    numbered `need` starts."""
    rest, parts = cand, need
    while rest:
        parts -= 1
        if not parts:
            break
        v = rest.bit_length() - 1
        common = rest
        while common:
            rest ^= 1 << v
            common &= adj[v]
            v = common.bit_length() - 1
    else:
        return True
    parts = need
    while cand:
        parts -= 1
        if not parts:
            return False
        low = cand & -cand
        cand ^= low
        common = cand & adj[low.bit_length() - 1]
        while common:
            low = common & -common
            cand ^= low
            common &= adj[low.bit_length() - 1]
    return True
