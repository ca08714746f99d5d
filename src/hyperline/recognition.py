"""Membership tests for line graphs of k-uniform hypergraphs with bounded
pair multiplicity.

Four necessary conditions are checked as threshold predicates on the
graph: no (k+1)-claw, no non-adjacent pair with more than p*k^2 common
neighbors, no vertex attached to more than p*k vertices of a big maximal
clique, and no two big maximal cliques sharing more than p vertices
("big" means size at least p*k^2 + (p-2)*k + 2).  Any violation yields a
checkable NonMember witness.  If all four pass and the minimum edge
degree reaches p*k^3 + (p-3)*k + 1, the family of big maximal cliques is
a valid cover and certifies membership; below that edge-degree bound the
verdict is Inconclusive.

Each check is one function, and `recognize` calls it: `check_f1(g, t)`
and `check_claw(g, t)` first, then `check_f2(g, t, big)`, `check_f3(t,
big)` and, for a Member, `krausz_cover(g, t, big)`, where `big` is one
list, always exactly the one `graph.maximal_cliques(g,
t.clique_size_bound)` returns.  Below _EDGE_SCAN_MIN_N vertices it is
that call's list, which comes back at once, having allocated nothing,
when the bound exceeds n or fewer vertices than the bound reach degree
bound - 1.  From there on `_big_cliques` builds it from the edges: one
clique grown per edge that no clique found so far holds, a search
through the edge where the grown clique is small, and, where F2 fires on
that family, a search through each vertex that could lie in a big clique
the scan missed; its docstring proves the list exact.
`reconstruct` turns a Member verdict into a witness hypergraph.  The
cover value, its validation and the cover-to-hypergraph step are in
`reconstruction`, which imports nothing from this module.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, count
from typing import Union

from ._value import Value, _set_field
from .errors import InputError, InternalContradictionError, NotAMemberError, _require_k_and_p
from .graph import (
    Claw,
    Graph,
    _bits,
    _cliques_from,
    _core,
    _digits,
    _fields,
    _first_bits,
    _grow_clique,
    _mask,
    _met_at_least,
    _seeing,
    find_claw,
    maximal_cliques,
    min_edge_degree,
)
from .hypergraph import Hypergraph
from .reconstruction import CliqueCover, _overlapping_pairs, cover_to_hypergraph, validate_cover


class Thresholds(Value):
    """Exact integer bounds derived from (k, p)."""

    k: int
    p: int
    edge_degree_bound: int  # p*k^3 + (p-3)*k + 1
    clique_size_bound: int  # p*k^2 + (p-2)*k + 2

    def __init__(self, k: int, p: int, edge_degree_bound: int, clique_size_bound: int):
        _set_field(self, "k", k)
        _set_field(self, "p", p)
        _set_field(self, "edge_degree_bound", edge_degree_bound)
        _set_field(self, "clique_size_bound", clique_size_bound)


def thresholds(k: int, p: int) -> Thresholds:
    """The two bounds of the recognizer for uniformity k and multiplicity p.

    Any k or p that is not an int raises InputError, an unhashable one
    too: the cache hashes its arguments before its own check can run, so
    its TypeError is turned into that InputError here.
    """
    try:
        return _thresholds(k, p)
    except TypeError:
        _require_k_and_p(k, p)
        raise


@lru_cache(maxsize=None, typed=True)
def _thresholds(k: int, p: int) -> Thresholds:
    _require_k_and_p(k, p)
    return Thresholds(
        k=k,
        p=p,
        edge_degree_bound=p * k**3 + (p - 3) * k + 1,
        clique_size_bound=p * k**2 + (p - 2) * k + 2,
    )


class ClawWitness(Value):
    claw: Claw

    def __init__(self, claw: Claw):
        _set_field(self, "claw", claw)


class F1Witness(Value):
    """Non-adjacent pair with p*k^2 + 1 listed common neighbors."""

    a: int
    b: int
    common: tuple[int, ...]

    def __init__(self, a: int, b: int, common: tuple[int, ...]):
        _set_field(self, "a", a)
        _set_field(self, "b", b)
        _set_field(self, "common", common)


class F2Witness(Value):
    """Big maximal clique plus an outside vertex attached to p*k + 1 of it."""

    clique: tuple[int, ...]
    vertex: int
    attachment: tuple[int, ...]

    def __init__(self, clique: tuple[int, ...], vertex: int, attachment: tuple[int, ...]):
        _set_field(self, "clique", clique)
        _set_field(self, "vertex", vertex)
        _set_field(self, "attachment", attachment)


class F3Witness(Value):
    """Two big maximal cliques sharing p + 1 listed vertices."""

    clique_a: tuple[int, ...]
    clique_b: tuple[int, ...]
    shared: tuple[int, ...]

    def __init__(
        self, clique_a: tuple[int, ...], clique_b: tuple[int, ...], shared: tuple[int, ...]
    ):
        _set_field(self, "clique_a", clique_a)
        _set_field(self, "clique_b", clique_b)
        _set_field(self, "shared", shared)


Witness = Union[ClawWitness, F1Witness, F2Witness, F3Witness]


class Member(Value):
    cover: CliqueCover

    def __init__(self, cover: CliqueCover):
        _set_field(self, "cover", cover)


class NonMember(Value):
    witness: Witness

    def __init__(self, witness: Witness):
        _set_field(self, "witness", witness)


class Inconclusive(Value):
    """All four checks passed but the edge-degree bound does not apply."""

    min_edge_degree: int
    required: int

    def __init__(self, min_edge_degree: int, required: int):
        _set_field(self, "min_edge_degree", min_edge_degree)
        _set_field(self, "required", required)

    @property
    def reason(self) -> str:
        return (
            f"minimum edge degree {self.min_edge_degree} is below the certified "
            f"bound {self.required}; membership is undecided"
        )


Verdict = Union[Member, NonMember, Inconclusive]


def krausz_cover(g: Graph, t: Thresholds, big: list[tuple[int, ...]]) -> CliqueCover:
    """The big maximal cliques `big`, as `maximal_cliques(g,
    t.clique_size_bound)` lists them, certified as a cover.

    Precondition: g passed the four forbidden-structure checks and its
    minimum edge degree meets the bound in t; under that hypothesis this
    family is a valid cover, and any validation failure here means the
    caller broke the precondition.
    """
    cover = CliqueCover(g.n, big)
    diag = validate_cover(g, cover, t.k, t.p)
    if not diag:
        raise InternalContradictionError(
            f"big-clique family is not a valid cover ({diag.failure}); "
            "the recognition preconditions cannot have held"
        )
    return cover


def check_claw(g: Graph, t: Thresholds) -> ClawWitness | None:
    """A claw with k+1 leaves, if any."""
    claw = find_claw(g, t.k + 1)
    return ClawWitness(claw) if claw is not None else None


# F1 counts in one-byte fields while the rows it builds, with their
# temporaries, fit in this many bytes; past it, bit-sliced counters.
_F1_BUDGET = 1 << 19


def check_f1(g: Graph, t: Thresholds) -> F1Witness | None:
    """First non-adjacent pair with more than p*k^2 common neighbors.

    Both vertices of such a pair have degree at least needed = p*k^2 + 1,
    since their common neighbors lie in each neighborhood.  So only such
    heavy vertices head a pair, and only those with a heavy non-neighbor
    above them are scanned, in increasing order; with none, nothing is
    built.  For each head `a`, one count over the rows of N(a) gives, in
    every heavy non-neighbor above `a`, its common neighbors with `a`,
    and the lowest one that reaches needed completes the first pair.  The
    count runs on one of two kernels, chosen from the input:

    - one-byte fields, when every degree is below 128 and the rows of the
      heavy vertices and their neighbors fit in _F1_BUDGET bytes: each
      such row becomes an int with one byte per vertex (`_fields`), and
      one C-level `sum` over the rows of N(a) leaves in byte v the common
      neighbors of a and v.  No count reaches 128, so no carry crosses
      into the next byte.  The sum starts from 128 - needed in every
      byte outside N(a), so bit 7 is set exactly in the non-neighbors
      with needed common neighbors or more; a vertex that is not heavy
      has too few;
    - bit-sliced counters kept to the heavy non-neighbors above `a`
      (`_met_at_least`, as F2 uses), for every other graph.  They hold a
      few masks of n bits where the fields hold n bytes per row, and on
      sparse line graphs they are also the faster kernel from about 700
      vertices, where the budget of 512 KiB runs out.

    A pair has at most n - 2 common neighbors, so when the threshold
    exceeds that no pair can meet it and nothing is built.
    """
    needed = t.p * t.k**2 + 1
    if needed > g.n - 2:
        return None
    n = g.n
    adj = g._adj
    heavy = reach = top = 0
    for v, nv in enumerate(adj):
        d = nv.bit_count()
        if d >= needed:
            heavy |= 1 << v
            reach |= nv
            if d > top:
                top = d
    heads = 0  # a mask: a list would take 36 bytes a head
    for a in compress(count(), _digits(heavy)):
        if heavy & ~adj[a] & -(2 << a):
            heads |= 1 << a
    if not heads:
        return None
    reach |= heavy  # the rows a head sums, and its own
    # The rows and a dozen temporaries of their size each take n bytes
    # (16/15 of that in 30-bit digits) and a header; each vertex takes a
    # list slot and under 4 bytes of selectors and digit strings.
    rows = None
    if top < 128 and (reach.bit_count() + 12) * (n * 16 // 15 + 64) + 12 * n <= _F1_BUDGET:
        rows = [0] * n
        for u in compress(count(), _digits(reach)):
            rows[u] = _fields(adj[u])
        ones = _fields((1 << n) - 1)
        lift = 128 - needed  # takes a count of needed or more to bit 7
        bias = ones * lift
        tops = ones << 7
    for a in compress(count(), _digits(heads)):
        if rows is None:
            met = _met_at_least(adj, adj[a], needed, heavy & ~adj[a] & -(2 << a))
            b = (met & -met).bit_length() - 1
        else:
            ra = rows[a]
            # the bytes up to a's own, which counts its degree, shifted out
            met = ((sum(compress(rows, ra.to_bytes(n, "little")), bias) - lift * ra) & tops) >> 8 * a + 8
            b = a + (met & -met).bit_length() // 8
        if met:
            return F1Witness(a, b, _first_bits(adj[a] & adj[b], needed))
    return None


def check_f2(g: Graph, t: Thresholds, big: list[tuple[int, ...]]) -> F2Witness | None:
    """First outside vertex attached to more than p*k vertices of a big
    maximal clique, `big` being those cliques in lexicographic order.

    For each big clique in order, one threshold count over the rows of
    its vertices (`_met_at_least`) gives every vertex attached to enough
    of it; the lowest one outside the clique is the witness.  With no big
    clique there is nothing to attach to, and no mask is built.
    """
    if not big:
        return None
    needed = t.p * t.k + 1
    adj = g._adj
    full = (1 << g.n) - 1
    for clique in big:
        cmask = _mask(clique)
        outside = _met_at_least(adj, cmask, needed, full & ~cmask)
        if outside:
            v = (outside & -outside).bit_length() - 1
            return F2Witness(clique, v, _first_bits(adj[v] & cmask, needed))
    return None


def check_f3(t: Thresholds, big: list[tuple[int, ...]]) -> F3Witness | None:
    """First pair of big maximal cliques sharing more than p vertices,
    `big` being those cliques in lexicographic order.

    This is cover condition (iii) on the big family, and the pair is the
    one `validate_cover` would report for it: the same scan, one AND of
    the masks per pair in order.  Fewer than two cliques make no pair, and
    then no mask is built.
    """
    if len(big) < 2:
        return None
    masks = [_mask(clique) for clique in big]
    for i, j in _overlapping_pairs(masks, t.p):
        return F3Witness(big[i], big[j], _first_bits(masks[i] & masks[j], t.p + 1))
    return None


# Below this many vertices `_big_cliques` takes its list from
# `maximal_cliques`; from it on, from the edge scan.  Measured in process
# on graphs that pass F1 and the claw check (200 per size, a third each at
# (2, 1), (2, 2) and (3, 1), best of 5, two runs on a 2-vCPU VM), the scan
# took this share of the enumeration's time: on line graphs of random
# bounded hypergraphs 1.21 at 16 vertices, 1.32-1.33 at 32, 0.88-1.07 at
# 40, 0.89-0.92 at 48 and 0.68-0.74 at 64; on line graphs of regular ones
# 0.92 at 16, 1.00-1.04 at 32, 1.07-1.25 at 40, 0.88-0.90 at 48 and
# 0.73-0.74 at 64.
_EDGE_SCAN_MIN_N = 48


def _big_cliques(g: Graph, t: Thresholds) -> tuple[list[tuple[int, ...]], F2Witness | None]:
    """The big maximal cliques, exactly as `maximal_cliques(g,
    t.clique_size_bound)` lists them, and `check_f2` on that list.

    On graphs of fewer than _EDGE_SCAN_MIN_N vertices they come from that
    call.  On larger ones they are built from the edges.  Let s =
    t.clique_size_bound and T the list `maximal_cliques` returns.  Every
    vertex of a clique of s vertices has s - 1 neighbours in it, so T
    lies in the (s-1)-core of g (`_core`), and the scan stays in it.
    Each edge uw, u < w, taken in order, that no clique found so far
    holds is visited:

    - with fewer than s - 2 common neighbours it holds no big clique;
    - the common neighbours that see fewer than s - 3 others of them are
      dropped (`_seeing`), and fewer than s - 2 left again means no big
      clique holds uw;
    - a clique is grown greedily from {u, w} among those left
      (`_grow_clique`); if it has s vertices or more, it joins the
      family F;
    - otherwise those left are peeled to their (s-3)-core, and every
      clique of s or more vertices through uw that is maximal inside it
      joins F, listed by `maximal_cliques`' frame loop run from the frame
      R = {u, w}, P = that core (`_cliques_from`).

    Each vertex's load, the number of members of F holding it, is
    counted; if one exceeds k, T comes from `maximal_cliques` after all.
    Otherwise T is F or F completed, by these steps:

    1. Every member of F is in T.  For a clique C of s or more vertices
       through uw, every vertex of C - {u, w} sees the s - 3 or more
       other vertices of C - {u, w}, so each filter, the peeling too,
       keeps all of C - {u, w}.
       A vertex x that extended such a clique would make C | {x} one, so
       it would have stayed among the grower's candidates, or in the
       frame loop's P, and been added.  Nor is a member found twice:
       each one found from uw holds uw, which no earlier member held.
    2. Every edge of every C in T lies in some member of F.  When an
       edge uw of C is visited, the filters keep C - {u, w}, so the grown
       clique or one from the frame loop holds uw; an edge that is not
       visited is held by a member already.
    3. Let every load be at most k, and C in T not in F.  A vertex x of
       C has s - 1 edges in C, each, by 2, in a member of F holding x,
       and at most k members hold x.  So one of them, D, meets C in at
       least 1 + ceil((s - 1)/k) = pk + p vertices.  C and D are distinct
       maximal cliques, so some y of C is not in D, and y sees all of
       C & D: an outside vertex with pk + p > pk neighbours in D, which
       is an F2 hit on D.
    4. Hence if `check_f2` on F, sorted, finds nothing, then T = F, by 1
       and 3, and that F2 result is the one on T.
    5. If it finds something, let Y be the vertices of the core outside
       some member D of F with pk + p or more neighbours in D
       (`_met_at_least`).  By 3 every C in T not in F holds a y of Y.
       For each y of Y, every clique of s or more vertices through y that
       is maximal inside the (s-2)-core of N(y), taken within the core
       of g, is listed from the frame R = {y}, P = that core; as in 1
       each is in T.  So T is F with those cliques, and `check_f2` runs
       again when they add to F.
    """
    s = t.clique_size_bound
    n = g.n
    if n < _EDGE_SCAN_MIN_N:
        big = maximal_cliques(g, s)
        return big, check_f2(g, t, big)
    adj = g._adj
    heavy = _core(adj, (1 << n) - 1, s - 1)
    found: list[int] = []
    covered = [0] * n  # covered[v]: union of the members of F holding v
    load = [0] * n
    for u in _bits(heavy):
        nu = adj[u] & heavy
        pair = 1 << u
        todo = nu >> (u + 1) << (u + 1) & ~covered[u]
        while todo:
            low = todo & -todo
            todo ^= low
            common = nu & adj[low.bit_length() - 1]
            if common.bit_count() < s - 2:
                continue
            kept = _seeing(adj, common, s - 3)
            if kept.bit_count() < s - 2:
                continue
            grown = _grow_clique(adj, pair | low, kept)
            if grown.bit_count() >= s:
                new = [grown]
            else:
                new = _cliques_from(adj, pair | low, 2, _core(adj, kept, s - 3), s)
            for m in new:
                found.append(m)
                for v in _bits(m):
                    covered[v] |= m
                    load[v] += 1
                    if load[v] > t.k:
                        big = maximal_cliques(g, s)
                        return big, check_f2(g, t, big)
            todo &= ~covered[u]
    big = sorted(tuple(_bits(m)) for m in found)
    witness = check_f2(g, t, big)
    if witness is None:
        return big, None
    ys = 0
    for m in found:
        ys |= _met_at_least(adj, m, t.p * t.k + t.p, heavy & ~m)
    family = set(found)
    for y in _bits(ys):
        family.update(_cliques_from(adj, 1 << y, 1, _core(adj, adj[y] & heavy, s - 2), s))
    if len(family) == len(found):
        return big, witness
    big = sorted(tuple(_bits(m)) for m in family)
    return big, check_f2(g, t, big)


def recognize(g: Graph, k: int, p: int) -> Verdict:
    """Decide membership, producing a certificate either way.

    A forbidden-structure witness refutes membership outright.  With no
    witness and minimum edge degree meeting the bound, the big-clique
    family is returned as a certifying cover.  Otherwise the result is
    Inconclusive: nothing is asserted below the bound.

    Checks run in the fixed order F1, claw, F2, F3, so the returned
    witness is deterministic when several structures are present.  The
    big maximal cliques are listed once, after F1 and the claw check
    pass, by `_big_cliques`: on small graphs by `maximal_cliques`, on
    larger ones from the edges, the list being exactly the one
    `maximal_cliques(g, t.clique_size_bound)` returns either way.  That
    one list goes to F2, F3 and the certifying cover.  Every witness is
    truthy, so each `or` of two checks stops at the first witness.
    """
    t = thresholds(k, p)
    if not any(g._adj):
        raise InputError("recognition needs a graph with at least one edge")

    witness = check_f1(g, t) or check_claw(g, t)
    if not witness:
        big, witness = _big_cliques(g, t)
        witness = witness or check_f3(t, big)
    if witness:
        return NonMember(witness)

    degree = min_edge_degree(g)
    if degree >= t.edge_degree_bound:
        return Member(krausz_cover(g, t, big))
    return Inconclusive(degree, t.edge_degree_bound)


def reconstruct(g: Graph, k: int, p: int) -> Hypergraph:
    """Recognize g and return a k-uniform witness hypergraph whose line
    graph equals g vertex-for-vertex.

    Raises NotAMemberError (carrying the verdict) unless recognition
    returns Member.
    """
    verdict = recognize(g, k, p)
    if not isinstance(verdict, Member):
        raise NotAMemberError(
            verdict, f"graph was not recognized as a member: {type(verdict).__name__}"
        )
    return cover_to_hypergraph(g, verdict.cover, k, p)
