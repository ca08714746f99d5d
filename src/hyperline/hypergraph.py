"""Hypergraph values: vertex count plus an ordered list of hyperedges.

Vertices are dense 0-based integers.  Edges are stored strictly sorted;
the position of an edge in the list is part of the hypergraph's identity
(edge i becomes vertex i of the line graph).  Repeated hyperedges are
allowed and count separately in all degree queries.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable

from ._value import Value, _set_field
from .errors import InputError, _iterate, _require_ints, _require_vertex


def _sorted_entries(
    n: int, entries: Iterable[Iterable[int]], noun: str
) -> tuple[tuple[int, ...], ...]:
    """Each entry as a sorted tuple of distinct vertices of an n-vertex
    object, n an int; an error names the offending entry as `<noun>
    <position>`, or entries that are not iterable as `<noun> list`.

    Each entry is checked in turn for emptiness, a repeat and a value
    outside [0, n).  The vertex rule of `errors._require_vertex` is then
    completed by one pass over the whole family that refuses a vertex
    that is not an int (a bool or a float, say) as outside [0, n), so
    any family refused for an int reason names that reason.  An entry
    that cannot be sorted or compared with 0 and n is left to that pass.
    """
    _require_ints(n=n)
    if n < 0:
        raise InputError(f"vertex count must be nonnegative, got {n}")
    normalized = []
    for pos, entry in enumerate(_iterate(f"{noun} list", entries)):
        try:
            vs = sorted(entry)
            if not vs:
                raise InputError(f"{noun} {pos} is empty")
            for a, b in zip(vs, vs[1:]):
                if a == b:
                    raise InputError(f"{noun} {pos} repeats vertex {a}")
            if vs[0] < 0 or vs[-1] >= n:
                raise InputError(f"{noun} {pos} has a vertex outside [0, {n})")
        except TypeError:  # not an iterable of numbers: the type pass names it
            vs = [None]
        normalized.append(tuple(vs))
    if {*map(type, chain.from_iterable(normalized))} - {int}:
        pos = next(i for i, entry in enumerate(normalized) if {*map(type, entry)} - {int})
        raise InputError(f"{noun} {pos} has a vertex outside [0, {n})")
    return tuple(normalized)


class Hypergraph(Value):
    n: int
    edges: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, edges: Iterable[Iterable[int]] = ()):
        _set_field(self, "n", n)
        _set_field(self, "edges", _sorted_entries(n, edges, "edge"))

    @property
    def m(self) -> int:
        """Number of hyperedges, counting repeats."""
        return len(self.edges)

    def degree(self, v: int) -> int:
        """Number of edges containing v (repeated edges count separately)."""
        _require_vertex(v, self.n)
        return sum(1 for e in self.edges if v in e)

    def pair_degree(self, u: int, v: int) -> int:
        """Number of edges containing both u and v."""
        _require_vertex(u, self.n)
        _require_vertex(v, self.n)
        if u == v:
            raise InputError("pair degree needs two distinct vertices")
        return sum(1 for e in self.edges if u in e and v in e)

    def multiplicity(self) -> int:
        """Maximum pair degree over all vertex pairs; 0 if no pair is covered."""
        counts: dict[tuple[int, int], int] = {}
        for e in self.edges:
            for pair in combinations(e, 2):
                counts[pair] = counts.get(pair, 0) + 1
        return max(counts.values(), default=0)

    def is_k_uniform(self, k: int) -> bool:
        """True iff every edge has exactly k vertices (vacuously true if edgeless)."""
        _require_ints(k=k)
        if k < 1:
            raise InputError(f"uniformity must be positive, got {k}")
        return all(len(e) == k for e in self.edges)

    def is_linear(self) -> bool:
        """True iff no vertex pair lies in two edges (multiplicity at most 1)."""
        return self.multiplicity() <= 1

    def degree_sequence(self) -> list[int]:
        """Per-vertex degrees in vertex order."""
        degs = [0] * self.n
        for e in self.edges:
            for v in e:
                degs[v] += 1
        return degs
