"""Partition of all k-subsets of {1..N} into balanced classes, built by
induction on the number of distributed elements, one integral max-flow
per step.

With L = lcm(N, k) and M = k*C(N,k)/L, the M classes each end up with
L/k subsets, and each element of the ground set occurs exactly L/N times
per class.  During the induction the classes hold partial sets drawn
from the first `level` elements; introducing element level+1 means
choosing, per class, how many copies of each partial set grow.
Feasible choices are exactly the integral flows of a bipartite network
(classes on one side, distinct partial sets on the other, one arc per
partial set of a class with its multiplicity as capacity) in which
every source and sink arc is saturated; the flow on a class-to-set arc
is the number of that set's copies that receive the new element, and
the saturating value is C(N-1, k-1) at every step (Baranyai 1975).

The state holds the induction in that network's own form
(`PartitionState`): per class, a row of (set index, multiplicity) pairs
over the sets that can still grow, and the k-sets it has finished.
`extend` builds the next rows by a merge, with no sort.  Each step's
network is those rows (`ExtensionNetwork`).  On it `max_flow` runs
Dinic's first phase as a greedy and, only where that leaves flow to
send, the later phases, per class; the flow is the one Dinic finds on
the arc-by-arc network, arc for arc.

The class count times L/k equals C(N,k), so the final classes partition
the full family of k-subsets.  Taking the first d*N/L classes as edges
realizes the constant degree sequence (d, ..., d), which is possible
if and only if k divides d*N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, combinations
from math import comb, lcm
from operator import itemgetter, sub

from .errors import (
    DivisibilityError,
    InputError,
    InternalContradictionError,
    ResourceLimitError,
    UnrealizableError,
)
from .fileio import READ_SIZE_BOUND
from .graph import _bits
from .hypergraph import Hypergraph


def _mask_to_set(mask: int) -> tuple[int, ...]:
    """Bitmask over bits 0..N-1 to a sorted tuple of 1-based elements."""
    return tuple(b + 1 for b in _bits(mask))


def _growable_sets(ground_size: int, subset_size: int, level: int) -> tuple[int, ...]:
    """Every mask over the first `level` bits whose size lies in
    [max(0, k-(N-level)), k-1], in increasing order: the partial sets
    that can still grow at that level."""
    low = max(0, subset_size - (ground_size - level))
    masks = [
        sum(1 << b for b in combo)
        for size in range(low, subset_size)
        for combo in combinations(range(level), size)
    ]
    return tuple(sorted(masks))


@dataclass(frozen=True)
class Flow:
    """Integral feasible flow, one value per arc of the originating network."""

    arc_flows: tuple[int, ...]
    value: int


@dataclass(frozen=True)
class PartitionState:
    """Snapshot of the induction in the flow's own form.

    `sets` holds the partial sets that can still grow, as masks over the
    first `level` elements: every mask whose size lies in
    [max(0, k-(N-level)), k-1], in increasing order.  `rows[i]` holds
    class i's partial sets as (index into `sets`, multiplicity) pairs in
    strictly increasing index order, each multiplicity positive;
    `finished[i]` holds the masks of class i's k-sets, one entry per copy.
    """

    ground_size: int
    subset_size: int
    level: int
    sets: tuple[int, ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]
    finished: tuple[tuple[int, ...], ...]

    @property
    def lcm_value(self) -> int:
        return lcm(self.ground_size, self.subset_size)

    @property
    def class_count(self) -> int:
        return len(self.rows)

    @property
    def sets_per_class(self) -> int:
        return self.lcm_value // self.subset_size

    @property
    def element_uses_per_class(self) -> int:
        return self.lcm_value // self.ground_size


@dataclass(frozen=True)
class ExtensionNetwork:
    """The flow network of one induction step, held as the state's rows.

    Nodes: source 0, class i at node 1+i, set `sets[j]` at node 1+M+j,
    the sink last.  Arcs, in order: a source arc of capacity
    `source_capacity` to every class; then, row by row, an arc from
    class i to set j for each pair (j, multiplicity) of `rows[i]`, with
    the multiplicity as capacity; then a sink arc of capacity `rooms[j]`
    from every set j.  `max_flow` runs on this form directly and reports
    per-arc flows in that order.
    """

    source_capacity: int
    sets: tuple[int, ...]
    rooms: tuple[int, ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]


def max_flow(ext: ExtensionNetwork) -> Flow:
    """Deterministic integral maximum flow (Dinic) of an extension network.

    The flow is the one Dinic finds on the arc-by-arc network `ext`
    describes, scanning residual arcs in arc order at every node: at the
    source its arcs in class order; at a class its row (its reverse
    source arc is never admissible); at a set the reverse arcs of the
    classes holding it, in class order, then its sink arc.  Each phase
    labels nodes breadth-first from the source, stopping at the first
    set of a layer whose sink arc has residual capacity, so no other node
    of the sink's layer is labelled (an admissible path climbs one layer
    per arc and ends at the sink).  It then repeatedly augments along the
    first admissible path a depth-first cursor walk finds; a node the
    walk backs out of is dead for the rest of the phase.

    The first phase's admissible paths are exactly source -> class ->
    set -> sink, met class by class, each row in index order.  A push
    fills the least of three residuals: a full source arc sends the walk
    on to the next class, a full class arc on to the row's next set, and
    a full sink arc leaves its set dead for the phase.  So the phase is
    a greedy (`_first_phase`): each class in turn sends its L/N units
    down its row, each set taking what its multiplicity and remaining
    sink capacity allow.  When that fills every source arc the flow is
    maximum, as at most levels of a large induction; only otherwise do
    the later phases run (`_later_phases`).
    """
    sent, flows, room = _first_phase(ext)
    value = sum(sent)
    if value < ext.source_capacity * len(ext.rows):
        value += _later_phases(ext, sent, flows, room)
    drained = list(map(sub, ext.rooms, room))
    return Flow(arc_flows=tuple(sent + flows + drained), value=value)


def _first_phase(ext: ExtensionNetwork) -> tuple[list[int], list[int], list[int]]:
    """Dinic's first blocking flow, as the greedy `max_flow` describes:
    the flow on every source arc and every class arc, and every set's
    remaining sink capacity."""
    cap = ext.source_capacity
    rows = ext.rows
    room = list(ext.rooms)
    sent: list[int] = []
    flows = [0] * sum(map(len, rows))
    start = 0
    for row in rows:
        left = cap
        for arc, (j, held) in enumerate(row, start):
            push = left if left < held else held
            r = room[j]
            if r < push:
                push = r
            if push:
                room[j] = r - push
                flows[arc] = push
                left -= push
                if not left:
                    break
        start += len(row)
        sent.append(cap - left)
    return sent, flows, room


def _later_phases(ext: ExtensionNetwork, sent: list[int], flows: list[int], room: list[int]) -> int:
    """Dinic's phases after the first, run on the rows from the flow
    `sent`, `flows` and `room` describe (as `_first_phase` returns it),
    which they update in place; returns the value they add.

    Classes are labelled at odd depths and sets at even ones.  The walk's
    path is the class its source arc enters, then class arcs by flat
    index, forward (class to set) and reverse (set to class) in turn."""
    cap = ext.source_capacity
    rows = ext.rows
    m = len(rows)
    src = [cap - s for s in sent]  # residual capacity of each source arc
    head = [j for row in rows for j, _ in row]
    fwd = list(map(sub, map(itemgetter(1), chain.from_iterable(rows)), flows))
    tail = [i for i, row in enumerate(rows) for _ in row]
    begin = [0, *accumulate(map(len, rows))]  # class i's arcs: begin[i] to begin[i+1]
    into: list[list[int]] = [[] for _ in room]  # each set's entering arcs, in class order
    for arc, j in enumerate(head):
        into[j].append(arc)
    added = 0
    while True:
        clevel = [-1] * m
        slevel = [-1] * len(room)
        frontier = [i for i in range(m) if src[i]]
        for i in frontier:
            clevel[i] = 1
        depth = 1
        sink_depth = 0
        while frontier and not sink_depth:
            layer = []
            for i in frontier:
                for arc in range(begin[i], begin[i + 1]):
                    if fwd[arc]:
                        j = head[arc]
                        if slevel[j] < 0:
                            slevel[j] = depth + 1
                            layer.append(j)
            depth += 2
            frontier = []
            for j in layer:
                if room[j]:
                    sink_depth = depth
                    break
            else:
                for j in layer:
                    for arc in into[j]:
                        if flows[arc]:
                            i = tail[arc]
                            if clevel[i] < 0:
                                clevel[i] = depth
                                frontier.append(i)
        if not sink_depth:
            break

        top = 0  # the source's cursor, over the classes
        ccur = begin[:-1]  # each class's cursor, an arc of its row
        scur = [0] * len(room)  # each set's cursor into `into[j]`; its end is the sink arc
        path: list[int] = []
        while True:
            n = len(path)
            if not n:  # at the source
                while top < m and not (src[top] and clevel[top] == 1):
                    top += 1
                if top == m:
                    break
                path.append(top)
            elif n & 1:  # at a class
                i = tail[path[-1]] if n > 1 else path[0]
                want = clevel[i] + 1
                arc, end = ccur[i], begin[i + 1]
                while arc < end and not (fwd[arc] and slevel[head[arc]] == want):
                    arc += 1
                ccur[i] = arc
                if arc < end:
                    path.append(arc)
                    continue
                clevel[i] = -1  # dead end for the rest of the phase
                arc = path.pop()
                if n > 1:
                    scur[head[arc]] += 1
                else:
                    top += 1
            else:  # at a set
                j = head[path[-1]]
                want = slevel[j] + 1
                arcs = into[j]
                c, end = scur[j], len(arcs)
                while c < end and not (flows[arcs[c]] and clevel[tail[arcs[c]]] == want):
                    c += 1
                scur[j] = c
                if c < end:
                    path.append(arcs[c])
                    continue
                if not (room[j] and want == sink_depth):
                    slevel[j] = -1
                    ccur[tail[path.pop()]] += 1
                    continue
                first = path[0]
                push = min(room[j], src[first])
                for p in range(1, n):
                    r = fwd[path[p]] if p & 1 else flows[path[p]]
                    if r < push:
                        push = r
                added += push
                room[j] -= push
                src[first] -= push
                cut = 0 if not src[first] else n  # first saturated arc; n: the sink arc
                for p in range(1, n):
                    arc = path[p]
                    if p & 1:
                        fwd[arc] -= push
                        flows[arc] += push
                        r = fwd[arc]
                    else:
                        flows[arc] -= push
                        fwd[arc] += push
                        r = flows[arc]
                    if not r and cut == n:
                        cut = p
                del path[cut:]  # retreat to the tail of the first saturated arc
    sent[:] = [cap - r for r in src]
    return added


def initial_state(ground_size: int, subset_size: int) -> PartitionState:
    """Base case: element 1 distributed evenly, the rest of each class empty."""
    _validate_parameters(ground_size, subset_size)
    big = lcm(ground_size, subset_size)
    class_count = subset_size * comb(ground_size, subset_size) // big
    singles = big // ground_size
    empties = big // subset_size - singles
    sets = _growable_sets(ground_size, subset_size, 1)  # (0, 1), or (1,) when k = N
    row = tuple((sets.index(mask), count) for mask, count in ((0, empties), (1, singles)) if count)
    return PartitionState(
        ground_size=ground_size,
        subset_size=subset_size,
        level=1,
        sets=sets,
        rows=(row,) * class_count,
        finished=((),) * class_count,
    )


def build_extension_network(state: PartitionState) -> ExtensionNetwork:
    """Network whose saturating integral flows pick, per class, how many
    copies of each partial set receive element level+1.

    Source arcs carry L/N to each class; each class's row gives its arcs
    to the sets it holds, with multiplicities as capacities; set T
    drains into the sink with capacity C(N-1-level, k-|T|-1).
    """
    big_n = state.ground_size
    k = state.subset_size
    ell = state.level
    if ell >= big_n:
        raise InputError(f"all {big_n} elements already distributed")
    rows = state.rows
    if min(map(itemgetter(1), chain.from_iterable(rows)), default=0) < 0:
        for i, row in enumerate(rows):
            for j, held in row:
                if held < 0:
                    raise InputError(
                        f"class {i} holds set {_mask_to_set(state.sets[j])} "
                        f"with negative multiplicity {held}"
                    )
    room_of_size = [comb(big_n - 1 - ell, k - size - 1) for size in range(k)]
    return ExtensionNetwork(
        source_capacity=state.element_uses_per_class,
        sets=state.sets,
        rooms=tuple(room_of_size[mask.bit_count()] for mask in state.sets),
        rows=rows,
    )


def extend(state: PartitionState) -> PartitionState:
    """Distribute element level+1 according to a saturating integral flow.

    Each class's next row is a merge: its sets that keep copies, in their
    old order, then its grown sets (mask | new bit), in their old order,
    each reindexed through arrays built once per level.  A set that
    reaches k elements moves to the class's finished sets.
    """
    ext = build_extension_network(state)
    flow = max_flow(ext)
    big_n, k, ell = state.ground_size, state.subset_size, state.level
    expected = comb(big_n - 1, k - 1)
    if flow.value != expected:
        raise InternalContradictionError(
            f"extension flow has value {flow.value}, expected {expected} "
            f"at level {ell}"
        )
    bit = 1 << ell  # element level+1
    sets = ext.sets
    low = max(0, k - (big_n - ell - 1))  # least size that can grow at the next level
    survivors = [mask for mask in sets if mask.bit_count() >= low]
    next_sets = tuple(survivors + [mask | bit for mask in sets if mask.bit_count() < k - 1])
    position = {mask: j for j, mask in enumerate(next_sets)}
    stay = [position.get(mask) for mask in sets]  # None: every copy must grow
    grow = [position.get(mask | bit) for mask in sets]  # None: the grown set is finished
    units_of = iter(flow.arc_flows[len(ext.rows) :])  # the class arcs', row by row
    rows = []
    finished = []
    for row, done in zip(ext.rows, state.finished):
        kept = []
        grown = []
        for (j, held), units in zip(row, units_of):
            if units:
                g = grow[j]
                if g is None:
                    done += (sets[j] | bit,)  # a (k-1)-set's sink arc carries 1 unit
                else:
                    grown.append((g, units))
                if held != units:
                    kept.append((stay[j], held - units))
            else:
                kept.append((stay[j], held))
        kept += grown
        rows.append(tuple(kept))
        finished.append(done)
    if len(survivors) < len(sets) and None in map(itemgetter(0), chain.from_iterable(rows)):
        raise InternalContradictionError(
            f"a class keeps copies of a set that must all grow at level {ell}"
        )
    return PartitionState(
        ground_size=big_n,
        subset_size=k,
        level=ell + 1,
        sets=next_sets,
        rows=tuple(rows),
        finished=tuple(finished),
    )


def state_violations(state: PartitionState) -> list[str]:
    """All invariant violations of the state; empty when healthy.

    Checked: the growable sets against their formula; per class, row
    indices in range and strictly increasing, positive multiplicities,
    finished sets of k distributed elements, the set total and every
    element's occurrence count; and the global multiplicity of every
    partial set over the distributed elements.
    """
    big_n, k, ell = state.ground_size, state.subset_size, state.level
    problems: list[str] = []
    sets = state.sets
    if sets != _growable_sets(big_n, k, ell):
        problems.append(
            f"growable sets are not every set of {max(0, k - (big_n - ell))} to {k - 1} "
            f"of the first {ell} elements, in increasing order"
        )
    if len(state.finished) != len(state.rows):
        problems.append(f"{len(state.rows)} rows but {len(state.finished)} finished lists")
    distributed = (1 << ell) - 1
    totals: dict[int, int] = {}
    for i, (row, done) in enumerate(zip(state.rows, state.finished)):
        held = [(mask, 1) for mask in done]
        last = -1
        for j, count in row:
            if not last < j < len(sets):
                problems.append(f"class {i}: set index {j} after {last} or past {len(sets) - 1}")
                continue
            last = j
            if count < 1:
                problems.append(
                    f"class {i}: nonpositive multiplicity {count} for {_mask_to_set(sets[j])}"
                )
            held.append((sets[j], count))
        for mask in done:
            if mask.bit_count() != k or mask & ~distributed:
                problems.append(
                    f"class {i}: finished set {_mask_to_set(mask)} is not {k} distributed elements"
                )
        element_uses = [0] * ell
        for mask, count in held:
            for b in _bits(mask & distributed):
                element_uses[b] += count
            totals[mask] = totals.get(mask, 0) + count
        total = sum(count for _, count in held)
        if total != state.sets_per_class:
            problems.append(
                f"class {i}: holds {total} sets, expected {state.sets_per_class}"
            )
        for b in range(ell):
            if element_uses[b] != state.element_uses_per_class:
                problems.append(
                    f"class {i}: element {b + 1} occurs {element_uses[b]} times, "
                    f"expected {state.element_uses_per_class}"
                )
    for size in range(min(k, ell) + 1):
        for combo in combinations(range(ell), size):
            mask = 0
            for b in combo:
                mask |= 1 << b
            expected = comb(big_n - ell, k - size)
            if totals.get(mask, 0) != expected:
                problems.append(
                    f"set {_mask_to_set(mask)} occurs {totals.get(mask, 0)} times "
                    f"globally, expected {expected}"
                )
    return problems


def _validate_parameters(ground_size: int, subset_size: int) -> None:
    if subset_size < 2 or subset_size > ground_size:
        raise InputError(
            f"need 2 <= k <= N, got k={subset_size}, N={ground_size}"
        )
    if comb(ground_size, subset_size) > READ_SIZE_BOUND:
        raise ResourceLimitError(
            f"C({ground_size}, {subset_size}) subsets exceed the bound {READ_SIZE_BOUND}"
        )


def _byte_elements(first: int, width: int) -> list[tuple[int, ...]]:
    """For each value b of a mask's `width` bits from bit `first` up, the
    1-based elements those bits stand for, in increasing order; built by
    prefixing the lowest bit's element to the table entry of the rest."""
    table: list[tuple[int, ...]] = [()]
    for b in range(1, 1 << width):
        table.append(((b & -b).bit_length() + first,) + table[b & (b - 1)])
    return table


@lru_cache(maxsize=None)
def _baranyai_classes(ground_size: int, subset_size: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    state = initial_state(ground_size, subset_size)
    while state.level < state.ground_size:
        state = extend(state)
    tables = [
        _byte_elements(first, min(8, ground_size - first))
        for first in range(0, ground_size, 8)
    ]
    out = []
    for row, done in zip(state.rows, state.finished):
        if row or len(set(done)) != len(done):
            raise InternalContradictionError(
                "final state holds a partial or repeated set"
            )
        sets = []
        for mask in done:
            elements = ()
            for table in tables:
                elements += table[mask & 255]
                mask >>= 8
            sets.append(elements)
        sets.sort()
        out.append(tuple(sets))
    return tuple(out)


def baranyai_partition(ground_size: int, subset_size: int) -> list[list[tuple[int, ...]]]:
    """Partition all k-subsets of {1..N} into M = k*C(N,k)/lcm(N,k) classes,
    each class holding every element equally often.

    Deterministic: the same (N, k) always yields the same classes in the
    same order.
    """
    _validate_parameters(ground_size, subset_size)
    return [list(cls) for cls in _baranyai_classes(ground_size, subset_size)]


def regular_hypergraph(
    ground_size: int, subset_size: int, degree: int, strict_simple: bool = False
) -> Hypergraph:
    """k-uniform hypergraph on {0..N-1} in which every vertex has the given
    degree; exists iff k divides degree*N.

    Edges are whole classes of the partition, so the result is simple
    whenever degree <= C(N-1, k-1); beyond that the classes are reused
    cyclically and edges repeat (rejected if strict_simple is set).
    """
    _validate_parameters(ground_size, subset_size)
    if degree < 1:
        raise InputError(f"degree must be positive, got {degree}")
    if (degree * ground_size) % subset_size != 0:
        raise DivisibilityError("k does not divide d*N")
    edge_count = degree * ground_size // subset_size
    if edge_count > READ_SIZE_BOUND:
        raise ResourceLimitError(f"{edge_count} edges exceed the bound {READ_SIZE_BOUND}")
    big = lcm(ground_size, subset_size)
    wanted = degree * ground_size // big
    classes = _baranyai_classes(ground_size, subset_size)
    if strict_simple and wanted > len(classes):
        raise UnrealizableError(
            f"degree {degree} exceeds C(N-1, k-1) = "
            f"{comb(ground_size - 1, subset_size - 1)}; no simple realization"
        )
    edges = []
    for i in range(wanted):
        for subset in classes[i % len(classes)]:
            edges.append(tuple(x - 1 for x in subset))
    return Hypergraph(ground_size, edges)
