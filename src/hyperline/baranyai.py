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

Each step's network is held per class (`ExtensionNetwork`) and solved in
that form.  On it, Dinic's first phase is a greedy: classes sit one arc
from the source, partial sets two and the sink three, so the phase's
walk runs each class's L/N units down its partial sets in mask order,
as far as multiplicities and sink capacities allow.  Where that fills
every source arc, as at most levels of a large induction, the flow is
maximum and no arc-by-arc network is built; only the other levels build
the generic `FlowNetwork`, seeded with the greedy's flow, for Dinic's
later phases.  Either way the flow is the one Dinic finds on the whole
network, arc for arc.

The class count times L/k equals C(N,k), so the final classes partition
the full family of k-subsets.  Taking the first d*N/L classes as edges
realizes the constant degree sequence (d, ..., d), which is possible
if and only if k divides d*N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, compress, repeat
from math import comb, lcm
from operator import itemgetter, sub
from typing import Mapping, Sequence

from .errors import (
    DivisibilityError,
    InputError,
    InternalContradictionError,
    ResourceLimitError,
    UnrealizableError,
)
from .graph import _bits
from .hypergraph import Hypergraph

COMB_GUARD = 2**62  # refuse ground sets whose subset family cannot be materialized


def _mask_to_set(mask: int) -> tuple[int, ...]:
    """Bitmask over bits 0..N-1 to a sorted tuple of 1-based elements."""
    return tuple(b + 1 for b in _bits(mask))


@dataclass(frozen=True)
class FlowNetwork:
    """Directed network with integer arc capacities; parallel arcs allowed.

    Construction validates the arcs and, in the same pass, builds the
    residual form `max_flow` runs on.  Arc i owns slot 2i (forward, to its
    head) and slot 2i+1 (reverse, back to its tail): `_to` holds each
    slot's head, `_capacity` each slot's starting residual capacity (the
    arc's capacity forward, 0 reverse), `_out[u]` the slots leaving u in
    arc order, and `_into_sink[u]` the forward slots from u to the sink
    (one shared empty tuple for every node without such a slot).
    The residual form is derived from the fields, so it stays out of
    equality, hashing and repr; nothing mutates it after construction.
    """

    node_count: int
    arcs: tuple[tuple[int, int, int], ...]  # (tail, head, capacity)
    source: int
    sink: int
    _to: list[int] = field(init=False, repr=False, compare=False)
    _capacity: list[int] = field(init=False, repr=False, compare=False)
    _out: list[list[int]] = field(init=False, repr=False, compare=False)
    _into_sink: list[Sequence[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.node_count
        if n < 2:
            raise InputError(f"network needs at least 2 nodes, got {n}")
        source, sink = self.source, self.sink
        if not (0 <= source < n and 0 <= sink < n):
            raise InputError("source or sink outside the node range")
        if source == sink:
            raise InputError("source and sink must differ")
        to = [0] * (2 * len(self.arcs))
        residual = to.copy()
        out: list[list[int]] = [[] for _ in range(n)]
        into_sink: list[Sequence[int]] = [()] * n
        slot = 0
        for tail, head, capacity in self.arcs:
            if not (0 <= tail < n and 0 <= head < n):
                raise InputError(f"arc {slot // 2} has an endpoint outside [0, {n})")
            if tail == head:
                raise InputError(f"arc {slot // 2} is a self-loop at node {tail}")
            if capacity < 0:
                raise InputError(f"arc {slot // 2} has negative capacity {capacity}")
            if head == source:
                raise InputError(f"arc {slot // 2} enters the source")
            if tail == sink:
                raise InputError(f"arc {slot // 2} leaves the sink")
            to[slot] = head
            to[slot + 1] = tail
            residual[slot] = capacity
            out[tail].append(slot)
            out[head].append(slot + 1)
            if head == sink:
                if into_sink[tail]:
                    into_sink[tail].append(slot)
                else:
                    into_sink[tail] = [slot]
            slot += 2
        object.__setattr__(self, "_to", to)
        object.__setattr__(self, "_capacity", residual)
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_into_sink", into_sink)


@dataclass(frozen=True)
class Flow:
    """Integral feasible flow, one value per arc of the originating network."""

    arc_flows: tuple[int, ...]
    value: int


def max_flow(net: FlowNetwork | ExtensionNetwork) -> Flow:
    """Deterministic integral maximum flow (Dinic).

    Residual arcs are scanned in insertion order at every node, so the
    per-arc flow values are a pure function of the network.  Each phase
    labels nodes breadth-first from the source, then repeatedly augments
    along the first admissible path a depth-first cursor walk finds; a
    node the walk backs out of is dead for the rest of the phase.  The
    breadth-first search stops at the sink: before it expands a layer it
    looks at that layer's slots into the sink, and the first with
    residual capacity labels the sink and ends the search.  No other node
    of the sink's layer is labelled; an admissible path climbs one layer
    per arc and ends at the sink, so such a node cannot lie on one.

    An `ExtensionNetwork` is solved in its per-class form.  Its first
    phase's admissible paths are exactly source -> class -> set -> sink,
    and the walk meets them class by class in source-arc order, each
    class's arcs in mask order.  A push fills the least of the three
    residuals: a full source arc sends the walk on to the next class, a
    full class arc on to the class's next set, and a full sink arc leaves
    its set dead for the rest of the phase.  So the phase is a greedy,
    run with no arc tuple and no residual arrays (`_first_phase`): each
    class in turn sends its units down its sets in mask order, each set
    taking what the class has left, its multiplicity and its remaining
    sink capacity allow.  When the greedy fills every source arc the
    source cut is full and the flow is maximum, as at most levels of a
    large induction.  Only otherwise is the generic network built
    (`ext.network`, validated as any `FlowNetwork`), its residuals seeded
    with the greedy's flow, and the later phases run on it as above.
    Either way the flow is the one Dinic finds on `ext.network`, arc for
    arc, in the order of `ext.network.arcs`.
    """
    if isinstance(net, ExtensionNetwork):
        arc_flows, total = _first_phase(net)
        if total == net.source_capacity * len(net.rows):
            return Flow(arc_flows=tuple(arc_flows), value=total)
        net = net.network
        residual = net._capacity.copy()
        residual[0::2] = [c - f for c, f in zip(residual[0::2], arc_flows)]
        residual[1::2] = arc_flows
    else:
        residual = net._capacity.copy()
        total = 0
    n = net.node_count
    to, out, into_sink = net._to, net._out, net._into_sink
    source, sink = net.source, net.sink
    while True:
        level = _levels(n, source, sink, to, out, into_sink, residual)
        if level is None:
            break
        total += _cursor_walk_phase(n, source, sink, to, out, residual, level)
    return Flow(arc_flows=tuple(residual[1::2]), value=total)


def _first_phase(ext: ExtensionNetwork) -> tuple[list[int], int]:
    """Dinic's first blocking flow on an extension network, as the greedy
    `max_flow` describes; returns the per-arc flows in the order of
    `ext.network.arcs`, and the value."""
    cap = ext.source_capacity
    rows = ext.rows
    first = 1 + len(rows)
    room = [0] * first  # by node: set nodes start at `first`
    room += ext.rooms
    sent: list[int] = []
    flows = [0] * sum(map(len, rows))
    start = 0
    for row in rows:
        left = cap
        for arc, (_, head, held) in enumerate(row, start):
            push = left if left < held else held
            r = room[head]
            if r < push:
                push = r
            if push:
                room[head] = r - push
                flows[arc] = push
                left -= push
                if not left:
                    break
        start += len(row)
        sent.append(cap - left)
    drained = list(map(sub, ext.rooms, room[first:]))
    return sent + flows + drained, sum(sent)


def _levels(n, source, sink, to, out, into_sink, residual) -> list[int] | None:
    """Breadth-first depth of each node over slots with residual capacity,
    up to the sink; None if the sink is unreachable.  Before a layer is
    expanded its slots into the sink are looked at, and the first with
    residual capacity labels the sink and ends the search, so no other
    node at the sink's depth is labelled."""
    level = [-1] * n
    level[source] = 0
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        for u in frontier:
            for slot in into_sink[u]:
                if residual[slot]:
                    level[sink] = depth
                    return level
        layer = []
        for u in frontier:
            for slot in out[u]:
                if residual[slot]:
                    v = to[slot]
                    if level[v] < 0:
                        level[v] = depth
                        layer.append(v)
        frontier = layer
    return None


def _cursor_walk_phase(n, source, sink, to, out, residual, level) -> int:
    """One blocking flow found by the depth-first cursor walk; returns the
    amount pushed."""
    total = 0
    cursor = [0] * n
    path: list[int] = []
    u = source
    while True:
        if u == sink:
            push = residual[path[0]]
            for slot in path:
                if residual[slot] < push:
                    push = residual[slot]
            total += push
            retreat = -1
            for idx, slot in enumerate(path):
                residual[slot] -= push
                residual[slot ^ 1] += push
                if retreat < 0 and not residual[slot]:
                    retreat = idx
            u = to[path[retreat] ^ 1]  # tail of the first saturated arc
            del path[retreat:]
            continue
        slots = out[u]
        end = len(slots)
        c = cursor[u]
        want = level[u] + 1
        while c < end:
            slot = slots[c]
            if residual[slot] and level[to[slot]] == want:
                break
            c += 1
        cursor[u] = c
        if c < end:
            path.append(slot)
            u = to[slot]
            continue
        if u == source:
            return total
        level[u] = -1  # dead end: no admissible arc leaves u this phase
        u = to[path.pop() ^ 1]
        cursor[u] += 1


@dataclass(frozen=True)
class PartitionState:
    """Snapshot of the induction: partial sets over the first `level`
    elements, held per class as mask -> multiplicity."""

    ground_size: int
    subset_size: int
    level: int
    classes: tuple[Mapping[int, int], ...]

    @property
    def lcm_value(self) -> int:
        return lcm(self.ground_size, self.subset_size)

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def sets_per_class(self) -> int:
        return self.lcm_value // self.subset_size

    @property
    def element_uses_per_class(self) -> int:
        return self.lcm_value // self.ground_size


@dataclass(frozen=True)
class ExtensionNetwork:
    """The flow network of one induction step, held per class.

    Nodes: source 0, class i at node 1+i, growable partial set `sets[j]`
    (fewer than k elements; masks in increasing order) at node 1+M+j,
    the sink last.  `rows[i]` holds class i's arcs to the sets it holds,
    as (tail, head, multiplicity) in increasing mask order; `rooms[j]` is
    the capacity of `sets[j]`'s sink arc, and `source_capacity` that of
    every class's source arc.  `max_flow` runs on this form directly.

    `network` and `arc_labels` derive the arc form, anew at each read:
    the source arcs in class order, then the rows, then the sink arcs in
    set order.  The labels tie each class-to-set arc to (class index,
    mask) and label source and sink arcs None.
    """

    source_capacity: int
    sets: tuple[int, ...]
    rooms: tuple[int, ...]
    rows: tuple[tuple[tuple[int, int, int], ...], ...]

    @property
    def network(self) -> FlowNetwork:
        first = 1 + len(self.rows)
        sink = first + len(self.sets)
        arcs = [(0, tail, self.source_capacity) for tail in range(1, first)]
        arcs += chain.from_iterable(self.rows)
        arcs += zip(range(first, sink), repeat(sink), self.rooms)
        return FlowNetwork(node_count=sink + 1, arcs=tuple(arcs), source=0, sink=sink)

    @property
    def arc_labels(self) -> tuple[tuple[int, int] | None, ...]:
        first = 1 + len(self.rows)
        labels: list[tuple[int, int] | None] = [None] * len(self.rows)
        for tail, head, _ in chain.from_iterable(self.rows):
            labels.append((tail - 1, self.sets[head - first]))
        labels += [None] * len(self.sets)
        return tuple(labels)


def initial_state(ground_size: int, subset_size: int) -> PartitionState:
    """Base case: element 1 distributed evenly, the rest of each class empty."""
    _validate_parameters(ground_size, subset_size)
    big = lcm(ground_size, subset_size)
    class_count = subset_size * comb(ground_size, subset_size) // big
    singles = big // ground_size
    empties = big // subset_size - singles
    base: dict[int, int] = {1: singles}
    if empties:
        base[0] = empties
    return PartitionState(
        ground_size=ground_size,
        subset_size=subset_size,
        level=1,
        classes=tuple(dict(base) for _ in range(class_count)),
    )


def build_extension_network(state: PartitionState) -> ExtensionNetwork:
    """Network whose saturating integral flows pick, per class, how many
    copies of each partial set receive element level+1.

    Source arcs carry L/N to each class; each partial set T of size < k
    held by a class gets one arc from the class to T's node, with T's
    multiplicity in the class as capacity; T's node drains into the sink
    with capacity C(N-1-level, k-|T|-1).
    """
    big_n = state.ground_size
    k = state.subset_size
    ell = state.level
    if ell >= big_n:
        raise InputError(f"all {big_n} elements already distributed")

    classes = state.classes
    sets = tuple(sorted(m for m in set().union(*classes) if m.bit_count() < k))
    first = 1 + len(classes)
    node_of = {mask: node for node, mask in enumerate(sets, first)}
    room_of_size = [comb(big_n - 1 - ell, k - size - 1) for size in range(k)]
    rows = []
    for tail, cls in enumerate(classes, 1):
        row = []
        for mask in sorted(cls):
            head = node_of.get(mask)  # None for sets that already hold k elements
            if head is not None:
                row.append((tail, head, cls[mask]))
        rows.append(tuple(row))
    if min(map(itemgetter(2), chain.from_iterable(rows)), default=0) < 0:
        for tail, head, held in chain.from_iterable(rows):
            if held < 0:
                raise InputError(
                    f"class {tail - 1} holds set {_mask_to_set(sets[head - first])} "
                    f"with negative multiplicity {held}"
                )
    return ExtensionNetwork(
        source_capacity=state.element_uses_per_class,
        sets=sets,
        rooms=tuple(room_of_size[mask.bit_count()] for mask in sets),
        rows=tuple(rows),
    )


def extend(state: PartitionState) -> PartitionState:
    """Distribute element level+1 according to a saturating integral flow."""
    ext = build_extension_network(state)
    flow = max_flow(ext)
    expected = comb(state.ground_size - 1, state.subset_size - 1)
    if flow.value != expected:
        raise InternalContradictionError(
            f"extension flow has value {flow.value}, expected {expected} "
            f"at level {state.level}"
        )
    bit = 1 << state.level  # element level+1
    sets = ext.sets
    first = 1 + len(ext.rows)
    flows = flow.arc_flows
    moved = flows[len(ext.rows) : len(flows) - len(sets)]  # the class-to-set arcs
    new_classes = list(map(dict, state.classes))
    for (tail, head, held), units in compress(zip(chain.from_iterable(ext.rows), moved), moved):
        cls = new_classes[tail - 1]
        mask = sets[head - first]
        left = held - units
        if left:
            cls[mask] = left
        else:
            del cls[mask]
        grown = mask | bit
        cls[grown] = cls.get(grown, 0) + units
    return PartitionState(
        ground_size=state.ground_size,
        subset_size=state.subset_size,
        level=state.level + 1,
        classes=tuple(new_classes),
    )


def state_violations(state: PartitionState) -> list[str]:
    """All invariant violations of the state; empty when healthy.

    Checked: per-class set totals, per-class per-element occurrence
    counts, and the global multiplicity of every partial set over the
    distributed elements.
    """
    big_n, k, ell = state.ground_size, state.subset_size, state.level
    problems: list[str] = []
    distributed = (1 << ell) - 1
    for i, cls in enumerate(state.classes):
        total = 0
        element_uses = [0] * ell
        for mask, count in cls.items():
            if count < 1:
                problems.append(f"class {i}: nonpositive multiplicity for {mask:b}")
            if mask & ~distributed:
                problems.append(f"class {i}: set uses an undistributed element")
            if mask.bit_count() > k:
                problems.append(f"class {i}: set larger than {k}")
            total += count
            for b in _bits(mask):
                element_uses[b] += count
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
    totals: dict[int, int] = {}
    for cls in state.classes:
        for mask, count in cls.items():
            totals[mask] = totals.get(mask, 0) + count
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
    if comb(ground_size, subset_size) >= COMB_GUARD:
        raise ResourceLimitError(
            f"C({ground_size}, {subset_size}) exceeds the size guard"
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
    for cls in state.classes:
        sets = []
        for mask, count in cls.items():
            if count != 1 or mask.bit_count() != subset_size:
                raise InternalContradictionError(
                    "final state holds a partial or repeated set"
                )
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
