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
(`PartitionState`), as runs of identical consecutive classes: per run,
a row of (set index, multiplicity) pairs over the sets that can still
grow, the k-sets its classes have finished, and how many classes it
stands for.  Each step's network is those runs, plus the source
capacity L/N and the sink capacities that (N, k, level) fix; `extend`
passes them to `max_flow` as plain arguments.  It runs Dinic's first
phase as a greedy, one step per run serving as many of its classes as
the sink capacities allow, and, only where that leaves flow to send,
the later phases, per class.  The flow is the one Dinic finds on the
arc-by-arc network, arc for arc, held per run as pieces of classes that
carry the same flow (`Flow`).  `extend` builds the next runs by a
merge, once per piece, with no sort, so a level costs per distinct
class rather than per class.

The class count times L/k equals C(N,k), so the final classes partition
the full family of k-subsets.  Taking the first d*N/L classes as edges
realizes the constant degree sequence (d, ..., d), which is possible
if and only if k divides d*N.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate, chain, combinations, compress
from math import comb, lcm
from operator import itemgetter, mul, sub

from ._value import Value, _set_field
from .errors import (
    DivisibilityError,
    InputError,
    InternalContradictionError,
    ResourceLimitError,
    UnrealizableError,
)
from .fileio import READ_SIZE_BOUND
from .graph import _bits, _mask
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
        _mask(combo)
        for size in range(low, subset_size)
        for combo in combinations(range(level), size)
    ]
    return tuple(sorted(masks))


class Flow(Value):
    """Integral feasible flow of one induction step, as `max_flow`
    returns it, held per piece.

    The classes of each run split, in order, into pieces of consecutive
    classes that carry the same flow.  Piece p, in run order, is
    `pieces[p]` classes of run `runs[p]`; so run r's pieces hold its
    `counts[r]` classes in all.  `units` holds, piece after piece, the
    flow each class of the piece sends on the arcs of its row, one value
    per pair; a class's source arc carries their sum, and a set's sink
    arc what enters the set.
    """

    runs: tuple[int, ...]
    pieces: tuple[int, ...]
    units: tuple[int, ...]
    value: int

    def __init__(
        self, runs: tuple[int, ...], pieces: tuple[int, ...], units: tuple[int, ...], value: int
    ):
        _set_field(self, "runs", runs)
        _set_field(self, "pieces", pieces)
        _set_field(self, "units", units)
        _set_field(self, "value", value)


class PartitionState(Value):
    """Snapshot of the induction in the flow's own form.

    `sets` holds the partial sets that can still grow, as masks over the
    first `level` elements: every mask whose size lies in
    [max(0, k-(N-level)), k-1], in increasing order.  The classes are
    held as runs of identical consecutive classes: run r stands for
    `counts[r]` classes (at least 1), each holding the partial sets of
    `rows[r]`, as (index into `sets`, multiplicity) pairs in strictly
    increasing index order, each multiplicity positive, and the k-sets
    of `finished[r]`, as masks, one entry per copy.
    """

    ground_size: int
    subset_size: int
    level: int
    sets: tuple[int, ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]
    finished: tuple[tuple[int, ...], ...]
    counts: tuple[int, ...]

    def __init__(
        self,
        ground_size: int,
        subset_size: int,
        level: int,
        sets: tuple[int, ...],
        rows: tuple[tuple[tuple[int, int], ...], ...],
        finished: tuple[tuple[int, ...], ...],
        counts: tuple[int, ...],
    ):
        _set_field(self, "ground_size", ground_size)
        _set_field(self, "subset_size", subset_size)
        _set_field(self, "level", level)
        _set_field(self, "sets", sets)
        _set_field(self, "rows", rows)
        _set_field(self, "finished", finished)
        _set_field(self, "counts", counts)

    @property
    def lcm_value(self) -> int:
        return lcm(self.ground_size, self.subset_size)

    @property
    def class_count(self) -> int:
        return sum(self.counts)

    @property
    def sets_per_class(self) -> int:
        return self.lcm_value // self.subset_size

    @property
    def element_uses_per_class(self) -> int:
        return self.lcm_value // self.ground_size


def max_flow(
    source_capacity: int,
    rooms: tuple[int, ...],
    rows: tuple[tuple[tuple[int, int], ...], ...],
    counts: tuple[int, ...],
) -> Flow:
    """Deterministic integral maximum flow (Dinic) of one induction step's
    network, given as runs of identical consecutive classes.

    Run r stands for `counts[r]` classes with the row `rows[r]` of (set
    index, multiplicity) pairs; expanded, class i is the i-th class in
    run order.  Nodes: source 0, class i at node 1+i, set j at node 1+M+j,
    the sink last, M the number of classes.  Arcs, in order: a source arc
    of capacity `source_capacity` to every class; then, class by class,
    an arc from the class to set j for each pair (j, multiplicity) of its
    row, with the multiplicity as capacity; then a sink arc of capacity
    `rooms[j]` from every set j.

    The flow is the one Dinic finds on that arc-by-arc network, scanning
    residual arcs in arc order at every node: at the source its arcs in
    class order; at a class its row (its reverse source arc is never
    admissible); at a set the reverse arcs of the classes holding it, in
    class order, then its sink arc.  Each phase labels nodes
    breadth-first from the source, stopping at the first set of a layer
    whose sink arc has residual capacity, so no other node of the sink's
    layer is labelled (an admissible path climbs one layer per arc and
    ends at the sink).  It then repeatedly augments along the first
    admissible path a depth-first cursor walk finds; a node the walk
    backs out of is dead for the rest of the phase.

    The first phase's admissible paths are exactly source -> class ->
    set -> sink, met class by class, each row in index order.  A push
    fills the least of three residuals: a full source arc sends the walk
    on to the next class, a full class arc on to the row's next set, and
    a full sink arc leaves its set dead for the phase.  So the phase is
    a greedy (`_first_phase`): each class in turn sends its L/N units
    down its row, each set taking what its multiplicity and remaining
    sink capacity allow.  The classes of a run make the same pushes
    until a sink capacity runs too low for the next one, so the greedy
    takes them a piece at a time.  When that fills every source arc the
    flow is maximum, as at most levels of a large induction; only
    otherwise do the later phases run, per class (`_later_phases`).
    """
    runs, pieces, units, spare, room = _first_phase(source_capacity, rooms, rows, counts)
    if any(spare):
        _later_phases(rows, runs, pieces, units, spare, room)
    value = sum(rooms) - sum(room)
    return Flow(runs=tuple(runs), pieces=tuple(pieces), units=tuple(units), value=value)


def _first_phase(
    cap: int,
    rooms: tuple[int, ...],
    rows: tuple[tuple[tuple[int, int], ...], ...],
    counts: tuple[int, ...],
) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
    """Dinic's first blocking flow, as the greedy `max_flow` describes:
    the flow's runs, pieces and units (as `Flow` holds them), what each
    piece's classes leave unsent, and every set's remaining sink
    capacity.

    One greedy step serves q classes of a run at once, q the run's
    classes left or, if less, the least `room // push` over the sets the
    step pushes into: each of those classes finds room enough for the
    same push, and the next class would not."""
    room = list(rooms)
    units = [0] * sum(map(mul, map(len, rows), counts))  # one piece per class at most
    runs: list[int] = []
    pieces: list[int] = []
    spare: list[int] = []
    start = 0
    for r, row in enumerate(rows):
        count = counts[r]
        while True:
            left = cap
            q = count
            for arc, (j, held) in enumerate(row, start):
                push = left if left < held else held
                x = room[j]
                if x < push:
                    push = x
                if push:
                    if push * q > x:
                        q = x // push
                    room[j] = x - push
                    units[arc] = push
                    left -= push
                    if not left:
                        break
            if q > 1:
                for (j, _), push in zip(row, units[start : start + len(row)]):
                    if push:
                        room[j] -= (q - 1) * push
            runs.append(r)
            pieces.append(q)
            spare.append(left)
            start += len(row)
            if q == count:
                break
            count -= q
    del units[start:]
    return runs, pieces, units, spare, room


def _repeated(column: list, bounds, pieces: list[int], multi: list[int]) -> list:
    """`column` with each piece p of `multi`, the stretch from bounds[p]
    to bounds[p+1], repeated once per class of the piece."""
    out = []
    kept = 0  # the pieces before this one are in `out`
    for p in multi:
        out += column[bounds[kept] : bounds[p]]
        out += column[bounds[p] : bounds[p + 1]] * pieces[p]
        kept = p + 1
    out += column[bounds[kept] :]
    return out


def _later_phases(
    run_rows: tuple[tuple[tuple[int, int], ...], ...],
    runs: list[int],
    pieces: list[int],
    units: list[int],
    spare: list[int],
    room: list[int],
) -> int:
    """Dinic's phases after the first, run per class on the runs' rows
    `run_rows` from the flow `runs`, `pieces`, `units`, `spare` and
    `room` describe (as `_first_phase` returns them), which they update
    in place; returns the value they add.  First every piece splits into
    its classes, so that class i is piece i and its arcs are its stretch
    of `units`.

    Classes are labelled at odd depths and sets at even ones.  The walk's
    path is the class its source arc enters, then class arcs by flat
    index, forward (class to set) and reverse (set to class) in turn.

    A set's reverse arcs are residual only where they carry flow, so
    `into[j]` lists, in class order, just the arcs into set j that have
    carried flow: those the first phase filled, and each arc whose flow
    leaves 0 in a later phase, listed when that phase ends.  Skipping
    the arcs without flow skips only arcs the scans would pass over, so
    every search and walk meets the same arcs in the same order.  An arc
    that gains flow does so forward, from a class at depth d to a set at
    depth d+1, so its reverse arc climbs down and is not admissible in
    the phase that created it; listing it at the phase's end changes no
    scan, and keeps the set cursors of the phase valid.  An arc whose
    flow falls back to 0 stays listed and is skipped as without flow.
    A layer's forward scan stops once every set is labelled: the rest of
    its classes could label none."""
    rows = list(map(run_rows.__getitem__, runs))  # each piece's row
    multi = [p for p, q in enumerate(pieces) if q > 1]
    if multi:
        ends = [0, *accumulate(map(len, rows))]
        units[:] = _repeated(units, ends, pieces, multi)
        each = range(len(pieces) + 1)
        runs[:] = _repeated(runs, each, pieces, multi)
        spare[:] = _repeated(spare, each, pieces, multi)
        rows = _repeated(rows, each, pieces, multi)
    m = len(rows)
    pieces[:] = [1] * m
    flows = units  # each class arc's flow, class by class
    src = spare  # residual capacity of each source arc
    head = [j for row in rows for j, _ in row]
    fwd = list(map(sub, map(itemgetter(1), chain.from_iterable(rows)), flows))
    tail = [i for i, row in enumerate(rows) for _ in row]
    begin = [0, *accumulate(map(len, rows))]  # class i's arcs: begin[i] to begin[i+1]
    into: list[list[int]] = [[] for _ in room]  # each set's arcs that have carried flow
    for arc in compress(range(len(head)), flows):
        into[head[arc]].append(arc)
    added = 0
    while True:
        clevel = [-1] * m
        slevel = [-1] * len(room)
        frontier = list(compress(range(m), src))
        for i in frontier:
            clevel[i] = 1
        depth = 1
        sink_depth = 0
        unlabelled = len(room)  # sets without a label
        while frontier and unlabelled and not sink_depth:
            layer = []
            for i in frontier:
                for arc in range(begin[i], begin[i + 1]):
                    if fwd[arc]:
                        j = head[arc]
                        if slevel[j] < 0:
                            slevel[j] = depth + 1
                            layer.append(j)
                if len(layer) == unlabelled:
                    break  # every set is labelled
            unlabelled -= len(layer)
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
        gained: list[int] = []  # arcs whose flow leaves 0 in this phase
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
                        if not flows[arc]:
                            gained.append(arc)
                        flows[arc] += push
                        r = fwd[arc]
                    else:
                        flows[arc] -= push
                        fwd[arc] += push
                        r = flows[arc]
                    if not r and cut == n:
                        cut = p
                del path[cut:]  # retreat to the tail of the first saturated arc
        for arc in gained:
            arcs = into[head[arc]]
            c = bisect_left(arcs, arc)
            if c == len(arcs) or arcs[c] != arc:  # not listed since an earlier phase
                arcs.insert(c, arc)
    return added


def initial_state(ground_size: int, subset_size: int) -> PartitionState:
    """Base case: element 1 distributed evenly, the rest of each class
    empty; every class alike, so one run."""
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
        rows=(row,),
        finished=((),),
        counts=(class_count,),
    )


def extend(state: PartitionState) -> PartitionState:
    """Distribute element level+1 according to a saturating integral flow.

    The step's network (see `max_flow`) is the state's runs: each class
    sends L/N units down its row, and set T drains into the sink with
    capacity C(N-1-level, k-|T|-1).  Its one `max_flow` call must reach
    C(N-1, k-1).  Refuses a state whose N elements are all distributed,
    whose counts do not match its runs, or that holds a run of fewer
    than one class or a negative multiplicity.

    Each piece of a run gets its next row by a merge: the row's sets that
    keep copies, in their old order, then its grown sets (mask | new
    bit), in their old order, each reindexed through arrays built once
    per level; a pair that carries no flow and whose set keeps its index,
    as on all but the last k levels, is kept as it is.  A set that
    reaches k elements moves to the finished sets.
    Consecutive pieces with the same next row and finished sets join
    into one run.
    """
    big_n, k, ell = state.ground_size, state.subset_size, state.level
    if ell >= big_n:
        raise InputError(f"all {big_n} elements already distributed")
    sets, runs_rows, runs_counts = state.sets, state.rows, state.counts
    if len(runs_counts) != len(runs_rows):
        raise InputError(f"{len(runs_rows)} runs but {len(runs_counts)} counts")
    if min(runs_counts, default=1) < 1:
        r = next(r for r, count in enumerate(runs_counts) if count < 1)
        raise InputError(f"run {r} stands for {runs_counts[r]} classes")
    if min(map(itemgetter(1), chain.from_iterable(runs_rows)), default=0) < 0:
        for r, row in enumerate(runs_rows):
            for j, held in row:
                if held < 0:
                    raise InputError(
                        f"run {r} holds set {_mask_to_set(sets[j])} "
                        f"with negative multiplicity {held}"
                    )
    room_of_size = [comb(big_n - 1 - ell, k - size - 1) for size in range(k)]
    rooms = tuple(room_of_size[mask.bit_count()] for mask in sets)
    flow = max_flow(state.element_uses_per_class, rooms, runs_rows, runs_counts)
    expected = comb(big_n - 1, k - 1)
    if flow.value != expected:
        raise InternalContradictionError(
            f"extension flow has value {flow.value}, expected {expected} "
            f"at level {ell}"
        )
    bit = 1 << ell  # element level+1
    low = max(0, k - (big_n - ell - 1))  # least size that can grow at the next level
    survivors = [mask for mask in sets if mask.bit_count() >= low]
    next_sets = tuple(survivors + [mask | bit for mask in sets if mask.bit_count() < k - 1])
    position = {mask: j for j, mask in enumerate(next_sets)}
    stay = [position.get(mask) for mask in sets]  # None: every copy must grow
    grow = [position.get(mask | bit) for mask in sets]  # None: the grown set is finished
    units_of = iter(flow.units)  # piece by piece, one value per pair of its row
    rows: list[tuple[tuple[int, int], ...]] = []
    finished: list[tuple[int, ...]] = []
    counts: list[int] = []
    last_row = last_done = None
    runs_done = state.finished
    for r, q in zip(flow.runs, flow.pieces):
        done = runs_done[r]
        kept = []
        grown = []
        for pair, units in zip(runs_rows[r], units_of):
            j, held = pair
            if units:
                g = grow[j]
                if g is None:
                    done += (sets[j] | bit,)  # a (k-1)-set's sink arc carries 1 unit
                else:
                    grown.append((g, units))
                if held != units:
                    kept.append((stay[j], held - units))
            elif stay[j] == j:
                kept.append(pair)  # same set index and multiplicity: no new tuple
            else:
                kept.append((stay[j], held))
        kept += grown
        row = tuple(kept)
        if row == last_row and done == last_done:
            counts[-1] += q
        else:
            rows.append(row)
            finished.append(done)
            counts.append(q)
            last_row, last_done = row, done
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
        counts=tuple(counts),
    )


def state_violations(state: PartitionState) -> list[str]:
    """All invariant violations of the state; empty when healthy.

    Checked: the growable sets against their formula; one row, finished
    list and count per run, each count at least 1; per run, row indices
    in range and strictly increasing, positive multiplicities, finished
    sets of k distributed elements, the set total and every element's
    occurrence count; and the global multiplicity of every partial set
    over the distributed elements, each run weighted by its count.
    """
    big_n, k, ell = state.ground_size, state.subset_size, state.level
    problems: list[str] = []
    sets = state.sets
    if sets != _growable_sets(big_n, k, ell):
        problems.append(
            f"growable sets are not every set of {max(0, k - (big_n - ell))} to {k - 1} "
            f"of the first {ell} elements, in increasing order"
        )
    if not len(state.rows) == len(state.finished) == len(state.counts):
        problems.append(
            f"{len(state.rows)} rows, {len(state.finished)} finished lists "
            f"and {len(state.counts)} counts"
        )
    distributed = (1 << ell) - 1
    totals: dict[int, int] = {}
    for r, (row, done, classes) in enumerate(zip(state.rows, state.finished, state.counts)):
        if classes < 1:
            problems.append(f"run {r}: count {classes} below 1")
        held = [(mask, 1) for mask in done]
        last = -1
        for j, count in row:
            if not last < j < len(sets):
                problems.append(f"run {r}: set index {j} after {last} or past {len(sets) - 1}")
                continue
            last = j
            if count < 1:
                problems.append(
                    f"run {r}: nonpositive multiplicity {count} for {_mask_to_set(sets[j])}"
                )
            held.append((sets[j], count))
        for mask in done:
            if mask.bit_count() != k or mask & ~distributed:
                problems.append(
                    f"run {r}: finished set {_mask_to_set(mask)} is not {k} distributed elements"
                )
        element_uses = [0] * ell
        for mask, count in held:
            for b in _bits(mask & distributed):
                element_uses[b] += count
            totals[mask] = totals.get(mask, 0) + count * classes
        total = sum(count for _, count in held)
        if total != state.sets_per_class:
            problems.append(
                f"run {r}: holds {total} sets, expected {state.sets_per_class}"
            )
        for b in range(ell):
            if element_uses[b] != state.element_uses_per_class:
                problems.append(
                    f"run {r}: element {b + 1} occurs {element_uses[b]} times, "
                    f"expected {state.element_uses_per_class}"
                )
    for size in range(min(k, ell) + 1):
        for combo in combinations(range(ell), size):
            mask = _mask(combo)
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
    # C(N, j) grows with j up to N/2, so stepping it to min(k, N-k) stops
    # within a few dozen small products once it passes the bound, where
    # the full binomial of a large N takes seconds to compute.
    count = 1
    for j in range(min(subset_size, ground_size - subset_size)):
        count = count * (ground_size - j) // (j + 1)
        if count > READ_SIZE_BOUND:
            raise ResourceLimitError(
                f"C({ground_size}, {subset_size}) subsets exceed the bound {READ_SIZE_BOUND}"
            )


# Mask bits decoded per table lookup.  Each call builds its tables, so 64
# entries beat 256: decoding 28 to 3 000 masks ran fastest at 6 of 2 to 8.
_CHUNK = 6


def _chunk_elements(first: int, width: int) -> list[tuple[int, ...]]:
    """For each value b of `width` bits of a mask, the elements those bits
    stand for, in increasing order, the lowest bit standing for `first`;
    built by prefixing the lowest bit's element to the table entry of the
    rest."""
    table: list[tuple[int, ...]] = [()]
    for b in range(1, 1 << width):
        table.append(((b & -b).bit_length() - 1 + first,) + table[b & (b - 1)])
    return table


def _decoded(
    classes: tuple[tuple[int, ...], ...], ground_size: int, base: int
) -> list[list[tuple[int, ...]]]:
    """Each class's k-set masks as sorted tuples of elements, bit b
    standing for element base + b, the tuples sorted within the class."""
    tables = [
        _chunk_elements(base + first, min(_CHUNK, ground_size - first))
        for first in range(0, ground_size, _CHUNK)
    ]
    low = (1 << _CHUNK) - 1
    out = []
    for masks in classes:
        sets = []
        for mask in masks:
            elements = ()
            for table in tables:
                elements += table[mask & low]
                mask >>= _CHUNK
            sets.append(elements)
        sets.sort()
        out.append(sets)
    return out


@lru_cache(maxsize=None)
def _baranyai_classes(ground_size: int, subset_size: int) -> tuple[tuple[int, ...], ...]:
    """The final classes, in order, each as the masks of its k-sets."""
    state = initial_state(ground_size, subset_size)
    while state.level < state.ground_size:
        state = extend(state)
    for row, done, count in zip(state.rows, state.finished, state.counts):
        if row or count != 1 or len(set(done)) != len(done):
            raise InternalContradictionError(
                "final state holds a partial or repeated set"
            )
    return state.finished


def baranyai_partition(ground_size: int, subset_size: int) -> list[list[tuple[int, ...]]]:
    """Partition all k-subsets of {1..N} into M = k*C(N,k)/lcm(N,k) classes,
    each class holding every element equally often.

    Deterministic: the same (N, k) always yields the same classes in the
    same order.
    """
    _validate_parameters(ground_size, subset_size)
    return _decoded(_baranyai_classes(ground_size, subset_size), ground_size, 1)


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
    taken = _decoded(classes[:wanted], ground_size, 0)
    edges = []
    for i in range(wanted):
        edges += taken[i % len(taken)]
    return Hypergraph(ground_size, edges)
