import hashlib
import random
import time
from itertools import combinations
from math import comb, lcm
from typing import NamedTuple

import pytest

from hyperline import (
    DivisibilityError,
    Hypergraph,
    InputError,
    InternalContradictionError,
    ResourceLimitError,
    UnrealizableError,
    baranyai_partition,
    regular_hypergraph,
)
from hyperline.baranyai import (
    Flow,
    PartitionState,
    extend,
    initial_state,
    max_flow,
    state_violations,
)
from hyperline.fileio import write_partition


class ArcFlow(NamedTuple):
    """A flow given arc by arc: one value per arc, in arc order."""

    arc_flows: tuple[int, ...]
    value: int


def _reference_max_flow(
    node_count: int, arcs, source: int, sink: int, searches: list | None = None
) -> ArcFlow:
    """Dinic as a single cursor walk per phase on a residual form rebuilt
    from the (tail, head, capacity) arcs, scanned in arc order at every
    node: the algorithm `max_flow` must reproduce flow for flow.  When
    given `searches`, appends to it, per breadth-first search (the last
    one finds no path), its layers in labelling order and the arc flows
    it starts from."""
    # residual structure: arc i -> slots 2i (forward) and 2i+1 (reverse)
    to = [0] * (2 * len(arcs))
    residual = [0] * (2 * len(arcs))
    out_arcs: list[list[int]] = [[] for _ in range(node_count)]
    slot = 0
    for tail, head, capacity in arcs:
        out_arcs[tail].append(slot)
        to[slot] = head
        residual[slot] = capacity
        out_arcs[head].append(slot + 1)
        to[slot + 1] = tail
        slot += 2

    total = 0
    while True:
        # Nodes beyond the sink's layer cannot lie on an admissible path,
        # so the search stops once that layer is complete.
        level = [-1] * node_count
        level[source] = 0
        frontier = [source]
        layers = [frontier]
        depth = 0
        while frontier and level[sink] < 0:
            depth += 1
            layer = []
            for u in frontier:
                for slot in out_arcs[u]:
                    if residual[slot]:
                        v = to[slot]
                        if level[v] < 0:
                            level[v] = depth
                            layer.append(v)
            frontier = layer
            layers.append(layer)
        if searches is not None:
            searches.append((layers, tuple(residual[1::2])))
        if level[sink] < 0:
            break

        cursor = [0] * node_count
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
            slots = out_arcs[u]
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
                break
            level[u] = -1  # dead end: no admissible arc leaves u this phase
            u = to[path.pop() ^ 1]
            cursor[u] += 1

    return ArcFlow(arc_flows=tuple(residual[1::2]), value=total)


def _arc_form(cap: int, rooms, rows, counts) -> tuple[int, list[tuple[int, int, int]], int, int]:
    """The arc-by-arc network `max_flow`'s arguments describe: each run
    expanded to its count of classes, source 0, class i at 1+i, set j at
    1+M+j, the sink last; source arcs, then class arcs class by class,
    then sink arcs."""
    classes = [row for row, count in zip(rows, counts) for _ in range(count)]
    first = 1 + len(classes)
    sink = first + len(rooms)
    arcs = [(0, 1 + i, cap) for i in range(len(classes))]
    arcs += [(1 + i, first + j, held) for i, row in enumerate(classes) for j, held in row]
    arcs += [(first + j, sink, room) for j, room in enumerate(rooms)]
    return sink + 1, arcs, 0, sink


def _arc_flows(net, flow) -> ArcFlow:
    """The flow a run-form `Flow` stands for on `_arc_form(*net)`, arc by
    arc; checks that its pieces cover every run's classes, in run order,
    each piece at least one class."""
    _, rooms, rows, counts = net
    sent: list[int] = []
    class_arcs: list[int] = []
    drained = [0] * len(rooms)
    covered = [0] * len(rows)
    at = 0
    for r, q in zip(flow.runs, flow.pieces):
        assert q >= 1, flow
        units = flow.units[at : at + len(rows[r])]
        at += len(rows[r])
        covered[r] += q
        sent += [sum(units)] * q
        class_arcs += list(units) * q
        for (j, _), u in zip(rows[r], units):
            drained[j] += q * u
    assert len(flow.runs) == len(flow.pieces) and at == len(flow.units), flow
    assert list(flow.runs) == sorted(flow.runs) and covered == list(counts), flow
    return ArcFlow(arc_flows=tuple(sent + class_arcs + drained), value=flow.value)


def _reference(net) -> ArcFlow:
    return _reference_max_flow(*_arc_form(*net))


class LaterPaths(NamedTuple):
    """What the reference's later phases (those after the first) do that
    `max_flow`'s per-class later phases handle by a path of their own."""

    listed: int  # class arcs without flow after the first phase that gain some later
    pushed_back: int  # later phases that take flow back along such an arc
    early_stops: int  # later searches' class layers that label every set before their last class


def _reference_with_paths(net) -> tuple[ArcFlow, LaterPaths]:
    """The reference flow on `_arc_form(*net)`, and what its later phases
    do, read from the layers and arc flows of each of its searches."""
    _, rooms, _, counts = net
    node_count, arcs, source, sink = _arc_form(*net)
    searches: list = []
    flow = _reference_max_flow(node_count, arcs, source, sink, searches)
    class_arcs = range(sum(counts), len(arcs) - len(rooms))
    starts = [start for _, start in searches]  # search s starts phase s+1
    gained = set()
    pushed_back = 0
    for before, after in zip(starts[1:], starts[2:]):  # each later phase
        pushed_back += sum(1 for a in gained if after[a] < before[a])
        gained.update(a for a in class_arcs if not starts[1][a] and not before[a] and after[a])
    early_stops = 0
    for layers, start in searches[1:]:
        reach: dict[int, list[int]] = {}  # each class node's sets by residual class arcs
        for a in class_arcs:
            tail, head, cap = arcs[a]
            if start[a] < cap:
                reach.setdefault(tail, []).append(head)
        labelled: set[int] = set()
        for d in range(1, len(layers) - 1, 2):  # the class layers whose arcs are scanned
            for c in [None, *layers[d][:-1]]:  # before the first class, then after each
                labelled.update(reach.get(c, ()))
                if len(labelled) == len(rooms):
                    early_stops += 1
                    break
            labelled.update(layers[d + 1])
    return flow, LaterPaths(len(gained), pushed_back, early_stops)


def _count_calls(monkeypatch, module, name: str) -> list[int]:
    """Replace module.name with a wrapper counting its calls; returns the
    one-element counter."""
    count = [0]
    original = getattr(module, name)

    def counted(*args):
        count[0] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return count


def _record_max_flow(monkeypatch) -> list:
    """Replace `max_flow` with a wrapper recording each call's arguments
    and result; returns the list of (arguments, flow) pairs."""
    from hyperline import baranyai

    calls = []
    original = baranyai.max_flow

    def recorded(*args):
        flow = original(*args)
        calls.append((args, flow))
        return flow

    monkeypatch.setattr(baranyai, "max_flow", recorded)
    return calls


def _network(cap: int, rows, rooms, counts=None) -> tuple:
    """`max_flow`'s arguments for a network of the given runs."""
    return cap, tuple(rooms), tuple(rows), tuple(counts or [1] * len(rows))


def test_max_flow_bottleneck():
    net = _network(2, [((0, 2),)], [1])
    flow = max_flow(*net)
    assert flow.value == 1
    assert _arc_flows(net, flow) == ((1, 1, 1), 1)  # source arc, class arc, sink arc
    assert _arc_flows(net, flow) == _reference(net)


def test_max_flow_two_paths():
    net = _network(3, [((0, 3),), ((1, 3),)], [2, 2])
    assert max_flow(*net).value == 4
    assert _arc_flows(net, max_flow(*net)) == _reference(net)


def test_max_flow_parallel_unit_arcs():
    # two classes reach the one set by unit arcs that share its sink arc
    net = _network(2, [((0, 1),), ((0, 1),)], [2])
    flow = max_flow(*net)
    assert flow.value == 2
    assert _arc_flows(net, flow).arc_flows == (1, 1, 1, 1, 2)
    # with one unit to send, the two classes as one run: one piece serves both
    pair = _network(1, [((0, 1),), ((0, 1),)], [2])
    run = _network(1, [((0, 1),)], [2], counts=[2])
    assert max_flow(*run) == Flow(runs=(0,), pieces=(2,), units=(1,), value=2)
    assert _arc_flows(run, max_flow(*run)) == _arc_flows(pair, max_flow(*pair)) == _reference(pair)


def test_max_flow_splits_a_run_where_a_room_runs_low():
    # five classes alike: set 0 has room for three of them, so the greedy
    # serves three in one step and the other two, sent on to set 1, in another
    net = _network(1, [((0, 1), (1, 1))], [3, 2], counts=[5])
    flow = max_flow(*net)
    assert flow == Flow(runs=(0, 0), pieces=(3, 2), units=(1, 0, 0, 1), value=5)
    assert _arc_flows(net, flow) == _reference(net)


def test_max_flow_needs_augmenting_undo(monkeypatch):
    # the greedy sends class 0 into set 0, which starves class 1; the
    # second phase reroutes through the reverse arc set 0 -> class 0
    from hyperline import baranyai

    later = _count_calls(monkeypatch, baranyai, "_later_phases")
    net = _network(1, [((0, 1), (1, 1)), ((0, 1),)], [1, 1])
    flow = max_flow(*net)
    assert later[0] == 1
    assert flow.value == 2
    assert _arc_flows(net, flow).arc_flows == (1, 1, 0, 1, 1, 1, 1)
    assert _arc_flows(net, flow) == _reference(net)
    # a run of two whose one piece fills set 0: the later phases split it
    # and reroute its second class, which becomes a piece of its own
    net = _network(1, [((0, 1), (1, 1)), ((0, 1),)], [2, 1], counts=[2, 1])
    flow = max_flow(*net)
    assert later[0] == 2
    assert flow.runs == (0, 0, 1) and flow.pieces == (1, 1, 1)
    assert _arc_flows(net, flow) == _reference(net)


def test_max_flow_pushes_back_along_an_arc_a_later_phase_filled():
    # The greedy fills set 0 from class 0 and leaves a unit to classes 1
    # and 2.  Phase 2 sends class 1's unit into set 0 and reroutes class
    # 0's on to set 2, so the arc class 1 -> set 0 first carries flow
    # there.  Phase 3 places class 2's unit only by taking it back:
    # class 2 -> set 0 -> class 1 -> set 1 -> class 0 -> set 2.
    net = _network(2, [((0, 2), (1, 1), (2, 2)), ((0, 2), (1, 2)), ((0, 1),)], [1, 2, 3])
    reference, paths = _reference_with_paths(net)
    assert paths == LaterPaths(listed=3, pushed_back=1, early_stops=0)
    assert reference == ((2, 2, 1, 0, 0, 2, 0, 2, 1, 1, 2, 2), 5)
    assert _arc_flows(net, max_flow(*net)) == reference


def test_max_flow_is_deterministic(monkeypatch):
    # A real level: extending the same state twice passes the same
    # arguments, and they give the same flow, also when passed again.
    state = initial_state(12, 6)
    while state.level < 5:
        state = extend(state)
    calls = _record_max_flow(monkeypatch)
    assert extend(state) == extend(state)
    (net, first), (twin, again) = calls
    assert first.value == comb(11, 5)
    assert twin == net and again == first
    assert max_flow(*net) == first


def _general_network(rng) -> tuple[int, list[tuple[int, int, int]], int, int]:
    n = rng.randint(2, 8)
    arcs = []
    for _ in range(rng.randint(0, 16)):
        tail = rng.randrange(0, n - 1)
        head = rng.randrange(1, n)
        if tail == head or head == 0 or tail == n - 1:
            continue
        arcs.append((tail, head, rng.randint(0, 5)))
    return n, arcs, 0, n - 1


def _random_extension_network(rng) -> tuple:
    """Runs of classes and sets as in an induction step, with zero
    capacities, empty rows, runs of one to three classes and sink rooms
    that sum to about what the classes send, so the greedy often splits a
    run where a room runs low, or leaves flow that only rerouting can
    place."""
    sets = rng.randint(1, 9)
    cap = rng.randint(0, 4)
    rows = []
    for _ in range(rng.randint(1, 9)):
        held = sorted(rng.sample(range(sets), rng.randint(0, sets)))
        rows.append(tuple((j, rng.choice((0, 1, 2, 2, 3, 3))) for j in held))
    counts = [rng.choice((1, 1, 2, 3)) for _ in rows]
    rooms = [0] * sets
    for _ in range(cap * sum(counts) + rng.randint(-1, 1)):
        rooms[rng.randrange(sets)] += 1
    return _network(cap, rows, rooms, counts)


def test_max_flow_value_matches_networkx_on_random_networks():
    nx = pytest.importorskip("networkx")

    def networkx_value(node_count, arcs, source, sink):
        graph = nx.DiGraph()
        graph.add_nodes_from(range(node_count))
        for tail, head, cap in arcs:
            if graph.has_edge(tail, head):
                graph[tail][head]["capacity"] += cap
            else:
                graph.add_edge(tail, head, capacity=cap)
        return nx.maximum_flow_value(graph, source, sink)

    rng = random.Random(31)
    for _ in range(40):
        general = _general_network(rng)
        assert _reference_max_flow(*general).value == networkx_value(*general)
        net = _random_extension_network(rng)
        assert max_flow(*net).value == networkx_value(*_arc_form(*net))


def test_max_flow_conservation_and_capacity():
    """The reference conserves flow within capacities, and its per-arc
    flows on fixed random networks hash to the digest the library's own
    arc-by-arc Dinic produced, so the reference is that algorithm."""
    rng = random.Random(77)
    results = []
    for _ in range(40):
        n, arcs, source, sink = _general_network(rng)
        flow = _reference_max_flow(n, arcs, source, sink)
        balance = [0] * n
        for (tail, head, cap), value in zip(arcs, flow.arc_flows):
            assert 0 <= value <= cap
            balance[tail] -= value
            balance[head] += value
        for v in range(1, n - 1):
            assert balance[v] == 0
        assert balance[n - 1] == flow.value == -balance[0]
        results.append((flow.value, flow.arc_flows))
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "53f22cceee0794ce90e3a86dfbb8b91bcd241cc67f3a6819aaea34d1131a0880"


def test_max_flow_matches_cursor_walk_reference(monkeypatch):
    from hyperline import baranyai

    greedy = []
    added = []
    first_phase, later_phases = baranyai._first_phase, baranyai._later_phases

    def recorded_first(*args):
        result = first_phase(*args)
        greedy.append(list(result[0]))  # the later phases split runs in place
        return result

    def recorded_later(*args):
        added.append(later_phases(*args))
        return added[-1]

    monkeypatch.setattr(baranyai, "_first_phase", recorded_first)
    monkeypatch.setattr(baranyai, "_later_phases", recorded_later)
    rng = random.Random(2024)
    split = split_settled = rerouted = 0
    listing = pushing_back = early_stops = 0
    for _ in range(3000):
        net = _random_extension_network(rng)
        before = len(added)
        flow = max_flow(*net)
        reference, paths = _reference_with_paths(net)
        assert _arc_flows(net, flow) == reference, net
        listing += paths.listed > 0
        pushing_back += paths.pushed_back > 0
        early_stops += paths.early_stops
        runs = greedy[-1]
        if len(set(runs)) < len(runs):  # the greedy split a run
            split += 1
            split_settled += len(added) == before
        if len(added) > before:
            counts = net[3]
            rerouted += added[-1] > 0 and max(counts) > 1
    # the per-class later phases reroute flow on a good share of them
    assert sum(1 for value in added if value) >= 500, len(added)
    # runs of several classes: the greedy splits one where a room runs low,
    # sometimes settling the flow alone, and the later phases reroute
    assert split >= 1200 and split_settled >= 30 and rerouted >= 300, (split, split_settled, rerouted)
    # arcs that first gain flow in a later phase, some taken back in a later
    # one still, and searches that label every set before a layer's end
    assert listing >= 600 and pushing_back >= 10 and early_stops >= 300, (
        listing,
        pushing_back,
        early_stops,
    )


def test_extension_max_flow_matches_reference(monkeypatch):
    """The flow of the one max_flow call extend makes per level equals the
    reference Dinic on the arc network its arguments describe, arc for
    arc, at every level of 2 <= k <= N <= 12, (14, 7) and (30, 3); the
    greedy alone settles a pinned share of them, so both the greedy-only
    path and the per-class later phases stay covered, and the later
    searches label every set before the end of a layer often enough to
    cover the forward scan's early stop."""
    from hyperline import baranyai

    later = _count_calls(monkeypatch, baranyai, "_later_phases")
    calls = _record_max_flow(monkeypatch)
    pairs = [(big_n, k) for big_n in range(2, 13) for k in range(2, big_n + 1)]
    greedy_only = {}
    early_stops = 0
    for big_n, k in pairs + [(14, 7), (30, 3)]:
        state = initial_state(big_n, k)
        settled = 0
        while state.level < big_n:
            before = later[0]
            level = state.level
            state = extend(state)
            settled += later[0] == before
            [(net, flow)] = calls
            calls.clear()
            reference, paths = _reference_with_paths(net)
            assert _arc_flows(net, flow) == reference, (big_n, k, level)
            assert flow.value == comb(big_n - 1, k - 1)
            early_stops += paths.early_stops
        greedy_only[big_n, k] = settled
    assert sum(big_n - 1 for big_n, _ in pairs) == 506
    assert sum(greedy_only[pair] for pair in pairs) == 282
    assert greedy_only[14, 7] == 13  # every level of (14, 7)
    assert greedy_only[30, 3] == 2
    assert early_stops >= 100, early_stops  # layers that label every set early


def test_runs_of_16_8():
    """(16, 8) steps 6 435 classes through each of its 15 levels, 96 525
    class steps held as 17 874 runs; consecutive runs always differ."""
    state = initial_state(16, 8)
    runs = steps = 0
    while state.level < 16:
        runs += len(state.rows)
        steps += state.class_count
        keys = list(zip(state.rows, state.finished))
        assert all(a != b for a, b in zip(keys, keys[1:])), state.level
        state = extend(state)
    assert (runs, steps) == (17874, 96525)


def test_extension_network_rejects_negative_multiplicity(monkeypatch):
    calls = _record_max_flow(monkeypatch)
    state = PartitionState(
        ground_size=3,
        subset_size=2,
        level=1,
        sets=(0, 1),
        rows=(((0, -1), (1, 3)),),
        finished=((),),
        counts=(1,),
    )
    with pytest.raises(InputError, match=r"^run 0 holds set \(\) with negative multiplicity -1$"):
        extend(state)
    assert "run 0: nonpositive multiplicity -1 for ()" in state_violations(state)
    # a run of no classes, and counts that do not match the runs
    empty = PartitionState(**{**state.__dict__, "rows": (((0, 1), (1, 2)),), "counts": (0,)})
    with pytest.raises(InputError, match=r"^run 0 stands for 0 classes$"):
        extend(empty)
    with pytest.raises(InputError, match=r"^1 runs but 2 counts$"):
        extend(PartitionState(**{**empty.__dict__, "counts": (1, 1)}))
    assert not calls  # refused before any flow is run


def test_partition_calls_max_flow_once_per_level_from_extend(monkeypatch):
    """Every induction step is one max_flow call made by extend, with value
    C(N-1, k-1): the call path a per-level flow check can wrap."""
    import sys

    from hyperline import baranyai

    calls = []
    original = baranyai.max_flow

    def recorded(*args):
        flow = original(*args)
        calls.append((sys._getframe(1).f_code, flow.value))
        return flow

    monkeypatch.setattr(baranyai, "max_flow", recorded)
    for big_n, k in [(4, 2), (6, 3), (9, 3), (12, 6), (10, 5)]:
        baranyai._baranyai_classes.cache_clear()
        calls.clear()
        baranyai_partition(big_n, k)
        assert calls == [(extend.__code__, comb(big_n - 1, k - 1))] * (big_n - 1)
    baranyai._baranyai_classes.cache_clear()


def test_initial_state_shape():
    state = initial_state(4, 2)
    assert state.class_count == 3
    assert state.sets_per_class == 2
    assert state.element_uses_per_class == 1
    assert state.sets == (0, 1)  # {} and {1}
    assert state.rows == (((0, 1), (1, 1)),)  # one run of three classes alike
    assert state.finished == ((),)
    assert state.counts == (3,)
    assert not state_violations(state)
    # k = N: only {1} can grow, and no class holds an empty set
    assert initial_state(3, 3).sets == (1,)
    assert initial_state(3, 3).rows == (((0, 1),),)


def test_extension_network_structure_n3_k2(monkeypatch):
    state = initial_state(3, 2)
    assert state.class_count == 1
    assert state.rows == (((0, 1), (1, 2)),) and state.counts == (1,)  # {}: 1, {1}: 2
    assert state.sets == (0, 1)
    calls = _record_max_flow(monkeypatch)
    extend(state)
    [(net, _)] = calls
    # L/N = 2; rooms C(1,1) for {} and C(1,0) for {1}; the state's own runs
    assert net == (2, (1, 1), state.rows, (1,))
    assert net[2] is state.rows and net[3] is state.counts
    node_count, arcs, source, sink = _arc_form(*net)
    # source, 1 class, a node each for {} and {1}, sink
    assert (node_count, source, sink) == (5, 0, 4)
    assert arcs == [(0, 1, 2), (1, 2, 1), (1, 3, 2), (2, 4, 1), (3, 4, 1)]


def test_extension_network_structure_n4_k2(monkeypatch):
    state = initial_state(4, 2)
    assert state.sets == (0, 1)
    calls = _record_max_flow(monkeypatch)
    extend(state)
    [(net, _)] = calls
    # L/N = 1; {} -> 2, {1} -> 1; {} and {1} in one run of three classes
    assert net == (1, (comb(2, 1), comb(2, 0)), (((0, 1), (1, 1)),), (3,))


def test_extend_n3_k2_golden():
    state = extend(initial_state(3, 2))
    assert state.level == 2
    assert state.sets == (1, 2)  # {1}, {2}: the empty set can no longer grow to 2
    assert state.rows == (((0, 1), (1, 1)),)
    assert state.finished == ((3,),)  # {1,2}
    assert state.counts == (1,)
    assert not state_violations(state)


def test_extend_flow_value_and_invariants():
    for big_n in range(2, 9):
        for k in range(2, big_n + 1):
            state = initial_state(big_n, k)
            while state.level < big_n:
                state = extend(state)
                assert not state_violations(state), (big_n, k, state.level)


def test_extend_rejects_complete_state():
    state = initial_state(3, 2)
    state = extend(extend(state))
    with pytest.raises(InputError, match=r"^all 3 elements already distributed$"):
        extend(state)


def test_extend_detects_corrupt_state():
    # a legitimate (3, 2) class holds {1} twice and {} once; all empties
    # starves the {1}-node and the flow cannot saturate
    broken = PartitionState(
        ground_size=3,
        subset_size=2,
        level=1,
        sets=(0, 1),
        rows=(((0, 3),),),
        finished=((),),
        counts=(1,),
    )
    with pytest.raises(InternalContradictionError):
        extend(broken)
    # {} twice: the flow saturates, but one copy of {} would have to stay
    # behind, and at level 2 only sets of one element or more can grow
    doubled = PartitionState(
        ground_size=3,
        subset_size=2,
        level=1,
        sets=(0, 1),
        rows=(((0, 2), (1, 2)),),
        finished=((),),
        counts=(1,),
    )
    with pytest.raises(InternalContradictionError, match="keeps copies of a set that must all grow"):
        extend(doubled)


def test_state_violations_reads_row_form():
    state = extend(extend(initial_state(6, 3)))
    assert not state_violations(state)
    assert state.counts == (3, 3, 3, 1)
    fields = dict(
        ground_size=6,
        subset_size=3,
        level=3,
        sets=state.sets,
        rows=state.rows,
        finished=state.finished,
        counts=state.counts,
    )
    assert any(
        "growable sets" in p for p in state_violations(PartitionState(**{**fields, "sets": state.sets[1:]}))
    )
    row = state.rows[0]
    swapped = (row[1], row[0]) + row[2:]
    assert any(
        "set index" in p
        for p in state_violations(PartitionState(**{**fields, "rows": (swapped,) + state.rows[1:]}))
    )
    zero = ((row[0][0], 0),) + row[1:]
    assert any(
        "nonpositive multiplicity 0" in p
        for p in state_violations(PartitionState(**{**fields, "rows": (zero,) + state.rows[1:]}))
    )
    short = ((0b11,),) + state.finished[1:]
    assert any(
        "finished set (1, 2) is not 3 distributed elements" in p
        for p in state_violations(PartitionState(**{**fields, "finished": short}))
    )


def test_state_violations_weighs_runs_by_count():
    state = extend(extend(initial_state(6, 3)))
    fields = dict(
        ground_size=6, subset_size=3, level=3, sets=state.sets, rows=state.rows, finished=state.finished
    )
    # the same classes, one run each: runs need not join identical classes
    runs = zip(state.rows, state.finished, state.counts)
    one_each = [(row, done) for row, done, count in runs for _ in range(count)]
    spread = PartitionState(
        **{**fields, "rows": tuple(r for r, _ in one_each), "finished": tuple(d for _, d in one_each)},
        counts=(1,) * len(one_each),
    )
    assert spread.class_count == state.class_count == 10
    assert not state_violations(spread)
    # a count below 1 is rejected, and a count moved between runs of
    # different rows breaks the global multiplicities
    assert "run 3: count 0 below 1" in state_violations(PartitionState(**fields, counts=(3, 3, 3, 0)))
    moved = state_violations(PartitionState(**fields, counts=(4, 3, 2, 1)))
    assert moved and all("globally" in p for p in moved), moved
    mismatched = state_violations(PartitionState(**fields, counts=(3, 3, 4)))
    assert "4 rows, 4 finished lists and 3 counts" in mismatched


def test_partition_goldens():
    assert baranyai_partition(3, 2) == [[(1, 2), (1, 3), (2, 3)]]
    assert baranyai_partition(4, 4) == [[(1, 2, 3, 4)]]
    matchings = {frozenset(cls) for cls in baranyai_partition(4, 2)}
    assert matchings == {
        frozenset({(1, 2), (3, 4)}),
        frozenset({(1, 3), (2, 4)}),
        frozenset({(1, 4), (2, 3)}),
    }


def test_partition_bytes_pinned():
    """Every partition for 2 <= k <= N <= 12, serialized in (N, k) loop
    order, hashes to a fixed digest: class order and set order are part
    of the output contract."""
    digest = hashlib.sha256()
    for big_n in range(2, 13):
        for k in range(2, big_n + 1):
            digest.update(write_partition(baranyai_partition(big_n, k), big_n, k).encode())
    assert digest.hexdigest() == "52293728ce25537424e9493f57e920a1ba7b97f4dff8ae90cc75f633faa723af"


def test_large_partition_bytes_pinned():
    """The partitions of (14, 7), (16, 8), (30, 3) and (100, 2), whose
    levels the greedy first phase settles all of, or almost none of."""
    digest = hashlib.sha256()
    for big_n, k in [(14, 7), (16, 8), (30, 3), (100, 2)]:
        digest.update(write_partition(baranyai_partition(big_n, k), big_n, k).encode())
    assert digest.hexdigest() == "bb6e17010eb70e17102657a3ed4647df2cb1be5c9b22e14f366c720ad6b2a77e"


def test_cached_classes_are_masks_decoded_on_read(monkeypatch):
    """The induction is cached once per (N, k) as masks; each call decodes
    afresh, and regular_hypergraph decodes only the classes it takes."""
    from hyperline import baranyai

    baranyai._baranyai_classes.cache_clear()
    cached = baranyai._baranyai_classes(6, 3)
    assert baranyai._baranyai_classes.cache_info().currsize == 1
    assert len(cached) == 10 and all(mask.bit_count() == 3 for cls in cached for mask in cls)
    decoded = [sorted(tuple(b + 1 for b in range(6) if mask >> b & 1) for mask in c) for c in cached]
    first = baranyai_partition(6, 3)
    assert first == decoded
    first[0].clear()  # the caller's own lists
    assert baranyai_partition(6, 3) == decoded
    assert regular_hypergraph(6, 3, 5).edges == tuple(
        tuple(x - 1 for x in subset) for cls in decoded[:5] for subset in cls
    )
    taken = []
    original = baranyai._decoded

    def recorded(classes, *args):
        taken.append(len(classes))
        return original(classes, *args)

    monkeypatch.setattr(baranyai, "_decoded", recorded)
    regular_hypergraph(12, 6, 5)  # 5 of the 462 classes
    regular_hypergraph(3, 2, 4)  # the one class, taken twice
    assert taken == [5, 1]
    baranyai._baranyai_classes.cache_clear()


def test_partition_is_deterministic():
    assert baranyai_partition(7, 3) == baranyai_partition(7, 3)


def test_partition_covers_all_subsets():
    for big_n, k in [(5, 2), (5, 3), (6, 3), (7, 2)]:
        classes = baranyai_partition(big_n, k)
        big = lcm(big_n, k)
        assert len(classes) == k * comb(big_n, k) // big
        seen = []
        for cls in classes:
            assert len(cls) == big // k
            uses = {x: 0 for x in range(1, big_n + 1)}
            for subset in cls:
                for x in subset:
                    uses[x] += 1
            assert all(v == big // big_n for v in uses.values())
            seen.extend(cls)
        assert sorted(seen) == sorted(combinations(range(1, big_n + 1), k))


def test_partition_validation():
    with pytest.raises(InputError):
        baranyai_partition(3, 4)
    with pytest.raises(InputError):
        baranyai_partition(3, 1)
    with pytest.raises(ResourceLimitError):
        baranyai_partition(200, 100)
    # the size guard refuses more than 2^20 subsets or edges before any work
    with pytest.raises(ResourceLimitError, match=r"^C\(40, 20\) subsets exceed the bound 1048576$"):
        baranyai_partition(40, 20)
    with pytest.raises(ResourceLimitError, match=r"^200000000 edges exceed the bound 1048576$"):
        regular_hypergraph(4, 2, 10**8)


def test_size_guard_refuses_huge_binomials_at_once():
    """The guard never computes a binomial past the bound: C(2 000 000,
    1 000 000) has about 600 000 digits, and computing it in full takes
    far longer than a second."""
    start = time.perf_counter()
    message = r"^C\(2000000, 1000000\) subsets exceed the bound 1048576$"
    with pytest.raises(ResourceLimitError, match=message):
        baranyai_partition(2_000_000, 1_000_000)
    with pytest.raises(ResourceLimitError, match=message):
        regular_hypergraph(2_000_000, 1_000_000, 1)
    assert time.perf_counter() - start < 1.0


def test_size_guard_matches_the_binomial():
    from hyperline.baranyai import _validate_parameters

    def refused(big_n, k):
        try:
            _validate_parameters(big_n, k)
        except ResourceLimitError:
            return True
        return False

    for big_n in range(2, 81):
        for k in range(2, big_n + 1):
            assert refused(big_n, k) == (comb(big_n, k) > 1 << 20), (big_n, k)
    # C(N, N-1) = N on each side of the bound
    assert not refused(1 << 20, (1 << 20) - 1)
    assert refused((1 << 20) + 1, 1 << 20)
    # C(1448, 2) = 1 047 628 and C(1449, 2) = 1 049 076, from either end
    assert not refused(1448, 2) and not refused(1448, 1446)
    assert refused(1449, 2) and refused(1449, 1447)


def test_regular_divisibility_error():
    with pytest.raises(DivisibilityError):
        regular_hypergraph(4, 3, 2)


def test_regular_all_pairs_golden():
    hg = regular_hypergraph(4, 2, 3)
    assert hg.n == 4
    assert sorted(hg.edges) == sorted((u, v) for u in range(4) for v in range(u + 1, 4))
    assert hg.degree_sequence() == [3, 3, 3, 3]


def test_regular_6_3_5():
    hg = regular_hypergraph(6, 3, 5)
    assert hg.m == 10
    assert hg.is_k_uniform(3)
    assert hg.degree_sequence() == [5] * 6
    assert len(set(hg.edges)) == 10


def test_regular_cycles_classes_when_degree_is_large():
    # d = 4 > C(2,1) = 2 forces reuse for N=3, k=2
    hg = regular_hypergraph(3, 2, 4)
    assert hg.degree_sequence() == [4, 4, 4]
    assert len(set(hg.edges)) < hg.m
    with pytest.raises(UnrealizableError):
        regular_hypergraph(3, 2, 4, strict_simple=True)


def test_regular_simple_when_degree_fits():
    hg = regular_hypergraph(6, 2, 5, strict_simple=True)
    assert hg.degree_sequence() == [5] * 6
    assert len(set(hg.edges)) == hg.m == 15


def test_regular_output_type():
    hg = regular_hypergraph(5, 5, 3)
    assert isinstance(hg, Hypergraph)
    assert hg.edges == ((0, 1, 2, 3, 4),) * 3
