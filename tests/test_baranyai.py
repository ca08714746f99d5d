import hashlib
from itertools import combinations
from math import comb, lcm

import pytest

from hyperline import (
    DivisibilityError,
    Hypergraph,
    InputError,
    ResourceLimitError,
    UnrealizableError,
    baranyai_partition,
    regular_hypergraph,
)
from hyperline.baranyai import (
    Flow,
    FlowNetwork,
    build_extension_network,
    extend,
    initial_state,
    max_flow,
    state_violations,
)
from hyperline.fileio import write_partition


def test_max_flow_bottleneck():
    net = FlowNetwork(3, ((0, 1, 2), (1, 2, 1)), source=0, sink=2)
    flow = max_flow(net)
    assert flow.value == 1
    assert flow.arc_flows == (1, 1)


def test_max_flow_two_paths():
    net = FlowNetwork(4, ((0, 1, 3), (0, 2, 3), (1, 3, 2), (2, 3, 2)), source=0, sink=3)
    assert max_flow(net).value == 4


def test_max_flow_parallel_unit_arcs():
    net = FlowNetwork(4, ((0, 1, 2), (1, 2, 1), (1, 2, 1), (2, 3, 2)), source=0, sink=3)
    flow = max_flow(net)
    assert flow.value == 2
    assert flow.arc_flows[1] in (0, 1) and flow.arc_flows[2] in (0, 1)
    assert flow.arc_flows[1] + flow.arc_flows[2] == 2


def test_max_flow_needs_augmenting_undo():
    # greedy first path s->a->d->t must be partially rerouted via b
    net = FlowNetwork(
        5,
        ((0, 1, 1), (0, 2, 1), (1, 3, 1), (1, 4, 0), (2, 3, 1), (3, 4, 2)),
        source=0,
        sink=4,
    )
    assert max_flow(net).value == 2


def test_max_flow_is_deterministic():
    net = FlowNetwork(
        4, ((0, 1, 2), (0, 2, 2), (1, 3, 1), (2, 3, 1), (1, 2, 1)), source=0, sink=3
    )
    assert max_flow(net) == max_flow(net)

    # A real level: the residual form a network caches is never mutated
    # by max_flow, and stays out of equality, hashing and repr.
    state = initial_state(12, 6)
    while state.level < 5:
        state = extend(state)
    net = build_extension_network(state).network

    def residual_form():
        return (
            list(net._to),
            list(net._capacity),
            [list(slots) for slots in net._out],
            [list(slots) for slots in net._into_sink],
        )

    before = residual_form()
    first = max_flow(net)
    assert first.value == comb(11, 5)
    assert max_flow(net) == first
    assert residual_form() == before
    twin = FlowNetwork(net.node_count, tuple(list(net.arcs)), net.source, net.sink)
    assert twin == net and hash(twin) == hash(net)
    assert max_flow(twin) == first
    assert "_to" not in repr(net) and "_capacity" not in repr(net)
    object.__setattr__(twin, "_capacity", [])  # eq and hash ignore the cache
    assert twin == net and hash(twin) == hash(net)
    other = FlowNetwork(net.node_count, net.arcs[:-1], net.source, net.sink)
    assert other != net


def test_flow_network_validation():
    # each message names the first offending arc by its index
    with pytest.raises(InputError, match=r"^arc 0 has negative capacity -1$"):
        FlowNetwork(3, ((0, 1, -1),), source=0, sink=2)
    with pytest.raises(InputError, match=r"^arc 1 enters the source$"):
        FlowNetwork(3, ((0, 1, 1), (1, 0, 1)), source=0, sink=2)
    with pytest.raises(InputError, match=r"^arc 2 leaves the sink$"):
        FlowNetwork(3, ((0, 1, 1), (1, 2, 1), (2, 1, 1)), source=0, sink=2)
    with pytest.raises(InputError, match=r"^arc 1 is a self-loop at node 1$"):
        FlowNetwork(3, ((0, 1, 1), (1, 1, 1), (1, 0, 1)), source=0, sink=2)
    with pytest.raises(InputError, match=r"^arc 3 has an endpoint outside \[0, 2\)$"):
        FlowNetwork(2, ((0, 1, 1),) * 3 + ((0, 3, 1),), source=0, sink=1)
    with pytest.raises(InputError, match=r"^arc 0 has an endpoint outside \[0, 3\)$"):
        FlowNetwork(3, ((-1, 2, 1),), source=0, sink=2)
    with pytest.raises(InputError, match="source and sink must differ"):
        FlowNetwork(2, (), source=0, sink=0)
    with pytest.raises(InputError, match="outside the node range"):
        FlowNetwork(2, (), source=0, sink=2)
    with pytest.raises(InputError, match="at least 2 nodes"):
        FlowNetwork(1, (), source=0, sink=0)


def test_max_flow_value_matches_networkx_on_random_networks():
    nx = pytest.importorskip("networkx")
    import random

    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 8)
        arcs = []
        for _ in range(rng.randint(0, 16)):
            tail = rng.randrange(0, n - 1)
            head = rng.randrange(1, n)
            if tail == head or head == 0 or tail == n - 1:
                continue
            arcs.append((tail, head, rng.randint(0, 5)))
        net = FlowNetwork(n, tuple(arcs), source=0, sink=n - 1)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n))
        for tail, head, cap in arcs:
            if graph.has_edge(tail, head):
                graph[tail][head]["capacity"] += cap
            else:
                graph.add_edge(tail, head, capacity=cap)
        expected = nx.maximum_flow_value(graph, 0, n - 1)
        assert max_flow(net).value == expected


def test_max_flow_conservation_and_capacity():
    import random

    rng = random.Random(77)
    results = []
    for _ in range(40):
        n = rng.randint(2, 8)
        arcs = []
        for _ in range(rng.randint(0, 16)):
            tail = rng.randrange(0, n - 1)
            head = rng.randrange(1, n)
            if tail == head or head == 0 or tail == n - 1:
                continue
            arcs.append((tail, head, rng.randint(0, 5)))
        net = FlowNetwork(n, tuple(arcs), source=0, sink=n - 1)
        flow = max_flow(net)
        balance = [0] * n
        for (tail, head, cap), value in zip(arcs, flow.arc_flows):
            assert 0 <= value <= cap
            balance[tail] -= value
            balance[head] += value
        for v in range(1, n - 1):
            assert balance[v] == 0
        assert balance[n - 1] == flow.value == -balance[0]
        results.append((flow.value, flow.arc_flows))
    # Per-arc flows are a pure function of the network; the digest pins
    # them, so a change in which augmenting paths Dinic finds shows here.
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "53f22cceee0794ce90e3a86dfbb8b91bcd241cc67f3a6819aaea34d1131a0880"


def _reference_max_flow(net: FlowNetwork) -> Flow:
    """Dinic as a single cursor walk per phase, rebuilding the residual
    arrays from `net.arcs`: the algorithm `max_flow` must reproduce flow
    for flow."""
    n = net.node_count
    arcs = net.arcs
    # residual structure: arc i -> slots 2i (forward) and 2i+1 (reverse)
    to = [0] * (2 * len(arcs))
    residual = [0] * (2 * len(arcs))
    out_arcs: list[list[int]] = [[] for _ in range(n)]
    slot = 0
    for tail, head, capacity in arcs:
        out_arcs[tail].append(slot)
        to[slot] = head
        residual[slot] = capacity
        out_arcs[head].append(slot + 1)
        to[slot + 1] = tail
        slot += 2

    source, sink = net.source, net.sink
    total = 0
    while True:
        # Nodes beyond the sink's layer cannot lie on an admissible path,
        # so the search stops once that layer is complete.
        level = [-1] * n
        level[source] = 0
        frontier = [source]
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
        if level[sink] < 0:
            break

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

    return Flow(arc_flows=tuple(residual[1::2]), value=total)


def _general_network(rng) -> FlowNetwork:
    n = rng.randint(2, 24)
    arcs = []
    for _ in range(rng.randint(0, 70)):
        tail = rng.randrange(0, n - 1)
        head = rng.randrange(1, n)
        if tail != head and tail != n - 1:
            arcs.append((tail, head, rng.randint(0, 5)))
    return FlowNetwork(n, tuple(arcs), source=0, sink=n - 1)


def _layered_network(rng) -> FlowNetwork:
    """source -> A -> B -> sink, shaped like an extension network, plus
    nodes X one layer past B that the sink does not need (depth-3 dead
    ends, some with a longer way on), back arcs B -> A, X -> A and
    A -> A, zero capacities and repeated (parallel) arcs."""
    na, nb, nx = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 3)
    sink = 1 + na + nb + nx
    nodes = {
        "s": [0],
        "A": range(1, 1 + na),
        "B": range(1 + na, 1 + na + nb),
        "X": range(1 + na + nb, sink),
        "t": [sink],
    }
    kinds = ("sA", "AB", "Bt", "BX", "Xt", "XA", "BA", "AA")
    weights = (20, 35, 20, 7, 4, 4, 5, 5)
    arcs = []
    for _ in range(rng.randint(1, 50)):
        if arcs and rng.random() < 0.15:
            arcs.append(rng.choice(arcs))
            continue
        tails, heads = (nodes[c] for c in rng.choices(kinds, weights)[0])
        if tails and heads:
            tail, head = rng.choice(tails), rng.choice(heads)
            if tail != head:
                arcs.append((tail, head, rng.choice((0, 1, 1, 2, 3, 4))))
    return FlowNetwork(sink + 1, tuple(arcs), source=0, sink=sink)


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


def test_max_flow_matches_cursor_walk_reference(monkeypatch):
    import random

    from hyperline import baranyai

    walks = _count_calls(monkeypatch, baranyai, "_cursor_walk_phase")
    rng = random.Random(2024)
    for i in range(2400):
        net = _layered_network(rng) if i % 2 else _general_network(rng)
        assert max_flow(net) == _reference_max_flow(net), net
    # a generic network runs every phase, its first too, as a cursor walk
    assert walks[0] >= 1200, walks

    first_phases = _count_calls(monkeypatch, baranyai, "_first_phase")
    levels = 0
    for big_n in range(2, 10):
        for k in range(2, big_n + 1):
            state = initial_state(big_n, k)
            while state.level < big_n:
                ext = build_extension_network(state)
                net = ext.network
                expected = _reference_max_flow(net)
                assert max_flow(net) == expected, (big_n, k, state.level)
                assert max_flow(ext) == expected, (big_n, k, state.level)
                state = extend(state)
                levels += 1
    assert levels == sum(big_n - 1 for big_n in range(2, 10) for k in range(2, big_n + 1))
    # an extension network's first phase runs as the greedy, once per
    # max_flow(ext) and once more per extend
    assert first_phases[0] == 2 * levels, (first_phases, levels)


def test_extension_max_flow_matches_reference(monkeypatch):
    """max_flow on the per-class form equals the reference Dinic on the
    derived arc network, arc for arc, at every level of 2 <= k <= N <= 12
    and of (14, 7); the greedy alone settles a pinned share of them, so
    both the greedy-only path and the seeded later phases stay covered."""
    from hyperline import baranyai

    bfs_runs = _count_calls(monkeypatch, baranyai, "_levels")
    pairs = [(big_n, k) for big_n in range(2, 13) for k in range(2, big_n + 1)]
    greedy_only = {}
    for big_n, k in pairs + [(14, 7)]:
        state = initial_state(big_n, k)
        settled = 0
        while state.level < big_n:
            ext = build_extension_network(state)
            before = bfs_runs[0]
            flow = max_flow(ext)
            settled += bfs_runs[0] == before
            assert flow == _reference_max_flow(ext.network), (big_n, k, state.level)
            assert flow.value == comb(big_n - 1, k - 1)
            state = extend(state)
        greedy_only[big_n, k] = settled
    assert sum(big_n - 1 for big_n, _ in pairs) == 506
    assert sum(greedy_only[pair] for pair in pairs) == 282
    assert greedy_only[14, 7] == 13  # every level of (14, 7)


def test_extension_network_rejects_negative_multiplicity():
    from hyperline.baranyai import PartitionState

    state = PartitionState(ground_size=3, subset_size=2, level=1, classes=({1: 3, 0: -1},))
    with pytest.raises(InputError, match=r"^class 0 holds set \(\) with negative multiplicity -1$"):
        build_extension_network(state)
    with pytest.raises(InputError):
        extend(state)
    # a full set gets no arc, so its multiplicity is not a capacity
    full = PartitionState(ground_size=3, subset_size=2, level=2, classes=({3: -1, 1: 2, 2: 2},))
    ext = build_extension_network(full)
    assert ext.sets == (1, 2) and ext.rows == (((1, 2, 2), (1, 3, 2)),)


def test_partition_calls_max_flow_once_per_level_from_extend(monkeypatch):
    """Every induction step is one max_flow call made by extend, with value
    C(N-1, k-1): the call path a per-level flow check can wrap."""
    import sys

    from hyperline import baranyai

    calls = []
    original = baranyai.max_flow

    def recorded(net):
        flow = original(net)
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
    for cls in state.classes:
        assert cls == {1: 1, 0: 1}
    assert not state_violations(state)


def test_extension_network_structure_n3_k2():
    state = initial_state(3, 2)
    assert state.class_count == 1
    assert dict(state.classes[0]) == {1: 2, 0: 1}
    ext = build_extension_network(state)
    net = ext.network
    # source, 1 class, B-nodes for {} and {1}, sink
    assert net.node_count == 5
    assert net.arcs[0] == (0, 1, 2)  # source capacity L/N = 2
    # one arc per partial set, capacity = its multiplicity in the class
    middle = [a for a, lab in zip(net.arcs, ext.arc_labels) if lab is not None]
    assert middle == [(1, 2, 1), (1, 3, 2)]
    sink_arcs = [a for a in net.arcs if a[1] == net.sink]
    assert sink_arcs == [(2, 4, 1), (3, 4, 1)]  # C(1,1) for {}, C(1,0) for {1}


def test_extension_network_structure_n4_k2():
    state = initial_state(4, 2)
    ext = build_extension_network(state)
    net = ext.network
    source_arcs = [a for a in net.arcs if a[0] == net.source]
    assert len(source_arcs) == 3  # one per class
    assert all(cap == 1 for _, _, cap in source_arcs)
    labels = [lab for lab in ext.arc_labels if lab is not None]
    assert labels == [(i, mask) for i in range(3) for mask in (0, 1)]  # {} and {1} per class
    sink_by_mask = {}
    growable = sorted({m for cls in state.classes for m in cls})
    for mask, arc in zip(growable, [a for a in net.arcs if a[1] == net.sink]):
        sink_by_mask[mask] = arc[2]
    assert sink_by_mask[0] == comb(2, 1)  # empty set -> 2
    assert sink_by_mask[1] == comb(2, 0)  # {1} -> 1


def test_extend_n3_k2_golden():
    state = extend(initial_state(3, 2))
    assert state.level == 2
    assert dict(state.classes[0]) == {3: 1, 1: 1, 2: 1}  # {1,2}, {1}, {2}
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
    with pytest.raises(InputError):
        extend(state)
    with pytest.raises(InputError):
        build_extension_network(state)


def test_extend_detects_corrupt_state():
    from hyperline.baranyai import InternalContradictionError, PartitionState

    # a legitimate (3, 2) class holds {1} twice and {} once; all empties
    # starves the {1}-node and the flow cannot saturate
    broken = PartitionState(ground_size=3, subset_size=2, level=1, classes=({0: 3},))
    with pytest.raises(InternalContradictionError):
        extend(broken)


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
