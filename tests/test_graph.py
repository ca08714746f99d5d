import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from hyperline import (
    Claw,
    Graph,
    Hypergraph,
    InputError,
    line_graph,
    regular_hypergraph,
)
from hyperline.fileio import write_graph
from hyperline import graph
from hyperline.graph import (
    _bits,
    _cliques_from,
    _core,
    _fewer_parts,
    _grow_clique,
    _met_at_least,
    common_neighborhood,
    edge_degree,
    find_claw,
    maximal_cliques,
    min_edge_degree,
)
from hyperline.recognition import thresholds

from conftest import (
    DENSITY_CAPS,
    all_graphs,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    graph_from_mask,
    line_graph_family,
    random_graph,
)


def test_graph_rejects_bad_edges():
    with pytest.raises(InputError):
        Graph(3, [(0, 0)])
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])


def test_vertex_counts_must_be_ints():
    """A vertex count that is not an int, `bool` included, is refused by
    `Graph` and `Hypergraph` before any edge is read."""
    for n, shown in ((3.0, "3.0"), (True, "True"), ("3", "'3'")):
        with pytest.raises(InputError, match=rf"^n must be an int, got {shown}$"):
            Graph(n, [(0, 1)])
        with pytest.raises(InputError, match=rf"^n must be an int, got {shown}$"):
            Hypergraph(n, [(0, 1)])
    with pytest.raises(InputError, match=r"^n must be an int, got True$"):
        Graph(True, [])


def test_from_adjacency_masks_stores_a_tuple():
    """A list of masks makes the same hashable value as the edge list."""
    g = Graph.from_adjacency_masks([2, 1])
    assert g == Graph(2, [(0, 1)]) and g.n == 2
    assert hash(g) == hash(Graph(2, [(0, 1)]))
    masks = (6, 5, 3)
    assert Graph.from_adjacency_masks(masks)._adj is masks


def test_line_graph_of_triangle_is_k3():
    assert line_graph(Hypergraph(3, [(0, 1), (1, 2), (0, 2)])) == complete_graph(3)


def test_line_graph_of_path():
    lg = line_graph(Hypergraph(4, [(0, 1), (1, 2), (2, 3)]))
    assert lg == Graph(3, [(0, 1), (1, 2)])


def test_line_graph_by_hand_intersection_check():
    hg = Hypergraph(5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
    expected_adj = [
        (i, j)
        for i in range(3)
        for j in range(i + 1, 3)
        if set(hg.edges[i]) & set(hg.edges[j])
    ]
    assert line_graph(hg) == Graph(3, expected_adj)
    assert line_graph(hg) == complete_graph(3)


def test_line_graph_repeated_edges_are_adjacent():
    lg = line_graph(Hypergraph(2, [(0, 1), (0, 1)]))
    assert lg.has_edge(0, 1)


def _random_hypergraph(rng: random.Random) -> Hypergraph:
    """Edges of size 1..5 on up to 30 vertices, some repeated, so that
    isolated vertices, singleton edges and duplicate edges all occur."""
    n = rng.randint(0, 30)
    edges = []
    for _ in range(rng.randint(0, 60) if n else 0):
        edge = tuple(sorted(rng.sample(range(n), rng.randint(1, min(n, 5)))))
        edges.append(edge)
        if rng.random() < 0.2:
            edges.append(edge)
    return Hypergraph(n, edges)


def test_line_graph_matches_pairwise_reference():
    rng = random.Random(2024)
    for _ in range(300):
        hg = _random_hypergraph(rng)
        sets = [set(e) for e in hg.edges]
        expected = [
            (i, j)
            for i in range(len(sets))
            for j in range(i + 1, len(sets))
            if sets[i] & sets[j]
        ]
        assert line_graph(hg) == Graph(hg.m, expected), hg


def _bit_loop_write_graph(g: Graph) -> str:
    """The writer that walks every set bit of every row."""
    names = [str(v) for v in range(g.n)]
    rows = [f"G {g.n} {g.edge_count}\n"]
    for u in range(g.n):
        above = g.adjacency_mask(u) >> (u + 1)
        while above:
            low = above & -above
            rows.append(f"{names[u]} {names[u + low.bit_length()]}\n")
            above ^= low
    return "".join(rows)


def _row_graph(n: int, rows: dict[int, list[int]]) -> Graph:
    return Graph(n, [(u, v) for u, heads in rows.items() for v in heads])


def test_write_graph_matches_per_edge_reference():
    rng = random.Random(2025)
    graphs = [Graph(0), Graph(1), Graph(5, [(0, 4)]), complete_graph(9), complete_graph(40)]
    graphs += [line_graph(_random_hypergraph(rng)) for _ in range(100)]
    for density, cap in DENSITY_CAPS:
        graphs += [random_graph(rng, rng.randint(0, cap), density) for _ in range(10)]
    # vertex 0's row spans 64 vertices: 8 set bits take the compress side
    # of the one-in-eight cut, 7 the bit loop
    dense, sparse = [1 + 8 * i for i in range(7)] + [64], [1 + 9 * i for i in range(7)] + [64]
    graphs += [_row_graph(65, {0: dense}), _row_graph(65, {0: sparse, 3: dense[1:], 60: [61, 64]})]
    # names crossing 9 -> 10, 99 -> 100 and 999 -> 1000, in dense and sparse rows
    graphs.append(
        _row_graph(
            1006,
            {
                5: list(range(6, 21)),
                8: [9, 10, 500],
                95: list(range(96, 106)),
                99: [100, 1000],
                995: list(range(996, 1006)),
                998: [999, 1000, 1005],
            },
        )
    )
    graphs += [line_graph(regular_hypergraph(12, 6, 231)), line_graph(regular_hypergraph(100, 2, 60))]
    for g in graphs:
        reference = "".join(f"{u} {v}\n" for u, v in g.edges())
        assert write_graph(g) == f"G {g.n} {g.edge_count}\n" + reference == _bit_loop_write_graph(g)


def test_line_graph_vertex_count_is_edge_count():
    hg = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])
    lg = line_graph(hg)
    assert lg.n == 3 and lg.edge_count == 0


def test_edge_degree():
    assert edge_degree(complete_graph(4), 0, 1) == 2
    assert edge_degree(cycle_graph(5), 0, 1) == 0
    assert edge_degree(complete_graph(7), 3, 5) == 5
    with pytest.raises(InputError):
        edge_degree(cycle_graph(5), 0, 2)


def test_min_edge_degree():
    assert min_edge_degree(complete_graph(7)) == 5
    assert min_edge_degree(cycle_graph(5)) == 0
    pendant = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])
    assert min_edge_degree(pendant) == 0
    with pytest.raises(InputError):
        min_edge_degree(Graph(3))


def test_common_neighborhood():
    assert common_neighborhood(cycle_graph(4), [0, 2]) == frozenset({1, 3})
    assert common_neighborhood(complete_graph(4), [0]) == frozenset({1, 2, 3})
    k25 = complete_bipartite(2, 5)
    assert common_neighborhood(k25, [0, 1]) == frozenset({2, 3, 4, 5, 6})
    with pytest.raises(InputError):
        common_neighborhood(cycle_graph(4), [])


def test_common_neighborhood_refuses_a_vertex_outside_the_graph():
    with pytest.raises(InputError, match=r"^vertex 3 outside \[0, 3\)$"):
        common_neighborhood(Graph(3, [(0, 1), (1, 2)]), [0, 3])
    with pytest.raises(InputError, match=r"^vertex True outside \[0, 3\)$"):
        common_neighborhood(Graph(3, [(0, 1), (1, 2)]), [True])


@pytest.mark.parametrize(
    "query, at_one",
    [
        (lambda g, v: g.has_edge(v, 0), True),
        (lambda g, v: g.has_edge(0, v), True),
        (lambda g, v: g.adjacency_mask(v), 0b101),
        (lambda g, v: g.neighbors(v), (0, 2)),
        (lambda g, v: g.degree(v), 2),
        (lambda g, v: edge_degree(g, v, 0), 1),
    ],
    ids=["has_edge-first", "has_edge-second", "adjacency_mask", "neighbors", "degree", "edge_degree"],
)
def test_vertex_queries_refuse_a_vertex_outside_the_graph(query, at_one):
    """On a triangle, negative vertices, vertices past the end and
    vertices that are not ints, `bool` included, are refused rather than
    indexed; vertex 1 gets its answer."""
    triangle = complete_graph(3)
    for v, shown in ((-1, "-1"), (3, "3"), (5, "5"), (True, "True"), (1.0, "1.0"), ("0", "0")):
        with pytest.raises(InputError, match=rf"^vertex {shown} outside \[0, 3\)$"):
            query(triangle, v)
    assert query(triangle, 1) == at_one


def test_maximal_cliques_goldens():
    assert maximal_cliques(complete_graph(4)) == [(0, 1, 2, 3)]
    assert maximal_cliques(cycle_graph(4)) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    bowtie = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert maximal_cliques(bowtie) == [(0, 1, 2), (2, 3, 4)]
    assert maximal_cliques(Graph(3)) == [(0,), (1,), (2,)]
    assert maximal_cliques(bowtie, 3) == [(0, 1, 2), (2, 3, 4)]
    assert maximal_cliques(bowtie, 4) == []
    assert maximal_cliques(complete_graph(4), 4) == [(0, 1, 2, 3)]
    assert maximal_cliques(complete_graph(4), 5) == []
    k4_pendant = Graph(5, list(combinations(range(4), 2)) + [(3, 4)])
    assert maximal_cliques(k4_pendant, 2) == [(0, 1, 2, 3), (3, 4)]
    assert maximal_cliques(k4_pendant, 3) == [(0, 1, 2, 3)]
    assert maximal_cliques(cycle_graph(4), 3) == []
    assert maximal_cliques(Graph(3), 2) == []


def test_maximal_cliques_refuses_a_min_size_that_is_not_an_int():
    """`True` would be taken as 1 and 2.5 compared as a number; '3' and
    None would escape as a bare TypeError from the comparison."""
    path = Graph(3, [(0, 1), (1, 2)])
    for min_size, shown in (("3", "'3'"), (None, "None"), (2.5, "2.5"), (True, "True")):
        with pytest.raises(InputError, match=rf"^min_size must be an int, got {shown}$"):
            maximal_cliques(path, min_size)
    assert maximal_cliques(path, 2) == [(0, 1), (1, 2)]


def test_find_claw_goldens():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert find_claw(star, 3) == find_claw(star, 3)
    assert find_claw(star, 3).center == 0
    assert find_claw(star, 3).leaves == (1, 2, 3)
    assert find_claw(complete_graph(5), 2) is None
    hexagon = find_claw(cycle_graph(6), 2)
    assert hexagon is not None and hexagon.center == 0 and hexagon.leaves == (1, 5)


def test_find_claw_refuses_claw_size_below_one():
    with pytest.raises(InputError, match=r"^claw size must be positive, got 0$"):
        find_claw(Graph(3, [(0, 1), (1, 2)]), 0)


def test_find_claw_refuses_a_claw_size_that_is_not_an_int():
    """`True` would be taken as 1 and 3.0 as 3."""
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    for r, shown in ((True, "True"), (3.0, "3.0"), ("3", "'3'")):
        with pytest.raises(InputError, match=rf"^r must be an int, got {shown}$"):
            find_claw(star, r)
    assert find_claw(star, 3) == Claw(0, (1, 2, 3))


def _claw_oracle(g: Graph, r: int) -> bool:
    """Exhaustive search over centers and r-subsets of neighborhoods."""
    for center in range(g.n):
        nbrs = g.neighbors(center)
        for leaves in combinations(nbrs, r):
            if all(not g.has_edge(a, b) for a, b in combinations(leaves, 2)):
                return True
    return False


def test_find_claw_matches_exhaustive_oracle_small():
    for n in range(1, 5):
        for g in all_graphs(n):
            for r in (2, 3):
                assert (find_claw(g, r) is not None) == _claw_oracle(g, r)


@given(st.integers(min_value=5, max_value=8), st.randoms(use_true_random=False))
def test_find_claw_matches_exhaustive_oracle_random(n, rng):
    pairs = n * (n - 1) // 2
    g = graph_from_mask(n, rng.getrandbits(pairs))
    for r in (2, 3, 4):
        claw = find_claw(g, r)
        assert (claw is not None) == _claw_oracle(g, r)
        if claw is not None:
            assert g.n > claw.center >= 0
            assert all(g.has_edge(claw.center, leaf) for leaf in claw.leaves)
            assert all(
                not g.has_edge(a, b) for a, b in combinations(claw.leaves, 2)
            )


def _first_claw_reference(g: Graph, r: int) -> Claw | None:
    """First center, then the first pairwise non-adjacent r-combination of
    its sorted neighbors."""
    for center in range(g.n):
        for leaves in combinations(sorted(g.neighbors(center)), r):
            if all(not g.has_edge(a, b) for a, b in combinations(leaves, 2)):
                return Claw(center, leaves)
    return None


def test_find_claw_matches_first_claw_reference():
    """Every graph on at most 6 vertices for r = 2..5, seeded random
    graphs, stars whose neighborhoods hold just below and just above twice
    the leaves needed (where the clique-partition bound starts to be
    tried), split into r - 1 cliques (no claw) or r (a claw), and the
    family near line graphs."""
    for n in range(1, 7):
        for g in all_graphs(n):
            for r in range(2, 6):
                assert find_claw(g, r) == _first_claw_reference(g, r), (g, r)
    for r in range(2, 6):
        for count in range(2 * r - 2, 2 * r + 2):
            for parts in (r - 1, r):
                groups = [range(1 + i, count + 1, parts) for i in range(parts)]
                star = [(0, v) for v in range(1, count + 1)]
                g = Graph(count + 1, star + [e for grp in groups for e in combinations(grp, 2)])
                expected = Claw(0, tuple(range(1, r + 1))) if parts == r else None
                assert find_claw(g, r) == _first_claw_reference(g, r) == expected, (g, r)
    rng = random.Random(3141)
    for density, cap in DENSITY_CAPS:
        for _ in range(8):
            g = random_graph(rng, rng.randint(1, cap), density)
            for r in range(1, 6):
                assert find_claw(g, r) == _first_claw_reference(g, r), (g, r)
    for k, _p, g in line_graph_family():
        if g.n <= 40:
            assert find_claw(g, k + 1) == _first_claw_reference(g, k + 1), (g, k)


def _independence_below(adj: tuple[int, ...], cand: int, r: int) -> bool:
    """Whether no r vertices of cand are pairwise non-adjacent."""
    members = list(_bits(cand))
    return not any(
        all(not adj[a] >> b & 1 for a, b in combinations(leaves, 2))
        for leaves in combinations(members, r)
    )


def test_clique_partition_passes_are_sound():
    """Whenever the greedy partitions of a candidate mask into cliques,
    highest-first or lowest-first, find fewer than r parts, no r
    candidates are pairwise non-adjacent, for r up to 5: on the whole
    vertex set of every graph of at most 6 vertices, which covers their
    neighbourhoods too, since a pass reads only the candidates' adjacency
    and order, and on each neighbourhood of seeded random graphs at each
    density."""
    rng = random.Random(4242)
    graphs = [g for n in range(2, 7) for g in all_graphs(n)]
    graphs += [
        random_graph(rng, rng.randint(2, cap), density)
        for density, cap in DENSITY_CAPS
        for _ in range(4)
    ]
    checked = 0
    for g in graphs:
        adj = g._adj
        masks = {(1 << g.n) - 1} if g.n <= 6 else set(adj)
        for cand in masks:
            for r in range(2, min(cand.bit_count(), 5) + 1):
                if _fewer_parts(adj, cand, r):
                    checked += 1
                    assert _independence_below(adj, cand, r), (g, cand, r)
    assert checked > 10_000


# Centre 0 of each gadget sees two cliques joined by two crossing edges,
# so it has no 3-claw.  The highest-first partition of the first
# gadget's neighbourhood finds the two cliques, so the centre is never
# opened; both partitions of the second split one clique in two, so the
# search walks its centre.
_HIGH_ONLY_GADGET = Graph(
    9,
    [(0, v) for v in range(1, 9)]
    + list(combinations((1, 7, 8), 2))
    + list(combinations(range(2, 7), 2))
    + [(1, 3), (3, 8)],
)
_OPEN_GADGET = Graph(
    8,
    [(0, v) for v in range(1, 8)]
    + [(1, 7)]
    + list(combinations(range(2, 7), 2))
    + [(1, 3), (5, 7)],
)


def test_claw_gadgets_match_first_claw_reference():
    """`find_claw` agrees with the exhaustive reference on each gadget,
    with the gadget alone and with a pendant leaf that turns centre 0
    into a claw, whether the partitions settle its centre or not."""
    for g, settled in ((_HIGH_ONLY_GADGET, True), (_OPEN_GADGET, False)):
        assert _fewer_parts(g._adj, g._adj[0], 3) is settled
        assert _first_claw_reference(g, 3) is None
        pendant = Graph(g.n + 1, list(g.edges()) + [(0, g.n)])
        for h in (g, pendant):
            for r in (2, 3, 4):
                assert find_claw(h, r) == _first_claw_reference(h, r), (h, r)


def _bounded_hypergraph(rng: random.Random, nh: int, k: int, p: int, m: int) -> Hypergraph:
    """m random k-sets of range(nh), each rejected when it would put some
    vertex pair in more than p edges."""
    used: dict[tuple[int, ...], int] = {}
    edges: list[tuple[int, ...]] = []
    while len(edges) < m:
        e = tuple(sorted(rng.sample(range(nh), k)))
        if any(used.get(pair, 0) >= p for pair in combinations(e, 2)):
            continue
        for pair in combinations(e, 2):
            used[pair] = used.get(pair, 0) + 1
        edges.append(e)
    return Hypergraph(nh, edges)


def _tally_bounds(monkeypatch, r: int, graphs) -> Counter:
    """Run `find_claw(g, r)` on each graph, counting for each call of the
    partition bound whether it was made for a centre (r leaves needed)
    or a level below one, and whether it settled it or let it open.  The
    bound is only ever asked about at least twice as many candidates as
    leaves needed."""
    tally: Counter = Counter()

    def counted(adj, cand, need):
        assert cand.bit_count() >= 2 * need
        settled = _fewer_parts(adj, cand, need)
        tally["centre" if need == r else "level", "settled" if settled else "opened"] += 1
        return settled

    monkeypatch.setattr(graph, "_fewer_parts", counted)
    for g in graphs:
        claw = find_claw(g, r)
        tally["claw" if claw else "none"] += 1
    return tally


def test_find_claw_on_certify_sized_line_graphs(monkeypatch):
    """Line graphs of seeded linear 3-uniform hypergraphs with 100 to 130
    edges have no 4-claw; this pins how many of their centres and levels
    the partition bound settles and how many it opens (too large for the
    exhaustive reference)."""
    rng = random.Random(1913)
    graphs = [
        line_graph(_bounded_hypergraph(rng, 40 + (m - 100) // 6, 3, 1, m))
        for m in (100, 110, 120, 130)
    ]
    assert _tally_bounds(monkeypatch, 4, graphs) == {
        "none": 4,
        ("centre", "settled"): 426, ("centre", "opened"): 34,
        ("level", "settled"): 458, ("level", "opened"): 21,
    }


def test_one_rule_settles_centres_and_levels(monkeypatch):
    """On seeded dense graphs the centre and the levels below it share
    one bound; the claws found match the first-claw reference, and the
    counts of centres and levels settled and opened are pinned."""
    rng = random.Random(3141)
    graphs = [
        random_graph(rng, rng.randint(1, cap), density)
        for density, cap in DENSITY_CAPS
        for _ in range(20)
    ]
    for r in (3, 4):
        for g in graphs:
            assert find_claw(g, r) == _first_claw_reference(g, r), (g, r)
    assert _tally_bounds(monkeypatch, 3, graphs) == {
        "claw": 77, "none": 43,
        ("centre", "settled"): 53, ("centre", "opened"): 50,
        ("level", "opened"): 32,
    }
    assert _tally_bounds(monkeypatch, 4, graphs) == {
        "claw": 54, "none": 66,
        ("centre", "settled"): 94, ("centre", "opened"): 38,
        ("level", "settled"): 1, ("level", "opened"): 26,
    }


def test_maximal_cliques_min_size_matches_filter():
    """On graphs near line graphs, where the size floor cuts most branches,
    it keeps exactly the maximal cliques that reach it."""
    for k, p, g in line_graph_family():
        cliques = maximal_cliques(g)
        largest = max(len(c) for c in cliques)
        for s in (1, 2, thresholds(k, p).clique_size_bound, largest, largest + 1):
            assert maximal_cliques(g, s) == [c for c in cliques if len(c) >= s], (g, s)


def _maximal_cliques_reference(g: Graph, min_size: int = 1) -> list[tuple[int, ...]]:
    """One frame per branch vertex, with the pivot from `_pivot`: the
    enumeration `maximal_cliques` had before it reported frames whose
    candidates form a clique whole.  All inclusion-maximal cliques with
    at least `min_size` vertices, each sorted, listed lexicographically.

    Pivoted Bron-Kerbosch on bitmasks (Tomita-Tanaka-Takahashi pivot: the
    vertex of P|X with the most neighbors in P, lowest index on ties),
    driven by an explicit stack so a clique of any size is found without
    recursion.  Isolated vertices show up as singleton cliques.  Every
    clique a frame can still report lies inside R|P, so a frame whose
    clique size plus candidate count falls below `min_size` is dropped
    unexpanded; with the default every maximal clique is listed.
    """
    adj = g._adj
    if not g.n:
        return []
    found: list[int] = []
    # Each frame is (r, size, p, x, todo): the clique so far and its size,
    # its candidates, its excluded vertices, and the branch vertices not
    # yet expanded.
    full = (1 << g.n) - 1
    stack = [(0, 0, full, 0, full & ~adj[_pivot(adj, full, 0)])]
    while stack:
        r, size, p, x, todo = stack.pop()
        if not todo:
            continue
        low = todo & -todo
        v = low.bit_length() - 1
        rest = p & ~low
        if size + rest.bit_count() >= min_size:
            stack.append((r, size, rest, x | low, todo ^ low))
        nv = adj[v]
        r, size, p, x = r | low, size + 1, p & nv, x & nv
        if size + p.bit_count() >= min_size:
            if p:
                stack.append((r, size, p, x, p & ~adj[_pivot(adj, p, x)]))
            elif not x:
                found.append(r)
    return sorted(tuple(_bits(m)) for m in found)


def _pivot(adj: tuple[int, ...], p: int, x: int) -> int:
    """Vertex of p|x with the most neighbors in p, lowest index on ties."""
    pivot = -1
    best = -1
    rest = p | x
    while rest:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        cnt = (adj[u] & p).bit_count()
        if cnt > best:
            best = cnt
            pivot = u
    return pivot


def _planted(rng: random.Random, g: Graph, gadget: list[tuple[int, int]], size: int) -> Graph:
    """The disjoint union of g and a gadget on `size` vertices, under a
    random relabelling of all the vertices."""
    labels = list(range(g.n + size))
    rng.shuffle(labels)
    edges = list(g.edges()) + [(g.n + a, g.n + b) for a, b in gadget]
    return Graph(g.n + size, [(labels[a], labels[b]) for a, b in edges])


def _certify_sized_graphs() -> list[tuple[int, Graph]]:
    """(clique bound, graph) for line graphs of seeded bounded hypergraphs
    on 100-240 vertices, each alone, with a vertex attached to p*k + 1
    vertices of a planted clique of the bound's size (F2), and with two
    planted cliques of that size sharing p + 1 vertices (F3)."""
    rng = random.Random(2718)
    out = []
    for nh, k, p, m in ((30, 2, 1, 105), (48, 2, 1, 240), (40, 3, 1, 100), (45, 3, 1, 130), (14, 2, 2, 126)):
        g = line_graph(_bounded_hypergraph(rng, nh, k, p, m))
        bound = thresholds(k, p).clique_size_bound
        attach = list(combinations(range(bound), 2))
        attach += [(v, bound) for v in rng.sample(range(bound), p * k + 1)]
        second = range(bound - p - 1, 2 * bound - p - 1)
        overlap = list(combinations(range(bound), 2))
        overlap += [e for e in combinations(second, 2) if e[0] >= bound or e[1] >= bound]
        out += [
            (bound, g),
            (bound, _planted(rng, g, attach, bound + 1)),
            (bound, _planted(rng, g, overlap, 2 * bound - p - 1)),
        ]
    return out


def test_maximal_cliques_matches_one_frame_per_vertex_reference():
    """Whole-frame reports against the plain frame walk: every graph on at
    most 6 vertices, seeded random graphs at each density, and the family
    near line graphs, at size floors below, at and above the largest
    clique; then certify-sized line graphs, alone and with an F2
    attachment or an F3 overlap planted at the big-clique size, at size
    floors 1, the clique bound and the largest clique."""
    rng = random.Random(577)
    graphs = [g for n in range(7) for g in all_graphs(n)]
    graphs += [
        random_graph(rng, rng.randint(1, cap), density)
        for density, cap in DENSITY_CAPS
        for _ in range(6)
    ]
    graphs += [g for _k, _p, g in line_graph_family()]
    for g in graphs:
        cliques = _maximal_cliques_reference(g)
        largest = max((len(c) for c in cliques), default=0)
        for s in sorted({1, 2, 4, 8, 10, largest, largest + 1}):
            expected = [c for c in cliques if len(c) >= s]
            assert maximal_cliques(g, s) == expected, (g, s)
    for bound, g in _certify_sized_graphs():
        cliques = _maximal_cliques_reference(g)
        largest = max(len(c) for c in cliques)
        assert 100 <= g.n <= 240 + 2 * bound and largest >= bound
        for s in sorted({1, bound, largest}):
            assert maximal_cliques(g, s) == [c for c in cliques if len(c) >= s], (g.n, s)


def _core_reference(g: Graph, t: int) -> int:
    """Remove one vertex with fewer than t neighbours left at a time."""
    left = set(range(g.n))
    while True:
        low = [v for v in left if len(left & set(g.neighbors(v))) < t]
        if not low:
            return sum(1 << v for v in left)
        left.remove(low[0])


def test_frame_loop_grower_and_core_from_a_start():
    """Run from the frame R = {y}, P = N(y) or R = {u, w}, P = N(u) & N(w),
    the frame loop lists the maximal cliques that hold R, at size floors 1
    and 4; the clique grown from {u, w} is one of them; `_core` keeps what
    peeling one vertex at a time keeps."""
    rng = random.Random(3102)
    graphs = [
        random_graph(rng, rng.randint(1, cap), density)
        for density, cap in DENSITY_CAPS
        for _ in range(4)
    ]
    graphs += [g for _k, _p, g in line_graph_family()[::7]]
    for g in graphs:
        adj = g._adj
        cliques = maximal_cliques(g)
        for s in (1, 4):
            for y in range(g.n):
                listed = _cliques_from(adj, 1 << y, 1, adj[y], s)
                assert sorted(tuple(_bits(m)) for m in listed) == [
                    c for c in cliques if y in c and len(c) >= s
                ], (g, y, s)
        for u, w in g.edges():
            pair, common = 1 << u | 1 << w, adj[u] & adj[w]
            through = [c for c in cliques if u in c and w in c]
            assert sorted(tuple(_bits(m)) for m in _cliques_from(adj, pair, 2, common, 1)) == through
            assert tuple(_bits(_grow_clique(adj, pair, common))) in through
        for t in (1, 2, 3, 5):
            assert _core(adj, (1 << g.n) - 1, t) == _core_reference(g, t), (g, t)


def _met_at_least_reference(g: Graph, members: int, t: int, scope: int) -> int:
    """Per-vertex popcount of the row against the members."""
    out = 0
    for v in range(g.n):
        if scope >> v & 1 and (g.adjacency_mask(v) & members).bit_count() >= t:
            out |= 1 << v
    return out


def test_met_at_least_matches_per_vertex_count():
    """The bit-sliced threshold count against a popcount per vertex, for
    t = 1..12 (below, at and above each plane count), random member and
    scope masks, and the neighbourhoods F1 counts over."""
    rng = random.Random(1729)
    graphs = [
        random_graph(rng, rng.randint(1, cap), density)
        for density, cap in DENSITY_CAPS
        for _ in range(4)
    ]
    graphs += [g for _k, _p, g in line_graph_family()]
    for g in graphs:
        full = (1 << g.n) - 1
        adj = tuple(g.adjacency_mask(v) for v in range(g.n))
        member_masks = [rng.getrandbits(g.n) for _ in range(3)] + [full]
        member_masks += [adj[v] for v in rng.sample(range(g.n), min(3, g.n))]
        for members in member_masks:
            for t in range(1, 13):
                for scope in (full, rng.getrandbits(g.n)):
                    expected = _met_at_least_reference(g, members, t, scope)
                    assert _met_at_least(adj, members, t, scope) == expected, (g, members, t)


@given(st.integers(min_value=2, max_value=7), st.randoms(use_true_random=False))
def test_maximal_cliques_properties(n, rng):
    pairs = n * (n - 1) // 2
    g = graph_from_mask(n, rng.getrandbits(pairs))
    cliques = maximal_cliques(g)
    for c in cliques:
        assert all(g.has_edge(a, b) for a, b in combinations(c, 2))
    for i, a in enumerate(cliques):
        for j, b in enumerate(cliques):
            if i != j:
                assert not set(a) <= set(b)
    covered = set()
    for c in cliques:
        covered.update(c)
    assert covered == set(range(n))
    for size in range(1, n + 1):
        for vs in combinations(range(n), size):
            if all(g.has_edge(a, b) for a, b in combinations(vs, 2)):
                assert any(set(vs) <= set(c) for c in cliques)


@given(st.integers(min_value=2, max_value=7), st.randoms(use_true_random=False))
def test_edge_degree_equals_common_neighborhood(n, rng):
    pairs = n * (n - 1) // 2
    g = graph_from_mask(n, rng.getrandbits(pairs))
    for u, v in g.edges():
        assert edge_degree(g, u, v) == len(common_neighborhood(g, [u, v]))


@given(st.integers(min_value=2, max_value=7), st.randoms(use_true_random=False))
def test_line_graph_degree_formula_for_simple_graphs(n, rng):
    """For a 2-uniform linear hypergraph, the line-graph degree of edge
    {a, b} is d(a) + d(b) - 2."""
    pairs = n * (n - 1) // 2
    mask = rng.getrandbits(pairs)
    edges = [pair for i, pair in enumerate(combinations(range(n), 2)) if mask >> i & 1]
    hg = Hypergraph(n, edges)
    lg = line_graph(hg)
    degs = hg.degree_sequence()
    for i, (a, b) in enumerate(hg.edges):
        assert lg.degree(i) == degs[a] + degs[b] - 2
