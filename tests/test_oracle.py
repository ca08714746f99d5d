import hashlib
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from hyperline import oracle
from hyperline import (
    Claw,
    ClawWitness,
    CliqueCover,
    DivisibilityError,
    F1Witness,
    F2Witness,
    F3Witness,
    Graph,
    Hypergraph,
    InputError,
    Member,
    NonMember,
    ResourceLimitError,
    cover_search,
    line_graph,
    recognize,
    validate_cover,
)
from hyperline.graph import _bits
from hyperline.oracle import (
    COVER_SIZE_BOUND,
    _indexes,
    _pair_index,
    graphs_isomorphic,
    scan_regular_realizability,
)

from conftest import (
    all_graphs,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    random_bounded_hypergraph,
    random_graph,
    verify_witness,
)

ORACLE_COMBOS = ((2, 1), (2, 2), (3, 1), (3, 2))


def _digest(results) -> str:
    """SHA-256 of the covers (None for no cover) as one repr."""
    return hashlib.sha256(
        repr([None if c is None else c.cliques for c in results]).encode()
    ).hexdigest()


def test_cover_search_claw_has_no_cover():
    assert cover_search(Graph(4, [(0, 1), (0, 2), (0, 3)]), 2, 1) is None


def test_cover_search_c5_yields_edge_cliques():
    cover = cover_search(cycle_graph(5), 2, 1)
    assert cover is not None
    assert sorted(cover.cliques) == sorted(tuple(e) for e in cycle_graph(5).edges())
    assert validate_cover(cycle_graph(5), cover, 2, 1)


def test_cover_search_k3_prefers_single_clique():
    cover = cover_search(complete_graph(3), 2, 1)
    assert cover is not None and cover.cliques == ((0, 1, 2),)


def test_cover_search_edgeless_graph_has_empty_cover():
    cover = cover_search(Graph(4), 2, 1)
    assert cover is not None and len(cover) == 0


def test_cover_search_resource_guards():
    with pytest.raises(ResourceLimitError, match=r"^graph has 9 vertices, oracle bound is 8$"):
        cover_search(complete_graph(9), 2, 1)
    with pytest.raises(ResourceLimitError):
        cover_search(complete_graph(6), 3, 2, budget=1)
    with pytest.raises(InputError):
        cover_search(complete_graph(3), 2, 1, budget=0)


def test_cover_search_refuses_non_int_parameters():
    g = complete_graph(3)
    cases = (
        ((2.5, 1), {}, "k", "2.5"),
        ((2, 1.0), {}, "p", "1.0"),
        ((True, 1), {}, "k", "True"),
        ((2, 1), {"budget": 10.0}, "budget", "10.0"),
        ((2, 1), {"budget": None}, "budget", "None"),
    )
    for (k, p), kwargs, name, shown in cases:
        with pytest.raises(InputError, match=rf"^{name} must be an int, got {shown}$"):
            cover_search(g, k, p, **kwargs)


def test_cover_search_refuses_load_below_two():
    with pytest.raises(InputError, match=r"^need k >= 2 and p >= 1, got k=1, p=1$"):
        cover_search(Graph(3, [(0, 1), (1, 2)]), 1, 1)


def _subsets_holding(n: int, u: int, v: int) -> list[tuple[int, ...]]:
    """Every vertex subset of n vertices holding u and v, largest first
    and lexicographic within a size, by filtering all subsets."""
    return [
        vs
        for size in range(n, 1, -1)
        for vs in combinations(range(n), size)
        if u in vs and v in vs
    ]


def test_pair_index_full_slot_lists_every_subset_holding_the_pair():
    """A pair's slot for all other vertices lists every vertex subset
    holding the pair, largest first then lexicographically, with edge
    (u, v) as bit u*n + v of the pair bitmap; kept where the graph has
    every pair of the subset, they are the cliques holding that pair."""
    rng = random.Random(31)
    for n in range(9):
        for density in (0.3, 0.6, 0.9):
            g = random_graph(rng, n, density)
            edges = sum(1 << u * n + v for u, v in g.edges())
            for q in range(1, n + 1):
                index = _pair_index(n, q)
                assert sorted(index) == [1 << u * n + v for u, v in combinations(range(n), 2)]
                for pair, (u, v, by_common) in index.items():
                    assert pair == 1 << u * n + v
                    entries = by_common[(1 << n) - 1 ^ (1 << u | 1 << v)]
                    assert [e[0] for e in entries] == _subsets_holding(n, u, v)
                    for vertices, bitmap, _, _ in entries:
                        assert bitmap == sum(1 << a * n + b for a, b in combinations(vertices, 2))
                    cliques = [
                        vertices
                        for vertices, bitmap, _, _ in entries
                        if bitmap & edges == bitmap
                    ]
                    assert cliques == [
                        vs
                        for vs in _subsets_holding(n, u, v)
                        if all(g.has_edge(a, b) for a, b in combinations(vs, 2))
                    ]


def test_pair_index_overlap_and_load_fields():
    """Each vertex subset has one entry tuple, shared by all its pairs'
    slots.  Two subsets share more than q vertices exactly when their
    (q+1)-subset bitmaps meet, and a subset's load increment holds a 1
    in the 6-bit counter of each of its vertices."""
    for n in range(2, 7):
        for q in range(1, n + 1):
            listed = [
                entry
                for _, _, by_common in _pair_index(n, q).values()
                for entries in by_common
                if entries is not None
                for entry in entries
            ]
            entries = {id(entry): entry for entry in listed}.values()
            assert len(entries) == 2**n - n - 1
            for vertices_a, _, subsets_a, spread in entries:
                assert spread == sum(1 << 6 * v for v in vertices_a)
                for vertices_b, _, subsets_b, _ in entries:
                    shared = len(set(vertices_a) & set(vertices_b))
                    assert (shared > q) == bool(subsets_a & subsets_b)


def test_cover_search_refuses_oversized_graph_before_building_a_table():
    before = dict(_indexes)
    with pytest.raises(ResourceLimitError):
        cover_search(complete_graph(COVER_SIZE_BOUND + 1), 2, 7)
    assert _indexes == before
    assert all(n <= COVER_SIZE_BOUND for n, _ in _indexes)


def _assert_index_slot(n: int, q: int, pair: int, common: int) -> None:
    """The index's list for `pair` and common-neighbourhood mask `common`
    is the pair's full slot, the same tuples in the same order, kept
    where the vertices other than the pair's two lie in `common`."""
    u, v, by_common = _pair_index(n, q)[pair]
    assert pair == 1 << u * n + v
    full = by_common[(1 << n) - 1 ^ (1 << u | 1 << v)]
    expected = [e for e in full if set(e[0]) - {u, v} <= set(_bits(common))]
    listed = by_common[common]
    assert listed == expected
    assert all(a is b for a, b in zip(listed, expected))
    assert [e[0] for e in listed] == [
        vs for vs in _subsets_holding(n, u, v) if set(vs) - {u, v} <= set(_bits(common))
    ]


def test_pair_index_lists_each_pairs_entries_inside_its_common_neighbourhood():
    for n in range(2, 7):
        for q in range(1, n + 1):
            index = _pair_index(n, q)
            for pair, (u, v, by_common) in index.items():
                assert len(by_common) == 1 << n
                for common in range(1 << n):
                    if common & (1 << u | 1 << v):
                        assert by_common[common] is None
                    else:
                        _assert_index_slot(n, q, pair, common)
    rng = random.Random(7)
    for n in (7, 8):
        for q in (1, 2, n):
            pairs = sorted(_pair_index(n, q))
            for pair in rng.sample(pairs, 6):
                u, v, _ = _pair_index(n, q)[pair]
                others = (1 << n) - 1 ^ (1 << u | 1 << v)
                for common in (0, others, *(rng.getrandbits(n) & others for _ in range(6))):
                    _assert_index_slot(n, q, pair, common)
    assert _indexes[(8, 1)] is _pair_index(8, 1)


def test_pair_indexes_are_shared_for_p_at_least_n():
    """Every p >= n uses the one (n, n) index, so the cache holds at most
    one index per (n, min(p, n))."""
    for n in range(2, COVER_SIZE_BOUND + 1):
        for p in (n, n + 1, 2 * n, 100):
            assert cover_search(complete_graph(n), 2, p).cliques == (tuple(range(n)),)
        assert [q for m, q in _indexes if m == n and q >= n] == [n]
    assert all(q <= n <= COVER_SIZE_BOUND for n, q in _indexes)


def _reference_clique_masks(g: Graph) -> list[tuple[int, int]]:
    """(vertex mask, edge bitmap) of every clique with at least 2 vertices,
    largest first and lexicographic within a size, grown level by level."""
    n = g.n
    adj = g._adj
    level = [(1 << u, 0, 1 << u * n, adj[u] >> (u + 1) << (u + 1)) for u in range(n)]
    levels = []
    while level:
        grown = []
        for mask, bitmap, spread, common in level:
            while common:
                low = common & -common
                common ^= low
                w = low.bit_length() - 1
                grown.append(
                    (mask | low, bitmap | spread << w, spread | 1 << w * n, common & adj[w])
                )
        levels.append(grown)
        level = grown
    return [(mask, bitmap) for level in reversed(levels) for mask, bitmap, _, _ in level]


def _reference_cover_search(g: Graph, k: int, p: int):
    """(cover, nodes) of the search with each candidate's overlaps checked
    against the chosen cliques one by one, with no node budget; nodes is
    0 when the graph has no edge and the search does not run."""
    candidates: dict[int, list[tuple[int, int]]] = {}
    for clique in _reference_clique_masks(g):
        bitmap = clique[1]
        while bitmap:
            low = bitmap & -bitmap
            bitmap ^= low
            candidates.setdefault(low, []).append(clique)
    if not candidates:
        return CliqueCover(g.n, []), 0

    depth = min(k, len(candidates))
    chosen: list[int] = []
    nodes = 0

    def search(uncovered: int, loaded: tuple[int, ...]) -> bool:
        nonlocal nodes
        nodes += 1
        if not uncovered:
            return True
        full = loaded[-1]
        for cmask, bitmap in candidates[uncovered & -uncovered]:
            if cmask & full:
                continue
            for prev in chosen:
                if (prev & cmask).bit_count() > p:
                    break
            else:
                chosen.append(cmask)
                below = loaded[0]
                grown = [below | cmask]
                for above in loaded[1:]:
                    grown.append(above | below & cmask)
                    below = above
                if search(uncovered & ~bitmap, tuple(grown)):
                    return True
                chosen.pop()
        return False

    if search(sum(candidates), (0,) * depth):
        return CliqueCover(g.n, [tuple(_bits(cmask)) for cmask in chosen]), nodes
    return None, nodes


def _assert_same_search(g: Graph, k: int, p: int) -> None:
    """Same cover or None as the reference, found within exactly its node count."""
    cover, nodes = _reference_cover_search(g, k, p)
    if nodes == 0:
        assert cover_search(g, k, p, budget=1) == cover
        return
    assert cover_search(g, k, p, budget=nodes) == cover, (g.n, k, p)
    with pytest.raises(ResourceLimitError, match=rf"^cover search exceeded {nodes - 1} nodes$"):
        cover_search(g, k, p, budget=nodes - 1)


def test_cover_search_matches_reference_search_node_for_node():
    for n in range(6):
        for g in all_graphs(n):
            for k, p in ORACLE_COMBOS + ((2, 9),):
                _assert_same_search(g, k, p)
    for g in _seeded_7_and_8_vertex_sample():
        for k, p in ORACLE_COMBOS:
            _assert_same_search(g, k, p)


def test_cover_search_results_pinned():
    results = [
        cover_search(g, k, p)
        for n in range(1, 6)
        for g in all_graphs(n)
        for k, p in ORACLE_COMBOS
    ]
    assert len(results) == 4396
    assert _digest(results) == "0991b8585bfdd70e624589cb8d7cc7066012ad8afd83306a7d19ea1d47978ff5"


def test_cover_search_budget_raise_point_pinned():
    g = Graph(8, [(u, v) for u, v in combinations(range(8), 2) if (u, v) != (1, 2)])
    with pytest.raises(ResourceLimitError, match="exceeded 3867 nodes"):
        cover_search(g, 3, 1, budget=3867)
    assert cover_search(g, 3, 1, budget=3868) is None


def _seeded_7_and_8_vertex_sample() -> list[Graph]:
    """25 seeded random graphs with edges per (n, density), n in (7, 8)."""
    rng = random.Random(2024)
    graphs = []
    for n in (7, 8):
        for density in (0.3, 0.5, 0.7, 0.9):
            for _ in range(25):
                g = random_graph(rng, n, density)
                if g.edge_count:
                    graphs.append(g)
    return graphs


def test_cover_search_agrees_with_recognizer_on_7_and_8_vertices():
    results = []
    for g in _seeded_7_and_8_vertex_sample():
        for k, p in ORACLE_COMBOS:
            cover = cover_search(g, k, p)
            results.append(cover)
            verdict = recognize(g, k, p)
            if isinstance(verdict, (Member, NonMember)):
                assert isinstance(verdict, Member) == (cover is not None), (g.n, k, p)
            if cover is not None:
                assert validate_cover(g, cover, k, p)
    assert len(results) == 800
    assert _digest(results) == "5a8279d972e2a8e822dc02aca461aa3e1aa4f11dbeab33eff65bec282bc47a04"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_relabelling_keeps_verdict_type_and_cover_existence(data):
    """Relabelling keeps the verdict type and whether a cover exists, and
    a NonMember witness mapped through the relabelling is still one."""
    n = data.draw(st.integers(min_value=2, max_value=7))
    pairs = list(combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    perm = data.draw(st.permutations(range(n)))
    k, p = data.draw(st.sampled_from(ORACLE_COMBOS))
    g = Graph(n, edges)
    h = Graph(n, [(perm[u], perm[v]) for u, v in edges])
    verdict, relabelled = recognize(g, k, p), recognize(h, k, p)
    assert type(verdict) is type(relabelled)
    if isinstance(verdict, NonMember):
        verify_witness(h, _relabel_witness(verdict.witness, perm), k, p)
        verify_witness(h, relabelled.witness, k, p)
    assert (cover_search(g, k, p) is None) == (cover_search(h, k, p) is None)


def _relabel_witness(witness, perm):
    """The same structure with vertex v renamed perm[v]; vertex lists stay sorted."""

    def each(vertices):
        return tuple(sorted(perm[v] for v in vertices))

    if isinstance(witness, ClawWitness):
        return ClawWitness(Claw(perm[witness.claw.center], each(witness.claw.leaves)))
    if isinstance(witness, F1Witness):
        a, b = sorted((perm[witness.a], perm[witness.b]))
        return F1Witness(a, b, each(witness.common))
    if isinstance(witness, F2Witness):
        return F2Witness(each(witness.clique), perm[witness.vertex], each(witness.attachment))
    return F3Witness(each(witness.clique_a), each(witness.clique_b), each(witness.shared))


def test_is_member_bruteforce():
    assert cover_search(complete_bipartite(2, 5), 2, 1) is None
    assert cover_search(complete_graph(7), 2, 1) is not None
    rng = random.Random(99)
    for k, p in [(2, 1), (3, 2)]:
        hg = random_bounded_hypergraph(rng, k, p, max_edges=7)
        assert cover_search(line_graph(hg), k, p) is not None


def test_cover_search_found_covers_are_valid():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 6)
        pairs = list(combinations(range(n), 2))
        edges = [e for e in pairs if rng.random() < 0.5]
        g = Graph(n, edges)
        for k, p in [(2, 1), (3, 1)]:
            cover = cover_search(g, k, p)
            if cover is not None:
                assert validate_cover(g, cover, k, p)


def _enumerate_small_hypergraph_match(g: Graph, k: int, p: int, max_vertices: int) -> bool:
    """Direct search for a k-uniform hypergraph with multiplicity <= p whose
    line graph is isomorphic to g; the slow cross-check of the oracle."""
    m = g.n
    base = list(combinations(range(max_vertices), k))

    def grow(chosen: list[tuple[int, ...]], start: int) -> bool:
        if len(chosen) == m:
            hg = Hypergraph(max_vertices, chosen)
            return hg.multiplicity() <= p and graphs_isomorphic(line_graph(hg), g)
        for i in range(start, len(base)):
            chosen.append(base[i])
            if grow(chosen, i):  # allow repeats: same index may be reused
                return True
            chosen.pop()
        return False

    return grow([], 0)


def test_cover_search_agrees_with_direct_hypergraph_enumeration():
    cases = [
        (Graph(4, [(0, 1), (0, 2), (0, 3)]), 2, 1, 8, False),  # claw
        (complete_graph(3), 2, 1, 6, True),
        (Graph(3, [(0, 1), (1, 2)]), 2, 1, 6, True),  # path
    ]
    for g, k, p, bound, expected in cases:
        assert (cover_search(g, k, p) is not None) == expected
        assert _enumerate_small_hypergraph_match(g, k, p, bound) == expected


def test_graphs_isomorphic_examples():
    assert graphs_isomorphic(cycle_graph(4), complete_bipartite(2, 2))
    assert not graphs_isomorphic(complete_graph(3), Graph(3, [(0, 1), (1, 2)]))
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not graphs_isomorphic(cycle_graph(6), two_triangles)


def test_graphs_isomorphic_relabeling():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 7)
        pairs = list(combinations(range(n), 2))
        edges = [e for e in pairs if rng.random() < 0.5]
        g = Graph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n, [(perm[u], perm[v]) for u, v in edges])
        assert graphs_isomorphic(g, h)
        assert graphs_isomorphic(h, g)  # symmetric
        assert graphs_isomorphic(g, g)  # reflexive


def test_graphs_isomorphic_size_guard():
    with pytest.raises(ResourceLimitError):
        graphs_isomorphic(complete_graph(11), complete_graph(11))


def test_scan_regular_realizability_clean():
    report = scan_regular_realizability(6, 4)
    assert report.ok
    assert report.cases == sum(
        comb(big_n - 1, k - 1)
        for big_n in range(2, 7)
        for k in range(2, min(4, big_n) + 1)
    )


def test_scan_reports_each_kind_of_discrepancy(monkeypatch):
    """A construction that goes wrong in each of the four ways the scan
    checks is reported once per case, in scan order.  With n_max = 3 and
    k_max = 3 the cases are (N, k, d) = (2, 2, 1), (3, 2, 1), (3, 2, 2)
    and (3, 3, 1); only (3, 2, 1) has k not dividing dN."""
    wrong = {
        (2, 2, 1): DivisibilityError("refused"),
        (3, 2, 1): Hypergraph(3, [(0, 1)]),
        (3, 2, 2): Hypergraph(3, [(0, 1, 2), (0, 1, 2)]),  # degree 2, not 2-uniform
        (3, 3, 1): Hypergraph(3, [(0, 1, 2), (0, 1, 2)]),  # 3-uniform, degree 2
    }

    def regular_hypergraph(big_n, k, d):
        result = wrong[(big_n, k, d)]
        if isinstance(result, Exception):
            raise result
        return result

    monkeypatch.setattr(oracle, "regular_hypergraph", regular_hypergraph)
    report = scan_regular_realizability(3, 3)
    assert report.cases == 4 and not report.ok
    assert report.discrepancies == (
        "N=2 k=2 d=1: rejected but k divides dN",
        "N=3 k=2 d=1: built but k does not divide dN",
        "N=3 k=2 d=2: edges are not 2-uniform",
        "N=3 k=3 d=1: degree sequence is not constant 1",
    )


def test_scan_rejects_bad_bounds():
    with pytest.raises(InputError):
        scan_regular_realizability(1, 2)
    with pytest.raises(InputError):
        scan_regular_realizability(13, 2)
    for args, name, shown in (((6.0, 4), "n_max", "6.0"), ((6, True), "k_max", "True"), (([6], 4), "n_max", r"\[6\]")):
        with pytest.raises(InputError, match=rf"^{name} must be an int, got {shown}$"):
            scan_regular_realizability(*args)


def _double_edge_swap(rng: random.Random, g: Graph) -> Graph | None:
    """g with edges (a, b), (c, d) replaced by (a, d), (c, b), for a seeded
    choice where that keeps the graph simple; None when no swap is found."""
    edges = list(g.edges())
    present = set(edges)
    for _ in range(20):
        if len(edges) < 2:
            return None
        (a, b), (c, d) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, d = d, c
        new = (min(a, d), max(a, d)), (min(c, b), max(c, b))
        if len({a, b, c, d}) == 4 and not present & set(new):
            kept = present - {(min(a, b), max(a, b)), (min(c, d), max(c, d))}
            return Graph(g.n, sorted(kept | set(new)))
    return None


def test_graphs_isomorphic_matches_networkx():
    """Seeded pairs of up to 10 vertices: relabelled copies, degree-
    preserving double-edge swaps (with C6 against two triangles), and
    independent graphs with equal edge counts."""
    nx = pytest.importorskip("networkx")

    def as_networkx(g: Graph):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        return h

    rng = random.Random(22)
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    pairs = [(cycle_graph(6), two_triangles, "swap")]
    for _ in range(400):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.choice((0.2, 0.4, 0.6, 0.8)))
        perm = list(range(n))
        rng.shuffle(perm)
        relabelled = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
        pairs.append((g, relabelled, "relabel"))
        swapped = _double_edge_swap(rng, relabelled)
        if swapped is not None:
            pairs.append((g, swapped, "swap"))
        chosen = rng.sample(list(combinations(range(n), 2)), g.edge_count)
        pairs.append((g, Graph(n, chosen), "random"))
    outcomes = set()
    for g, h, kind in pairs:
        expected = nx.is_isomorphic(as_networkx(g), as_networkx(h))
        assert graphs_isomorphic(g, h) == expected, (g, h)
        assert graphs_isomorphic(h, g) == expected, (h, g)
        outcomes.add((kind, expected))
    # Relabelled copies are always isomorphic; the other two kinds give both answers.
    assert outcomes == {
        ("relabel", True),
        ("swap", True),
        ("swap", False),
        ("random", True),
        ("random", False),
    }
