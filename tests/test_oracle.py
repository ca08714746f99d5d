import hashlib
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from hyperline import (
    Claw,
    ClawWitness,
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
from hyperline.oracle import _clique_masks, graphs_isomorphic, scan_regular_realizability

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


def test_clique_masks_match_subset_enumeration():
    """Every vertex subset that is a clique of size >= 2, ordered largest
    first then lexicographically, with edge (u, v) as bit u*n + v."""
    rng = random.Random(31)
    for n in range(9):
        for density in (0.3, 0.6, 0.9):
            g = random_graph(rng, n, density)
            expected = []
            for size in range(n, 1, -1):
                for vs in combinations(range(n), size):
                    if all(g.has_edge(u, v) for u, v in combinations(vs, 2)):
                        mask = sum(1 << v for v in vs)
                        bitmap = sum(1 << u * n + v for u, v in combinations(vs, 2))
                        expected.append((mask, bitmap))
            assert _clique_masks(g) == expected


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


def test_cover_search_agrees_with_recognizer_on_7_and_8_vertices():
    rng = random.Random(2024)
    results = []
    for n in (7, 8):
        for density in (0.3, 0.5, 0.7, 0.9):
            for _ in range(25):
                g = random_graph(rng, n, density)
                if g.edge_count == 0:
                    continue
                for k, p in ORACLE_COMBOS:
                    cover = cover_search(g, k, p)
                    results.append(cover)
                    verdict = recognize(g, k, p)
                    if isinstance(verdict, (Member, NonMember)):
                        assert isinstance(verdict, Member) == (cover is not None), (n, k, p)
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


def test_scan_rejects_bad_bounds():
    with pytest.raises(InputError):
        scan_regular_realizability(1, 2)
    with pytest.raises(InputError):
        scan_regular_realizability(13, 2)
