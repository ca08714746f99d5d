import random

import pytest

from hyperline import (
    CliqueCover,
    Graph,
    Hypergraph,
    InputError,
    InternalContradictionError,
    NotAMemberError,
    cover_to_hypergraph,
    line_graph,
    reconstruct,
    validate_cover,
)
from hyperline.graph import maximal_cliques
from hyperline.recognition import krausz_cover, thresholds
from hyperline.reconstruction import hypergraph_to_cover

from conftest import complete_graph, cycle_graph, random_bounded_hypergraph


def sunflower(petals: int, k: int) -> Hypergraph:
    """petals edges of size k sharing exactly one core vertex."""
    edges = []
    nxt = 1
    for _ in range(petals):
        edges.append(tuple([0] + list(range(nxt, nxt + k - 1))))
        nxt += k - 1
    return Hypergraph(nxt, edges)


def test_validate_cover_accepts_triangle():
    assert validate_cover(complete_graph(3), CliqueCover(3, [(0, 1, 2)]), 2, 1)


def test_validate_cover_reports_uncovered_edge():
    diag = validate_cover(cycle_graph(4), CliqueCover(4, [(0, 1), (1, 2), (2, 3)]), 2, 1)
    assert not diag
    assert "edge (0, 3)" in diag.failure


def test_validate_cover_reports_overloaded_vertex():
    g = Graph(3, [(0, 1), (0, 2)])
    diag = validate_cover(g, CliqueCover(3, [(0, 1), (0, 2), (0,)]), 2, 1)
    assert not diag and "vertex 0" in diag.failure


def test_validate_cover_reports_large_intersection():
    diag = validate_cover(complete_graph(3), CliqueCover(3, [(0, 1, 2), (0, 1, 2)]), 2, 1)
    assert not diag
    assert "share 3" in diag.failure


def test_validate_cover_rejects_non_clique_entry():
    with pytest.raises(InputError):
        validate_cover(cycle_graph(4), CliqueCover(4, [(0, 1, 2)]), 2, 1)


def test_validate_cover_refuses_load_below_one_and_a_foreign_cover():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(InputError, match=r"^need k >= 1 and p >= 1, got k=0, p=1$"):
        validate_cover(g, CliqueCover(3, [(0, 1), (1, 2)]), 0, 1)
    with pytest.raises(InputError, match=r"^cover is over 4 vertices, graph has 3$"):
        validate_cover(g, CliqueCover(4, [(0, 1), (1, 2)]), 2, 1)


def test_cover_checks_refuse_non_int_sizes():
    """k and p must be ints, `bool` excluded, for both public cover
    checks; anything else is an input error naming the parameter."""
    g = Graph(3, [(0, 1), (1, 2)])
    cover = CliqueCover(3, [(0, 1), (1, 2)])
    cases = (
        ((2.5, 1), "k", "2.5"),
        ((2, 1.5), "p", "1.5"),
        ((True, 1), "k", "True"),
        (([2], 1), "k", r"\[2\]"),
        ((2, None), "p", "None"),
    )
    for check in (validate_cover, cover_to_hypergraph):
        for (k, p), name, shown in cases:
            with pytest.raises(InputError, match=rf"^{name} must be an int, got {shown}$"):
                check(g, cover, k, p)
    assert validate_cover(g, cover, 2, 1)


def test_clique_cover_refuses_non_int_vertex_count():
    """A cover's n is an int, `bool` excluded, like a Graph's."""
    for n, cliques, shown in ((3.0, [(0, 1)], "3.0"), (True, [(0,)], "True"), ("3", [], "'3'")):
        with pytest.raises(InputError, match=rf"^n must be an int, got {shown}$"):
            CliqueCover(n, cliques)
    assert CliqueCover(3, [(0, 1)]).n == 3


def _krausz_cover(g, t):
    """`krausz_cover` on the big-clique family `recognize` would pass it."""
    return krausz_cover(g, t, maximal_cliques(g, t.clique_size_bound))


def test_krausz_cover_goldens():
    t = thresholds(2, 1)
    assert _krausz_cover(complete_graph(7), t).cliques == ((0, 1, 2, 3, 4, 5, 6),)
    two = Graph(
        14,
        [(u, v) for u in range(7) for v in range(u + 1, 7)]
        + [(u + 7, v + 7) for u in range(7) for v in range(u + 1, 7)],
    )
    assert _krausz_cover(two, t).cliques == (
        tuple(range(7)),
        tuple(range(7, 14)),
    )
    k24 = complete_graph(24)
    cover = _krausz_cover(k24, thresholds(3, 1))
    assert cover.cliques == (tuple(range(24)),)


def test_krausz_cover_raises_on_violated_precondition():
    with pytest.raises(InternalContradictionError):
        _krausz_cover(cycle_graph(4), thresholds(2, 1))


def test_cover_to_hypergraph_triangle_golden():
    hg = cover_to_hypergraph(complete_graph(3), CliqueCover(3, [(0, 1, 2)]), 2, 1)
    assert hg == Hypergraph(4, [(0, 1), (0, 2), (0, 3)])
    assert line_graph(hg) == complete_graph(3)


def test_cover_to_hypergraph_k7_golden():
    hg = cover_to_hypergraph(complete_graph(7), CliqueCover(7, [tuple(range(7))]), 2, 1)
    assert hg.n == 8 and hg.m == 7
    assert all(e[0] == 0 and len(e) == 2 for e in hg.edges)


def test_cover_to_hypergraph_pads_to_uniformity():
    hg = cover_to_hypergraph(Graph(2, [(0, 1)]), CliqueCover(2, [(0, 1)]), 3, 1)
    assert hg == Hypergraph(5, [(0, 1, 2), (0, 3, 4)])
    assert hg.is_k_uniform(3)


def test_cover_to_hypergraph_rejects_invalid_cover():
    with pytest.raises(InputError):
        cover_to_hypergraph(cycle_graph(4), CliqueCover(4, [(0, 1)]), 2, 1)


def test_hypergraph_to_cover_star_golden():
    star = Hypergraph(4, [(0, 1), (0, 2), (0, 3)])
    cover = hypergraph_to_cover(star)
    assert cover.n == 3
    assert cover.cliques == ((0, 1, 2), (0,), (1,), (2,))


def test_hypergraph_to_cover_with_repeated_pair():
    hg = Hypergraph(4, [(0, 1, 2), (0, 1, 3)])
    cover = hypergraph_to_cover(hg)
    assert cover.cliques == ((0, 1), (0, 1), (0,), (1,))
    assert validate_cover(line_graph(hg), cover, 3, 2)


def test_hypergraph_to_cover_edgeless():
    assert hypergraph_to_cover(Hypergraph(3)).cliques == ()


def test_reconstruct_k7():
    hg = reconstruct(complete_graph(7), 2, 1)
    assert hg.n == 8 and hg.m == 7
    assert line_graph(hg) == complete_graph(7)
    assert hg.is_k_uniform(2) and hg.multiplicity() <= 1


def test_reconstruct_sunflower_k24():
    hg = reconstruct(complete_graph(24), 3, 1)
    assert hg.n == 49 and hg.m == 24
    assert line_graph(hg) == complete_graph(24)
    assert hg.is_k_uniform(3) and hg.multiplicity() <= 1


def test_reconstruct_rejects_nonmember():
    with pytest.raises(NotAMemberError) as info:
        reconstruct(Graph(4, [(0, 1), (0, 2), (0, 3)]), 2, 1)
    from hyperline import NonMember

    assert isinstance(info.value.verdict, NonMember)


def test_reconstruct_rejects_inconclusive():
    with pytest.raises(NotAMemberError) as info:
        reconstruct(cycle_graph(5), 2, 1)
    from hyperline import Inconclusive

    assert isinstance(info.value.verdict, Inconclusive)


def test_round_trip_a_random_hypergraphs():
    rng = random.Random(7)
    for k, p in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        for _ in range(60):
            hg = random_bounded_hypergraph(rng, k, p, max_edges=8)
            lg = line_graph(hg)
            cover = hypergraph_to_cover(hg)
            assert validate_cover(lg, cover, k, p)
            rebuilt = cover_to_hypergraph(lg, cover, k, p)
            assert line_graph(rebuilt) == lg
            assert rebuilt.is_k_uniform(k)
            assert rebuilt.multiplicity() <= p


def test_round_trip_b_members():
    for g, k, p in [
        (complete_graph(7), 2, 1),
        (complete_graph(9), 2, 1),
        (complete_graph(17), 2, 2),
        (line_graph(sunflower(24, 3)), 3, 1),
    ]:
        hg = reconstruct(g, k, p)
        assert line_graph(hg) == g
        assert hg.m == g.n


def test_padding_accounting():
    hg = Hypergraph(5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
    lg = line_graph(hg)
    cover = hypergraph_to_cover(hg)
    k = 3
    load = [0] * cover.n
    for entry in cover.cliques:
        for v in entry:
            load[v] += 1
    expected_pads = sum(k - g for g in load)
    rebuilt = cover_to_hypergraph(lg, cover, k, 2)
    assert rebuilt.n == len(cover.cliques) + expected_pads
    assert all(len(e) == k for e in rebuilt.edges)
