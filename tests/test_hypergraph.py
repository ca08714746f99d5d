import pytest
from hypothesis import given, strategies as st

from hyperline import Hypergraph, InputError


@pytest.fixture
def sample():
    return Hypergraph(5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])


def test_degree_counts_incident_edges(sample):
    assert sample.degree(0) == 2
    assert sample.degree(4) == 1


def test_degree_of_isolated_vertex_is_zero():
    assert Hypergraph(3).degree(1) == 0


def test_degree_counts_repeated_edges_separately():
    assert Hypergraph(2, [(0, 1), (0, 1)]).degree(0) == 2


def test_degree_rejects_out_of_range(sample):
    with pytest.raises(InputError):
        sample.degree(5)
    with pytest.raises(InputError):
        sample.degree(-1)


def test_pair_degree(sample):
    assert sample.pair_degree(0, 1) == 2
    assert sample.pair_degree(0, 4) == 0
    assert Hypergraph(2, [(0, 1), (0, 1)]).pair_degree(0, 1) == 2


def test_pair_degree_rejects_equal_vertices(sample):
    with pytest.raises(InputError):
        sample.pair_degree(2, 2)


def test_multiplicity():
    assert Hypergraph(4, [(0, 1, 2), (0, 1, 3)]).multiplicity() == 2
    linear = Hypergraph(5, [(0, 1, 2), (2, 3, 4)])
    assert linear.multiplicity() == 1
    assert linear.is_linear()
    assert Hypergraph(3, [(0,), (1,)]).multiplicity() == 0
    assert Hypergraph(1).multiplicity() == 0


def test_is_k_uniform():
    assert Hypergraph(4, [(0, 1, 2), (1, 2, 3)]).is_k_uniform(3)
    assert not Hypergraph(4, [(0, 1), (1, 2, 3)]).is_k_uniform(2)
    assert Hypergraph(4).is_k_uniform(7)


def test_refuses_negative_vertex_count_and_uniformity_below_one():
    with pytest.raises(InputError, match=r"^vertex count must be nonnegative, got -1$"):
        Hypergraph(-1)
    with pytest.raises(InputError, match=r"^uniformity must be positive, got 0$"):
        Hypergraph(3, [(0, 1)]).is_k_uniform(0)


def test_is_k_uniform_refuses_a_uniformity_that_is_not_an_int():
    """`2.0` would compare equal to every edge size 2 and `True` to none."""
    hg = Hypergraph(3, [(0, 1), (1, 2)])
    for k, shown in ((2.0, "2.0"), (True, "True")):
        with pytest.raises(InputError, match=rf"^k must be an int, got {shown}$"):
            hg.is_k_uniform(k)
    assert hg.is_k_uniform(2)


def test_degree_sequence(sample):
    assert sample.degree_sequence() == [2, 2, 2, 2, 1]
    all_pairs = Hypergraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert all_pairs.degree_sequence() == [3, 3, 3, 3]
    assert Hypergraph(3).degree_sequence() == [0, 0, 0]


def test_construction_normalizes_and_validates():
    hg = Hypergraph(3, [(2, 0, 1)])
    assert hg.edges == ((0, 1, 2),)
    with pytest.raises(InputError):
        Hypergraph(3, [()])
    with pytest.raises(InputError):
        Hypergraph(3, [(0, 0)])
    with pytest.raises(InputError):
        Hypergraph(3, [(0, 3)])


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=0, max_value=8))
    edges = [
        draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n))
        for _ in range(m)
    ]
    return Hypergraph(n, [tuple(sorted(e)) for e in edges])


@given(hypergraphs())
def test_double_counting_degrees_vs_edge_sizes(hg):
    assert sum(hg.degree_sequence()) == sum(len(e) for e in hg.edges)


@given(hypergraphs())
def test_degree_queries_ignore_edge_order(hg):
    reversed_hg = Hypergraph(hg.n, list(reversed(hg.edges)))
    assert hg.degree_sequence() == reversed_hg.degree_sequence()
    assert hg.multiplicity() == reversed_hg.multiplicity()


@given(hypergraphs())
def test_linearity_matches_pairwise_intersections(hg):
    pairwise_small = all(
        len(set(a) & set(b)) <= 1
        for i, a in enumerate(hg.edges)
        for b in hg.edges[i + 1 :]
    )
    assert (hg.multiplicity() <= 1) == pairwise_small
