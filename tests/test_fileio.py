import pytest
from hypothesis import given, strategies as st

from hyperline import Graph, Hypergraph, InputError, ResourceLimitError, baranyai_partition
from hyperline.fileio import (
    READ_SIZE_BOUND,
    read_graph,
    read_hypergraph,
    read_partition,
    write_graph,
    write_hypergraph,
    write_partition,
)

from conftest import graph_from_mask


def test_hypergraph_round_trip():
    hg = Hypergraph(5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
    assert read_hypergraph(write_hypergraph(hg)) == hg


def test_hypergraph_format_layout():
    hg = Hypergraph(3, [(0, 1), (1, 2)])
    assert write_hypergraph(hg) == "H 3 2\n0 1\n1 2\n"


def test_hypergraph_comments_and_blanks_ignored():
    text = "# a triangle of pairs\nH 3 3\n\n0 1  # first\n1 2\n0 2\n"
    assert read_hypergraph(text) == Hypergraph(3, [(0, 1), (1, 2), (0, 2)])


def test_hypergraph_note_comments_survive_round_trip():
    hg = Hypergraph(2, [(0, 1), (0, 1)])
    text = write_hypergraph(hg, notes=("repeated edges ahead",))
    assert text.startswith("# repeated edges ahead\n")
    assert read_hypergraph(text) == hg


def test_hypergraph_rejects_malformed():
    with pytest.raises(InputError):
        read_hypergraph("")
    with pytest.raises(InputError):
        read_hypergraph("H 3\n")
    with pytest.raises(InputError):
        read_hypergraph("H 3 2\n0 1\n")
    with pytest.raises(InputError):
        read_hypergraph("H 3 1\n1 0\n")
    with pytest.raises(InputError):
        read_hypergraph("H 3 1\n0 x\n")


def test_graph_round_trip():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert read_graph(write_graph(g)) == g


def test_graph_format_layout():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert write_graph(g) == "G 4 3\n0 1\n0 2\n0 3\n"


def test_graph_rejects_malformed():
    with pytest.raises(InputError):
        read_graph("G 4 1\n1 1\n")
    with pytest.raises(InputError):
        read_graph("G 4 1\n2 1\n")
    with pytest.raises(InputError):
        read_graph("G 4 2\n0 1\n")
    with pytest.raises(InputError):
        read_graph("H 4 0\n")


def test_graph_rejects_repeated_edge_line():
    with pytest.raises(InputError, match="line 3: edge 0 1 repeats the previous edge"):
        read_graph("G 2 2\n0 1\n0 1\n")


def test_graph_rejects_edge_lines_out_of_order():
    with pytest.raises(InputError, match="line 4: edge 0 3 comes before the previous edge"):
        read_graph("G 4 3\n0 1\n1 2\n0 3\n")
    with pytest.raises(InputError, match="line 4: edge 0 1 comes before"):
        read_graph("# comment lines keep their numbers\nG 4 2\n0 2  # x\n0 1\n")


def test_header_vertex_count_above_bound_is_refused_before_allocating():
    # At 10**10 vertices an allocation would need tens of GB; the guard fires first.
    with pytest.raises(ResourceLimitError, match="line 2: header declares 10000000000 vertices"):
        read_graph("# huge\nG 10000000000 0\n")
    with pytest.raises(ResourceLimitError, match="header declares 10000000000 vertices"):
        read_hypergraph("H 10000000000 0\n")
    with pytest.raises(ResourceLimitError):
        read_hypergraph(f"H {READ_SIZE_BOUND + 1} 0\n")
    assert read_hypergraph(f"H {READ_SIZE_BOUND} 1\n0 1\n").n == READ_SIZE_BOUND


def test_partition_round_trip():
    classes = baranyai_partition(5, 2)
    text = write_partition(classes, 5, 2)
    assert read_partition(text) == (5, 2, classes)


def test_partition_format_layout():
    classes = [[(1, 2), (3, 4)], [(1, 3), (2, 4)]]
    assert (
        write_partition(classes, 4, 2)
        == "B 4 2 2\nS 0 2\n1 2\n3 4\nS 1 2\n1 3\n2 4\n"
    )


def test_partition_rejects_malformed():
    with pytest.raises(InputError):
        read_partition("B 4 2 1\nS 0 2\n1 2\n")
    with pytest.raises(InputError):
        read_partition("B 4 2 1\nS 1 1\n1 2\n")
    with pytest.raises(InputError):
        read_partition("B 4 2 1\n1 2\n")
    with pytest.raises(InputError):
        read_partition("B 4 2 1\nS 0 1\n1 2 3\n")


@given(st.integers(min_value=0, max_value=6), st.randoms(use_true_random=False))
def test_graph_round_trip_random(n, rng):
    pairs = n * (n - 1) // 2
    g = graph_from_mask(n, rng.getrandbits(pairs) if pairs else 0)
    assert read_graph(write_graph(g)) == g


@given(st.randoms(use_true_random=False))
def test_hypergraph_round_trip_random(rng):
    n = rng.randint(1, 9)
    edges = []
    for _ in range(rng.randint(0, 8)):
        size = rng.randint(1, n)
        edges.append(tuple(sorted(rng.sample(range(n), size))))
    hg = Hypergraph(n, edges)
    assert read_hypergraph(write_hypergraph(hg)) == hg
