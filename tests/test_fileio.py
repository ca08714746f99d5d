import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from hyperline import Graph, Hypergraph, InputError, ResourceLimitError, baranyai_partition, fileio
from hyperline.fileio import (
    READ_SIZE_BOUND,
    _read_graph_bulk,
    _read_graph_lines,
    read_graph,
    read_hypergraph,
    read_partition,
    write_graph,
    write_hypergraph,
    write_partition,
)

from conftest import DENSITY_CAPS, graph_from_mask, random_graph


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
    text = "# repeated edges ahead\n" + write_hypergraph(hg)
    assert text.startswith("# repeated edges ahead\n")
    assert read_hypergraph(text) == hg


def _written():
    """(writer, text, value, reader) for every writer: edgeless
    hypergraphs, hypergraphs with and without repeated edges, graphs of 0
    to 200 vertices at several densities, and partitions."""
    rng = random.Random(27)
    hypergraphs = [
        Hypergraph(0, []),
        Hypergraph(5, []),
        Hypergraph(3, [(0, 1), (0, 1), (1, 2), (0, 1)]),
        Hypergraph(6, [(0, 2, 4), (1, 3, 5), (0, 2, 4)]),
        Hypergraph(4, [(0, 1, 2, 3)]),
    ]
    out = [("write_hypergraph", write_hypergraph(hg), hg, read_hypergraph) for hg in hypergraphs]
    for n in (0, 1, 2, 7, 50, 200):
        for density in (0.0, 0.05, 0.5, 1.0):
            g = random_graph(rng, n, density)
            out.append(("write_graph", write_graph(g), g, read_graph))
    for big_n, k in ((2, 2), (4, 2), (6, 3), (8, 3)):
        classes = baranyai_partition(big_n, k)
        text = write_partition(classes, big_n, k)
        out.append(("write_partition", text, (big_n, k, classes), read_partition))
    return out


def test_writers_emit_no_comment_or_blank_line_and_read_back_equal():
    written = _written()
    assert {writer for writer, _, _, _ in written} == {
        name for name in dir(fileio) if name.startswith("write_")
    }
    for writer, text, value, reader in written:
        lines = text.split("\n")
        assert lines.pop() == "", (writer, text)  # every line ends in "\n"
        assert all(line.strip() and "#" not in line for line in lines), (writer, text)
        assert reader(text) == value, writer


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("H 3 1\n0 1 7\n", "line 2: edge 0 has a vertex outside [0, 3)"),
        ("H 3 2\n0 1\n-1 2\n", "line 3: edge 1 has a vertex outside [0, 3)"),
        # A range fault names its own line, not a later line's order fault.
        ("H 3 2\n0 1 7\n2 0\n", "line 2: edge 0 has a vertex outside [0, 3)"),
        ("H 3 1\n1 7 1\n", "line 2: edge must be strictly increasing"),
        ("H -1 1\n0\n", "vertex count must be nonnegative, got -1"),
    ],
)
def test_hypergraph_reader_names_the_line_at_fault(text, message):
    with pytest.raises(InputError) as info:
        read_hypergraph(text)
    assert str(info.value) == message


def test_graph_round_trip():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert read_graph(write_graph(g)) == g


def test_graph_format_layout():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert write_graph(g) == "G 4 3\n0 1\n0 2\n0 3\n"


def test_graph_writer_matches_the_edge_list_at_every_density():
    """Sparse rows take their heads by splitting the digits at the ones,
    dense rows by `compress`; both must list the edges in order."""
    rng = random.Random(5)
    for density in (0.01, 0.05, 0.12, 0.13, 0.3, 0.9):
        n = rng.randrange(40, 200)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])
        expected = f"G {n} {g.edge_count}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges()))
        assert write_graph(g) == expected


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


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("B 4 2 1\nS 0 1\n5 5\n", 3),  # repeated element, outside [1, N]
        ("B 4 2 1\nS 0 1\n2 1\n", 3),  # decreasing
        ("B 4 2 1\nS 0 1\n0 9\n", 3),  # both ends outside [1, N]
        ("B 4 2 1\nS 0 1\n1 5\n", 3),  # above N
        ("B 4 2 1\nS 0 1\n-1 2\n", 3),  # below 1
        ("B -3 2 1\nS 0 1\n1 2\n", 1),  # negative N
        ("B 4 -2 1\nS 0 1\n1 2\n", 1),  # negative k
        ("B 4 2 -1\n", 1),  # negative class count
        ("B 4 2 1\nS 0 -1\n", 2),  # negative class size
    ],
)
def test_partition_rejects_malformed_sets_and_counts(text, lineno):
    with pytest.raises(InputError, match=rf"^line {lineno}: "):
        read_partition(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("B 4 2 2\nS 0 2\n1 2\nS 1 1\n3 4\n", "line 4: previous class is short 1 sets"),
        ("B 4 2 1\nS 0\n", "line 2: expected 'S <i> <count>'"),
        (
            "B 4 2 3\nS 0 2\n1 2\n3 4\nS 1 2\n1 3\n2 4\n",
            "header promises 3 classes, file has 2",
        ),
    ],
)
def test_partition_rejects_short_classes_bad_class_lines_and_missing_classes(text, message):
    with pytest.raises(InputError, match=rf"^{re.escape(message)}$"):
        read_partition(text)


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


def _layouts(text: str) -> list[str]:
    """The same .gr content in the layouts the format allows."""
    lines = text.splitlines()
    return [
        text,
        text.rstrip("\n"),
        "\r\n".join(lines) + "\r\n",
        "\n".join(line.replace(" ", "\t") for line in lines),
        "\n".join(f"  {line}  \t" for line in lines) + "\n",
        "\n\n" + "\n \n".join(lines) + "\n\t\n",
        "\n".join(line + "\n" * (i % 4) for i, line in enumerate(lines)),
        "\n\n\n\n".join(lines),
        "\r".join(lines) + "\x0c\x0b\x1c\x1d\x1e",
        "# leading comment\n" + "\n".join(f"{line} # note {i}" for i, line in enumerate(lines)),
        "\n".join(line.replace(" ", "  ") + "\n#" for line in lines),
    ]


def test_read_graph_matches_line_reader_on_valid_texts():
    """Every layout reads as the line reader reads it; the bulk pass takes
    the writer's canonical layout and gives the same graph on any other
    layout it takes."""
    rng = random.Random(4242)
    graphs = [Graph(0), Graph(3), Graph(2, [(0, 1)])]
    # More vertices than tokens: the bulk pass parses these with `int`
    # rather than through its table of vertex names.
    graphs += [Graph(40, [(0, 39)]), Graph(1000, [(3, 997), (5, 6)])]
    graphs += [random_graph(rng, rng.randint(1, cap), density) for density, cap in DENSITY_CAPS]
    for g in graphs:
        canonical = write_graph(g)
        assert _read_graph_bulk(canonical) == g, canonical
        for text in _layouts(canonical):
            assert read_graph(text) == _read_graph_lines(text) == g, text
            assert _read_graph_bulk(text) in (None, g), text


def test_both_readers_agree_on_signed_and_padded_integers():
    """A signed or zero-padded token misses the bulk pass's table of
    vertex names, so that text is left to the line reader; with n above
    the token count the bulk pass parses with `int` and takes it."""
    text = "G 4 2\n+0 1\n0 003\n"
    g = Graph(4, [(0, 1), (0, 3)])
    assert _read_graph_bulk(text) is None
    assert read_graph(text) == _read_graph_lines(text) == g
    text = "G 9 1\n+0 008\n"
    g = Graph(9, [(0, 8)])
    assert _read_graph_bulk(text) == g
    assert read_graph(text) == _read_graph_lines(text) == g


def test_read_graph_peak_stays_within_the_masks_on_a_sparse_large_graph():
    """On 2^20 vertices and at most one edge, `read_graph` allocates the
    adjacency list and its tuple and no table of 2^20 vertex names."""
    n = 1 << 20
    bound = 2 * sys.getsizeof([0] * n) + (1 << 20)
    for text, g in [(f"G {n} 0\n", Graph(n)), (f"G {n} 1\n0 {n - 1}\n", Graph(n, [(0, n - 1)]))]:
        tracemalloc.start()
        try:
            read = read_graph(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read == _read_graph_bulk(text) == g
        assert peak <= bound, (text, peak, bound)


def _failure(reader, text):
    with pytest.raises((InputError, ResourceLimitError)) as info:
        reader(text)
    return type(info.value), str(info.value)


MALFORMED_GRAPHS = {
    "": "empty graph file",
    "# only a comment\n\n": "empty graph file",
    "G 3\n": "line 1: expected header 'G <n> <medges>'",
    "H 3 0\n": "line 1: expected header 'G <n> <medges>'",
    "G 3 1 0 1\n": "line 1: expected header 'G <n> <medges>'",
    "G 3 1\n0 1 2\n": "line 2: expected 'u v'",
    "G 3 2\n0 1 2\n1\n": "line 2: expected 'u v'",
    "G 3 1\n0\n": "line 2: expected 'u v'",
    "G 3 1\n0 x\n": "line 2: expected integers, got 0 x",
    "G 3 x\n": "line 1: expected integers, got 3 x",
    "G 11 1\n0 1_0\n": "line 2: expected integers, got 0 1_0",
    "G 3 1\n0 \u0661\n": "line 2: expected integers, got 0 \u0661",
    "G 3 1\n0 1.0\n": "line 2: expected integers, got 0 1.0",
    "G 3 2\n0 1\n0 1\n": "line 3: edge 0 1 repeats the previous edge; "
    "edges must be distinct and in lexicographic order",
    "G 3 2\n0 2\n0 1\n": "line 3: edge 0 1 comes before the previous edge; "
    "edges must be distinct and in lexicographic order",
    "G 3 2\n1 2\r\n0 2\r\n": "line 3: edge 0 2 comes before the previous edge; "
    "edges must be distinct and in lexicographic order",
    "G 3 1\n1 1\n": "line 2: edges must satisfy u < v",
    "G 3 1\n2 1\n": "line 2: edges must satisfy u < v",
    "G 3 1\n0 3\n": "line 2: edge (0, 3) has a vertex outside [0, 3)",
    "G 3 1\n-1 2\n": "line 2: edge (-1, 2) has a vertex outside [0, 3)",
    # A fault on the last of several edges, one for each way an edge can fail.
    "G 4 3\n0 1\n1 2\n2 2\n": "line 4: edges must satisfy u < v",
    "G 4 3\n0 1\n1 2\n3 2\n": "line 4: edges must satisfy u < v",
    "G 4 3\n0 1\n1 2\n2 4\n": "line 4: edge (2, 4) has a vertex outside [0, 4)",
    # A range fault names its own line, not a later line's order fault.
    "G 3 2\n0 5\n2 1\n": "line 2: edge (0, 5) has a vertex outside [0, 3)",
    "G 4 3\n0 1\n1 2\n-1 11\n": "line 4: edge -1 11 comes before the previous edge; "
    "edges must be distinct and in lexicographic order",
    "G 4 3\n0 1\n1 2\n1 2\n": "line 4: edge 1 2 repeats the previous edge; "
    "edges must be distinct and in lexicographic order",
    "G 4 3\n0 2\n1 3\n1 2\n": "line 4: edge 1 2 comes before the previous edge; "
    "edges must be distinct and in lexicographic order",
    "G -1 0\n": "vertex count must be nonnegative, got -1",
    "G -1 1\n0 1\n": "vertex count must be nonnegative, got -1",
    f"G {READ_SIZE_BOUND + 1} 0\n": f"line 1: header declares {READ_SIZE_BOUND + 1} vertices, "
    f"reader bound is {READ_SIZE_BOUND}",
    "G 3 2\n0 1\n": "header promises 2 edges, file has 1",
    "G 5 2\n0 1 2 3 4\n": "header promises 2 edges, file has 1",
    "G 3 1\n0 1\n1 2\n": "header promises 1 edges, file has 2",
    "G 3 1\n0 1\r1 2\n": "header promises 1 edges, file has 2",
    "G 3 1\n0 1 \u00a7\n": "line 2: expected 'u v'",
}
# Each ASCII line break other than "\n" ends a line, so "0<break>1" is two lines.
MALFORMED_GRAPHS.update(
    {f"G 3 1\n0{brk}1\n": "header promises 1 edges, file has 2" for brk in "\r\v\f\x1c\x1d\x1e"}
)


@pytest.mark.parametrize("text", list(MALFORMED_GRAPHS))
def test_malformed_graph_texts_fail_alike_on_both_paths(text):
    """The bulk pass declines every malformed text, and `read_graph`
    raises exactly what the line reader raises."""
    assert _read_graph_bulk(text) is None
    assert _failure(read_graph, text) == _failure(_read_graph_lines, text)
    assert _failure(read_graph, text)[1] == MALFORMED_GRAPHS[text]


def test_integer_beyond_the_conversion_limit_is_an_input_error():
    huge = "9" * 5000
    for text, message in [
        (f"G {huge} 0\n", f"line 1: expected integers, got {huge} 0"),
        (f"G 2 1\n0 {huge}\n", f"line 2: expected integers, got 0 {huge}"),
    ]:
        assert _read_graph_bulk(text) is None
        assert _failure(read_graph, text) == _failure(_read_graph_lines, text) == (InputError, message)


@pytest.mark.parametrize(
    "reader, text",
    [
        (read_hypergraph, "H 3 1\n0 \u0661\n"),
        (read_hypergraph, "H 11 1\n0 1_0\n"),
        (read_partition, "B 4 2 1\nS 0 1\n1 \uff12\n"),
        (read_partition, "B 4 2 1\nS 0 1\n1 +_2\n"),
        (read_hypergraph, "H 3 1\n0 0x1\n"),
        (read_graph, "G 3 1\n0 1e3\n"),
        (read_partition, "B 4 2 1\nS 0 1\n1 --1\n"),
    ],
)
def test_integer_tokens_are_ascii_decimal(reader, text):
    with pytest.raises(InputError, match="line [23]: expected integers, got "):
        reader(text)


def _outcome(reader, text):
    try:
        return reader(text)
    except (InputError, ResourceLimitError) as exc:
        return type(exc), str(exc)


def test_read_graph_matches_line_reader_on_mutated_texts():
    """Seeded edits of valid texts: whatever the line reader returns or
    raises, `read_graph` returns or raises the same."""
    rng = random.Random(777)
    alphabet = "0123456789  \t\n\n\r#_+-G\x0b\x1fx"
    taken = 0
    for _ in range(3000):
        g = random_graph(rng, rng.randint(1, 9), rng.choice((0.2, 0.5, 0.8)))
        # Half the edits start from the canonical layout, the one the bulk
        # pass takes, so that many edited texts still reach it.
        text = write_graph(g) if rng.random() < 0.5 else rng.choice(_layouts(write_graph(g)))
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            if rng.random() < 0.5:
                text = text[:at] + text[at + 1 :]
            else:
                text = text[:at] + rng.choice(alphabet) + text[at:]
        assert _outcome(read_graph, text) == _outcome(_read_graph_lines, text), text
        taken += _read_graph_bulk(text) is not None
    assert taken >= 150, taken
