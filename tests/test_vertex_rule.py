"""The vertex rule: a vertex of an n-vertex `Graph`, `Hypergraph` or
`CliqueCover` is an int, not a bool, in [0, n).  Every vertex query and
every constructor follows it, and a malformed argument is refused with
`InputError`, never with any other exception."""

import random
import re

import pytest

from hyperline import CliqueCover, Graph, Hypergraph, InputError
from hyperline.graph import common_neighborhood, edge_degree
from hyperline.hypergraph import _sorted_entries

PATH = [(0, 1), (1, 2)]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Hypergraph(3, PATH).degree(True), "vertex True outside [0, 3)"),
        (lambda: Hypergraph(3, PATH).degree(0.5), "vertex 0.5 outside [0, 3)"),
        (lambda: Hypergraph(3, PATH).pair_degree(0, 1.0), "vertex 1.0 outside [0, 3)"),
        (lambda: Graph(3, [(True, 2)]), "edge (True, 2) has a vertex outside [0, 3)"),
        (lambda: Graph(3, [(0.0, 1)]), "edge (0.0, 1) has a vertex outside [0, 3)"),
        (lambda: Graph(3, [("0", 1)]), "edge (0, 1) has a vertex outside [0, 3)"),
        (lambda: Hypergraph(3, [(0.0, 1)]), "edge 0 has a vertex outside [0, 3)"),
        (lambda: Hypergraph(3, [("0", 1)]), "edge 0 has a vertex outside [0, 3)"),
        (lambda: Hypergraph(3, [5]), "edge 0 has a vertex outside [0, 3)"),
        (lambda: CliqueCover(3, [(True, 2)]), "cover entry 0 has a vertex outside [0, 3)"),
        (lambda: _sorted_entries(3.0, PATH, "edge"), "n must be an int, got 3.0"),
    ],
    ids=[
        "Hypergraph.degree-bool",
        "Hypergraph.degree-float",
        "Hypergraph.pair_degree-float",
        "Graph-bool-endpoint",
        "Graph-float-endpoint",
        "Graph-str-endpoint",
        "Hypergraph-float-vertex",
        "Hypergraph-str-vertex",
        "Hypergraph-non-iterable-edge",
        "CliqueCover-bool-vertex",
        "_sorted_entries-float-n",
    ],
)
def test_each_site_refuses_what_is_not_a_vertex(build, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        build()


def test_a_family_refused_for_an_int_reason_names_that_reason():
    """The types of a family's vertices are checked after every entry has
    passed the other checks, so a family refused before the vertex rule
    covered bools and floats keeps its message."""
    with pytest.raises(InputError, match=r"^edge 1 repeats vertex 0$"):
        Hypergraph(3, [(0.5, 1), (0, 0)])
    with pytest.raises(InputError, match=r"^cover entry 0 repeats vertex 1$"):
        CliqueCover(3, [(1, True)])
    with pytest.raises(InputError, match=r"^edge 1 has a vertex outside \[0, 3\)$"):
        Hypergraph(3, [(True, 2), (0, 7)])


def _is_vertex(v, n):
    return isinstance(v, int) and not isinstance(v, bool) and v in range(n)


def _draw_vertex(rng, n, junk=0.15):
    """Mostly a vertex; otherwise a value that is not one of an n-vertex
    object, or n itself, or a negative."""
    if n and rng.random() > junk:
        return rng.randrange(n)
    return rng.choice([True, False, 0.0, 1.5, "0", None, [0], -1, -7, n, n + 2])


def _draw_family(rng, n, arity=None):
    """Up to four entries, each a tuple of drawn vertices (pairs when
    `arity` is 2), or now and then an entry that is no tuple of vertices
    (no pair when `arity` is 2); or, seldom, no list at all."""
    if rng.random() < 0.05:
        return rng.choice([5, None, 2.5])
    family = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.08:
            family.append(rng.choice([5, None, 2.5, "01", ()] if arity is None else [5, None, (0,), (0, 1, 2), "01"]))
        else:
            family.append(tuple(_draw_vertex(rng, n) for _ in range(arity or rng.randint(1, 3))))
    return family


def _brute_entries(n, family):
    """What `Hypergraph` and `CliqueCover` store: each entry sorted, or
    None when the family is no list or some entry is not a nonempty set
    of distinct vertices."""
    if not isinstance(family, list):
        return None
    out = []
    for entry in family:
        if not isinstance(entry, tuple) or not entry:
            return None
        if not all(_is_vertex(v, n) for v in entry) or len(set(entry)) < len(entry):
            return None
        out.append(tuple(sorted(entry)))
    return tuple(out)


def _brute_edges(n, family):
    """A `Graph`'s edge list in lexicographic order, or None when the family
    is no list of pairs, or some pair is a self-loop or holds a value that
    is not a vertex."""
    if not isinstance(family, list) or not all(isinstance(e, tuple) and len(e) == 2 for e in family):
        return None
    if not all(_is_vertex(u, n) and _is_vertex(v, n) and u != v for u, v in family):
        return None
    return sorted({(min(u, v), max(u, v)) for u, v in family})


def _draw_n(rng):
    if rng.random() < 0.85:
        return rng.randint(0, 5)
    return rng.choice([-1, 2.0, True, "3", None])


def test_malformed_constructor_arguments_never_escape_as_anything_but_input_error():
    """Seeded draws of vertex counts and edge or entry lists: each valid
    draw builds the value a brute-force normalizer builds, and each other
    one is refused with `InputError`."""
    rng = random.Random(23)
    seen = {"built": 0, "refused": 0}
    for _ in range(3000):
        n = _draw_n(rng)
        count = n if type(n) is int and n >= 0 else None
        family = _draw_family(rng, count or 0)
        pairs = _draw_family(rng, count or 0, arity=2)
        for cls, entries, brute, stored in (
            (Hypergraph, family, _brute_entries, lambda value: value.edges),
            (CliqueCover, family, _brute_entries, lambda value: value.cliques),
            (Graph, pairs, _brute_edges, lambda value: sorted(value.edges())),
        ):
            want = None if count is None else brute(n, entries)
            if want is None:
                with pytest.raises(InputError):
                    cls(n, entries)
                seen["refused"] += 1
            else:
                built = cls(n, entries)
                assert (built.n, stored(built)) == (n, want), (cls, n, entries)
                seen["built"] += 1
    assert min(seen.values()) > 1000, seen


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Hypergraph(3, 5), "edge list must be iterable, got 5"),
        (lambda: CliqueCover(3, None), "cover entry list must be iterable, got None"),
        (lambda: Graph(3, 5), "edge list must be iterable, got 5"),
        (lambda: common_neighborhood(Graph(3), 5), "vertex list must be iterable, got 5"),
        (lambda: Graph(3, [5]), "edge 5 is not a pair"),
        (lambda: Graph(3, [(0, 1, 2)]), "edge (0, 1, 2) is not a pair"),
        (lambda: Graph(3, [(0, 1), (1,)]), "edge (1,) is not a pair"),
    ],
    ids=[
        "Hypergraph-non-iterable",
        "CliqueCover-non-iterable",
        "Graph-non-iterable",
        "common_neighborhood-non-iterable",
        "Graph-non-iterable-edge",
        "Graph-triple",
        "Graph-single",
    ],
)
def test_lists_that_are_not_lists_of_entries_are_named(build, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        build()


def _queries(g, hg):
    """(query, vertex count, brute-force answer) for each vertex query of
    the graph g and the hypergraph hg; query and answer take the query's
    vertices as arguments."""
    edges = set(g.edges())
    adj = {u: {v for v in range(g.n) if (min(u, v), max(u, v)) in edges} for u in range(g.n)}
    return [
        (g.has_edge, 2, lambda u, v: v in adj[u]),
        (g.adjacency_mask, 1, lambda u: sum(1 << w for w in adj[u])),
        (g.neighbors, 1, lambda u: tuple(sorted(adj[u]))),
        (g.degree, 1, lambda u: len(adj[u])),
        (lambda u, v: common_neighborhood(g, [u, v]), 2, lambda u, v: (adj[u] & adj[v]) - {u, v}),
        (lambda u, v: edge_degree(g, u, v), 2, lambda u, v: len(adj[u] & adj[v])),
        (hg.degree, 1, lambda u: sum(u in e for e in hg.edges)),
        (hg.pair_degree, 2, lambda u, v: sum(u in e and v in e for e in hg.edges)),
    ]


def test_vertex_queries_follow_the_vertex_rule():
    """Seeded graphs and hypergraphs, queried with drawn values: a query on
    vertices answers as a brute-force count does, and any other value is
    refused with the text `vertex v outside [0, n)` naming the first."""
    rng = random.Random(23)
    seen = {"answered": 0, "refused": 0}
    for _ in range(300):
        n = rng.randint(1, 5)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
        hg = Hypergraph(n, [tuple(rng.sample(range(n), rng.randint(1, n))) for _ in range(3)])
        for query, arity, brute in _queries(g, hg):
            args = [_draw_vertex(rng, n, junk=0.3) for _ in range(arity)]
            bad = [x for x in args if not _is_vertex(x, n)]
            if bad:
                with pytest.raises(InputError) as refused:
                    query(*args)
                assert str(refused.value) == f"vertex {bad[0]} outside [0, {n})"
                seen["refused"] += 1
                continue
            try:
                answer = query(*args)
            except InputError as exc:  # a pair degree of one vertex, or a non-edge
                assert str(exc) in ("pair degree needs two distinct vertices", f"{tuple(args)} is not an edge")
                continue
            assert answer == brute(*args), (query, args)
            seen["answered"] += 1
    assert min(seen.values()) > 300, seen
