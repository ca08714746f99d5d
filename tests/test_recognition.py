import hashlib
import random
import re
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from hyperline import (
    Claw,
    ClawWitness,
    CliqueCover,
    F1Witness,
    F2Witness,
    F3Witness,
    Graph,
    Hypergraph,
    Inconclusive,
    InputError,
    Member,
    NonMember,
    line_graph,
    recognize,
    validate_cover,
)
from hyperline.graph import maximal_cliques
from hyperline import recognition
from hyperline.recognition import (
    check_claw,
    check_f1,
    check_f2,
    check_f3,
    krausz_cover,
    thresholds,
)

from conftest import (
    DENSITY_CAPS,
    all_graphs,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    line_graph_family,
    random_bounded_hypergraph,
    random_graph,
    verify_witness,
)


def test_thresholds_goldens():
    t = thresholds(2, 1)
    assert (t.edge_degree_bound, t.clique_size_bound) == (5, 4)
    t = thresholds(3, 1)
    assert (t.edge_degree_bound, t.clique_size_bound) == (22, 8)
    t = thresholds(2, 2)
    assert (t.edge_degree_bound, t.clique_size_bound) == (15, 10)


def test_thresholds_ordering_and_validation():
    for k in range(2, 7):
        for p in range(1, 5):
            t = thresholds(k, p)
            assert t.edge_degree_bound >= t.clique_size_bound
    # thresholds is memoised: an invalid pair raises on every call, and
    # a value equal to an int but of another type is refused, even once
    # the int's entry is cached
    assert type(thresholds(2, 1).edge_degree_bound) is int
    for _ in range(2):
        with pytest.raises(InputError):
            thresholds(1, 1)
        with pytest.raises(InputError):
            thresholds(3, 0)
        with pytest.raises(InputError, match=r"^k must be an int, got 2\.0$"):
            thresholds(2.0, 1)
        with pytest.raises(InputError, match=r"^p must be an int, got True$"):
            thresholds(2, True)
    assert thresholds(3, 2) is thresholds(3, 2)


def test_recognize_refuses_non_int_sizes():
    g = Graph(3, [(0, 1), (1, 2)])
    for k, p, name in ((2.5, 1, "k"), (2, 1.5, "p"), (True, 1, "k"), (2, "1", "p")):
        with pytest.raises(InputError, match=rf"^{name} must be an int, got "):
            recognize(g, k, p)


def test_unhashable_sizes_raise_input_error():
    """The cache behind `thresholds` hashes its arguments before its int
    check runs; an unhashable k or p still raises InputError, both through
    `thresholds` and through `recognize`, on every call."""
    g = Graph(3, [(0, 1), (1, 2)])
    for bad in ([2], {2: 1}, {2}):
        for _ in range(2):
            for call in (thresholds, lambda k, p: recognize(g, k, p)):
                with pytest.raises(InputError, match=rf"^k must be an int, got {re.escape(repr(bad))}$"):
                    call(bad, 1)
                with pytest.raises(InputError, match=rf"^p must be an int, got {re.escape(repr(bad))}$"):
                    call(2, bad)


def _big(g: Graph, t) -> list[tuple[int, ...]]:
    """The big maximal cliques, as `recognize` passes them to the checks."""
    return maximal_cliques(g, t.clique_size_bound)


def test_check_claw():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    w = check_claw(star, thresholds(2, 1))
    assert isinstance(w, ClawWitness) and len(w.claw.leaves) == 3
    assert check_claw(complete_graph(7), thresholds(2, 1)) is None
    assert check_claw(star, thresholds(3, 1)) is None


def test_check_f1():
    t = thresholds(2, 1)
    w = check_f1(complete_bipartite(2, 5), t)
    assert isinstance(w, F1Witness)
    assert (w.a, w.b) == (0, 1)
    assert w.common == (2, 3, 4, 5, 6)
    assert check_f1(cycle_graph(5), t) is None
    assert check_f1(complete_graph(6), t) is None


def test_check_f2():
    t = thresholds(2, 1)
    k4_attached = Graph(
        5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 0), (4, 1), (4, 2)]
    )
    w = check_f2(k4_attached, t, _big(k4_attached, t))
    assert isinstance(w, F2Witness)
    assert w.clique == (0, 1, 2, 3) and w.vertex == 4
    assert w.attachment == (0, 1, 2)
    assert check_f2(complete_graph(7), t, _big(complete_graph(7), t)) is None
    two_attached = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 0), (4, 1)])
    assert check_f2(two_attached, t, _big(two_attached, t)) is None


def test_check_f3():
    t = thresholds(2, 1)
    sharing_two = Graph(
        6,
        list(combinations([0, 1, 2, 3], 2)) + list(combinations([2, 3, 4, 5], 2)),
    )
    w = check_f3(t, _big(sharing_two, t))
    assert isinstance(w, F3Witness)
    assert w.clique_a == (0, 1, 2, 3) and w.clique_b == (2, 3, 4, 5)
    assert w.shared == (2, 3)
    sharing_one = Graph(
        7,
        [(a, b) for a, b in combinations([0, 1, 2, 3], 2)]
        + [(a, b) for a, b in combinations([3, 4, 5, 6], 2)],
    )
    assert check_f3(t, _big(sharing_one, t)) is None
    disjoint = Graph(
        8,
        [(a, b) for a, b in combinations([0, 1, 2, 3], 2)]
        + [(a, b) for a, b in combinations([4, 5, 6, 7], 2)],
    )
    assert check_f3(t, _big(disjoint, t)) is None


def test_recognize_member_k7():
    verdict = recognize(complete_graph(7), 2, 1)
    assert isinstance(verdict, Member)
    assert verdict.cover.cliques == ((0, 1, 2, 3, 4, 5, 6),)
    assert validate_cover(complete_graph(7), verdict.cover, 2, 1)


def test_recognize_deep_clique_is_member():
    verdict = recognize(complete_graph(1100), 2, 1)
    assert isinstance(verdict, Member)
    assert verdict.cover.cliques == (tuple(range(1100)),)


def test_recognize_claw_nonmember():
    verdict = recognize(Graph(4, [(0, 1), (0, 2), (0, 3)]), 2, 1)
    assert isinstance(verdict, NonMember)
    assert isinstance(verdict.witness, ClawWitness)
    assert verdict.witness.claw.center == 0
    assert verdict.witness.claw.leaves == (1, 2, 3)


def test_recognize_inconclusive_c5():
    verdict = recognize(cycle_graph(5), 2, 1)
    assert isinstance(verdict, Inconclusive)
    assert verdict.min_edge_degree == 0 and verdict.required == 5


def test_recognize_deep_claw_is_nonmember():
    """A star with 1 200 leaves holds a claw far deeper than the
    interpreter's recursion limit; the leaf search runs on its own stack."""
    star = Graph(1201, [(0, v) for v in range(1, 1201)])
    verdict = recognize(star, 1199, 1)
    assert verdict == NonMember(ClawWitness(Claw(0, tuple(range(1, 1201)))))
    verify_witness(star, verdict.witness, 1199, 1)


def _record_checks(
    monkeypatch,
    names=("check_f1", "check_claw", "maximal_cliques", "check_f2", "check_f3", "krausz_cover"),
) -> list:
    """Wrap the checks `recognize` calls, and `maximal_cliques`, or the
    given names of `recognition`, so each call is recorded in order as
    (name, args, result)."""
    calls = []
    for name in names:
        def wrapper(*args, _name=name, _fn=getattr(recognition, name)):
            result = _fn(*args)
            calls.append((_name, args, result))
            return result

        monkeypatch.setattr(recognition, name, wrapper)
    return calls


K4_ATTACHED = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 0), (4, 1), (4, 2)])
TWO_K4_SHARING_TWO = Graph(
    6, list(combinations([0, 1, 2, 3], 2)) + list(combinations([2, 3, 4, 5], 2))
)


@pytest.mark.parametrize(
    "g, kind, order",
    [
        (complete_bipartite(2, 5), F1Witness, ["check_f1"]),
        (Graph(4, [(0, 1), (0, 2), (0, 3)]), ClawWitness, ["check_f1", "check_claw"]),
        (K4_ATTACHED, F2Witness, ["check_f1", "check_claw", "maximal_cliques", "check_f2"]),
        (
            TWO_K4_SHARING_TWO,
            F3Witness,
            ["check_f1", "check_claw", "maximal_cliques", "check_f2", "check_f3"],
        ),
        (
            cycle_graph(5),
            Inconclusive,
            ["check_f1", "check_claw", "maximal_cliques", "check_f2", "check_f3"],
        ),
        (
            complete_graph(7),
            Member,
            ["check_f1", "check_claw", "maximal_cliques", "check_f2", "check_f3", "krausz_cover"],
        ),
    ],
)
def test_recognize_runs_the_documented_checks(g, kind, order, monkeypatch):
    """`recognize` calls each documented check itself, in the order F1,
    claw, F2, F3, cover, enumerates the big cliques once, and hands that
    very list to F2, F3 and the cover."""
    calls = _record_checks(monkeypatch)
    verdict = recognize(g, 2, 1)
    assert isinstance(getattr(verdict, "witness", verdict), kind)
    assert [name for name, _, _ in calls] == order
    t = thresholds(2, 1)
    assert calls[0][1] == (g, t)
    if len(calls) > 1:
        assert calls[1][1] == (g, t)
    if len(calls) > 2:
        _, args, big = calls[2]
        assert args == (g, t.clique_size_bound)
        for name, args, _ in calls[3:]:
            assert args[-1] is big, name
            assert args[:-1] == {"check_f2": (g, t), "check_f3": (t,), "krausz_cover": (g, t)}[name]
    if isinstance(verdict, Member):
        assert verdict.cover is calls[-1][2]


# The line graph of K11: 55 vertices, past the size from which `recognize`
# builds its big cliques from the edges, and a Member at (2, 1).
LINE_K11 = line_graph(Hypergraph(11, list(combinations(range(11), 2))))


def _beside(g: Graph, n: int, edges) -> Graph:
    """g with n more vertices after its own, joined by edges (given on 0..n-1)."""
    return Graph(g.n + n, list(g.edges()) + [(g.n + a, g.n + b) for a, b in edges])


def _padded(n: int, edges) -> Graph:
    """The graph on edges, with isolated vertices up to the edge-scan gate."""
    return Graph(max(n, recognition._EDGE_SCAN_MIN_N), edges)


@pytest.mark.parametrize(
    "g, kind, order",
    [
        (LINE_K11, Member, ["check_f1", "check_claw", "check_f2", "check_f3", "krausz_cover"]),
        (_beside(LINE_K11, 5, K4_ATTACHED.edges()), F2Witness, ["check_f1", "check_claw", "check_f2"]),
        (
            _beside(LINE_K11, 6, TWO_K4_SHARING_TWO.edges()),
            F3Witness,
            ["check_f1", "check_claw", "check_f2", "check_f3"],
        ),
    ],
)
def test_recognize_past_the_gate_builds_big_from_the_edges(g, kind, order, monkeypatch):
    """From `_EDGE_SCAN_MIN_N` vertices on, `recognize` does not call
    `maximal_cliques`: the edge scan hands F2, F3 and the cover one list,
    which equals `maximal_cliques`' own, and the verdict is the one
    `recognize` returns with the gate raised past n."""
    assert g.n >= recognition._EDGE_SCAN_MIN_N
    calls = _record_checks(monkeypatch)
    verdict = recognize(g, 2, 1)
    assert isinstance(getattr(verdict, "witness", verdict), kind)
    assert [name for name, _, _ in calls] == order
    t = thresholds(2, 1)
    big = calls[2][1][-1]
    assert big == maximal_cliques(g, t.clique_size_bound)
    for name, args, _ in calls[2:]:
        assert args[-1] is big, name
        assert args[:-1] == {"check_f2": (g, t), "check_f3": (t,), "krausz_cover": (g, t)}[name]
    monkeypatch.setattr(recognition, "_EDGE_SCAN_MIN_N", g.n + 1)
    assert recognize(g, 2, 1) == verdict


def _assert_big_cliques_exact(g: Graph, k: int, p: int) -> None:
    t = thresholds(k, p)
    big = maximal_cliques(g, t.clique_size_bound)
    assert recognition._big_cliques(g, t) == (big, check_f2(g, t, big)), (g, k, p)


def _clique_union(rng: random.Random, n: int, s: int) -> Graph:
    """A few random cliques of s - 2 to s + 3 vertices over n vertices,
    with up to 3n random edges strewn over them."""
    edges = set()
    for _ in range(rng.randint(1, 6)):
        members = rng.sample(range(n), rng.randint(s - 2, s + 3))
        edges.update(combinations(sorted(members), 2))
    for _ in range(rng.randint(0, 3 * n)):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph(n, sorted(edges))


def test_big_cliques_match_maximal_cliques_on_the_line_graph_family(monkeypatch):
    monkeypatch.setattr(recognition, "_EDGE_SCAN_MIN_N", 0)
    for k, p, g in line_graph_family():
        _assert_big_cliques_exact(g, k, p)


@pytest.mark.parametrize("k, p", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_big_cliques_match_maximal_cliques_past_the_gate(k, p):
    rng = random.Random(3100 + 10 * k + p)
    s = thresholds(k, p).clique_size_bound
    gate = recognition._EDGE_SCAN_MIN_N
    for _ in range(25):
        _assert_big_cliques_exact(_clique_union(rng, rng.randint(gate, gate + 16), s), k, p)


def test_big_cliques_match_maximal_cliques_on_planted_gadgets(monkeypatch):
    """Line graphs of bounded hypergraphs, each beside a big clique with one
    vertex attached to p*k + 1 of it (an F2 gadget) or beside two big
    cliques sharing p + 1 vertices (an F3 gadget), at every size."""
    monkeypatch.setattr(recognition, "_EDGE_SCAN_MIN_N", 0)
    rng = random.Random(3101)
    for k, p in ((2, 1), (2, 2), (3, 1), (3, 2)):
        s = thresholds(k, p).clique_size_bound
        for _ in range(10):
            g = line_graph(random_bounded_hypergraph(rng, k, p, max_edges=40))
            size = s + rng.randrange(3)
            attach = list(combinations(range(size), 2))
            attach += [(v, size) for v in rng.sample(range(size), p * k + 1)]
            _assert_big_cliques_exact(_beside(g, size + 1, attach), k, p)
            other = s + rng.randrange(3)
            shift = size - p - 1
            overlap = set(combinations(range(size), 2))
            overlap.update(combinations(range(shift, shift + other), 2))
            _assert_big_cliques_exact(_beside(g, shift + other, sorted(overlap)), k, p)


def test_big_cliques_fall_back_when_a_load_passes_k(monkeypatch):
    """K6 minus two disjoint edges has four maximal cliques, each holding
    0 and 1: at (2, 1) vertex 0's load passes k = 2 with the third one, and
    the list comes from `maximal_cliques`.  F1 and the claw check pass."""
    g = _padded(6, [e for e in combinations(range(6), 2) if e not in ((2, 3), (4, 5))])
    calls = _record_checks(monkeypatch, ("maximal_cliques",))
    t = thresholds(2, 1)
    big, witness = recognition._big_cliques(g, t)
    assert [args for _, args, _ in calls] == [(g, 4)]
    assert big == [(0, 1, 2, 4), (0, 1, 2, 5), (0, 1, 3, 4), (0, 1, 3, 5)]
    assert witness == F2Witness((0, 1, 2, 4), 3, (0, 1, 4))
    assert recognize(g, 2, 1) == NonMember(witness)


def test_big_cliques_search_an_edge_whose_greedy_clique_is_small(monkeypatch):
    """At (3, 1), s = 8: the edge 01 lies in the big cliques {0, 1} | A and
    {0, 1} | B, A = 3..8 and B = 9..14, but vertex 2, which sees 3..6 and
    9..12, has the most neighbours among the common ones.  Grown from it,
    the clique stops at {0, 1, 2, 3, 4, 5, 6}, so the frame loop lists the
    cliques through 01."""
    edges = set(combinations((0, 1, 2), 2))
    for block in (range(3, 9), range(9, 15)):
        edges.update(combinations((0, 1, *block), 2))
    edges.update((2, v) for v in (3, 4, 5, 6, 9, 10, 11, 12))
    g = _padded(15, sorted(edges))
    calls = _record_checks(monkeypatch, ("_grow_clique", "_cliques_from"))
    t = thresholds(3, 1)
    _assert_big_cliques_exact(g, 3, 1)
    (_, _, grown), (_, frame, listed) = calls[:2]
    assert grown == 0b1111111
    assert frame[1:3] == (0b11, 2)
    assert sorted(listed) == [0b111111011, 0b111111000000011]
    big, witness = recognition._big_cliques(g, t)
    assert big == [(0, 1, 3, 4, 5, 6, 7, 8), (0, 1, 9, 10, 11, 12, 13, 14)]
    assert recognize(g, 3, 1) == NonMember(witness)


def test_big_cliques_complete_a_clique_the_edge_scan_missed(monkeypatch):
    """At (2, 1) the scan finds {0, 4, 5, 6}, {1, 4, 5, 7} and {2, 3, 6, 7}
    first; together they hold every edge of the clique {4, 5, 6, 7}, which
    is never grown.  F2 fires on the family, and of the searches from 6
    and 7, which see pk + p = 3 vertices of {1, 4, 5, 7} and {0, 4, 5, 6},
    each adds it."""
    cliques = [(0, 4, 5, 6), (1, 4, 5, 7), (2, 3, 6, 7), (4, 5, 6, 7)]
    g = _padded(8, sorted({e for c in cliques for e in combinations(c, 2)}))
    calls = _record_checks(monkeypatch, ("_cliques_from", "check_f2"))
    _assert_big_cliques_exact(g, 2, 1)
    rooted = [args[1] for name, args, _ in calls if name == "_cliques_from" and args[2] == 1]
    assert rooted == [1 << 6, 1 << 7]
    f2_lists = [args[-1] for name, args, _ in calls if name == "check_f2"]
    assert f2_lists[:2] == [cliques[:3], sorted(cliques)]
    reference = maximal_cliques(g, 4)
    assert recognize(g, 2, 1) == NonMember(check_f2(g, thresholds(2, 1), reference))


def test_recognize_k25_reports_f1_before_claw():
    verdict = recognize(complete_bipartite(2, 5), 2, 1)
    assert isinstance(verdict, NonMember)
    assert isinstance(verdict.witness, F1Witness)


def test_recognize_rejects_edgeless_and_bad_parameters():
    for edgeless in (Graph(0), Graph(1), Graph(3)):
        with pytest.raises(InputError, match="at least one edge"):
            recognize(edgeless, 2, 1)
    with pytest.raises(InputError):
        recognize(complete_graph(3), 1, 1)


def test_nonmember_witnesses_are_sound():
    cases = [
        (Graph(4, [(0, 1), (0, 2), (0, 3)]), 2, 1),
        (complete_bipartite(2, 5), 2, 1),
        (complete_bipartite(2, 9), 2, 2),
        (
            Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 0), (4, 1), (4, 2)]),
            2,
            1,
        ),
    ]
    for g, k, p in cases:
        verdict = recognize(g, k, p)
        assert isinstance(verdict, NonMember)
        verify_witness(g, verdict.witness, k, p)


def test_line_graphs_of_bounded_hypergraphs_are_never_rejected():
    rng = random.Random(20240811)
    for k, p in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        for _ in range(120):
            hg = random_bounded_hypergraph(rng, k, p)
            lg = line_graph(hg)
            if lg.edge_count == 0:
                continue  # recognition is defined only with at least one edge
            verdict = recognize(lg, k, p)
            assert not isinstance(verdict, NonMember), (hg, k, p, verdict)


def test_verdicts_on_line_graph_family_pinned():
    """Verdicts and witnesses near line graphs, where the claw bound, the
    clique floor and the F1 partner filter all fire; the hash is that of
    the plain searches they replaced."""
    results = [recognize(g, k, p) for k, p, g in line_graph_family()]
    kinds = Counter(type(getattr(v, "witness", v)).__name__ for v in results)
    assert kinds == {
        "Inconclusive": 213, "F1Witness": 48, "ClawWitness": 30, "Member": 13, "F2Witness": 8
    }
    digest = hashlib.sha256(repr([repr(v) for v in results]).encode()).hexdigest()
    assert digest == "5485cb6b183b8b08e66a954120d6116e32ed3d4b78cadae622df464b21f6e235"


def test_f1_monotone_in_p():
    g = complete_bipartite(2, 9)
    verdict = recognize(g, 2, 2)
    assert isinstance(verdict, NonMember) and isinstance(verdict.witness, F1Witness)
    weaker = recognize(g, 2, 1)
    assert isinstance(weaker, NonMember)


def _f1_reference(g: Graph, t) -> F1Witness | None:
    """Plain scan of all pairs a < b in order."""
    needed = t.p * t.k**2 + 1
    nbrs = [set(g.neighbors(v)) for v in range(g.n)]
    for a in range(g.n):
        for b in range(a + 1, g.n):
            if b in nbrs[a]:
                continue
            common = sorted(nbrs[a] & nbrs[b])
            if len(common) >= needed:
                return F1Witness(a, b, tuple(common[:needed]))
    return None


def test_check_f1_matches_all_pairs_reference():
    rng = random.Random(2718)
    for density, _ in DENSITY_CAPS:
        for _trial in range(8):
            g = random_graph(rng, rng.randint(1, 40), density)
            for k, p in [(2, 1), (2, 2), (3, 1)]:
                t = thresholds(k, p)
                assert check_f1(g, t) == _f1_reference(g, t), (g, k, p)
    for k, p, g in line_graph_family():
        if (k, p) != (3, 2):
            t = thresholds(k, p)
            assert check_f1(g, t) == _f1_reference(g, t), (g, k, p)


def _f2_reference(g: Graph, t, cliques=None) -> F2Witness | None:
    """Plain scan of every big maximal clique, then every outside vertex;
    `cliques`, when given, are all maximal cliques of g."""
    needed = t.p * t.k + 1
    for clique in maximal_cliques(g) if cliques is None else cliques:
        if len(clique) < t.clique_size_bound:
            continue
        for v in range(g.n):
            if v in clique:
                continue
            attached = [u for u in clique if g.has_edge(u, v)]
            if len(attached) >= needed:
                return F2Witness(clique, v, tuple(attached[:needed]))
    return None


def test_check_f2_matches_per_vertex_reference():
    """On random graphs, random graphs with a planted big clique, and the
    family near line graphs; the planted cliques make F2 fire often."""
    rng = random.Random(1414)
    cases = []
    for density, cap in DENSITY_CAPS:
        for _ in range(6):
            g = random_graph(rng, rng.randint(1, cap), density)
            cases += [(k, p, g) for k, p in [(2, 1), (2, 2), (3, 1)]]
    for k, p in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        size = thresholds(k, p).clique_size_bound
        for _ in range(25):
            n = rng.randint(size, size + 12)
            base = random_graph(rng, n, rng.choice((0.1, 0.3, 0.5)))
            planted = rng.sample(range(n), rng.randint(size, min(n, size + 3)))
            cases.append((k, p, Graph(n, set(base.edges()) | set(combinations(sorted(planted), 2)))))
    cases += line_graph_family()
    fired = 0
    for k, p, g in cases:
        t = thresholds(k, p)
        expected = _f2_reference(g, t)
        assert check_f2(g, t, _big(g, t)) == expected, (g, k, p)
        fired += expected is not None
    assert fired >= 100, fired


def _f3_reference(g: Graph, t, cliques=None) -> F3Witness | None:
    """Plain scan of every pair of big maximal cliques in order; `cliques`
    as for `_f2_reference`."""
    needed = t.p + 1
    cliques = maximal_cliques(g) if cliques is None else cliques
    big = [c for c in cliques if len(c) >= t.clique_size_bound]
    for i, a in enumerate(big):
        for b in big[i + 1 :]:
            shared = sorted(set(a) & set(b))
            if len(shared) >= needed:
                return F3Witness(a, b, tuple(shared[:needed]))
    return None


def test_checks_match_references_on_every_small_graph():
    """On every graph with edges on at most 6 vertices, where F1's
    threshold exceeds the n - 2 common neighbors a pair can have and for
    three of the four (k, p) no clique reaches the big-clique bound, the
    checks that return at once agree with the plain scans, and the
    big-clique family, as `maximal_cliques` gives it behind its degree
    floor, with the filter of all maximal cliques."""
    for n in range(2, 7):
        for g in all_graphs(n):
            if not g.edge_count:
                continue
            cliques = maximal_cliques(g)
            for k, p in [(2, 1), (2, 2), (3, 1), (3, 2)]:
                t = thresholds(k, p)
                big = maximal_cliques(g, t.clique_size_bound)
                assert big == [c for c in cliques if len(c) >= t.clique_size_bound], (g, k, p)
                assert check_f1(g, t) == _f1_reference(g, t), (g, k, p)
                assert check_f2(g, t, big) == _f2_reference(g, t, cliques), (g, k, p)
                assert check_f3(t, big) == _f3_reference(g, t, cliques), (g, k, p)


def test_check_f1_fires_at_n_minus_two_common_neighbors():
    """Two non-adjacent vertices joined to the same five others: on 7
    vertices that is n - 2 = p*k^2 + 1 common neighbors for (k, p) =
    (2, 1), the most a pair can have, and F1 fires."""
    g = Graph(7, [(a, c) for a in (0, 1) for c in range(2, 7)])
    t = thresholds(2, 1)
    assert t.p * t.k**2 + 1 == g.n - 2
    w = check_f1(g, t)
    assert w == F1Witness(0, 1, (2, 3, 4, 5, 6)) == _f1_reference(g, t)
    verify_witness(g, w, 2, 1)
    assert recognize(g, 2, 1) == NonMember(w)


def _refuse_fields(mask):
    raise AssertionError("fields built")


def _sparse_line_graph(seed: int, edges: int, vertices: int) -> Graph:
    """Line graph of `edges` seeded random pairs on `vertices` vertices; two
    disjoint pairs share at most 4 common neighbors, so at (k, p) = (2, 1)
    it has no F1 pair and F1 scans every head."""
    rng = random.Random(seed)
    pairs = set()
    while len(pairs) < edges:
        u, v = rng.sample(range(vertices), 2)
        pairs.add((min(u, v), max(u, v)))
    return line_graph(Hypergraph(vertices, sorted(pairs)))


def _count_f1_kernels(monkeypatch) -> Counter:
    """Count F1's `_fields` and `_met_at_least` calls from here on."""
    calls = Counter()
    fields, met_at_least = recognition._fields, recognition._met_at_least

    def counted_fields(mask):
        calls["fields"] += 1
        return fields(mask)

    def counted_met_at_least(*args):
        calls["met_at_least"] += 1
        return met_at_least(*args)

    monkeypatch.setattr(recognition, "_fields", counted_fields)
    monkeypatch.setattr(recognition, "_met_at_least", counted_met_at_least)
    return calls


def test_check_f1_with_degrees_of_a_byte_or_more(monkeypatch):
    """A head of degree 128 or more could carry out of a one-byte field, so
    F1 builds no fields and counts on bit-sliced counters.  Vertex 1 sees
    every other vertex, so the hub 0 and its neighbor 1 share the hub's
    129 other neighbors, and 131 is still 0's first partner.  Then seeded
    random graphs with such hubs."""
    calls = _count_f1_kernels(monkeypatch)
    monkeypatch.setattr(recognition, "_fields", _refuse_fields)
    n = 132
    edges = [(0, v) for v in range(1, n - 1)] + [(1, v) for v in range(2, n)]
    edges += [(c, n - 1) for c in range(2, 6)]
    g = Graph(n, edges)
    assert g.degree(0) >= 128
    t = thresholds(2, 1)
    assert check_f1(g, t) == _f1_reference(g, t) == F1Witness(0, n - 1, (1, 2, 3, 4, 5))
    assert calls["met_at_least"] == 1
    rng = random.Random(1280)
    fired = 0
    for _ in range(6):
        n = rng.randint(140, 170)
        base = random_graph(rng, n, 0.05)
        hubs = rng.sample(range(n), 2)
        extra = [(min(h, v), max(h, v)) for h in hubs for v in rng.sample(range(n), 130) if v != h]
        g = Graph(n, set(base.edges()) | set(extra))
        assert max(g.degree(v) for v in range(n)) >= 128
        for k, p in [(2, 1), (2, 2), (3, 1)]:
            t = thresholds(k, p)
            expected = _f1_reference(g, t)
            assert check_f1(g, t) == expected, (g, k, p)
            fired += expected is not None
    assert fired >= 6, fired
    assert calls["met_at_least"] >= 1 + fired


def test_check_f1_partner_next_to_its_head_and_at_the_last_vertex():
    """The first pair's partner is the vertex right after its head, then
    the last vertex: the lowest and the highest field a head can read."""
    t = thresholds(2, 1)
    # 0-2 light; 3 and 4 share 5..9, and no lower vertex heads a pair
    g = Graph(10, [(a, c) for a in (3, 4) for c in range(5, 10)] + [(0, 1), (1, 2)])
    assert check_f1(g, t) == _f1_reference(g, t) == F1Witness(3, 4, (5, 6, 7, 8, 9))
    # 0 sees every vertex but 11, and 11 sees 1..5
    g = Graph(12, [(0, v) for v in range(1, 11)] + [(c, 11) for c in range(1, 6)])
    assert check_f1(g, t) == _f1_reference(g, t) == F1Witness(0, 11, (1, 2, 3, 4, 5))


def test_check_f1_on_bit_sliced_counters(monkeypatch):
    """With F1's budget at 0 no row becomes fields, and every head counts
    on bit-sliced counters.  Head 1 has its partner 3, but head 0, which
    sees every vertex except 20, pairs only with 20, and (0, 20) is the
    first pair.  Then seeded random graphs."""
    monkeypatch.setattr(recognition, "_F1_BUDGET", 0)
    monkeypatch.setattr(recognition, "_fields", _refuse_fields)
    edges = [(0, v) for v in range(1, 24) if v != 20]
    edges += [(c, 20) for c in range(10, 15)] + [(a, c) for a in (1, 3) for c in range(5, 10)]
    g = Graph(24, edges)
    t = thresholds(2, 1)
    assert check_f1(g, t) == _f1_reference(g, t) == F1Witness(0, 20, (10, 11, 12, 13, 14))
    rng = random.Random(4096)
    fired = 0
    for _ in range(40):
        case = random_graph(rng, rng.randint(8, 40), rng.choice((0.2, 0.4, 0.6)))
        for k, p in [(2, 1), (2, 2), (3, 1)]:
            t = thresholds(k, p)
            expected = _f1_reference(case, t)
            assert check_f1(case, t) == expected, (case, k, p)
            fired += expected is not None
    assert fired >= 20, fired


def test_check_f1_builds_rows_only_with_a_head(monkeypatch):
    """On a sparse graph whose only heavy vertex is 0, no vertex above it
    can be its partner, so F1 returns before any row becomes fields: on
    200 000 vertices at the default budget and at 0.  A second heavy
    vertex, 2 990, sharing four of 0's neighbors, makes 0 a head; at the
    default budget exactly the rows of the eight vertices that heavy
    vertices reach become fields, in vertex order, and then the mask of
    every vertex."""
    default = recognition._F1_BUDGET
    built = []
    fields = recognition._fields

    def counted(mask):
        built.append(mask)
        return fields(mask)

    monkeypatch.setattr(recognition, "_fields", counted)
    t = thresholds(2, 1)
    star = [(0, v) for v in range(1, 6)]
    for budget in (default, 0):
        monkeypatch.setattr(recognition, "_F1_BUDGET", budget)
        assert check_f1(Graph(200_000, star), t) is None
        assert built == [], budget
    monkeypatch.setattr(recognition, "_F1_BUDGET", default)
    g = Graph(3_000, star + [(c, 2_990) for c in range(1, 5)] + [(2_990, 2_991)])
    assert check_f1(g, t) is None
    reach = [0, 1, 2, 3, 4, 5, 2_990, 2_991]
    assert built == [g.adjacency_mask(u) for u in reach] + [(1 << g.n) - 1]


def test_check_f1_counts_in_fields_on_a_240_vertex_line_graph(monkeypatch):
    """A 240-vertex line graph with every degree below 128, the size of
    the largest graphs the workloads recognize, fits F1's budget: each
    row that a head sums or reads, and the mask of every vertex, becomes
    fields once, and no bit-sliced count runs."""
    g = _sparse_line_graph(240, 240, 40)
    assert g.n == 240 and max(g.degree(v) for v in range(g.n)) < 128
    t = thresholds(2, 1)
    reach = 0
    for v in range(g.n):
        if g.degree(v) >= t.p * t.k**2 + 1:
            reach |= g.adjacency_mask(v) | 1 << v
    calls = _count_f1_kernels(monkeypatch)
    assert check_f1(g, t) is None
    assert calls == Counter(fields=reach.bit_count() + 1)


def test_check_f1_holds_no_more_than_its_block_budget():
    """On a 1 500-vertex line graph with no F1 pair, every head is
    scanned; its fields would take n**2 bytes, past the budget, so F1
    counts on bit-sliced counters, and its peak allocation stays within
    the budget."""
    g = _sparse_line_graph(1500, 1500, 120)
    assert recognition._F1_BUDGET < g.n**2
    t = thresholds(2, 1)
    assert check_f1(g, t) is None
    tracemalloc.start()
    try:
        assert check_f1(g, t) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= recognition._F1_BUDGET, peak


def test_check_f1_fields_just_inside_the_budget_hold_no_more(monkeypatch):
    """A 660-vertex line graph whose fields fit F1's budget but not 95% of
    it: at the budget F1 counts in fields, and its peak allocation stays
    within the budget; at 95% of it F1 counts on bit-sliced counters."""
    g = _sparse_line_graph(660, 660, 70)
    t = thresholds(2, 1)
    budget = recognition._F1_BUDGET
    calls = _count_f1_kernels(monkeypatch)
    assert check_f1(g, t) is None
    assert calls["fields"] and not calls["met_at_least"], calls
    tracemalloc.start()
    try:
        assert check_f1(g, t) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget, peak
    calls.clear()
    monkeypatch.setattr(recognition, "_F1_BUDGET", budget * 19 // 20)
    assert check_f1(g, t) is None
    assert calls["met_at_least"] and not calls["fields"], calls


def test_check_f1_builds_no_fields_below_its_threshold(monkeypatch):
    """On every graph of at most 6 vertices, at (k, p) = (2, 1), (2, 2),
    (3, 1) and (3, 2), F1 asks for more common neighbors than a pair can
    have and returns before any row becomes fields."""
    monkeypatch.setattr(recognition, "_fields", _refuse_fields)
    for n in range(1, 7):
        for g in all_graphs(n):
            for k, p in [(2, 1), (2, 2), (3, 1), (3, 2)]:
                assert check_f1(g, thresholds(k, p)) is None


def _first_uncovered_reference(g: Graph, cliques) -> str | None:
    for u, v in g.edges():
        if not any(u in c and v in c for c in cliques):
            return f"edge ({u}, {v}) is not covered by any clique"
    return None


def test_validate_cover_reports_first_uncovered_edge():
    rng = random.Random(1618)
    for density, cap in DENSITY_CAPS:
        for _ in range(6):
            g = random_graph(rng, rng.randint(2, cap), density)
            cliques = maximal_cliques(g)
            for drop in sorted(rng.sample(range(len(cliques)), min(3, len(cliques)))):
                kept = cliques[:drop] + cliques[drop + 1 :]
                diag = validate_cover(g, CliqueCover(g.n, kept), len(cliques), g.n)
                assert diag.failure == _first_uncovered_reference(g, kept), (g, drop)
                assert diag.ok == (diag.failure is None)

