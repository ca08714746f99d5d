"""Shared builders for the test suite."""

from __future__ import annotations

import os
import random
from itertools import combinations
from math import comb, lcm
from pathlib import Path

import hyperline
from hyperline import (
    ClawWitness,
    F1Witness,
    F2Witness,
    Graph,
    Hypergraph,
    line_graph,
)
from hyperline.baranyai import PartitionState
from hyperline.graph import _bits, maximal_cliques


def module_env() -> dict[str, str]:
    """Environment for `python -m hyperline` subprocesses: PYTHONPATH names
    the absolute directory holding the imported package, so the child finds
    the same code whatever its working directory."""
    return dict(os.environ, PYTHONPATH=str(Path(hyperline.__file__).resolve().parent.parent))


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n - 1)] + [(0, n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def graph_from_mask(n: int, mask: int) -> Graph:
    """Graph from a bitmask over the C(n,2) vertex pairs in lexicographic order."""
    edges = []
    for i, pair in enumerate(combinations(range(n), 2)):
        if mask >> i & 1:
            edges.append(pair)
    return Graph(n, edges)


def random_graph(rng: random.Random, n: int, density: float) -> Graph:
    """Graph on n vertices keeping each vertex pair with the given probability."""
    return Graph(n, [pair for pair in combinations(range(n), 2) if rng.random() < density])


# Edge densities for seeded random graphs, each with the largest vertex
# count at which brute-force references over neighborhood subsets and
# maximal cliques stay cheap.
DENSITY_CAPS = ((0.05, 40), (0.15, 40), (0.3, 40), (0.5, 28), (0.7, 18), (0.9, 14))


def verify_witness(g: Graph, witness, k: int, p: int) -> None:
    """Re-check a witness against the graph by direct counting."""
    if isinstance(witness, ClawWitness):
        claw = witness.claw
        assert len(claw.leaves) == k + 1
        assert len(set(claw.leaves)) == k + 1 and claw.center not in claw.leaves
        for leaf in claw.leaves:
            assert g.has_edge(claw.center, leaf)
        for a, b in combinations(claw.leaves, 2):
            assert not g.has_edge(a, b)
    elif isinstance(witness, F1Witness):
        assert not g.has_edge(witness.a, witness.b)
        assert len(witness.common) == p * k * k + 1
        for c in witness.common:
            assert g.has_edge(witness.a, c) and g.has_edge(witness.b, c)
    elif isinstance(witness, F2Witness):
        s = p * k * k + (p - 2) * k + 2
        assert witness.clique in maximal_cliques(g)
        assert len(witness.clique) >= s
        assert witness.vertex not in witness.clique
        assert len(witness.attachment) == p * k + 1
        assert set(witness.attachment) <= set(witness.clique)
        for u in witness.attachment:
            assert g.has_edge(witness.vertex, u)
    else:
        s = p * k * k + (p - 2) * k + 2
        big = maximal_cliques(g)
        assert witness.clique_a in big and witness.clique_b in big
        assert witness.clique_a != witness.clique_b
        assert len(witness.clique_a) >= s and len(witness.clique_b) >= s
        assert len(witness.shared) == p + 1
        assert set(witness.shared) <= set(witness.clique_a) & set(witness.clique_b)


def all_graphs(n: int):
    """Every labeled graph on exactly n vertices."""
    pairs = n * (n - 1) // 2
    for mask in range(1 << pairs):
        yield graph_from_mask(n, mask)


def random_bounded_hypergraph(
    rng: random.Random, k: int, p: int, max_edges: int = 12
) -> Hypergraph:
    """Random k-uniform hypergraph with pair multiplicity <= p.

    Edges are sampled one at a time and rejected when they would push
    some pair over p; sampling stops early if the instance saturates.
    """
    n = rng.randint(k, 3 * k + 2)
    target = rng.randint(1, max_edges)
    pair_use: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, ...]] = []
    attempts = 0
    while len(edges) < target and attempts < 200:
        attempts += 1
        e = tuple(sorted(rng.sample(range(n), k)))
        if any(pair_use.get(pair, 0) >= p for pair in combinations(e, 2)):
            continue
        for pair in combinations(e, 2):
            pair_use[pair] = pair_use.get(pair, 0) + 1
        edges.append(e)
    if not edges:
        edges.append(tuple(range(k)))
    return Hypergraph(n, edges)


def line_graph_family() -> list[tuple[int, int, Graph]]:
    """Seeded (k, p, graph) triples near the line graphs of bounded
    hypergraphs, where the recognizer's prunes fire.

    The bases are 30 random bounded hypergraphs for each (k, p) in
    (2, 1), (2, 2), (3, 1), (3, 2), then the complete graphs K6..K12 as
    2-uniform hypergraphs, once with every edge and once with every edge
    doubled.  Each base gives its line graph g, then g plus one random
    non-edge, then g minus one random edge; edgeless graphs are dropped.
    """
    rng = random.Random(2025)
    bases = [
        (k, p, random_bounded_hypergraph(rng, k, p, max_edges=40))
        for k, p in ((2, 1), (2, 2), (3, 1), (3, 2))
        for _ in range(30)
    ]
    for m in range(6, 13):
        pairs = list(combinations(range(m), 2))
        bases.append((2, 1, Hypergraph(m, pairs)))
        bases.append((2, 2, Hypergraph(m, pairs + pairs)))
    family = []
    for k, p, hg in bases:
        g = line_graph(hg)
        edges = list(g.edges())
        graphs = [g]
        non_edges = [e for e in combinations(range(g.n), 2) if not g.has_edge(*e)]
        if non_edges:
            graphs.append(Graph(g.n, edges + [rng.choice(non_edges)]))
        if len(edges) > 1:
            drop = rng.choice(edges)
            graphs.append(Graph(g.n, [e for e in edges if e != drop]))
        family += [(k, p, h) for h in graphs if h.edge_count]
    return family


def growable_sets(ground_size: int, subset_size: int, level: int) -> tuple[int, ...]:
    """Every mask over the first `level` bits whose size lies in
    [max(0, k-(N-level)), k-1], in increasing order: the partial sets
    that can still grow at that level."""
    low = max(0, subset_size - (ground_size - level))
    masks = [
        sum(1 << b for b in combo)
        for size in range(low, subset_size)
        for combo in combinations(range(level), size)
    ]
    return tuple(sorted(masks))


def _elements(mask: int) -> tuple[int, ...]:
    """The 1-based elements of a mask over bits 0..N-1, in increasing order."""
    return tuple(b + 1 for b in _bits(mask))


def state_violations(state: PartitionState) -> list[str]:
    """All invariant violations of a Baranyai induction state; empty when
    healthy.

    Checked: the growable sets against their formula; one row, finished
    list and count per run, each count at least 1; per run, row indices
    in range and strictly increasing, positive multiplicities, finished
    sets of k distributed elements, the set total (L/k) and every
    element's occurrence count (L/N); and the global multiplicity of
    every partial set over the distributed elements, each run weighted
    by its count.
    """
    big_n, k, ell = state.ground_size, state.subset_size, state.level
    sets_per_class = lcm(big_n, k) // k
    element_uses_per_class = lcm(big_n, k) // big_n
    problems: list[str] = []
    sets = state.sets
    if sets != growable_sets(big_n, k, ell):
        problems.append(
            f"growable sets are not every set of {max(0, k - (big_n - ell))} to {k - 1} "
            f"of the first {ell} elements, in increasing order"
        )
    if not len(state.rows) == len(state.finished) == len(state.counts):
        problems.append(
            f"{len(state.rows)} rows, {len(state.finished)} finished lists "
            f"and {len(state.counts)} counts"
        )
    distributed = (1 << ell) - 1
    totals: dict[int, int] = {}
    for r, (row, done, classes) in enumerate(zip(state.rows, state.finished, state.counts)):
        if classes < 1:
            problems.append(f"run {r}: count {classes} below 1")
        held = [(mask, 1) for mask in done]
        last = -1
        for j, count in row:
            if not last < j < len(sets):
                problems.append(f"run {r}: set index {j} after {last} or past {len(sets) - 1}")
                continue
            last = j
            if count < 1:
                problems.append(
                    f"run {r}: nonpositive multiplicity {count} for {_elements(sets[j])}"
                )
            held.append((sets[j], count))
        for mask in done:
            if mask.bit_count() != k or mask & ~distributed:
                problems.append(
                    f"run {r}: finished set {_elements(mask)} is not {k} distributed elements"
                )
        element_uses = [0] * ell
        for mask, count in held:
            for b in range(ell):
                if mask >> b & 1:
                    element_uses[b] += count
            totals[mask] = totals.get(mask, 0) + count * classes
        total = sum(count for _, count in held)
        if total != sets_per_class:
            problems.append(f"run {r}: holds {total} sets, expected {sets_per_class}")
        for b in range(ell):
            if element_uses[b] != element_uses_per_class:
                problems.append(
                    f"run {r}: element {b + 1} occurs {element_uses[b]} times, "
                    f"expected {element_uses_per_class}"
                )
    for size in range(min(k, ell) + 1):
        for combo in combinations(range(ell), size):
            mask = sum(1 << b for b in combo)
            expected = comb(big_n - ell, k - size)
            if totals.get(mask, 0) != expected:
                problems.append(
                    f"set {_elements(mask)} occurs {totals.get(mask, 0)} times "
                    f"globally, expected {expected}"
                )
    return problems
