"""Seeded input generators for the benchmark workloads.

Everything here is built from `random.Random(seed)` and plain Python; no
library function (`line_graph`, `regular_hypergraph`) or test helper is
used, so a change to the library cannot change its own inputs.  Sizes
follow fixed schedules; the seed only decides structure and order, which
keeps the work per pass nearly the same across seeds.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb, gcd

from check import bits, clique_bound, line_masks

SURVEY_COMBOS = ((2, 1), (2, 2), (3, 1), (3, 2))


# ---------------------------------------------------------------- hypergraphs


def _parallel_class(rng: random.Random, nh: int, k: int, p: int, used: dict) -> list:
    """Random partition of range(nh) into k-sets keeping pair use <= p."""
    for _ in range(200):
        free = list(range(nh))
        rng.shuffle(free)
        cls = []
        while free:
            u = free.pop()
            group = [u]
            for v in list(free):
                if all(used.get((min(v, w), max(v, w)), 0) < p for w in group):
                    group.append(v)
                    free.remove(v)
                    if len(group) == k:
                        break
            if len(group) < k:
                break
            cls.append(tuple(sorted(group)))
        else:
            return cls
    raise RuntimeError(f"no parallel class for nh={nh} k={k} p={p}")


def regular_uniform(rng: random.Random, nh: int, k: int, r: int, p: int) -> list:
    """k-uniform hypergraph on nh vertices, every vertex of degree r, pair
    multiplicity <= p: a union of r random parallel classes."""
    used: dict = {}
    edges = []
    for _ in range(r):
        cls = _parallel_class(rng, nh, k, p, used)
        for e in cls:
            for pair in combinations(e, 2):
                used[pair] = used.get(pair, 0) + 1
        edges.extend(cls)
    rng.shuffle(edges)
    return edges


def random_uniform(rng: random.Random, nh: int, k: int, m: int, p: int) -> list:
    """m random k-sets of range(nh), rejecting any that push a pair over p."""
    used: dict = {}
    edges = []
    while len(edges) < m:
        e = tuple(sorted(rng.sample(range(nh), k)))
        if any(used.get(pair, 0) >= p for pair in combinations(e, 2)):
            continue
        for pair in combinations(e, 2):
            used[pair] = used.get(pair, 0) + 1
        edges.append(e)
    return edges


# ---------------------------------------------------------------- survey


def survey_ops(rng: random.Random) -> list:
    """(n, edges, k, p) for every graph with edges on <= 6 labelled vertices
    and every survey (k, p), in a seeded order."""
    ops = []
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1, 1 << len(pairs)):
            edges = tuple(pr for i, pr in enumerate(pairs) if mask >> i & 1)
            for k, p in SURVEY_COMBOS:
                ops.append((n, edges, k, p))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- certify

# (count, k, p, family, nh, size parameter); family "regular" takes a
# vertex degree, family "random" an edge count.  Line graphs have 100-240
# vertices; k=2 with degree >= 7 (p=1) or 18 (p=2) clears the edge-degree
# bound and is Member, degree 5-6 stays Inconclusive; k=3 is Inconclusive.
CERTIFY_SCHEDULE = (
    (12, 2, 1, "regular", 30, 7),
    (12, 2, 1, "regular", 36, 8),
    (12, 2, 1, "regular", 40, 9),
    (12, 2, 1, "regular", 48, 10),
    (8, 2, 1, "regular", 60, 6),
    (8, 2, 1, "regular", 40, 5),
    (10, 2, 2, "regular", 14, 18),
    (14, 3, 1, "random", 40, 100),
    (12, 3, 1, "random", 45, 130),
)


def certify_ops(rng: random.Random) -> list:
    """(k, p, n, adjacency masks) for line graphs of bounded hypergraphs."""
    ops = []
    for count, k, p, family, nh, size in CERTIFY_SCHEDULE:
        for _ in range(count):
            if family == "regular":
                edges = regular_uniform(rng, nh, k, size, p)
            else:
                edges = random_uniform(rng, nh, k, size, p)
            adj = line_masks(edges)
            ops.append((k, p, len(adj), adj))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- refute

# Base line graphs are drawn as in certify; each gets one planted defect.
# The sparse k=3 base has no pair with more than p*k^2 common neighbours
# to expose, so it takes no "delete" defect.
_K2_BASES = ((2, 1, "regular", 30, 7), (2, 1, "regular", 40, 8), (2, 1, "regular", 48, 9))
_K3_BASE = (3, 1, "random", 40, 100)
REFUTE_CELLS = tuple(
    (base, defect) for base in _K2_BASES for defect in ("delete", "add", "attach", "overlap")
) + tuple((_K3_BASE, defect) for defect in ("add", "attach", "overlap"))
REFUTE_PER_CELL = 16  # 15 cells * 16 = 240 ops per pass


# A refutation that exits early costs in proportion to where the defect
# sits in the scan order (F1 scans pairs by lowest vertex, claw search
# centres in vertex order, F2/F3 cliques in lexicographic order).  Each
# planter takes a target vertex `at`, and the ops of a cell spread their
# targets evenly over the vertex range, so that the cost mix of a pass
# hardly depends on the seed.


def _rotated(n: int, at: int) -> list:
    return list(range(at, n)) + list(range(at))


def _plant_delete(rng, adj, k, p, at) -> list:
    """Delete an edge u < v, u the first vertex from `at` on with such an
    edge, whose ends share more than p*k^2 neighbours: F1 at row u."""
    need = p * k * k + 1
    for u in _rotated(len(adj), at):
        later = [v for v in bits(adj[u] >> (u + 1) << (u + 1)) if (adj[u] & adj[v]).bit_count() >= need]
        if later:
            v = rng.choice(later)
            out = list(adj)
            out[u] &= ~(1 << v)
            out[v] &= ~(1 << u)
            return out
    raise RuntimeError("no edge with a large common neighbourhood")


def _independent_extension(adj, pool: int, chosen: list, r: int):
    if len(chosen) == r:
        return list(chosen)
    for v in bits(pool):
        chosen.append(v)
        found = _independent_extension(adj, pool & ~adj[v] & ~((1 << (v + 1)) - 1), chosen, r)
        if found:
            return found
        chosen.pop()
    return None


def _plant_add(rng, adj, k, p, at) -> list:
    """Join c, the first vertex from `at` on where this works, to a later
    non-adjacent f so that c becomes the centre of a claw with k+1 leaves
    (f and k independent neighbours of c that f does not see)."""
    n = len(adj)
    for c in _rotated(n, at):
        later = [f for f in range(c + 1, n) if not adj[c] >> f & 1]
        rng.shuffle(later)
        for f in later[:20]:
            if _independent_extension(adj, adj[c] & ~adj[f] & ~(1 << f), [], k):
                out = list(adj)
                out[c] |= 1 << f
                out[f] |= 1 << c
                return out
    raise RuntimeError("no claw site found")


def _union_relabel(rng, adj, gadget, at) -> list:
    """Disjoint union of a graph and a gadget under a random relabelling
    in which the gadget's lowest label is `at` (or as close as fits)."""
    n, g = len(adj), len(gadget)
    total = n + g
    low = min(at, total - g)
    labels = [low] + rng.sample(range(low + 1, total), g - 1)
    taken = set(labels)
    rest = [x for x in range(total) if x not in taken]
    rng.shuffle(rest)
    perm = rest + labels  # old vertex -> new label; gadget vertices come last
    merged = list(adj) + [m << n for m in gadget]
    out = [0] * total
    for u in range(total):
        row = 0
        for v in bits(merged[u]):
            row |= 1 << perm[v]
        out[perm[u]] = row
    return out


def _clique_gadget(size_a: int, size_b: int, shared: int) -> list:
    """Two cliques on 0..size_a-1 and size_a-shared..size_a+size_b-shared-1."""
    total = size_a + size_b - shared
    adj = [0] * total
    groups = (range(size_a), range(size_a - shared, total))
    for grp in groups:
        gmask = 0
        for v in grp:
            gmask |= 1 << v
        for v in grp:
            adj[v] |= gmask & ~(1 << v)
    return adj


def _plant_attach(rng, adj, k, p, at) -> list:
    """Add a big clique and a vertex attached to p*k+1 of its vertices: F2."""
    size = clique_bound(k, p) + rng.randrange(3)
    gadget = _clique_gadget(size, 0, 0) + [0]
    x = size
    for v in rng.sample(range(size), p * k + 1):
        gadget[x] |= 1 << v
        gadget[v] |= 1 << x
    return _union_relabel(rng, adj, gadget, at)


def _plant_overlap(rng, adj, k, p, at) -> list:
    """Add two big cliques sharing exactly p+1 vertices: F3."""
    bound = clique_bound(k, p)
    gadget = _clique_gadget(bound + rng.randrange(3), bound + rng.randrange(3), p + 1)
    return _union_relabel(rng, adj, gadget, at)


PLANTERS = {
    "delete": _plant_delete,
    "add": _plant_add,
    "attach": _plant_attach,
    "overlap": _plant_overlap,
}


def refute_ops(rng: random.Random) -> list:
    """(k, p, defect, n, adjacency masks) for non-members."""
    ops = []
    for (k, p, family, nh, size), defect in REFUTE_CELLS:
        for j in range(REFUTE_PER_CELL):
            if family == "regular":
                edges = regular_uniform(rng, nh, k, size, p)
            else:
                edges = random_uniform(rng, nh, k, size, p)
            at = int((j + rng.random()) / REFUTE_PER_CELL * len(edges))
            adj = PLANTERS[defect](rng, line_masks(edges), k, p, at)
            ops.append((k, p, defect, len(adj), adj))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- construct

# Large (N, k, degree): each costs one cold induction dominated by
# max-flow; (100, 2, ~60) adds a line graph on about 3000 vertices.
CONSTRUCT_LARGE = ((16, 8, 100), (30, 3, 60), (100, 2, 60))


def _top_degrees(big_n: int, k: int, top: int) -> list:
    """The three largest degrees d <= top for which k divides d*N.  The
    seed picks among them, which keeps the hypergraph size, and with it
    the cost of the line graph, within a few percent."""
    return [d for d in range(top, 0, -1) if d * big_n % k == 0][:3]


def construct_ops(rng: random.Random) -> list:
    """("partition", N, k, 0) and ("regular", N, k, d) operations.

    Every pair 2 <= k <= N <= 12 gets one partition op and one regular op
    whose degree is close to C(N-1, k-1)/2, so the hypergraph holds about
    half of the k-subsets; the large pairs get one regular op each.
    """
    ops = []
    for big_n in range(2, 13):
        for k in range(2, big_n + 1):
            ops.append(("partition", big_n, k, 0))
            half = comb(big_n - 1, k - 1) // 2
            degrees = _top_degrees(big_n, k, half) or [k // gcd(big_n, k)]  # the least feasible
            ops.append(("regular", big_n, k, rng.choice(degrees)))
    for big_n, k, top in CONSTRUCT_LARGE:
        ops.append(("regular", big_n, k, rng.choice(_top_degrees(big_n, k, top))))
    rng.shuffle(ops)
    return ops
