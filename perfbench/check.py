"""The benchmark's own checks of library outputs.

Nothing here imports the library: verdicts arrive as plain tuples
(see `workloads.plain_verdict`) and graphs as lists of adjacency
bitmasks, so a bug in the library cannot hide in the code that checks it.
Each check returns None when the output is right and a short reason when
it is not.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, lcm


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def edge_bound(k: int, p: int) -> int:
    """Minimum edge degree that certifies membership: p*k^3 + (p-3)*k + 1."""
    return p * k**3 + (p - 3) * k + 1


def clique_bound(k: int, p: int) -> int:
    """Size from which a maximal clique is big: p*k^2 + (p-2)*k + 2."""
    return p * k**2 + (p - 2) * k + 2


def to_mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def masks_from_edges(n: int, edges) -> list:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def line_masks(edges) -> list:
    """Adjacency masks of the intersection graph of the given vertex sets;
    repeated sets are adjacent to each other."""
    star: dict = {}
    for i, e in enumerate(edges):
        for v in e:
            star[v] = star.get(v, 0) | 1 << i
    adj = []
    for i, e in enumerate(edges):
        row = 0
        for v in e:
            row |= star[v]
        adj.append(row & ~(1 << i))
    return adj


def serialize_graph(n: int, adj: list) -> str:
    """Canonical .gr text: header, then `u v` with u < v in lexicographic order."""
    lines = []
    for u in range(n):
        for v in bits(adj[u] >> (u + 1) << (u + 1)):
            lines.append(f"{u} {v}")
    return f"G {n} {len(lines)}\n" + "".join(line + "\n" for line in lines)


def parse_graph(text: str):
    rows = text.splitlines()
    tag, n, m = rows[0].split()
    n, m = int(n), int(m)
    if tag != "G" or len(rows) != m + 1:
        return None
    adj = [0] * n
    for row in rows[1:]:
        u, v = row.split()
        u, v = int(u), int(v)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return n, adj


def parse_hypergraph(text: str):
    rows = text.splitlines()
    tag, n, m = rows[0].split()
    if tag != "H" or len(rows) != int(m) + 1:
        return None
    return int(n), [tuple(int(x) for x in row.split()) for row in rows[1:]]


def parse_partition(text: str):
    rows = text.splitlines()
    tag, big_n, k, count = rows[0].split()
    if tag != "B":
        return None
    classes = []
    for row in rows[1:]:
        tokens = row.split()
        if tokens[0] == "S":
            classes.append([])
        else:
            classes[-1].append(tuple(int(x) for x in tokens))
    if len(classes) != int(count):
        return None
    return int(big_n), int(k), classes


def min_edge_degree(adj: list) -> int:
    best = None
    for u, row in enumerate(adj):
        for v in bits(row >> (u + 1) << (u + 1)):
            d = (row & adj[v]).bit_count()
            if best is None or d < best:
                best = d
    return best


def is_clique(adj: list, mask: int) -> bool:
    return all(not (mask & ~adj[v] & ~(1 << v)) for v in bits(mask))


def is_maximal_clique(adj: list, mask: int) -> bool:
    if not is_clique(adj, mask):
        return False
    common = -1
    for v in bits(mask):
        common &= adj[v]
    return common & ~mask == 0


def _subset_of(values, allowed: int, size: int) -> bool:
    m = to_mask(values)
    return len(values) == size and m.bit_count() == size and m & ~allowed == 0


def check_witness(adj: list, k: int, p: int, verdict: tuple):
    """Soundness of a NonMember witness against the graph."""
    kind = verdict[0]
    big = clique_bound(k, p)
    if kind == "claw":
        _, center, leaves = verdict
        lm = to_mask(leaves)
        if len(leaves) != k + 1 or lm.bit_count() != k + 1 or lm & ~adj[center]:
            return f"claw leaves {leaves} are not {k + 1} neighbours of {center}"
        if any(adj[a] >> b & 1 for a, b in combinations(leaves, 2)):
            return "claw leaves are not pairwise non-adjacent"
        return None
    if kind == "f1":
        _, a, b, common = verdict
        if a == b or adj[a] >> b & 1:
            return f"f1 pair {a},{b} is adjacent"
        if not _subset_of(common, adj[a] & adj[b], p * k * k + 1):
            return "f1 common neighbours are wrong or too few"
        return None
    if kind == "f2":
        _, clique, vertex, attachment = verdict
        cm = to_mask(clique)
        if len(clique) < big or not is_maximal_clique(adj, cm):
            return "f2 clique is not a big maximal clique"
        if cm >> vertex & 1 or not _subset_of(attachment, cm & adj[vertex], p * k + 1):
            return "f2 attachment is wrong or too small"
        return None
    if kind == "f3":
        _, clique_a, clique_b, shared = verdict
        ma, mb = to_mask(clique_a), to_mask(clique_b)
        if ma == mb or min(len(clique_a), len(clique_b)) < big:
            return "f3 cliques are equal or not big"
        if not (is_maximal_clique(adj, ma) and is_maximal_clique(adj, mb)):
            return "f3 cliques are not maximal cliques"
        if not _subset_of(shared, ma & mb, p + 1):
            return "f3 shared set is wrong or too small"
        return None
    return f"not a refutation: {kind}"


def check_cover(adj: list, cliques, k: int, p: int):
    """The three cover conditions, with every entry a clique of the graph."""
    masks = [to_mask(c) for c in cliques]
    for m in masks:
        if not m or not is_clique(adj, m):
            return "cover entry is not a clique"
    for u, row in enumerate(adj):
        for v in bits(row >> (u + 1) << (u + 1)):
            need = 1 << u | 1 << v
            if not any(m & need == need for m in masks):
                return f"edge ({u}, {v}) is not covered"
    load = [0] * len(adj)
    for c in cliques:
        for v in c:
            load[v] += 1
    if max(load, default=0) > k:
        return "a vertex lies in more than k cover entries"
    for a, b in combinations(masks, 2):
        if (a & b).bit_count() > p:
            return "two cover entries share more than p vertices"
    return None


def check_rebuilt(adj: list, text: str, k: int, p: int):
    """A serialized witness hypergraph: k-uniform, pair multiplicity <= p,
    and its line graph equal to the graph vertex for vertex."""
    parsed = parse_hypergraph(text)
    if parsed is None:
        return "witness hypergraph text is malformed"
    _, edges = parsed
    if any(len(e) != k for e in edges):
        return "witness hypergraph is not k-uniform"
    pairs: dict = {}
    for e in edges:
        for pair in combinations(e, 2):
            pairs[pair] = pairs.get(pair, 0) + 1
    if max(pairs.values(), default=0) > p:
        return "witness hypergraph exceeds pair multiplicity p"
    if line_masks(edges) != adj:
        return "line graph of the witness differs from the input"
    return None


def check_partition(big_n: int, k: int, classes) -> str | None:
    """Classes partition all k-subsets of {1..N}, each class balanced."""
    big = lcm(big_n, k)
    if len(classes) != k * comb(big_n, k) // big:
        return "wrong number of classes"
    seen = set()
    for cls in classes:
        if len(cls) != big // k:
            return "class has the wrong number of sets"
        uses = [0] * (big_n + 1)
        for s in cls:
            if len(s) != k or list(s) != sorted(set(s)) or s[0] < 1 or s[-1] > big_n:
                return "class holds a set that is not a k-subset"
            seen.add(s)
            for x in s:
                uses[x] += 1
        if any(u != big // big_n for u in uses[1:]):
            return "class is not balanced"
    if len(seen) != comb(big_n, k):
        return "classes repeat a k-subset"
    return None


def check_regular(big_n: int, k: int, d: int, hg_text: str, g_text: str):
    """A constant-degree hypergraph and the serialized line graph built from it."""
    parsed = parse_hypergraph(hg_text)
    if parsed is None:
        return "hypergraph text is malformed"
    n, edges = parsed
    if n != big_n or len(edges) != d * big_n // k:
        return "hypergraph has the wrong size"
    degree = [0] * big_n
    for e in edges:
        if len(e) != k or list(e) != sorted(set(e)) or e[0] < 0 or e[-1] >= big_n:
            return "hyperedge is not a k-subset"
        for v in e:
            degree[v] += 1
    if any(x != d for x in degree):
        return "degree sequence is not constant"
    if d <= comb(big_n - 1, k - 1) and len(set(edges)) != len(edges):
        return "edges repeat although the degree allows a simple hypergraph"
    graph = parse_graph(g_text)
    if graph is None or graph[1] != line_masks(edges):
        return "serialized line graph differs from the hypergraph's"
    return None
