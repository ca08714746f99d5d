"""The four workloads: inputs, one timed operation, and its check.

A workload holds its seeded inputs.  `call(api, i)` performs operation i
through the public API of `hyperline`, looking each name up on the
package when it runs, so traced passes go through the tracer's wrappers.
`check(api, i, raw, full)` returns the output's kind and the canonical
line that enters the output digest and, when `full` is set, verifies the
output with the benchmark's own code.  Later passes only need the line:
it must equal the fully checked first pass's.
"""

from __future__ import annotations

import hashlib
import random
import sys
from collections import Counter

import check
import gen


def _sha(text: str | None) -> str:
    return "-" if text is None else hashlib.sha256(text.encode()).hexdigest()[:16]


def plain_verdict(api, verdict) -> tuple:
    """A verdict as plain data: the fields the determinism contract covers."""
    if isinstance(verdict, api.Member):
        return ("member", tuple(verdict.cover.cliques))
    if isinstance(verdict, api.Inconclusive):
        return ("inconclusive", verdict.min_edge_degree, verdict.required)
    if not isinstance(verdict, api.NonMember):
        raise TypeError(f"unknown verdict {type(verdict).__name__}")
    w = verdict.witness
    if isinstance(w, api.ClawWitness):
        return ("claw", w.claw.center, tuple(w.claw.leaves))
    if isinstance(w, api.F1Witness):
        return ("f1", w.a, w.b, tuple(w.common))
    if isinstance(w, api.F2Witness):
        return ("f2", tuple(w.clique), w.vertex, tuple(w.attachment))
    if isinstance(w, api.F3Witness):
        return ("f3", tuple(w.clique_a), tuple(w.clique_b), tuple(w.shared))
    raise TypeError(f"unknown witness {type(w).__name__}")


def _check_inconclusive(adj, k, p, pv) -> str | None:
    if pv[2] != check.edge_bound(k, p) or pv[1] != check.min_edge_degree(adj) or pv[1] >= pv[2]:
        return f"inconclusive fields {pv[1:]} disagree with the graph"
    return None


class Survey:
    """Every graph with edges on <= 6 vertices x four (k, p); each verdict
    that decides membership is cross-checked with the exhaustive oracle."""

    name = "survey"

    def __init__(self, rng: random.Random):
        graphs: dict = {}
        self.ops = []
        for n, edges, k, p in gen.survey_ops(rng):
            if (n, edges) not in graphs:
                graphs[(n, edges)] = (n, edges, check.masks_from_edges(n, edges))
            self.ops.append((graphs[(n, edges)], k, p))
        self.fingerprint_text = "".join(f"{n}:{e}:{k}:{p};" for (n, e, _), k, p in self.ops)
        self._graph_objects: dict = {}

    def materialize(self, api) -> None:
        """Build the library Graph values once, outside any timed pass."""
        objs = self._graph_objects
        for (n, edges, _), _k, _p in self.ops:
            if (n, edges) not in objs:
                objs[(n, edges)] = api.Graph(n, edges)
        self.inputs = [(objs[(n, e)], k, p) for (n, e, _), k, p in self.ops]

    def context(self, i):
        return self.ops[i][1:]

    def call(self, api, i):
        g, k, p = self.inputs[i]
        verdict = api.recognize(g, k, p)
        oracle = None
        if isinstance(verdict, (api.Member, api.NonMember)):
            oracle = api.cover_search(g, k, p)
        return verdict, oracle

    def check(self, api, i, raw, full):
        (_, _, adj), k, p = self.ops[i]
        verdict, oracle = raw
        pv = plain_verdict(api, verdict)
        ov = None if oracle is None else tuple(oracle.cliques)
        line = f"{pv}|{ov}"
        if not full:
            return pv[0], line, None
        if pv[0] == "member":
            err = check.check_cover(adj, pv[1], k, p)
            if err is None and ov is None:
                err = "oracle finds no cover for a Member"
        elif pv[0] == "inconclusive":
            err = _check_inconclusive(adj, k, p, pv)
        else:
            err = check.check_witness(adj, k, p, pv)
            if err is None and ov is not None:
                err = "oracle finds a cover for a NonMember"
        if err is None and ov is not None:
            err = check.check_cover(adj, ov, k, p)
        return pv[0], line, err


class _ParsedGraphs:
    """Shared by certify and refute: inputs are .gr texts parsed in the op."""

    def context(self, i):
        return self.ops[i][0], self.ops[i][1]

    def materialize(self, api) -> None:
        pass


class Certify(_ParsedGraphs):
    """Line graphs of random bounded hypergraphs: every check runs to the
    end; Members are rebuilt into a witness and serialized."""

    name = "certify"

    def __init__(self, rng: random.Random):
        self.ops = []
        for k, p, n, adj in gen.certify_ops(rng):
            text = check.serialize_graph(n, adj)
            self.ops.append((k, p, adj, text, check.min_edge_degree(adj)))
        self.fingerprint_text = "".join(f"{k}:{p}:{t}" for k, p, _, t, _ in self.ops)

    def call(self, api, i):
        k, p, _, text, _ = self.ops[i]
        g = api.fileio.read_graph(text)
        verdict = api.recognize(g, k, p)
        rebuilt = None
        if isinstance(verdict, api.Member):
            rebuilt = api.fileio.write_hypergraph(api.cover_to_hypergraph(g, verdict.cover, k, p))
        return verdict, rebuilt

    def check(self, api, i, raw, full):
        k, p, adj, _, med = self.ops[i]
        verdict, rebuilt = raw
        pv = plain_verdict(api, verdict)
        line = f"{pv}|{_sha(rebuilt)}"
        if not full:
            return pv[0], line, None
        expected = "member" if med >= check.edge_bound(k, p) else "inconclusive"
        if pv[0] != expected:
            return pv[0], line, f"verdict {pv[0]} on a line graph, expected {expected}"
        if pv[0] == "inconclusive":
            return pv[0], line, _check_inconclusive(adj, k, p, pv)
        err = check.check_cover(adj, pv[1], k, p)
        if err is None:
            err = check.check_rebuilt(adj, rebuilt, k, p)
        return pv[0], line, err


class Refute(_ParsedGraphs):
    """Line graphs with one planted defect each: every verdict must be a
    sound NonMember."""

    name = "refute"

    def __init__(self, rng: random.Random):
        self.ops = []
        for k, p, defect, n, adj in gen.refute_ops(rng):
            self.ops.append((k, p, adj, check.serialize_graph(n, adj), defect))
        self.fingerprint_text = "".join(f"{k}:{p}:{t}" for k, p, _, t, _ in self.ops)
        self.defects = Counter(op[4] for op in self.ops)

    def call(self, api, i):
        k, p, _, text, _ = self.ops[i]
        return api.recognize(api.fileio.read_graph(text), k, p)

    def check(self, api, i, raw, full):
        k, p, adj, _, _ = self.ops[i]
        pv = plain_verdict(api, raw)
        return pv[0], f"{pv}", check.check_witness(adj, k, p, pv) if full else None


class Construct:
    """Cold Baranyai partitions and constant-degree hypergraphs with their
    line graphs, serialized as the CLI would."""

    name = "construct"

    def __init__(self, rng: random.Random):
        self.ops = gen.construct_ops(rng)
        self.fingerprint_text = "".join(f"{op};" for op in self.ops)

    def materialize(self, api) -> None:
        # The induction is memoised per (N, k); clearing the cache before
        # each operation makes every timed op pay for it, as a CLI call does.
        cached = getattr(sys.modules.get("hyperline.baranyai"), "_baranyai_classes", None)
        self.clear_cache = getattr(cached, "cache_clear", None)

    def before(self, i) -> None:
        if self.clear_cache is not None:
            self.clear_cache()

    def context(self, i):
        return ()  # no tracer hook needs (k, p) here

    def call(self, api, i):
        kind, big_n, k, d = self.ops[i]
        if kind == "partition":
            return api.fileio.write_partition(api.baranyai_partition(big_n, k), big_n, k)
        hg = api.regular_hypergraph(big_n, k, d)
        return api.fileio.write_hypergraph(hg), api.fileio.write_graph(api.line_graph(hg))

    def check(self, api, i, raw, full):
        kind, big_n, k, d = self.ops[i]
        if not full:
            texts = (raw,) if kind == "partition" else raw
            return kind, f"{kind} {big_n} {k} {d} " + " ".join(_sha(t) for t in texts), None
        if kind == "partition":
            parsed = check.parse_partition(raw)
            if parsed is None or parsed[:2] != (big_n, k):
                err = "partition text is malformed"
            else:
                err = check.check_partition(big_n, k, parsed[2])
            return kind, f"{kind} {big_n} {k} {d} {_sha(raw)}", err
        hg_text, g_text = raw
        err = check.check_regular(big_n, k, d, hg_text, g_text)
        return kind, f"{kind} {big_n} {k} {d} {_sha(hg_text)} {_sha(g_text)}", err


WORKLOADS = {cls.name: cls for cls in (Survey, Certify, Refute, Construct)}
