"""End-to-end round trips behind the ``selftest`` CLI command.

Every check is pure and seedless, so consecutive runs print identical
bytes.  A failed expectation raises AssertionError with a short message,
also under ``python -O``; the runner reports it and exits nonzero.  The
unit-level checks live in the test suite; these only confirm that an
installed copy works from input to certificate to output.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, TextIO

from . import fileio
from .baranyai import baranyai_partition
from .graph import Graph, line_graph, maximal_cliques
from .hypergraph import Hypergraph
from .oracle import scan_regular_realizability
from .recognition import (
    ClawWitness,
    Member,
    NonMember,
    _big_cliques,
    recognize,
    reconstruct,
    thresholds,
)
from .reconstruction import validate_cover


def _expect(ok: object, detail: object) -> None:
    if not ok:
        raise AssertionError(detail)


def _check_member_round_trip() -> None:
    # two stars of 7 leaves joined at their centres: two 8-cliques meeting in a vertex
    star_edges = [(0, 1)] + [(0, v) for v in range(2, 9)] + [(1, v) for v in range(9, 16)]
    g = line_graph(Hypergraph(16, star_edges))
    verdict = recognize(g, 2, 1)
    _expect(isinstance(verdict, Member), verdict)
    _expect(len(verdict.cover) == 2 and validate_cover(g, verdict.cover, 2, 1), verdict.cover)
    hg = reconstruct(g, 2, 1)
    _expect(hg.is_k_uniform(2) and hg.multiplicity() <= 1, hg)
    _expect(line_graph(hg) == g, "line graph of the rebuilt hypergraph differs")


def _check_nonmember_witness() -> None:
    verdict = recognize(Graph(4, [(0, 1), (0, 2), (0, 3)]), 2, 1)
    _expect(isinstance(verdict, NonMember) and isinstance(verdict.witness, ClawWitness), verdict)
    claw = verdict.witness.claw
    _expect((claw.center, claw.leaves) == (0, (1, 2, 3)), claw)


def _check_partition() -> None:
    for big_n in range(2, 8):
        for k in range(2, big_n + 1):
            classes = baranyai_partition(big_n, k)
            sets = sorted(s for cls in classes for s in cls)
            _expect(sets == list(combinations(range(1, big_n + 1), k)), (big_n, k))
            for cls in classes:
                counts = [sum(v in s for s in cls) for v in range(1, big_n + 1)]
                _expect(len(set(counts)) == 1, (big_n, k, cls))
    report = scan_regular_realizability(6, 4)
    _expect(report.ok, report.discrepancies)


def _check_fileio() -> None:
    hg = Hypergraph(5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
    _expect(fileio.read_hypergraph(fileio.write_hypergraph(hg)) == hg, ".hg")
    g = line_graph(hg)
    _expect(fileio.read_graph(fileio.write_graph(g)) == g, ".gr")
    classes = baranyai_partition(4, 2)
    text = fileio.write_partition(classes, 4, 2)
    _expect(fileio.read_partition(text) == (4, 2, classes), ".bp")


def _check_big_cliques() -> None:
    # The line graph of K10, past the size where recognize builds its big
    # cliques from the edges, beside four 4-cliques on eight more vertices:
    # the edge scan finds the first three, which hold every edge of the
    # fourth, and the completion after the F2 hit adds that fourth.
    base = line_graph(Hypergraph(10, list(combinations(range(10), 2))))
    n = base.n
    cliques = [(0, 4, 5, 6), (1, 4, 5, 7), (2, 3, 6, 7), (4, 5, 6, 7)]
    extra = {(n + a, n + b) for c in cliques for a, b in combinations(c, 2)}
    g = Graph(n + 8, list(base.edges()) + sorted(extra))
    t = thresholds(2, 1)
    big, _ = _big_cliques(g, t)
    _expect(big == maximal_cliques(g, t.clique_size_bound), "the edge scan's clique list differs")


CHECKS: tuple[tuple[str, Callable[[], None]], ...] = (
    ("member-round-trip", _check_member_round_trip),
    ("nonmember-witness", _check_nonmember_witness),
    ("partition-invariants", _check_partition),
    ("file-round-trips", _check_fileio),
    ("big-cliques", _check_big_cliques),
)


def run(out: TextIO) -> int:
    """Run every check; print one line each; 0 iff all pass."""
    failures = 0
    for name, check in CHECKS:
        try:
            check()
        except AssertionError as exc:
            failures += 1
            out.write(f"FAIL {name}: {exc}\n")
            continue
        out.write(f"ok {name}\n")
    if failures:
        out.write(f"SELFTEST FAIL checks={len(CHECKS)} failures={failures}\n")
        return 3
    out.write(f"SELFTEST PASS checks={len(CHECKS)}\n")
    return 0
