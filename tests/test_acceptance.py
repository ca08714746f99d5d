"""Acceptance suite: one test per criterion, each ending in a printed
PASS line.  Stated runtime budgets are asserted, everything else is
exact integer combinatorics."""

import random
import subprocess
import sys
import time
from itertools import combinations
from math import comb, lcm

import pytest

from hyperline import (
    ClawWitness,
    F1Witness,
    Graph,
    Hypergraph,
    Member,
    NonMember,
    baranyai_partition,
    cover_search,
    line_graph,
    recognize,
    reconstruct,
    validate_cover,
)
from hyperline import baranyai
from hyperline.baranyai import extend, initial_state
from hyperline.oracle import scan_regular_realizability
from hyperline.recognition import thresholds

from conftest import (
    all_graphs,
    complete_bipartite,
    complete_graph,
    module_env,
    random_bounded_hypergraph,
    state_violations,
)

NECESSITY_COMBOS = [(k, p) for k in (2, 3, 4) for p in (1, 2, 3)]
ORACLE_COMBOS = [(2, 1), (2, 2), (3, 1), (3, 2)]
SUFFICIENCY_COMBOS = [(2, 1), (3, 1), (2, 2)]


def sunflower(petals: int, k: int) -> Hypergraph:
    edges = []
    nxt = 1
    for _ in range(petals):
        edges.append(tuple([0] + list(range(nxt, nxt + k - 1))))
        nxt += k - 1
    return Hypergraph(nxt, edges)


@pytest.fixture(scope="module")
def small_graph_survey():
    """Recognize every graph on <= 6 vertices for every oracle combo and
    cross-check Member/NonMember verdicts against the exhaustive cover
    search.  Shared by criteria 2 and 4."""
    start = time.perf_counter()
    disagreements = []
    members = []
    counts = {"member": 0, "nonmember": 0, "inconclusive": 0, "skipped_edgeless": 0}
    for n in range(1, 7):
        for g in all_graphs(n):
            if g.edge_count == 0:
                counts["skipped_edgeless"] += 1
                continue
            for k, p in ORACLE_COMBOS:
                verdict = recognize(g, k, p)
                if isinstance(verdict, Member):
                    counts["member"] += 1
                    members.append((g, k, p, verdict))
                    if cover_search(g, k, p) is None:
                        disagreements.append(f"n={n} k={k} p={p}: Member but no oracle cover")
                elif isinstance(verdict, NonMember):
                    counts["nonmember"] += 1
                    if cover_search(g, k, p) is not None:
                        disagreements.append(f"n={n} k={k} p={p}: NonMember but oracle cover")
                else:
                    counts["inconclusive"] += 1
    return {
        "elapsed": time.perf_counter() - start,
        "disagreements": disagreements,
        "members": members,
        "counts": counts,
    }


@pytest.fixture(scope="module")
def threshold_members():
    """Member verdicts of criterion 3: complete graphs just above the
    edge-degree bound plus sunflower line graphs.  Shared with criterion 4."""
    cases = []
    for k, p in SUFFICIENCY_COMBOS:
        bound = thresholds(k, p).edge_degree_bound
        for n in range(bound + 2, bound + 5):
            cases.append((complete_graph(n), k, p))
        petals = bound + 2
        flower = sunflower(petals, k)
        assert flower.is_k_uniform(k) and flower.multiplicity() <= p
        cases.append((line_graph(flower), k, p))
    out = []
    for g, k, p in cases:
        verdict = recognize(g, k, p)
        out.append((g, k, p, verdict))
    return out


def test_criterion_1_necessity_suite():
    start = time.perf_counter()
    per_combo = 1000
    checked = 0
    rejected = []
    for k, p in NECESSITY_COMBOS:
        rng = random.Random(7919 * k + p)
        done = 0
        while done < per_combo:
            hg = random_bounded_hypergraph(rng, k, p, max_edges=12)
            assert hg.is_k_uniform(k) and hg.multiplicity() <= p
            lg = line_graph(hg)
            if lg.edge_count == 0:
                continue  # recognition requires at least one edge
            verdict = recognize(lg, k, p)
            if isinstance(verdict, NonMember):
                rejected.append((k, p, hg))
            done += 1
            checked += 1
    elapsed = time.perf_counter() - start
    assert not rejected, rejected[:3]
    assert checked >= 1000 * len(NECESSITY_COMBOS)
    assert elapsed < 10.0, f"necessity suite took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 1 PASS necessity: {checked} bounded hypergraphs, "
        f"0 rejected, {elapsed:.2f}s"
    )


def test_criterion_2_oracle_equivalence(small_graph_survey):
    survey = small_graph_survey
    assert not survey["disagreements"], survey["disagreements"][:5]
    counts = survey["counts"]
    total = counts["member"] + counts["nonmember"] + counts["inconclusive"]
    assert total == (2**15 + 1024 + 64 + 8 + 2 + 1 - counts["skipped_edgeless"]) * len(
        ORACLE_COMBOS
    )
    assert survey["elapsed"] < 600.0, f"survey took {survey['elapsed']:.1f}s"
    print(
        f"ACCEPTANCE 2 PASS oracle equivalence: {total} verdicts "
        f"({counts['nonmember']} refuted, 0 disagreements), {survey['elapsed']:.1f}s"
    )


def test_criterion_3_sufficiency_at_threshold(threshold_members):
    failures = []
    for g, k, p, verdict in threshold_members:
        if not isinstance(verdict, Member):
            failures.append((g.n, k, p, type(verdict).__name__))
            continue
        rebuilt = reconstruct(g, k, p)
        if line_graph(rebuilt) != g:
            failures.append((g.n, k, p, "line graph differs"))
    assert not failures, failures
    print(
        f"ACCEPTANCE 3 PASS sufficiency: {len(threshold_members)} graphs at the "
        "edge-degree bound recognized and rebuilt exactly"
    )


def test_criterion_4_reconstruction_contract(small_graph_survey, threshold_members):
    all_members = list(small_graph_survey["members"]) + [
        (g, k, p, v) for g, k, p, v in threshold_members if isinstance(v, Member)
    ]
    assert all_members, "criterion 3 must contribute Member verdicts"
    for g, k, p, verdict in all_members:
        assert validate_cover(g, verdict.cover, k, p), (g.n, k, p)
        hg = reconstruct(g, k, p)
        assert hg.is_k_uniform(k), (g.n, k, p)
        assert hg.multiplicity() <= p, (g.n, k, p)
    print(
        f"ACCEPTANCE 4 PASS reconstruction contract: {len(all_members)} member "
        "covers validated, witnesses k-uniform with bounded multiplicity"
    )


def test_criterion_5_baranyai_partition(monkeypatch):
    values = []
    max_flow = baranyai.max_flow

    def recorded(*args):
        flow = max_flow(*args)
        values.append(flow.value)
        return flow

    monkeypatch.setattr(baranyai, "max_flow", recorded)
    start = time.perf_counter()
    pairs = [(n, k) for n in range(2, 11) for k in range(2, n + 1)]
    pairs += [(12, 3), (12, 4), (12, 6)]
    for n, k in pairs:
        state = initial_state(n, k)
        assert not state_violations(state), (n, k, 1)
        while state.level < n:
            level = state.level
            values.clear()
            state = extend(state)
            assert values == [comb(n - 1, k - 1)], (n, k, level)
            assert not state_violations(state), (n, k, state.level)
        classes = baranyai_partition(n, k)
        big = lcm(n, k)
        assert len(classes) == k * comb(n, k) // big
        seen = []
        for cls in classes:
            assert len(cls) == big // k
            seen.extend(cls)
        assert sorted(seen) == sorted(combinations(range(1, n + 1), k)), (n, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"partition suite took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 5 PASS partitions: {len(pairs)} (N, k) pairs, invariants "
        f"hold at every level, saturating flows throughout, {elapsed:.2f}s"
    )


def test_criterion_6_regular_realizability_scan():
    start = time.perf_counter()
    report = scan_regular_realizability(8, 6)
    elapsed = time.perf_counter() - start
    assert report.ok, report.discrepancies[:5]
    expected_cases = sum(
        comb(n - 1, k - 1) for n in range(2, 9) for k in range(2, min(6, n) + 1)
    )
    assert report.cases == expected_cases
    assert elapsed < 60.0, f"scan took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 6 PASS realizability: {report.cases} (N, k, d) cases, "
        f"success iff k | dN, constant degrees verified, {elapsed:.2f}s"
    )


def test_criterion_7_known_ground_truths():
    matchings = {frozenset(cls) for cls in baranyai_partition(4, 2)}
    assert matchings == {
        frozenset({(1, 2), (3, 4)}),
        frozenset({(1, 3), (2, 4)}),
        frozenset({(1, 4), (2, 3)}),
    }
    claw_verdict = recognize(Graph(4, [(0, 1), (0, 2), (0, 3)]), 2, 1)
    assert isinstance(claw_verdict, NonMember)
    assert isinstance(claw_verdict.witness, ClawWitness)
    f1_verdict = recognize(complete_bipartite(2, 5), 2, 1)
    assert isinstance(f1_verdict, NonMember)
    assert isinstance(f1_verdict.witness, F1Witness)
    print(
        "ACCEPTANCE 7 PASS ground truths: perfect matchings of K4, claw witness "
        "for K_{1,3}, F1 witness for K_{2,5}"
    )


def _cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "hyperline", *args],
        capture_output=True,
        cwd=cwd,
        env=module_env(),
    )


def test_criterion_8_determinism(tmp_path):
    (tmp_path / "H.hg").write_text("H 3 3\n0 1\n1 2\n0 2\n")
    (tmp_path / "claw.gr").write_text("G 4 3\n0 1\n0 2\n0 3\n")
    runs = [
        (["linegraph", "--in", "H.hg", "--out", "G.gr"], 0),
        (["recognize", "--in", "claw.gr", "-k", "2", "-p", "1"], 1),
        (["regular", "-N", "4", "-k", "3", "-d", "2"], 1),
        (["selftest"], 0),
    ]
    for args, expected_code in runs:
        first = _cli(args, tmp_path)
        file_bytes = (tmp_path / "G.gr").read_bytes() if "--out" in args else None
        second = _cli(args, tmp_path)
        assert first.returncode == expected_code, (args, first.stderr)
        assert second.returncode == first.returncode
        assert second.stdout == first.stdout, args
        assert second.stderr == first.stderr, args
        if file_bytes is not None:
            assert (tmp_path / "G.gr").read_bytes() == file_bytes
    out = _cli(["recognize", "--in", "claw.gr", "-k", "2", "-p", "1"], tmp_path)
    assert out.stdout.decode().splitlines()[0] == "NONMEMBER claw center=0 leaves=1,2,3"
    reg = _cli(["regular", "-N", "4", "-k", "3", "-d", "2"], tmp_path)
    assert reg.stdout.decode().splitlines()[0] == "k does not divide d*N"
    line = _cli(["linegraph", "--in", "H.hg"], tmp_path)
    assert line.stdout.decode() == "G 3 3\n0 1\n0 2\n1 2\n"
    print("ACCEPTANCE 8 PASS determinism: byte-identical CLI output across runs")
