import io
import random
import subprocess
import sys
import time
from itertools import combinations

import pytest

from hyperline import cli, selftest
from hyperline.cli import run_cli
from hyperline.fileio import read_hypergraph, read_partition, write_graph, write_hypergraph
from hyperline.oracle import ScanReport
from hyperline import Graph, Hypergraph, InternalContradictionError, line_graph

from conftest import complete_bipartite, complete_graph, cycle_graph, module_env


def run(args, tmp_path=None):
    out = io.StringIO()
    code = run_cli(args, out=out)
    return code, out.getvalue()


@pytest.fixture
def triangle_of_pairs(tmp_path):
    path = tmp_path / "H.hg"
    path.write_text(write_hypergraph(Hypergraph(3, [(0, 1), (1, 2), (0, 2)])))
    return path


@pytest.fixture
def claw_graph(tmp_path):
    path = tmp_path / "claw.gr"
    path.write_text("G 4 3\n0 1\n0 2\n0 3\n")
    return path


def test_linegraph_writes_k3(triangle_of_pairs, tmp_path):
    out_path = tmp_path / "G.gr"
    code, _ = run(["linegraph", "--in", str(triangle_of_pairs), "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text() == "G 3 3\n0 1\n0 2\n1 2\n"


def test_linegraph_stdout(triangle_of_pairs):
    code, text = run(["linegraph", "--in", str(triangle_of_pairs)])
    assert code == 0
    assert text == write_graph(complete_graph(3))


def test_recognize_claw_record(claw_graph):
    code, text = run(["recognize", "--in", str(claw_graph), "-k", "2", "-p", "1"])
    assert code == 1
    assert text.splitlines()[0] == "NONMEMBER claw center=0 leaves=1,2,3"


def test_recognize_deep_claw_record(tmp_path, capsys):
    """A 1 200-leaf claw, deeper than the recursion limit, is reported as
    a NONMEMBER record, not as an exhausted resource."""
    path = tmp_path / "star.gr"
    path.write_text(write_graph(Graph(1201, [(0, v) for v in range(1, 1201)])))
    code, text = run(["recognize", "--in", str(path), "-k", "1199", "-p", "1"])
    assert (code, capsys.readouterr().err) == (1, "")
    leaves = ",".join(map(str, range(1, 1201)))
    assert text.splitlines()[0] == f"NONMEMBER claw center=0 leaves={leaves}"


def test_recognize_member_k7(tmp_path):
    path = tmp_path / "k7.gr"
    path.write_text(write_graph(complete_graph(7)))
    code, text = run(["recognize", "--in", str(path), "-k", "2", "-p", "1"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "MEMBER cliques=1"
    assert lines[1] == "K 0 0 1 2 3 4 5 6"


def test_recognize_inconclusive_c5(tmp_path):
    path = tmp_path / "c5.gr"
    path.write_text(write_graph(cycle_graph(5)))
    code, text = run(["recognize", "--in", str(path), "-k", "2", "-p", "1"])
    assert code == 0
    assert text.splitlines()[0] == "INCONCLUSIVE min_edge_degree=0 required=5"


def test_recognize_oracle_fallback_member(tmp_path):
    path = tmp_path / "c5.gr"
    path.write_text(write_graph(cycle_graph(5)))
    code, text = run(
        ["recognize", "--in", str(path), "-k", "2", "-p", "1", "--oracle-fallback"]
    )
    assert code == 0
    assert "ORACLE MEMBER cliques=5" in text


def test_recognize_oracle_fallback_nonmember(tmp_path):
    # wheel on 5 rim vertices: hub degree 5 cannot be covered by 2 cliques
    wheel = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)]
    path = tmp_path / "w5.gr"
    path.write_text(write_graph(Graph(6, wheel)))
    code, text = run(
        ["recognize", "--in", str(path), "-k", "2", "-p", "1", "--oracle-fallback"]
    )
    assert code == 1
    assert "ORACLE NONMEMBER" in text


def test_recognize_oracle_fallback_skips_graphs_above_the_oracle_bound(tmp_path):
    path = tmp_path / "c9.gr"
    path.write_text(write_graph(cycle_graph(9)))
    code, text = run(
        ["recognize", "--in", str(path), "-k", "2", "-p", "1", "--oracle-fallback"]
    )
    assert code == 0
    assert text.splitlines()[0] == "INCONCLUSIVE min_edge_degree=0 required=5"
    assert text.splitlines()[-1] == "# oracle fallback skipped: graph exceeds 8 vertices"
    assert "ORACLE" not in text


def test_reconstruct_k7(tmp_path):
    src = tmp_path / "k7.gr"
    src.write_text(write_graph(complete_graph(7)))
    dst = tmp_path / "out.hg"
    code, text = run(
        ["reconstruct", "--in", str(src), "-k", "2", "-p", "1", "--out", str(dst)]
    )
    assert code == 0
    hg = read_hypergraph(dst.read_text())
    assert line_graph(hg) == complete_graph(7)
    assert "MEMBER cliques=1" in text


def test_reconstruct_cover_file(tmp_path):
    src = tmp_path / "k7.gr"
    src.write_text(write_graph(complete_graph(7)))
    dst = tmp_path / "out.hg"
    cov = tmp_path / "cover.txt"
    code, _ = run(
        ["reconstruct", "--in", str(src), "-k", "2", "-p", "1",
         "--out", str(dst), "--out-cover", str(cov)]
    )
    assert code == 0
    assert cov.read_text() == "K 0 0 1 2 3 4 5 6\n"


def test_reconstruct_inconclusive_exits_1(tmp_path):
    path = tmp_path / "c5.gr"
    path.write_text(write_graph(cycle_graph(5)))
    code, text = run(
        ["reconstruct", "--in", str(path), "-k", "2", "-p", "1",
         "--out", str(tmp_path / "x.hg")]
    )
    assert code == 1
    assert text.splitlines()[0].startswith("INCONCLUSIVE")
    assert not (tmp_path / "x.hg").exists()


def test_reconstruct_nonmember_exits_1(claw_graph, tmp_path):
    code, text = run(
        ["reconstruct", "--in", str(claw_graph), "-k", "2", "-p", "1",
         "--out", str(tmp_path / "x.hg")]
    )
    assert code == 1
    assert not (tmp_path / "x.hg").exists()


def test_baranyai_partition_output():
    code, text = run(["baranyai", "-N", "4", "-k", "2"])
    assert code == 0
    ground, size, classes = read_partition(text)
    assert (ground, size, len(classes)) == (4, 2, 3)


def test_baranyai_golden_bytes():
    code, text = run(["baranyai", "-N", "3", "-k", "2"])
    assert code == 0
    assert text == "B 3 2 1\nS 0 3\n1 2\n1 3\n2 3\n"


def test_witness_record_formats(tmp_path):
    k25 = tmp_path / "k25.gr"
    k25.write_text(write_graph(complete_bipartite(2, 5)))
    _, text = run(["recognize", "--in", str(k25), "-k", "2", "-p", "1"])
    assert text.splitlines()[0] == "NONMEMBER f1 a=0 b=1 common=2,3,4,5,6"

    attached = tmp_path / "f2.gr"
    attached.write_text(
        write_graph(
            Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 0), (4, 1), (4, 2)])
        )
    )
    _, text = run(["recognize", "--in", str(attached), "-k", "2", "-p", "1"])
    assert text.splitlines()[0] == "NONMEMBER f2 clique=0,1,2,3 vertex=4 attachment=0,1,2"

    overlapped = tmp_path / "f3.gr"
    quads = [(a, b) for a, b in combinations([0, 1, 2, 3], 2)]
    quads += [(a, b) for a, b in combinations([2, 3, 4, 5], 2)]
    overlapped.write_text(write_graph(Graph(6, quads)))
    _, text = run(["recognize", "--in", str(overlapped), "-k", "2", "-p", "1"])
    assert (
        text.splitlines()[0]
        == "NONMEMBER f3 clique1=0,1,2,3 clique2=2,3,4,5 shared=2,3"
    )


def test_regular_divisibility_error():
    code, text = run(["regular", "-N", "4", "-k", "3", "-d", "2"])
    assert code == 1
    assert text.splitlines()[0] == "k does not divide d*N"


def test_regular_writes_hypergraph(tmp_path):
    out_path = tmp_path / "reg.hg"
    code, _ = run(["regular", "-N", "4", "-k", "2", "-d", "3", "--out", str(out_path)])
    assert code == 0
    hg = read_hypergraph(out_path.read_text())
    assert hg.degree_sequence() == [3, 3, 3, 3]


def test_regular_strict_simple():
    code, text = run(["regular", "-N", "3", "-k", "2", "-d", "4", "--strict-simple"])
    assert code == 1
    assert "no simple realization" in text


def test_regular_cyclic_note():
    code, text = run(["regular", "-N", "3", "-k", "2", "-d", "4"])
    assert code == 0
    assert text.startswith("# note: repeated edges")


def test_oracle_cover(claw_graph):
    code, text = run(["oracle", "cover", "--in", str(claw_graph), "-k", "2", "-p", "1"])
    assert code == 1
    assert text.splitlines()[0] == "NOCOVER"


def test_oracle_cover_found(tmp_path):
    path = tmp_path / "k3.gr"
    path.write_text(write_graph(complete_graph(3)))
    code, text = run(["oracle", "cover", "--in", str(path), "-k", "2", "-p", "1"])
    assert code == 0
    assert text.splitlines()[0] == "COVER cliques=1"


def test_oracle_cover_budget_exhaustion(tmp_path):
    path = tmp_path / "k6.gr"
    path.write_text(write_graph(complete_graph(6)))
    code, _ = run(
        ["oracle", "cover", "--in", str(path), "-k", "3", "-p", "2", "--budget", "1"]
    )
    assert code == 3


def test_oracle_iso(tmp_path):
    a = tmp_path / "a.gr"
    b = tmp_path / "b.gr"
    a.write_text(write_graph(cycle_graph(4)))
    b.write_text("G 4 4\n0 2\n0 3\n1 2\n1 3\n")
    code, text = run(["oracle", "iso", "--a", str(a), "--b", str(b)])
    assert code == 0 and text == "ISOMORPHIC\n"
    c = tmp_path / "c.gr"
    c.write_text(write_graph(complete_graph(4)))
    code, text = run(["oracle", "iso", "--a", str(a), "--b", str(c)])
    assert code == 1 and text == "NOT-ISOMORPHIC\n"


def test_oracle_scan():
    code, text = run(["oracle", "scan", "--n-max", "6", "--k-max", "4"])
    assert code == 0
    assert text.splitlines()[-1].startswith("SCAN cases=")
    assert "discrepancies=0" in text


def test_oracle_scan_prints_discrepancies_and_exits_3(monkeypatch):
    lines = ("N=2 k=2 d=1: rejected but k divides dN", "N=3 k=3 d=1: edges are not 3-uniform")
    report = ScanReport(5, lines)
    monkeypatch.setattr(cli, "scan_regular_realizability", lambda n_max, k_max: report)
    code, text = run(["oracle", "scan", "--n-max", "3", "--k-max", "3"])
    assert code == 3
    assert text == (
        "DISCREPANCY N=2 k=2 d=1: rejected but k divides dN\n"
        "DISCREPANCY N=3 k=3 d=1: edges are not 3-uniform\n"
        "SCAN cases=5 discrepancies=2\n"
    )


def test_selftest_reports_a_failing_check_and_exits_3(monkeypatch):
    def failing():
        selftest._expect(False, "expected 2 cliques")

    checks = [(name, lambda: None) for name, _ in selftest.CHECKS]
    checks[2] = (checks[2][0], failing)
    monkeypatch.setattr(selftest, "CHECKS", tuple(checks))
    code, text = run(["selftest"])
    assert code == 3
    assert text == (
        "ok member-round-trip\n"
        "ok nonmember-witness\n"
        "FAIL partition-invariants: expected 2 cliques\n"
        "ok file-round-trips\n"
        "ok big-cliques\n"
        "SELFTEST FAIL checks=5 failures=1\n"
    )


def test_selftest_passes():
    code, text = run(["selftest"])
    assert code == 0
    assert text.splitlines()[-1] == "SELFTEST PASS checks=5"


def test_selftest_fails_under_optimize_flag():
    # `python -O` strips assert statements; a failed expectation must still count
    code = (
        "import io, hyperline.selftest as s\n"
        "s.CHECKS = (('broken', lambda: s._expect(False, 'broken')),)\n"
        "raise SystemExit(s.run(io.StringIO()))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=module_env())
    assert proc.returncode == 3


def test_bad_arguments_exit_2(tmp_path):
    assert run(["no-such-command"])[0] == 2
    assert run(["recognize", "-k", "2", "-p", "1"])[0] == 2
    assert run(["recognize", "--in", str(tmp_path / "missing.gr"), "-k", "2", "-p", "1"])[0] == 2


@pytest.mark.parametrize("kind", ["directory", "undecodable"])
def test_unreadable_input_exits_2_without_traceback(kind, tmp_path):
    path = tmp_path / "G.gr"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe")
    proc = subprocess.run(
        [sys.executable, "-m", "hyperline", "recognize", "--in", str(path), "-k", "2", "-p", "1"],
        capture_output=True,
        text=True,
        env=module_env(),
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_repeated_edge_line_exits_2(tmp_path, capsys):
    path = tmp_path / "G.gr"
    path.write_text("G 2 2\n0 1\n0 1\n")
    assert run(["recognize", "--in", str(path), "-k", "2", "-p", "1"])[0] == 2
    assert capsys.readouterr().err.startswith("error: line 3:")


@pytest.mark.parametrize(
    "args, text",
    [
        (["recognize", "-k", "2", "-p", "1"], "G 3 1\n0 \u0661\n"),
        (["recognize", "-k", "2", "-p", "1"], "G 11 1\n0 1_0\n"),
        (["linegraph"], "H 11 1\n0 1_0\n"),
    ],
)
def test_non_ascii_decimal_integer_token_exits_2(args, text, tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode())
    assert run(args + ["--in", str(path)]) == (2, "")
    assert capsys.readouterr().err.startswith("error: line 2: expected integers, got 0 ")


@pytest.mark.parametrize(
    "args, text",
    [
        (["recognize", "-k", "2", "-p", "1"], "G 10000000000 0\n"),
        (["linegraph"], "H 10000000000 0\n"),
    ],
)
def test_huge_header_exits_3(args, text, tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text(text)
    assert run(args + ["--in", str(path)]) == (3, "")
    assert capsys.readouterr().err.startswith("error: line 1: header declares 10000000000 vertices")


@pytest.mark.parametrize(
    "args, message",
    [
        (["baranyai", "-N", "40", "-k", "20"], "error: C(40, 20) subsets exceed the bound 1048576\n"),
        (["regular", "-N", "4", "-k", "2", "-d", "100000000"], "error: 200000000 edges exceed the bound 1048576\n"),
        (["baranyai", "-N", "2000000", "-k", "1000000"], "error: C(2000000, 1000000) subsets exceed the bound 1048576\n"),
        (
            ["regular", "-N", "2000000", "-k", "1000000", "-d", "1"],
            "error: C(2000000, 1000000) subsets exceed the bound 1048576\n",
        ),
        (
            ["baranyai", "-N", "100000000000000000000", "-k", "100000000000000000000"],
            "error: C(100000000000000000000, 2) pairs of elements exceed the bound 1048576\n",
        ),
        (
            ["regular", "-N", "5000", "-k", "5000", "-d", "1"],
            "error: C(5000, 2) pairs of elements exceed the bound 1048576\n",
        ),
    ],
)
def test_oversized_construction_exits_3_at_once(args, message, capsys):
    start = time.perf_counter()
    assert run(args) == (3, "")
    assert time.perf_counter() - start < 1.0  # refused before any state is built
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("exc", [RecursionError, MemoryError])
def test_exhausted_interpreter_resources_exit_3(exc, claw_graph, monkeypatch, capsys):
    def exhausted(*args):
        raise exc()

    monkeypatch.setattr("hyperline.cli.recognize", exhausted)
    assert run(["recognize", "--in", str(claw_graph), "-k", "2", "-p", "1"])[0] == 3
    assert capsys.readouterr().err == f"error: resource limit exceeded ({exc.__name__})\n"


def test_internal_contradiction_exits_3(claw_graph, monkeypatch, capsys):
    def contradicted(*args):
        raise InternalContradictionError("invariant broken")

    monkeypatch.setattr("hyperline.cli.recognize", contradicted)
    assert run(["recognize", "--in", str(claw_graph), "-k", "2", "-p", "1"]) == (3, "")
    assert capsys.readouterr().err == "internal error: invariant broken\n"


_SEED_TEXTS = {
    ".gr": [
        "G 4 3\n0 1\n0 2\n0 3\n",
        write_graph(complete_graph(5)),
        write_graph(cycle_graph(6)),
        write_graph(complete_bipartite(2, 3)),
        write_graph(line_graph(Hypergraph(6, [(0, 1, 2), (2, 3, 4), (0, 4, 5), (1, 3, 5)]))),
    ],
    ".hg": [
        write_hypergraph(Hypergraph(3, [(0, 1), (1, 2), (0, 2)])),
        write_hypergraph(Hypergraph(6, [(0, 1, 2), (2, 3, 4), (0, 4, 5), (1, 3, 5)])),
        "# comment\nH 4 2\n\n0 1 2\n1 2 3\n",
    ],
}
_NOISE = ["0", "1", "7", "-1", " ", "\n", "#", "G", "H", "x", "_", "\t", "\r", "\u0661", "\u00e9"]


def _mutate(rng: random.Random, text: str) -> bytes:
    """One or two random edits of text: a character dropped or inserted,
    a number replaced, a line repeated or dropped, a blank or comment line
    added, or the text cut short; now and then a byte that is no UTF-8."""
    for _ in range(rng.randint(1, 2)):
        edit = rng.randrange(7)
        at = rng.randrange(len(text) + 1)
        if edit == 0:
            text = text[:at] + text[at + 1 :]
        elif edit == 1:
            text = text[:at] + rng.choice(_NOISE) + text[at:]
        elif edit == 2:
            tokens = text.split(" ")
            i = rng.randrange(len(tokens))
            tokens[i] = str(rng.choice([0, 1, 2, 3, 9, -2, 2**21, 10**12]))
            text = " ".join(tokens)
        elif edit in (3, 4):
            lines = text.split("\n")
            i = rng.randrange(len(lines))
            lines[i : i + 1] = [lines[i]] * (2 if edit == 3 else 0)
            text = "\n".join(lines)
        elif edit == 5:
            lines = text.split("\n")
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "# note", "  "]))
            text = "\n".join(lines)
        else:
            text = text[:at]
    data = text.encode()
    if rng.random() < 0.05:
        data += b"\xff"
    return data


def test_mutated_inputs_never_escape_run_cli(tmp_path, capsys):
    """Seeded mutations of valid .gr and .hg texts through every reading
    command: each run ends in a documented exit code, never a traceback."""
    rng = random.Random(16)
    pristine = tmp_path / "pristine.gr"
    pristine.write_text(_SEED_TEXTS[".gr"][4])
    seen = {}
    start = time.perf_counter()
    for case in range(300):
        suffix = ".gr" if case % 4 else ".hg"
        path = tmp_path / f"m{case}{suffix}"
        path.write_bytes(_mutate(rng, rng.choice(_SEED_TEXTS[suffix])))
        k, p = str(rng.randint(2, 3)), str(rng.randint(1, 2))
        if suffix == ".hg":
            args = ["linegraph", "--in", str(path)]
        else:
            args = rng.choice([
                ["recognize", "--in", str(path), "-k", k, "-p", p],
                ["recognize", "--in", str(path), "-k", k, "-p", p, "--oracle-fallback"],
                ["reconstruct", "--in", str(path), "-k", k, "-p", p, "--out", str(tmp_path / "out.hg")],
                ["oracle", "cover", "--in", str(path), "-k", k, "-p", p, "--budget", str(rng.randint(1, 50))],
                ["oracle", "iso", "--a", str(path), "--b", str(pristine)],
            ])
        code, _ = run(args)
        assert code in (0, 1, 2, 3), (args, path.read_bytes())
        seen[code] = seen.get(code, 0) + 1
    capsys.readouterr()
    assert set(seen) == {0, 1, 2, 3}, seen
    assert time.perf_counter() - start < 10.0


def test_invalid_parameters_exit_2(claw_graph):
    assert run(["recognize", "--in", str(claw_graph), "-k", "1", "-p", "1"])[0] == 2


def test_module_invocation_matches_api(tmp_path):
    path = tmp_path / "claw.gr"
    path.write_text("G 4 3\n0 1\n0 2\n0 3\n")
    proc = subprocess.run(
        [sys.executable, "-m", "hyperline", "recognize", "--in", str(path), "-k", "2", "-p", "1"],
        capture_output=True,
        text=True,
        env=module_env(),
    )
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[0] == "NONMEMBER claw center=0 leaves=1,2,3"


def test_cli_module_runs_as_the_package_does(claw_graph):
    """`python -m hyperline.cli` runs the command: same bytes and exit
    code as `python -m hyperline`, not a silent exit 0."""

    def module_run(module, *args):
        proc = subprocess.run(
            [sys.executable, "-m", module, *args], capture_output=True, env=module_env()
        )
        return proc.returncode, proc.stdout

    recognize = ["recognize", "--in", str(claw_graph), "-k", "2", "-p", "1"]
    code, stdout = module_run("hyperline.cli", *recognize)
    assert code == 1
    assert (code, stdout) == module_run("hyperline", *recognize)
    code, stdout = module_run("hyperline.cli", "--help")
    assert code == 0
    assert stdout.startswith(b"usage: ")
    code, stdout = module_run(
        "hyperline.cli", "regular", "-N", "20", "-k", "10", "-d", "92379", "--strict-simple"
    )
    assert code == 1
    assert stdout == b"degree 92379 exceeds C(N-1, k-1) = 92378; no simple realization\n"
