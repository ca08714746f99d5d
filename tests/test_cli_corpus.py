"""Whole-bytes CLI corpus: every case's stdout, stderr, exit code and
written files must equal those recorded in cli_corpus.json.

Run this file as a script to print the corpus the current code produces,
as JSON, for a deliberate change of the output format.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import pytest

from hyperline import Graph, Hypergraph, line_graph
from hyperline.cli import run_cli
from hyperline.fileio import write_graph

GOLDEN = Path(__file__).with_name("cli_corpus.json")


def _graph(n, edges):
    return write_graph(Graph(n, edges))


def _complete(n):
    return _graph(n, combinations(range(n), 2))


def _cycle(n):
    return _graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


_CLAW = "G 4 3\n0 1\n0 2\n0 3\n"
_K25 = _graph(7, [(u, 2 + v) for u in range(2) for v in range(5)])
_F2 = _graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 0), (4, 1), (4, 2)])
_F3 = _graph(6, list(combinations(range(4), 2)) + list(combinations(range(2, 6), 2)))
_WHEEL = _graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)])
_LK7 = write_graph(line_graph(Hypergraph(7, list(combinations(range(7), 2)))))

_RECOGNIZE = ["recognize", "--in", "g.gr", "-k", "2", "-p", "1"]
_FALLBACK = _RECOGNIZE + ["--oracle-fallback"]
_RECONSTRUCT = ["reconstruct", "--in", "g.gr", "-k", "2", "-p", "1", "--out", "h.hg"]
_COVER = ["oracle", "cover", "--in", "g.gr", "-k", "2", "-p", "1"]

# name: (arguments, input files by name, files the command writes)
CASES = {
    "recognize-member-k7": (_RECOGNIZE, {"g.gr": _complete(7)}, ()),
    "recognize-member-lk7": (_RECOGNIZE, {"g.gr": _LK7}, ()),
    "recognize-claw": (_RECOGNIZE, {"g.gr": _CLAW}, ()),
    "recognize-f1": (_RECOGNIZE, {"g.gr": _K25}, ()),
    "recognize-f2": (_RECOGNIZE, {"g.gr": _F2}, ()),
    "recognize-f3": (_RECOGNIZE, {"g.gr": _F3}, ()),
    "recognize-inconclusive": (_RECOGNIZE, {"g.gr": _cycle(5)}, ()),
    "fallback-member": (_FALLBACK, {"g.gr": _cycle(5)}, ()),
    "fallback-nonmember": (_FALLBACK, {"g.gr": _WHEEL}, ()),
    "fallback-skip": (_FALLBACK, {"g.gr": _cycle(9)}, ()),
    "reconstruct-out-cover": (_RECONSTRUCT + ["--out-cover", "c.txt"], {"g.gr": _LK7}, ("h.hg", "c.txt")),
    "reconstruct-inconclusive": (_RECONSTRUCT, {"g.gr": _cycle(5)}, ("h.hg",)),
    "oracle-cover-found": (_COVER, {"g.gr": _complete(3)}, ()),
    "oracle-cover-none": (_COVER, {"g.gr": _CLAW}, ()),
    "regular-simple": (["regular", "-N", "3", "-k", "2", "-d", "2"], {}, ()),
    "regular-repeated": (["regular", "-N", "3", "-k", "2", "-d", "4"], {}, ()),
    "regular-repeated-out": (["regular", "-N", "4", "-k", "2", "-d", "5", "--out", "h.hg"], {}, ("h.hg",)),
    "regular-indivisible": (["regular", "-N", "4", "-k", "3", "-d", "2"], {}, ()),
    "baranyai-8-3": (["baranyai", "-N", "8", "-k", "3"], {}, ()),
    "linegraph": (["linegraph", "--in", "h.hg"], {"h.hg": "H 5 4\n0 1 2\n2 3 4\n0 3\n1 4\n"}, ()),
    "input-error": (_RECOGNIZE, {"g.gr": "G 2 2\n0 1\n0 1\n"}, ()),
    "resource-limit": (["baranyai", "-N", "40", "-k", "20"], {}, ()),
}


def observe(name: str, workdir: Path) -> dict:
    """Run case `name` in the empty directory `workdir`: its exit code,
    stdout, stderr, and the text of each file it should write (None when
    absent)."""
    args, inputs, written = CASES[name]
    for file, text in inputs.items():
        (workdir / file).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stderr(err):
            code = run_cli(args, out=out)
    finally:
        os.chdir(cwd)
    files = {}
    for file in written:
        path = workdir / file
        files[file] = path.read_text() if path.exists() else None
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_the_corpus_byte_for_byte(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert observe(name, tmp_path) == expected


def test_corpus_names_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    corpus = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as workdir:
            corpus[name] = observe(name, Path(workdir))
    json.dump(corpus, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
