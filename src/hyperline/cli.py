"""Command-line front end.

Exit codes: 0 success, 1 negative mathematical result (a NonMember
verdict, a failed divisibility condition, no cover found), 2 input
error, 3 resource limit or internal error.
"""

from __future__ import annotations

import argparse
import sys
from math import comb
from pathlib import Path
from typing import Sequence, TextIO

from . import fileio, selftest
from .baranyai import baranyai_partition, regular_hypergraph
from .errors import (
    InputError,
    InternalContradictionError,
    ResourceLimitError,
    UnrealizableError,
)
from .graph import line_graph
from .oracle import (
    COVER_SIZE_BOUND,
    DEFAULT_BUDGET,
    cover_search,
    graphs_isomorphic,
    scan_regular_realizability,
)
from .recognition import (
    ClawWitness,
    F1Witness,
    F2Witness,
    F3Witness,
    Inconclusive,
    Member,
    NonMember,
    Verdict,
    recognize,
    thresholds,
)
from .reconstruction import CliqueCover, cover_to_hypergraph


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _cover_text(cover: CliqueCover) -> str:
    return "".join(
        f"K {i} {' '.join(str(v) for v in entry)}\n" for i, entry in enumerate(cover.cliques)
    )


def _verdict_text(verdict: Verdict, k: int, p: int) -> str:
    t = thresholds(k, p)
    if isinstance(verdict, Member):
        return (
            f"MEMBER cliques={len(verdict.cover)}\n"
            + _cover_text(verdict.cover)
            + f"# every edge lies in one of the listed cliques; vertex load <= {k}, "
            f"pairwise overlap <= {p}\n"
        )
    if isinstance(verdict, NonMember):
        w = verdict.witness
        if isinstance(w, ClawWitness):
            return (
                f"NONMEMBER claw center={w.claw.center} leaves={_csv(w.claw.leaves)}\n"
                f"# vertex {w.claw.center} has {len(w.claw.leaves)} pairwise non-adjacent "
                f"neighbors; a {k}-uniform hyperedge meets at most {k} disjoint others\n"
            )
        if isinstance(w, F1Witness):
            return (
                f"NONMEMBER f1 a={w.a} b={w.b} common={_csv(w.common)}\n"
                f"# non-adjacent vertices {w.a} and {w.b} have {len(w.common)} common "
                f"neighbors, above the bound p*k^2 = {p * k * k}\n"
            )
        if isinstance(w, F2Witness):
            return (
                f"NONMEMBER f2 clique={_csv(w.clique)} vertex={w.vertex} "
                f"attachment={_csv(w.attachment)}\n"
                f"# vertex {w.vertex} is adjacent to {len(w.attachment)} vertices of a "
                f"maximal clique of size >= {t.clique_size_bound}, above the bound "
                f"p*k = {p * k}\n"
            )
        assert isinstance(w, F3Witness)
        return (
            f"NONMEMBER f3 clique1={_csv(w.clique_a)} clique2={_csv(w.clique_b)} "
            f"shared={_csv(w.shared)}\n"
            f"# two maximal cliques of size >= {t.clique_size_bound} share "
            f"{len(w.shared)} vertices, above the bound p = {p}\n"
        )
    return (
        f"INCONCLUSIVE min_edge_degree={verdict.min_edge_degree} required={verdict.required}\n"
        f"# {verdict.reason}\n"
    )


def _emit(text: str, path: str | None, out: TextIO) -> None:
    if path is None:
        out.write(text)
    else:
        Path(path).write_text(text)


def _cmd_linegraph(args, out: TextIO) -> int:
    hg = fileio.read_hypergraph(Path(args.infile).read_text())
    _emit(fileio.write_graph(line_graph(hg)), args.out, out)
    return 0


def _cmd_recognize(args, out: TextIO) -> int:
    g = fileio.read_graph(Path(args.infile).read_text())
    verdict = recognize(g, args.k, args.p)
    out.write(_verdict_text(verdict, args.k, args.p))
    if isinstance(verdict, NonMember):
        return 1
    if isinstance(verdict, Inconclusive) and args.oracle_fallback:
        if g.n > COVER_SIZE_BOUND:
            out.write(f"# oracle fallback skipped: graph exceeds {COVER_SIZE_BOUND} vertices\n")
            return 0
        cover = cover_search(g, args.k, args.p)
        if cover is None:
            out.write("ORACLE NONMEMBER\n")
            out.write("# exhaustive search proved no valid clique cover exists\n")
            return 1
        out.write(f"ORACLE MEMBER cliques={len(cover)}\n" + _cover_text(cover))
        return 0
    return 0


def _cmd_reconstruct(args, out: TextIO) -> int:
    g = fileio.read_graph(Path(args.infile).read_text())
    verdict = recognize(g, args.k, args.p)
    out.write(_verdict_text(verdict, args.k, args.p))
    if not isinstance(verdict, Member):
        return 1
    hg = cover_to_hypergraph(g, verdict.cover, args.k, args.p)
    Path(args.out).write_text(fileio.write_hypergraph(hg))
    if args.out_cover:
        Path(args.out_cover).write_text(_cover_text(verdict.cover))
    out.write(f"# hypergraph with {hg.n} vertices and {hg.m} edges written to {args.out}\n")
    return 0


def _cmd_baranyai(args, out: TextIO) -> int:
    classes = baranyai_partition(args.N, args.k)
    _emit(fileio.write_partition(classes, args.N, args.k), args.out, out)
    return 0


def _cmd_regular(args, out: TextIO) -> int:
    hg = regular_hypergraph(args.N, args.k, args.d, strict_simple=args.strict_simple)
    note = ""
    if args.d > comb(args.N - 1, args.k - 1):  # more classes than the partition holds
        note = "# note: repeated edges; degree exceeds C(N-1, k-1) so classes were reused\n"
    _emit(note + fileio.write_hypergraph(hg), args.out, out)
    return 0


def _cmd_oracle_cover(args, out: TextIO) -> int:
    g = fileio.read_graph(Path(args.infile).read_text())
    cover = cover_search(g, args.k, args.p, budget=args.budget)
    if cover is None:
        out.write("NOCOVER\n")
        out.write(
            f"# exhaustive search proved no clique cover with vertex load <= {args.k} "
            f"and pairwise overlap <= {args.p} exists\n"
        )
        return 1
    out.write(f"COVER cliques={len(cover)}\n" + _cover_text(cover))
    return 0


def _cmd_oracle_iso(args, out: TextIO) -> int:
    g1 = fileio.read_graph(Path(args.first).read_text())
    g2 = fileio.read_graph(Path(args.second).read_text())
    if graphs_isomorphic(g1, g2):
        out.write("ISOMORPHIC\n")
        return 0
    out.write("NOT-ISOMORPHIC\n")
    return 1


def _cmd_oracle_scan(args, out: TextIO) -> int:
    report = scan_regular_realizability(args.n_max, args.k_max)
    out.write("".join(f"DISCREPANCY {line}\n" for line in report.discrepancies))
    out.write(f"SCAN cases={report.cases} discrepancies={len(report.discrepancies)}\n")
    return 0 if report.ok else 3


def _cmd_selftest(args, out: TextIO) -> int:
    return selftest.run(out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperline",
        description="Line graphs of k-uniform hypergraphs: recognition, "
        "reconstruction, and regular degree-sequence realization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lg = sub.add_parser("linegraph", help="line graph of a hypergraph (.hg -> .gr)")
    lg.add_argument("--in", dest="infile", required=True, metavar="H.hg")
    lg.add_argument("--out", default=None, metavar="G.gr")
    lg.set_defaults(handler=_cmd_linegraph)

    rec = sub.add_parser("recognize", help="decide membership and print a certificate")
    rec.add_argument("--in", dest="infile", required=True, metavar="G.gr")
    rec.add_argument("-k", type=int, required=True, help="hyperedge size (>= 2)")
    rec.add_argument("-p", type=int, required=True, help="pair multiplicity bound (>= 1)")
    rec.add_argument(
        "--oracle-fallback",
        action="store_true",
        help="on an inconclusive verdict, decide small graphs by exhaustive cover search",
    )
    rec.set_defaults(handler=_cmd_recognize)

    rcn = sub.add_parser("reconstruct", help="emit a witness hypergraph for a member graph")
    rcn.add_argument("--in", dest="infile", required=True, metavar="G.gr")
    rcn.add_argument("-k", type=int, required=True)
    rcn.add_argument("-p", type=int, required=True)
    rcn.add_argument("--out", required=True, metavar="H.hg")
    rcn.add_argument("--out-cover", default=None, metavar="COVER.txt")
    rcn.set_defaults(handler=_cmd_reconstruct)

    bar = sub.add_parser("baranyai", help="balanced partition of all k-subsets of {1..N}")
    bar.add_argument("-N", type=int, required=True)
    bar.add_argument("-k", type=int, required=True)
    bar.add_argument("--out", default=None, metavar="P.bp")
    bar.set_defaults(handler=_cmd_baranyai)

    reg = sub.add_parser("regular", help="k-uniform hypergraph with constant degree d")
    reg.add_argument("-N", type=int, required=True)
    reg.add_argument("-k", type=int, required=True)
    reg.add_argument("-d", type=int, required=True)
    reg.add_argument(
        "--strict-simple",
        action="store_true",
        help="fail instead of repeating edges when d exceeds C(N-1, k-1)",
    )
    reg.add_argument("--out", default=None, metavar="H.hg")
    reg.set_defaults(handler=_cmd_regular)

    orc = sub.add_parser("oracle", help="brute-force ground-truth checks")
    orc_sub = orc.add_subparsers(dest="oracle_command", required=True)
    cov = orc_sub.add_parser("cover", help="exhaustive clique-cover search")
    cov.add_argument("--in", dest="infile", required=True, metavar="G.gr")
    cov.add_argument("-k", type=int, required=True)
    cov.add_argument("-p", type=int, required=True)
    cov.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    cov.set_defaults(handler=_cmd_oracle_cover)
    iso = orc_sub.add_parser("iso", help="small-graph isomorphism test")
    iso.add_argument("--a", dest="first", required=True, metavar="A.gr")
    iso.add_argument("--b", dest="second", required=True, metavar="B.gr")
    iso.set_defaults(handler=_cmd_oracle_iso)
    scan = orc_sub.add_parser("scan", help="regular degree-sequence realizability scan")
    scan.add_argument("--n-max", type=int, default=8)
    scan.add_argument("--k-max", type=int, default=6)
    scan.set_defaults(handler=_cmd_oracle_scan)

    st = sub.add_parser("selftest", help="run the deterministic invariant battery")
    st.set_defaults(handler=_cmd_selftest)

    return parser


def run_cli(argv: Sequence[str] | None = None, out: TextIO | None = None) -> int:
    """Parse arguments, dispatch, and map errors to exit codes."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args, out)
    except UnrealizableError as exc:
        out.write(f"{exc}\n")
        return 1
    except (InputError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RecursionError, MemoryError) as exc:
        print(f"error: resource limit exceeded ({type(exc).__name__})", file=sys.stderr)
        return 3
    except InternalContradictionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def console_entry() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    console_entry()
