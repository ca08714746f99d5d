#!/usr/bin/env python3
"""Benchmark of the hyperline library: four seeded closed-loop workloads.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ./src.  One
caller performs one operation at a time through the public API, and the
next starts only after the previous returns.  Whole passes over the
workload's fixed input list repeat, at least two, while the next is
expected to end within --seconds of time spent in operations.  Times are
scaled to a reference machine speed (see speed.py).  Every output is
checked with the benchmark's own code and folded into a digest, which
must match the one recorded for the seed in perfbench/digests.json when
there is one.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of the traced ones.
The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when
every output is correct, 1 when any is not, 2 when the library is absent.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from math import comb
from pathlib import Path

import speed
from spans import LAYERS, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

SETUP_REPEATS = 15
DIGEST_BLOCKS = 64
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail latency
# A fresh interpreter times its own import of the package and the CLI,
# between two speed probes; the interpreter's start-up is the same for
# every version of the library and is left out.
SETUP_CHILD = """import sys, time
sys.path.insert(0, {bench!r})
from speed import probe_ns
before = probe_ns()
t0 = time.perf_counter_ns()
import hyperline, hyperline.cli
elapsed = time.perf_counter_ns() - t0
print(elapsed, before, probe_ns())
"""


def fail_setup(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    if not (SRC / "hyperline" / "__init__.py").is_file():
        fail_setup(f"no hyperline package under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import hyperline
    import hyperline.fileio  # the file formats; the package does not import it

    if Path(hyperline.__file__).resolve().parent != SRC / "hyperline":
        fail_setup(f"imported hyperline from {hyperline.__file__}, not from {SRC}")
    return hyperline


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def measure_setup() -> float:
    """Median time, at the reference speed, that a fresh interpreter spends
    importing the package and its CLI, which every command-line
    invocation pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CHILD.format(bench=str(BENCH))]
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        if attempt:  # the first start warms the bytecode cache
            times.append(speed.scaled(*(int(x) for x in done.stdout.split())))
    return statistics.median(times)


# ---------------------------------------------------------------- passes


def run_pass(wl, api, full: bool, tracer=None):
    """One closed-loop pass.  Only the operation itself is timed; its output
    is checked right after (fully when `full`, else only reduced to its
    canonical line), so no output outlives its operation.  Returns
    per-op latencies (ns at the reference speed), output kinds, canonical
    line hashes, {op: error}, the seconds spent in operations (unscaled),
    and the pass's mean speed factor.  Per-op data lives in arrays, which the
    garbage collector does not traverse, so the harness adds nothing to
    the library's collection pauses."""
    n = len(wl.ops)
    lat = array("q", bytes(8 * n))
    hashes = array("Q", bytes(8 * n))
    kinds = Counter()
    errors = {}
    before = getattr(wl, "before", None)
    clock = time.perf_counter_ns
    probes = []  # (op index the probe preceded, duration)
    gc.collect()
    next_probe = clock()
    for i in range(n):
        if clock() >= next_probe:
            probes.append((i, speed.probe_ns()))
            next_probe = clock() + speed.PROBE_EVERY_NS
        if before is not None:
            before(i)
        if tracer is not None:
            tracer.begin_op(i, wl.context(i))
        t0 = clock()
        try:
            raw = wl.call(api, i)
        except Exception as exc:  # counted as a failed operation
            raw = exc
        t1 = clock()
        if tracer is not None:
            tracer.end_op()
        lat[i] = t1 - t0
        if isinstance(raw, Exception):
            kind, line, err = "raised", f"raised {type(raw).__name__}", f"raised {type(raw).__name__}: {raw}"
        else:
            try:
                kind, line, err = wl.check(api, i, raw, full)
            except Exception as exc:  # an output too malformed to check
                kind, line, err = "malformed", "malformed", f"output could not be checked: {exc!r}"
        del raw
        kinds[kind] += 1
        hashes[i] = line_hash(line)
        if err is not None:
            errors[i] = err
    probes.append((n, speed.probe_ns()))
    busy = sum(lat)
    lat = array("d", (t * f for t, f in zip(lat, speed.speed_factors(n, probes))))
    return lat, kinds, hashes, errors, busy / 1e9, sum(lat) / busy


def line_hash(line: str) -> int:
    return int.from_bytes(hashlib.blake2b(line.encode(), digest_size=8).digest(), "little")


def block_digests(hashes: array) -> list:
    """Digests of DIGEST_BLOCKS consecutive runs of per-op line hashes, so a
    mismatch can be traced to the operations in one block."""
    size = -(-len(hashes) // DIGEST_BLOCKS)
    return [
        hashlib.sha256(hashes[b : b + size].tobytes()).hexdigest()[:12]
        for b in range(0, len(hashes), size)
    ]


def tail_latency(lat: list):
    """(latency, percentile) at the highest rank with TAIL_BEYOND samples
    beyond it."""
    ordered = sorted(lat)
    rank = len(ordered) - TAIL_BEYOND  # 1-based nearest rank
    return ordered[rank - 1], 100.0 * rank / len(ordered)


# ---------------------------------------------------------------- metrics

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# (metric, unit, source, span or counter name).  "s" is a span's inclusive
# time per pass, "self_s" its self time, "calls" its count, "count" a
# counter taken from returned values.
PER_LAYER = (
    ("graph.find_claw.s", "s", "s", "graph.find_claw"),
    ("graph.maximal_cliques.s", "s", "s", "graph.maximal_cliques"),
    ("graph.maximal_cliques.calls_per_recognize", "ratio", "per_recognize", "graph.maximal_cliques"),
    ("graph.maximal_cliques.found", "count", "count", "graph.maximal_cliques.found"),
    ("graph.maximal_cliques.big", "count", "count", "graph.maximal_cliques.big"),
    ("graph.min_edge_degree.s", "s", "s", "graph.min_edge_degree"),
    ("graph.line_graph.s", "s", "s", "graph.line_graph"),
    ("graph.line_graph.calls", "count", "calls", "graph.line_graph"),
    ("graph.Graph.s", "s", "s", "graph.Graph"),
    ("recognition.recognize.self_s", "s", "self_s", "recognition.recognize"),
    ("recognition.recognize.calls", "count", "calls", "recognition.recognize"),
    ("recognition.check_f1.s", "s", "s", "recognition.check_f1"),
    ("recognition.check_claw.self_s", "s", "self_s", "recognition.check_claw"),
    ("recognition.check_f2.self_s", "s", "self_s", "recognition.check_f2"),
    ("recognition.check_f3.self_s", "s", "self_s", "recognition.check_f3"),
    ("recognition.verdicts.member", "count", "verdict", "member"),
    ("recognition.verdicts.inconclusive", "count", "verdict", "inconclusive"),
    ("recognition.verdicts.f1", "count", "verdict", "f1"),
    ("recognition.verdicts.claw", "count", "verdict", "claw"),
    ("recognition.verdicts.f2", "count", "verdict", "f2"),
    ("recognition.verdicts.f3", "count", "verdict", "f3"),
    ("reconstruction.krausz_cover.self_s", "s", "self_s", "reconstruction.krausz_cover"),
    ("reconstruction.validate_cover.s", "s", "s", "reconstruction.validate_cover"),
    ("reconstruction.validate_cover.calls", "count", "calls", "reconstruction.validate_cover"),
    ("reconstruction.cover_to_hypergraph.self_s", "s", "self_s", "reconstruction.cover_to_hypergraph"),
    ("reconstruction.CliqueCover.s", "s", "s", "reconstruction.CliqueCover"),
    ("oracle.cover_search.s", "s", "s", "oracle.cover_search"),
    ("oracle.cover_search.calls", "count", "calls", "oracle.cover_search"),
    ("oracle._clique_masks.s", "s", "s", "oracle._clique_masks"),
    ("baranyai.build_extension_network.s", "s", "s", "baranyai.build_extension_network"),
    ("baranyai.FlowNetwork.s", "s", "s", "baranyai.FlowNetwork"),
    ("baranyai.max_flow.s", "s", "s", "baranyai.max_flow"),
    ("baranyai.extend.self_s", "s", "self_s", "baranyai.extend"),
    ("baranyai.baranyai_partition.self_s", "s", "self_s", "baranyai.baranyai_partition"),
    ("baranyai.regular_hypergraph.self_s", "s", "self_s", "baranyai.regular_hypergraph"),
    ("baranyai.levels", "count", "count", "baranyai.levels"),
    ("baranyai.arcs", "count", "count", "baranyai.arcs"),
    ("baranyai.nodes", "count", "count", "baranyai.nodes"),
    ("fileio.read_graph.s", "s", "s", "fileio.read_graph"),
    ("fileio.write_hypergraph.s", "s", "s", "fileio.write_hypergraph"),
    ("fileio.write_graph.s", "s", "s", "fileio.write_graph"),
    ("fileio.write_partition.s", "s", "s", "fileio.write_partition"),
    ("hypergraph.Hypergraph.s", "s", "s", "hypergraph.Hypergraph"),
) + tuple(
    (f"layer.{layer}.self_s", "s", "layer", layer)
    for layer in LAYERS
) + (
    ("layer.bench.self_s", "s", "self_s", "op"),
    ("trace.spans", "count", "spans", ""),
    ("trace.overhead_s", "s", "overhead", ""),
)


def layer_values(tracer, agg: dict, kinds: Counter, factor: float) -> tuple[dict, list]:
    """Per-layer values of one traced pass, times scaled by the pass's speed
    factor, and the metric names whose span or counter does not exist in
    this version of the library."""
    values, missing = {}, []
    for metric, _unit, source, name in PER_LAYER:
        if source in ("s", "self_s", "calls", "per_recognize"):
            if name not in agg:
                missing.append(metric)
                values[metric] = 0
                continue
            total, own, calls = agg[name]
            if source == "s":
                values[metric] = total * factor / 1e9
            elif source == "self_s":
                values[metric] = own * factor / 1e9
            elif source == "calls":
                values[metric] = calls
            else:
                rec = agg.get("recognition.recognize", (0, 0, 0))[2]
                values[metric] = calls / rec if rec else 0
        elif source == "count":
            if name in tracer.missing:
                missing.append(metric)
            values[metric] = tracer.counts.get(name, 0)
        elif source == "verdict":
            values[metric] = kinds.get(name, 0)
        elif source == "layer":
            values[metric] = sum(v[1] for key, v in agg.items() if key.startswith(name + ".")) * factor / 1e9
            if f"{name}.*" in tracer.missing:
                missing.append(metric)
        elif source == "spans":
            values[metric] = len(tracer.sid)
    return values, missing


def construct_trace_errors(wl, tracer) -> dict:
    """Every construct op runs N-1 induction steps, each a saturating flow
    of value C(N-1, k-1)."""
    if "baranyai.extend" not in tracer.names:
        return {}
    steps = tracer.calls_per_op("baranyai.extend")
    flows: dict = {}
    for op, value in tracer.flows:
        flows.setdefault(op, []).append(value)
    check_flows = "baranyai.max_flow" in tracer.names
    errors = {}
    for i, (_kind, big_n, k, _d) in enumerate(wl.ops):
        if steps.get(i, 0) != big_n - 1:
            errors[i] = f"{steps.get(i, 0)} extend steps, expected {big_n - 1}"
        elif check_flows and flows.get(i, []) != [comb(big_n - 1, k - 1)] * (big_n - 1):
            errors[i] = f"flow values {flows.get(i)} are not all C(N-1, k-1)"
    return errors


# ---------------------------------------------------------------- main


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    api = load_library()

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
    }
    setup_s = measure_setup() if args.trace == 0 else None

    wl = WORKLOADS[args.workload](random.Random(args.seed))
    wl.materialize(api)
    env["ops_per_pass"] = len(wl.ops)
    env["fingerprint"] = hashlib.sha256(wl.fingerprint_text.encode()).hexdigest()[:16]
    gc.collect()
    gc.freeze()  # inputs live for the whole run; keep them out of collections
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))

    tracer = Tracer() if args.trace else None
    plain, traced = [], []  # (scaled latencies, unscaled busy seconds) per pass
    layer_runs, missing = [], set()
    reference = None  # (kinds, line hashes) of the first pass
    pass_errors = []  # {op: error} per pass, in order; the first is the reference
    attempted = 0
    elapsed = 0.0
    while True:
        rounds = []
        if tracer is not None:
            # A traced pass is compared with the untraced pass that follows
            # it; the first untraced pass only warms the process up.
            if not plain:
                rounds.append(run_pass(wl, api, True) + (None,))
            tracer.reset()
            tracer.install()
            try:
                rounds.append(run_pass(wl, api, False, tracer) + (tracer,))
            finally:
                tracer.uninstall()
        rounds.append(run_pass(wl, api, not plain and not rounds) + (None,))
        busy = 0.0
        for lat, kinds, hashes, errors, pass_busy, factor, tr in rounds:
            (plain if tr is None else traced).append((lat, pass_busy))
            busy += pass_busy
            attempted += len(lat)
            if reference is None:
                reference = (kinds, hashes)
            elif hashes != reference[1]:
                for i, h in enumerate(hashes):
                    if h != reference[1][i]:
                        errors.setdefault(i, "output differs from the first pass")
            if tr is not None:
                if args.workload == "construct":
                    for i, err in construct_trace_errors(wl, tr).items():
                        errors.setdefault(i, err)
                values, miss = layer_values(tr, tr.aggregate(), kinds, factor)
                layer_runs.append(values)
                missing.update(miss)
            pass_errors.append(errors)
        # Measured time is time spent in operations; checks come on top.
        # Two untraced passes at least, so every op has a best time.
        elapsed += busy
        if len(plain) >= 2 and elapsed + busy > args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before summarizing
    kinds, hashes = reference
    blocks = block_digests(hashes)
    digest = hashlib.sha256("".join(blocks).encode()).hexdigest()[:16]
    recorded = json.loads(DIGESTS.read_text()).get(args.workload, {}).get(str(args.seed)) if DIGESTS.is_file() else None
    digest_state = "unrecorded"
    if recorded is not None:
        bad_blocks = [b for b, (x, y) in enumerate(zip(blocks, recorded["blocks"])) if x != y]
        if len(blocks) != len(recorded["blocks"]):
            bad_blocks = list(range(len(blocks)))
        digest_state = "match" if not bad_blocks else f"MISMATCH in {len(bad_blocks)} blocks"
        size = -(-len(hashes) // DIGEST_BLOCKS)
        for b in bad_blocks:
            for i in range(b * size, min(len(hashes), (b + 1) * size)):
                pass_errors[0].setdefault(i, "digest differs from the recorded one")
    # Every later pass repeats the reference outputs, so an op that failed
    # there fails in every pass; ops whose output changed fail as well.
    failed = sum(len(pass_errors[0].keys() | errors.keys()) for errors in pass_errors)
    for i, err in sorted(pass_errors[0].items())[:10]:
        print(f"# FAIL op {i}: {err}", file=sys.stderr)
    for p, errors in enumerate(pass_errors[1:], start=2):
        for i, err in sorted(errors.items())[:10]:
            print(f"# FAIL pass {p} op {i}: {err}", file=sys.stderr)

    print(f"# verdicts {dict(sorted(kinds.items()))}")
    if args.workload == "refute":
        share = {k: round(v / len(wl.ops), 4) for k, v in sorted(kinds.items())}
        print(f"# refutation shares {share}; planted defects {dict(sorted(wl.defects.items()))}")
    if args.workload == "construct":
        print(f"# cold induction per op: {'cache cleared' if wl.clear_cache else 'no cache found'}")
    print(f"# digest {digest} ({digest_state}); untraced passes {len(plain)}; traced passes {len(traced)}")

    _, percentile = tail_latency(plain[0][0])
    if args.trace == 0:
        # Throughput and median pool the passes, so the number of passes
        # that fit does not bias them.  The tail takes each op's best time
        # over the passes: a pause that hits an op in one pass only (an
        # interrupt, another tenant, a collection) would otherwise decide
        # it, where it should show the slowest inputs.
        pooled = array("d")
        for lat, _ in plain:
            pooled.extend(lat)
        best = array("d", map(min, zip(*(lat for lat, _ in plain))))
        metrics = {
            "ops_per_s": len(pooled) * 1e9 / sum(pooled),
            "op_p50_ms": statistics.median(pooled) / 1e6,
            "op_tail_ms": tail_latency(best)[0] / 1e6,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        units = dict(END_TO_END)
        print(f"# op_tail_ms is p{percentile:.4g} of the best times of {len(wl.ops)} ops")
    else:
        metrics = {}
        for metric, _unit, source, _name in PER_LAYER:
            if source == "overhead":
                metrics[metric] = (
                    statistics.median(sum(lat) for lat, _ in traced) - statistics.median(sum(lat) for lat, _ in plain[1:])
                ) / 1e9
            else:
                metrics[metric] = statistics.median(run[metric] for run in layer_runs)
        counted = [m for m, u, s, _ in PER_LAYER if u == "count" or s == "per_recognize"]
        for run in layer_runs[1:]:
            for m in counted:
                if run[m] != layer_runs[0][m]:
                    failed += 1
                    print(f"# FAIL count {m} differs between traced passes", file=sys.stderr)
        units = {m: u for m, u, _, _ in PER_LAYER}
        print(f"# missing {sorted(missing) if missing else 'none'}")
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}", {"env": env})

    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result_file = {
        "env": env,
        "digest": digest,
        "blocks": blocks,
        "digest_state": digest_state,
        "passes": len(plain),
        "tail_percentile": percentile,
        "verdicts": dict(kinds),
        "missing": sorted(missing),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result_file, indent=1) + "\n")

    print(f"# failed {failed} of {attempted}: fail_ratio {failed / attempted:.6g}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
