#!/usr/bin/env python3
"""Record digests and a baseline from the result files of earlier runs.

    python3 perfbench/record.py

Reads perfbench/out/result-<workload>-seed<n>-trace<t>.json as written by
run.py.  Adds the output digest of every (workload, seed) it finds to
perfbench/digests.json (an existing entry that differs is an error: the
outputs changed), and writes perfbench/baseline.json with the median and
quartiles of every end-to-end metric per workload over the untraced runs,
plus the per-layer metrics of the traced runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"


def main() -> int:
    digests_path = BENCH / "digests.json"
    digests = json.loads(digests_path.read_text()) if digests_path.is_file() else {}
    runs: dict = {}
    layers: dict = {}
    conflicts = 0
    for path in sorted(OUT.glob("result-*.json")):
        result = json.loads(path.read_text())
        env = result["env"]
        workload, seed = env["workload"], str(env["seed"])
        entry = {"digest": result["digest"], "blocks": result["blocks"]}
        known = digests.setdefault(workload, {}).get(seed)
        if known is not None and known != entry:
            print(f"{path.name}: digest {entry['digest']} differs from recorded {known['digest']}", file=sys.stderr)
            conflicts += 1
            continue
        digests[workload][seed] = entry
        (layers if env["trace"] else runs).setdefault(workload, []).append(result)
    for workload in digests:
        digests[workload] = dict(sorted(digests[workload].items(), key=lambda kv: int(kv[0])))
    digests_path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")

    baseline: dict = {}
    for workload, results in sorted(runs.items()):
        env = results[0]["env"]
        summary = {
            "seeds": sorted(r["env"]["seed"] for r in results),
            "python": env["python"],
            "nproc": env["nproc"],
            "commit": env["commit"],
            "tail_percentile": results[0]["tail_percentile"],
            "metrics": {},
        }
        for name in results[0]["metrics"]:
            values = [r["metrics"][name] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            summary["metrics"][name] = {
                "median": q2,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / q2,
            }
        if workload in layers:
            traced = layers[workload][0]
            summary["per_layer_seed"] = traced["env"]["seed"]
            summary["per_layer"] = traced["metrics"]
        baseline[workload] = summary
    (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"recorded {sum(len(v) for v in digests.values())} digests; baseline for {sorted(baseline)}")
    return 1 if conflicts else 0


if __name__ == "__main__":
    sys.exit(main())
