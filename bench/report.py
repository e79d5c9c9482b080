"""Checks the traced run: repeatable counts, tracing overhead, layer isolation.

    python3 bench/report.py [--seed N] [--workload W ...]

Run it from the repository root. For each workload it runs one pass of
``run.py`` (``--seconds 0``) three times: traced, untraced and traced again,
all on the same seed and so on the same ops. It reports

* whether every count metric (``calls``, ``nfev``, ``nit``, ops) is equal
  across the two traced runs;
* the tracing overhead, untraced ``ops_per_s`` over the mean traced one;
* each ``isolation`` entry of ``predictions.json``: the metric's share of
  the traced op time against its bound.

It prints one JSON object and exits 1 if a count differs, an op failed or an
isolation bound is missed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import BENCH_DIR, ROOT, WORKLOADS


def bench(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    with open(os.path.join(BENCH_DIR, "predictions.json"), encoding="utf-8") as fh:
        isolation = json.load(fh)["isolation"]

    report, ok = {}, True
    for workload in args.workload or list(WORKLOADS):
        first, plain, second = (bench(workload, args.seed, trace)
                                for trace in (1, 0, 1))
        counts = [name for name, m in first["metrics"].items() if m["unit"] == "count"]
        differing = [name for name in counts
                     if first["metrics"][name]["value"] != second["metrics"][name]["value"]]
        values = {name: m["value"] for name, m in first["metrics"].items()}
        traced = (values["trace.ops_per_s"] + second["metrics"]["trace.ops_per_s"]["value"]) / 2
        untraced = plain["metrics"]["ops_per_s"]["value"]
        op_total = values["trace.op_total_s"]
        shares = []
        for rule in (r for r in isolation if r["workload"] == workload):
            share = values[rule["metric"]] / op_total
            met = share >= rule.get("min_share", 0.0) and share <= rule.get("max_share", 1.0)
            shares.append({**rule, "share": share, "met": met})
        failed = sum(run["failed"] for run in (first, second, plain))
        ok = ok and not differing and not failed and all(s["met"] for s in shares)
        report[workload] = {
            "ops": first["attempted"],
            "failed_ops": failed,
            "counts_compared": len(counts),
            "counts_differing": differing,
            "ops_per_s_untraced": untraced,
            "ops_per_s_traced": traced,
            "tracing_overhead": untraced / traced,
            "isolation": shares,
        }
    print(json.dumps({"ok": ok, "seed": args.seed, "workloads": report},
                     indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
