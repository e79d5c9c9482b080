"""One-shot check of the README CLI commands the timed workloads do not run.

    python3 bench/smoke.py

Run it from the repository root. Each command runs once in-process, with
its exit code and ``--out`` output checked against closed forms. It prints
one PASS/FAIL line per command and then ``{"correct", "attempted",
"failed"}``, and exits 1 if any command failed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from functools import partial

import checks
from run import BENCH_DIR, SRC, pin_blas_threads

SWEEP_NS = [1, 2, 3, 4]
SWEEP_SEEDS = [0, 1, 2, 3, 4]

COMMANDS = [
    (["analyze", "bsc-pair", "0.1", "0.3"], partial(checks.check_classical, eps_b=0.1, eps_e=0.3)),
    (["simulate", "paper-example", "--overlap", "0.5", "-n", "3", "--coder", "repetition",
      "--eve", "default"], partial(checks.check_simulate_default, overlap=0.5, n=3)),
    (["sweep", "paper-example", "--overlap", "0.5", "--n-range", "1..4", "--seeds", "0..4",
      "--format", "csv"],
     partial(checks.check_sweep_csv, overlap=0.5, ns=SWEEP_NS, seeds=SWEEP_SEEDS)),
    (["capacity", "paper-example", "--overlap", "0.5"],
     partial(checks.check_capacity, overlap=0.5)),
    (["accessible", "paper-example", "--overlap", "0.5"],
     partial(checks.check_accessible, overlap=0.5)),
]


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "qkdsim", "__init__.py")):
        print(f"error: no qkdsim package under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, SRC)
    import qkdsim.cli

    failed = 0
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".tmp-") as tmp:
        for argv, check in COMMANDS:
            latency, error = checks.run_op(qkdsim.cli.main, argv, os.path.join(tmp, "out"), check)
            failed += error is not None
            verdict = "PASS" if error is None else f"FAIL {error}"
            print(f"[readme-smoke] qkdsim {' '.join(argv)}: {verdict} ({latency:.2f} s)")
    print(json.dumps({"correct": failed == 0, "attempted": len(COMMANDS), "failed": failed}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
