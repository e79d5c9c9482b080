"""Run tier-1 against one-line mutants of the package and report which it catches.

Usage: python3 tools/mutants.py [--root DIR]

``MUTANTS`` is a fixed, named list of one-line mutations of ``src/qkdsim``:
each entry is (name, file under the root, old text, new text). Every entry's
old text must occur exactly once in its file and differ from its new text;
otherwise the tool prints the stale entries and exits 2 before running
anything, so a refactor that moves a mutated line cannot leave the list
silently testing nothing (``tests/test_mutants.py`` checks the same in
tier-1, without running a mutant).

The unmutated tree runs first; if tier-1 fails there the tool exits 1. Then
each mutant is applied to a fresh copy of the tree under DIR (default: this
repository) in a temporary directory, never to DIR itself, and tier-1 runs
there as ``pytest -x -q -p no:cacheprovider``, less ``tests/test_mutants.py``
(which checks the list, not the package), with PYTHONPATH set to the
copy's ``src`` and one BLAS thread, for at most ``TIMEOUT`` seconds.
It prints one row per mutant: its name, ``killed``, ``survived`` or ``timed
out``, the first failing test and the seconds taken. Exit status 0 once every
mutant has run, whatever they did: this is a measurement, not a gate. A
survivor costs a full tier-1 run, about a minute on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Ten times a passing run on a 2-vCPU host: a mutant that makes an ascent
# crawl times out instead of stalling the table.
TIMEOUT = 600.0

MUTANTS = (
    # Tolerances on outside input.
    ("completeness-atol", "src/qkdsim/measurements.py",
     "COMPLETENESS_ATOL = 1e-9", "COMPLETENESS_ATOL = 1e-6"),
    ("trace-preservation-atol", "src/qkdsim/channels.py",
     "TRACE_PRESERVATION_ATOL = 1e-9", "TRACE_PRESERVATION_ATOL = 1e-6"),
    ("hermiticity-atol", "src/qkdsim/states.py",
     "HERMITICITY_ATOL = 1e-10", "HERMITICITY_ATOL = 1e-6"),
    ("report-normalization", "src/qkdsim/simulation.py",
     "if abs(total - 1.0) > 1e-9:", "if abs(total - 1.0) > 1e-6:"),
    # Support and tie thresholds.
    ("pgm-support", "src/qkdsim/measurements.py",
     "support = sigma**2 > 1e-12", "support = sigma**2 > 1e-8"),
    ("uniform-start-threshold", "src/qkdsim/information.py",
     "if np.abs(uniform - e.prior).max() > 1e-6 else", "if np.abs(uniform - e.prior).max() > 1e-2 else"),
    ("ml-decoder-tie", "src/qkdsim/simulation.py",
     "lik.max(axis=0) * (1 - 1e-9)", "lik.max(axis=0) * (1 - 1e-6)"),
    ("kept-rows", "src/qkdsim/information.py",
     "(u.real**2 + u.imag**2).sum(axis=-1) > 1e-14", "(u.real**2 + u.imag**2).sum(axis=-1) > 1e-8"),
    ("bob-support-floor", "src/qkdsim/simulation.py",
     "vals > _SUPPORT_FLOOR * len(c)", "vals > _SUPPORT_FLOOR"),
    ("c1-tie-bits", "src/qkdsim/information.py",
     "_TIE_BITS = 1e-13", "_TIE_BITS = 1e-10"),
    # Comparison directions and tie rules of the two seesaws.
    ("seesaw-ml-decoder-step", "src/qkdsim/simulation.py",
     "if ml_val >= val - cfg.tol:", "if ml_val >= val:"),
    ("c1-prior-step-tie", "src/qkdsim/information.py",
     "if value >= news[j]:", "if value > news[j]:"),
    ("c1-two-letter-stop", "src/qkdsim/information.py",
     "| (ok & (e.size == 2))", "| (ok & (e.size == 3))"),
    # Stops.
    ("joint-gtol", "src/qkdsim/information.py",
     "_JOINT_GTOL = 1e-8", "_JOINT_GTOL = 1e-7"),
    ("seesaw-stall-bits", "src/qkdsim/simulation.py",
     "_STALL_BITS = 3e-3", "_STALL_BITS = 3e-2"),
    ("seesaw-joint-gtol", "src/qkdsim/simulation.py",
     "_SEESAW_JOINT_GTOL = 1e-7", "_SEESAW_JOINT_GTOL = 1e-6"),
    ("capacity-gap-stop", "src/qkdsim/information.py",
     "if float(div.max()) - float(p @ div) <= tol:", "if float(div.max()) - float(p @ div) <= 100 * tol:"),
    # The row-wise L-BFGS.
    ("lbfgs-backtrack", "src/qkdsim/information.py",
     "if 1.0 - q > 1.0 else 0.5, _MIN_SHRINK)", "if 1.0 - q > 1.0 else 0.25, _MIN_SHRINK)"),
    ("lbfgs-curvature-guard", "src/qkdsim/information.py",
     "good = up and syi > slack * yyi", "good = up and syi > 0.0"),
    # Off-by-ones.
    ("seesaw-slot-loop", "src/qkdsim/simulation.py",
     "for i in range(0 if settled else n):", "for i in range(0 if settled else n - 1):"),
    ("scenario-letter-loop", "src/qkdsim/scenarios.py",
     "for a in range(2):", "for a in range(1):"),
)

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks",
                                 "*.egg-info", ".tmp-*")


def stale_entries(root: Path) -> list[str]:
    """One line per entry whose old text does not occur exactly once in its
    file under ``root``, or whose new text equals its old."""
    problems = []
    for name, rel, old, new in MUTANTS:
        path = root / rel
        count = path.read_text(encoding="utf-8").count(old) if path.is_file() else 0
        if count != 1:
            problems.append(f"{name}: old text occurs {count} times in {rel}")
        if old == new:
            problems.append(f"{name}: new text equals old text")
    return problems


def first_failure(output: str) -> str:
    """The first FAILED or ERROR test id in pytest's short summary, else ''."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return ""


def run_tier1(tree: Path) -> tuple[str, str, float]:
    """Tier-1 under ``pytest -x`` in ``tree``: (outcome, first failing test,
    seconds), outcome ``passed``, ``failed`` or ``timed out``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    # The list's own guard fails under every mutant: its old text is gone.
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--ignore", "tests/test_mutants.py"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timed out", "", time.perf_counter() - start
    seconds = time.perf_counter() - start
    return ("passed" if proc.returncode == 0 else "failed"), first_failure(output), seconds


def run_copy(root: Path, mutant=None) -> tuple[str, str, float]:
    """``run_tier1`` in a fresh copy of ``root``, with ``mutant`` applied when given."""
    with tempfile.TemporaryDirectory(prefix="qkdsim-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=IGNORED)
        if mutant is not None:
            _, rel, old, new = mutant
            path = tree / rel
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        return run_tier1(tree)


def row(name: str, outcome: str, failing: str, seconds: float) -> None:
    print(f"{name:26} {outcome:9} {failing or '-'}  {seconds:.1f} s", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="tree to mutate (default: this repository)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    problems = stale_entries(root)
    if problems:
        print("stale mutant list:", *problems, sep="\n  ", file=sys.stderr)
        return 2
    outcome, failing, seconds = run_copy(root)
    row("(unmutated)", outcome, failing, seconds)
    if outcome != "passed":
        print("tier-1 does not pass unmutated; no mutant can be judged", file=sys.stderr)
        return 1
    counts = {}
    for mutant in MUTANTS:
        outcome, failing, seconds = run_copy(root, mutant)
        outcome = {"failed": "killed", "passed": "survived"}.get(outcome, outcome)
        counts[outcome] = counts.get(outcome, 0) + 1
        row(mutant[0], outcome, failing, seconds)
    print(", ".join(f"{n} {o}" for o, n in sorted(counts.items())), f"of {len(MUTANTS)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
