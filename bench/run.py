"""qkdsim benchmark: a closed-loop load generator over the README CLI commands.

    python3 bench/run.py --workload {pipeline,feasibility,eve-seesaw} \
        --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports the package from ``src``. One
client runs one op at a time, each op starting when the previous one
returns. An op is one CLI command run in-process through
``qkdsim.cli.main(argv)`` with ``--out`` going to a temporary file; its
output is checked against closed forms (``checks.py``). Ops come in passes
drawn from ``--seed``; whole passes run until ``--seconds`` have gone by.
Reported times are scaled to nominal host speed by a probe that runs before
and after every op (``hostspeed.py``), because a shared host drifts in speed
by more than the metrics' bounds; the raw times are in the details line.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run is timed per layer by ``tracing.Tracer`` instead. The line before it
records the environment, the seed and the op counts behind each statistic.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import checks

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

SCENARIO = "paper-example"
OVERLAP = 0.5
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
PIPELINE_N = 5
EVE_N = 3
FEASIBILITY_RANGE = (0.05, 0.95)
# Each pass outlasts --seconds 15 on a 2-core 2.1 GHz x86 host even when the
# host runs a third faster than usual (its speed swings that much), so a run
# times one pass of a fixed number of ops and its percentiles always rank
# the same number of ops.
PIPELINE_PASS_OPS = 64
FEASIBILITY_STRATA = 32
# The seesaw's cost is bimodal in --seed: about a third of the seeds start
# next to a fixed point and finish in a tenth of the time. Freshly drawn
# seeds would make every run's mix of fast and slow ops a coin toss, so each
# pass runs this pool twice and the workload seed only orders it. A pass is
# then 16 ops and op_tail_s the p37, below the median, so a slowdown of the
# slow seeds alone shows in op_p50_s and ops_per_s, not in op_tail_s. Three
# copies would lift the tail above the median but make every run about 55 s,
# too long for the benchmark's 3420 s budget of 70 runs.
EVE_SEED_POOL = tuple(range(8)) * 2

# Set-up as a user pays it: a fresh interpreter imports the package and
# loads the scenario. The clock is the system-wide monotonic one, so the
# child's reading is comparable with the parent's start time.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, {src!r})
import qkdsim.cli
qkdsim.scenarios.load_scenario({scenario!r}, overlap={overlap!r})
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""
IMPORT_PROBE = "import sys; sys.path.insert(0, {src!r}); import qkdsim.cli"
# A time measured between two host-speed probes is divided by the median of
# this many probes before it and as many after it. One probe misreads the
# host's speed by up to a half when the host hiccups during it; the median
# of ten does not, and still follows drift on the scale of tens of seconds.
SPEED_WINDOW = 5
# Each probe after a timed interval runs for this share of the interval, so
# that long ops, which are few in a run, still get a precise speed reading;
# the first probe of a series runs for FIRST_PROBE_S.
PROBE_SHARE = 0.1
FIRST_PROBE_S = 0.2


@dataclass(frozen=True)
class Op:
    argv: list[str]
    check: Callable[[str], str | None]


def pipeline_pass(rng: random.Random) -> list[Op]:
    """Exact enumerator at n=5 (1024-dimensional block space), one random
    codebook per op, no optimizer."""
    ops = []
    for _ in range(PIPELINE_PASS_OPS):
        seed = rng.randrange(2**31)
        argv = ["sweep", SCENARIO, "--overlap", str(OVERLAP), "--n-range", str(PIPELINE_N),
                "--seeds", str(seed), "--coder", "random", "--eve", "default", "--format", "json"]
        ops.append(Op(argv, partial(checks.check_pipeline, overlap=OVERLAP, n=PIPELINE_N,
                                    seed=seed)))
    return ops


def feasibility_pass(rng: random.Random) -> list[Op]:
    """``analyze`` at overlaps drawn uniformly from FEASIBILITY_RANGE, one per
    stratum of equal width, so that every pass spans the range once."""
    lo, hi = FEASIBILITY_RANGE
    width = (hi - lo) / FEASIBILITY_STRATA
    overlaps = [lo + width * (j + rng.random()) for j in range(FEASIBILITY_STRATA)]
    rng.shuffle(overlaps)
    return [Op(["analyze", SCENARIO, "--overlap", repr(s)],
               partial(checks.check_feasibility, overlap=s)) for s in overlaps]


def eve_seesaw_pass(rng: random.Random) -> list[Op]:
    """``simulate --eve optimized`` at n=3: the adversary's per-slot seesaw."""
    seeds = list(EVE_SEED_POOL)
    rng.shuffle(seeds)
    return [Op(["simulate", SCENARIO, "--overlap", str(OVERLAP), "-n", str(EVE_N),
                "--eve", "optimized", "--restarts", "2", "--seed", str(k)],
               partial(checks.check_eve_seesaw, overlap=OVERLAP, n=EVE_N)) for k in seeds]


WORKLOADS = {
    "pipeline": pipeline_pass,
    "feasibility": feasibility_pass,
    "eve-seesaw": eve_seesaw_pass,
}
# The ``hostspeed`` probe whose times followed each workload's op times most
# closely across runs of varying host speed.
HOST_PROBE = {
    "pipeline": "dense",
    "feasibility": "optimizer",
    "eve-seesaw": "dense",
}


def tail(latencies: list[float]) -> tuple[int, float, int]:
    """(percentile, latency, ops beyond it) at the highest whole percentile
    with at least ten ops beyond it, by nearest rank; the maximum when there
    are too few ops for that."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1], 0
    pct = 100 * (n - 10) // n
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1], n - rank


def pin_blas_threads() -> None:
    """One BLAS thread: one process makes all the load, no more threads than
    cores, and sums reduce in a fixed order so optimizer counts repeat.
    Must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _blas_threads(np) -> int | None:
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": _blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _python(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)


def host_slowness(probes: list[float]) -> list[float]:
    """The host's slowness during each of the ``len(probes) - 1`` intervals
    between consecutive probes: the median of the SPEED_WINDOW probes before
    the interval and the SPEED_WINDOW after it."""
    return [statistics.median(probes[max(0, i - SPEED_WINDOW + 1):i + SPEED_WINDOW + 1])
            for i in range(len(probes) - 1)]


def setup_seconds(probe) -> tuple[list[float], list[float]]:
    """Time from process start to package imported and scenario loaded, in
    SETUP_SAMPLES fresh interpreters: at nominal host speed, as ``run_loop``
    scales op times with ``probe``, and raw."""
    code = SETUP_PROBE.format(src=SRC, scenario=SCENARIO, overlap=OVERLAP)
    raw, probes = [], [probe(FIRST_PROBE_S)]
    for _ in range(SETUP_SAMPLES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = float(_python(["-c", code]).stdout.split()[-1])
        raw.append(done - start)
        probes.append(probe(PROBE_SHARE * raw[-1]))
    return [t / slow for t, slow in zip(raw, host_slowness(probes))], raw


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of ``qkdsim`` and of scipy from ``-X importtime``.

    ``from scipy import optimize`` goes through scipy's lazy loader, which
    logs no line of its own for ``scipy.optimize``, so its cost is the sum
    over the outermost ``scipy*`` lines. Only ``qkdsim.information`` and
    ``qkdsim.simulation`` import scipy, and only ``scipy.optimize``.
    """
    rows = []
    for line in stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            name = fields[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), int(fields[1]) / 1e6, name.strip()))
    qkdsim_s = next(cum for _, cum, name in rows if name == "qkdsim")
    scipy_s, inside = 0.0, None
    # Lines come children first; reversed, each subtree follows its root.
    for level, cum, name in reversed(rows):
        if inside is not None and level > inside:
            continue
        inside = None
        if name.startswith("scipy"):
            scipy_s, inside = scipy_s + cum, level
    return {"setup.import_qkdsim_s": qkdsim_s, "setup.import_scipy_optimize_s": scipy_s}


def import_seconds() -> dict[str, float]:
    """``parse_importtime`` medians over IMPORTTIME_SAMPLES fresh interpreters."""
    argv = ["-X", "importtime", "-c", IMPORT_PROBE.format(src=SRC)]
    runs = [parse_importtime(_python(argv).stderr) for _ in range(IMPORTTIME_SAMPLES)]
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


@dataclass
class Loop:
    """A timed loop's results. ``latencies`` and ``loop_s`` are scaled to
    nominal host speed (``hostspeed``); the raw ones go to the details line."""

    raw_latencies: list[float] = field(default_factory=list)
    segments: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    slowness: list[float] = field(default_factory=list)
    passes: int = 0

    @property
    def latencies(self) -> list[float]:
        return [t / slow for t, slow in zip(self.raw_latencies, host_slowness(self.slowness))]

    @property
    def loop_s(self) -> float:
        return sum(t / slow for t, slow in zip(self.segments, host_slowness(self.slowness)))

    @property
    def raw_loop_s(self) -> float:
        return sum(self.segments)


def run_loop(main, make_pass, rng, seconds: float, tmp: str, probe) -> Loop:
    """Whole passes until ``seconds`` have gone by, so at least one.

    ``probe(seconds)`` gives the host's slowness (``hostspeed.probe``); it
    runs before the first op and after every op, for PROBE_SHARE of the op's
    time, and each op's times are divided by ``host_slowness`` around it. The
    loop's time is the sum of the ops' times, each from the op's start to the
    end of its check, so the probes are outside it."""
    out_path = os.path.join(tmp, "out")
    loop = Loop()
    start = time.perf_counter()
    loop.slowness.append(probe(FIRST_PROBE_S))
    while True:
        for op in make_pass(rng):
            op_start = time.perf_counter()
            latency, error = checks.run_op(main, op.argv, out_path, op.check)
            loop.segments.append(time.perf_counter() - op_start)
            loop.raw_latencies.append(latency)
            loop.slowness.append(probe(PROBE_SHARE * loop.segments[-1]))
            if error is not None:
                loop.failures.append(f"{' '.join(op.argv)}: {error}")
        loop.passes += 1
        if time.perf_counter() - start >= seconds:
            return loop


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qkdsim", "__init__.py")):
        print(f"error: no qkdsim package under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, SRC)
    import hostspeed
    import qkdsim.cli

    if not os.path.abspath(qkdsim.__file__).startswith(SRC + os.sep):
        print(f"error: imported qkdsim from {qkdsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracing import Tracer, metric_specs

        tracer = Tracer()
        tracer.install()
    qkdsim.scenarios.load_scenario(SCENARIO, overlap=OVERLAP)

    rng = random.Random(args.seed)
    with (hostspeed.probe(HOST_PROBE[args.workload]) as probe,
          tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".tmp-") as tmp):
        setup, raw_setup = (import_seconds(), None) if tracer else setup_seconds(probe)
        loop = run_loop(qkdsim.cli.main, WORKLOADS[args.workload], rng, args.seconds, tmp, probe)
    if tracer:
        tracer.uninstall()

    latencies = loop.latencies
    attempted, failed = len(latencies), len(loop.failures)
    ops_per_s = (attempted - failed) / loop.loop_s
    pct, tail_s, beyond = tail(latencies)
    for message in loop.failures[:5]:
        print(f"op failed: {message}", file=sys.stderr)
    if tracer:
        units = {name: unit for name, unit, _ in metric_specs()}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in tracer.metrics().items()}
        metrics.update({name: {"value": value, "unit": "s"} for name, value in setup.items()})
        metrics["trace.ops"] = {"value": attempted, "unit": "count"}
        metrics["trace.op_total_s"] = {"value": sum(loop.raw_latencies), "unit": "s"}
        metrics["trace.ops_per_s"] = {"value": ops_per_s, "unit": "1/s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "ops": attempted,
        "passes": loop.passes,
        "loop_s": loop.loop_s,
        "error_frac": failed / attempted,
        "op_p50_s": {"ops": attempted},
        "op_tail_s": {"percentile": pct, "ops": attempted, "ops_beyond": beyond},
        "setup_samples_s": None if tracer else setup,
        "host_slowness": {"median": statistics.median(loop.slowness),
                          "min": min(loop.slowness), "max": max(loop.slowness),
                          "probes": len(loop.slowness)},
        "raw": {
            "loop_s": loop.raw_loop_s,
            "ops_per_s": (attempted - failed) / loop.raw_loop_s,
            "op_p50_s": statistics.median(loop.raw_latencies),
            "op_tail_s": tail(loop.raw_latencies)[1],
            "setup_samples_s": raw_setup,
        },
    }
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
