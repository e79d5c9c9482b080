"""Host-speed probes: fixed computations that run none of the program's code.

On a shared host the same op's wall time drifts by a third or more within
minutes, and a run's medians drift with it. The benchmark runs a probe
before and after every op and divides the op's time by the probe's time over
the probe's nominal time, which gives the op's time at the host speed where
the probe takes its nominal time. Drift in host speed moves the probe and the
op alike and cancels; a change in the program moves only the op.

Host slow-downs do not hit all code alike: small-array interpreter work and
memory-bound work on large arrays slow down by different amounts. So there
are two probes, and each workload uses the one that followed its ops best:

* ``optimizer``: finite-difference L-BFGS-B fits of a 4x4 spectrum, as in the
  optimizers. It runs in the benchmark's process; its arrays are tiny, and
  garbage collection is off while it runs, so the program's heap does not
  move it.
* ``dense``: a Kronecker product of five 4x4 factors to a 1024x1024 matrix,
  with its factors permuted, as in the block-state enumerator. Its arrays
  would add up to 48 MB to the peak memory of the benchmark's process, so it
  runs in a helper process that computes only while the benchmark waits.

    python3 bench/hostspeed.py dense

serves the dense probe: each line on stdin gives a time in seconds, and the
reply is the host's slowness measured over at least that long.
"""

from __future__ import annotations

import contextlib
import gc
import subprocess
import sys
import time
from functools import reduce

import numpy as np

# Median time of one round of each probe on a 2-vCPU 2.1 GHz Xeon VM
# (Python 3.11, numpy 2.4, scipy 1.17, OpenBLAS on one thread).
NOMINAL_S = {"optimizer": 0.0265, "dense": 0.022}

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((4, 4))
_STARTS = [np.array([0.3 + 0.01 * i, 0.2, 0.1]) for i in range(6)]
_FACTORS = [_RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4)) for _ in range(5)]
_PERMUTATION = (1, 3, 0, 4, 2)
_VECTOR = _RNG.standard_normal(4 ** len(_FACTORS)) + 0j


def _objective(x: np.ndarray) -> float:
    a = _MATRIX * x[0] + _MATRIX.T * x[1] + np.eye(4) * x[2]
    eigenvalues = np.linalg.eigvalsh(a @ a.T)
    return float(np.sum((eigenvalues - 1.0) ** 2))


def _optimizer_round() -> None:
    from scipy import optimize

    for x0 in _STARTS:
        optimize.minimize(_objective, x0, method="L-BFGS-B")


def _dense_round() -> None:
    product = reduce(np.kron, _FACTORS)
    n = len(_FACTORS)
    order = list(_PERMUTATION) + [n + p for p in _PERMUTATION]
    permuted = product.reshape((4,) * (2 * n)).transpose(order).reshape(product.shape)
    np.vdot(_VECTOR, permuted @ _VECTOR)


_ROUNDS = {"optimizer": _optimizer_round, "dense": _dense_round}


def slowness(kind: str, seconds: float = 0.0) -> float:
    """The host's slowness: the mean wall time of a round of probe ``kind``
    over its nominal time, from whole rounds run until ``seconds`` have gone
    by, so at least one."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        rounds, start = 0, time.perf_counter()
        while True:
            _ROUNDS[kind]()
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return elapsed / (rounds * NOMINAL_S[kind])
    finally:
        if enabled:
            gc.enable()


@contextlib.contextmanager
def probe(kind: str):
    """A function of ``seconds`` that measures the host's slowness with probe
    ``kind``, warmed up. The dense probe's helper process ends on exit."""
    if kind != "dense":
        slowness(kind)
        yield lambda seconds=0.0: slowness(kind, seconds)
        return
    helper = subprocess.Popen([sys.executable, __file__, kind], stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True)
    try:
        def measure(seconds: float = 0.0) -> float:
            helper.stdin.write(f"{seconds!r}\n")
            helper.stdin.flush()
            return float(helper.stdout.readline())

        measure()
        yield measure
    finally:
        helper.stdin.close()
        try:
            helper.wait(timeout=30)
        except subprocess.TimeoutExpired:
            helper.kill()
            helper.wait()


def serve(kind: str) -> None:
    for line in sys.stdin:
        print(slowness(kind, float(line)), flush=True)


if __name__ == "__main__":
    serve(sys.argv[1])
