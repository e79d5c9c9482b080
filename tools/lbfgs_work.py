"""Count the L-BFGS work behind a grid run: the grid tools' shared counter.

``counted()`` wraps ``qkdsim.information._lbfgs_rows`` for the duration of a
``with`` block and counts its calls, the objective evaluations they make (one
stacked call of the objective each, and the rows it scores), and the calls
in which no row took a step. The counts do not depend on the host, so two
trees compared on one grid show the work a change removed even where their
timings are noise.
"""

from __future__ import annotations

import contextlib


@contextlib.contextmanager
def counted():
    """Count every ``_lbfgs_rows`` call made inside the block into the
    yielded dict; the package must be importable."""
    import numpy as np

    from qkdsim import information

    counts = {"calls": 0, "evaluations": 0, "rows": 0, "no step": 0}
    inner = information._lbfgs_rows

    def wrapper(fun, x, gtol, max_iters):
        def objective(y):
            counts["evaluations"] += 1
            counts["rows"] += len(y)
            return fun(y)

        ends, ok = inner(objective, x, gtol, max_iters)
        counts["calls"] += 1
        counts["no step"] += bool(np.array_equal(ends, x))
        return ends, ok

    information._lbfgs_rows = wrapper
    try:
        yield counts
    finally:
        information._lbfgs_rows = inner


def summary(counts: dict[str, int]) -> str:
    """One line of the counts."""
    return (f"_lbfgs_rows work: {counts['calls']} calls, {counts['evaluations']} objective "
            f"evaluations ({counts['rows']} rows), {counts['no step']} calls took no step")
