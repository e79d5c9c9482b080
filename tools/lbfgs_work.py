"""Count the optimizer work behind a grid run: the grid tools' shared counter.

``counted()`` wraps ``qkdsim.information._lbfgs_rows`` for the duration of a
``with`` block and counts its calls, the objective evaluations they make (one
stacked call of the objective each, and the rows it scores), and the calls
in which no row took a step. It also counts the prior ascents
(``information._ascend_prior``), the calls of ``scipy.optimize.minimize``
they reach (an ascent whose start already meets its stop makes none), and
the ``information.holevo_capacity`` solves. The counts do not depend on the
host, so two trees compared on one grid show the work a change removed even
where their timings are noise.
"""

from __future__ import annotations

import contextlib


@contextlib.contextmanager
def counted():
    """Count every ``_lbfgs_rows``, ``_ascend_prior``, ``minimize`` and
    ``holevo_capacity`` call made inside the block into the yielded dict; the
    package and scipy must be importable."""
    import numpy as np
    from scipy import optimize

    from qkdsim import information

    counts = {"calls": 0, "evaluations": 0, "rows": 0, "no step": 0,
              "prior ascents": 0, "minimize": 0, "holevo_capacity": 0}
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

    def tally(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return call

    patches = [(information, "_lbfgs_rows", wrapper),
               (information, "_ascend_prior", tally("prior ascents", information._ascend_prior)),
               (information, "holevo_capacity", tally("holevo_capacity", information.holevo_capacity)),
               (optimize, "minimize", tally("minimize", optimize.minimize))]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, fn in patches:
        setattr(owner, name, fn)
    try:
        yield counts
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)


def summary(counts: dict[str, int]) -> str:
    """Two lines of the counts."""
    return (f"_lbfgs_rows work: {counts['calls']} calls, {counts['evaluations']} objective "
            f"evaluations ({counts['rows']} rows), {counts['no step']} calls took no step\n"
            f"prior work: {counts['prior ascents']} _ascend_prior calls, {counts['minimize']} "
            f"reached scipy.optimize.minimize; {counts['holevo_capacity']} holevo_capacity calls")
