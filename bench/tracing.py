"""Per-layer timings for the traced benchmark run, taken from outside the package.

The layers are the package modules. ``Tracer.install`` replaces each public
function listed in ``FUNCTIONS`` with a timing wrapper in every module
namespace that holds it, because modules import each other's functions by
name (``simulation`` does ``from .measurements import expand``). The
constructors in ``CONSTRUCTORS`` are timed by wrapping ``__init__``, which
is where they validate. ``scipy.optimize`` is replaced, in each module that
imports it, by a stand-in whose ``minimize`` is timed as ``<layer>.lbfgs``
and adds the ``nfev`` and ``nit`` of every returned ``OptimizeResult``.

A function's self time is its total time minus the time of the wrapped
calls made inside it, ``lbfgs`` calls included.
"""

from __future__ import annotations

import functools
import resource
import sys
import time

import scipy.optimize

PACKAGE = "qkdsim"

FUNCTIONS = {
    "cli": ("main",),
    "scenarios": ("load_scenario",),
    "simulation": ("sweep", "bob_decoder", "eve_default_strategy", "evaluate", "eve_optimize"),
    "information": ("quantum_condition", "holevo_capacity", "c1"),
    "measurements": (
        "pretty_good_measurement",
        "expand",
        "helstrom",
        "induced_channel",
        "random_rank1_povm",
    ),
    "channels": ("tensor_power", "apply", "push_through", "marginal"),
    "states": ("permute_factors",),
}
CONSTRUCTORS = {"states": ("DensityOperator",), "measurements": ("Povm",)}
# Growth of the peak RSS across the call: the receiver decoder builds the
# dense joint block state.
RSS_TRACKED = ("simulation.bob_decoder",)
OPTIMIZER_LAYERS = ("simulation", "information")


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric ``Tracer.metrics`` reports."""
    specs = []
    for layer, names in FUNCTIONS.items():
        for name in names:
            base = f"{layer}.{name}"
            specs += [(f"{base}.calls", "count", "lower"), (f"{base}.total_s", "s", "lower"),
                      (f"{base}.self_s", "s", "lower")]
            if base in RSS_TRACKED:
                specs.append((f"{base}.rss_grow_mb", "MB", "lower"))
    for layer, names in CONSTRUCTORS.items():
        for name in names:
            specs += [(f"{layer}.{name}.calls", "count", "lower"),
                      (f"{layer}.{name}.total_s", "s", "lower")]
    for layer in OPTIMIZER_LAYERS:
        specs += [(f"{layer}.lbfgs.{key}", unit, "lower")
                  for key, unit in (("calls", "count"), ("nfev", "count"), ("nit", "count"),
                                    ("total_s", "s"))]
    return specs


class _Span:
    __slots__ = ("calls", "total_s", "self_s", "rss_grow_kb")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.rss_grow_kb = 0


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _OptimizeStandIn:
    """Takes the place of ``scipy.optimize`` in one module."""

    def __init__(self, minimize):
        self.minimize = minimize

    def __getattr__(self, name):
        return getattr(scipy.optimize, name)


class Tracer:
    """Call counts, total and self times per wrapped function; undone by
    ``uninstall``."""

    def __init__(self):
        self.spans: dict[str, _Span] = {}
        self.counts: dict[str, int] = {}
        self._child_s: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        span = self.spans.setdefault(name, _Span())
        track_rss = name in RSS_TRACKED
        stack = self._child_s

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            rss0 = _peak_rss_kb() if track_rss else 0
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - children
                if track_rss:
                    span.rss_grow_kb += _peak_rss_kb() - rss0
                if stack:
                    stack[-1] += elapsed

        return timed

    def _counted_minimize(self, layer: str):
        counts = self.counts

        def minimize(*args, **kwargs):
            result = scipy.optimize.minimize(*args, **kwargs)
            for key in ("nfev", "nit"):
                counts[f"{layer}.lbfgs.{key}"] += int(getattr(result, key, 0))
            return result

        for key in ("nfev", "nit"):
            counts[f"{layer}.lbfgs.{key}"] = 0
        return self._wrap(f"{layer}.lbfgs", minimize)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapped = self._wrap(f"{layer}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapped)
        for layer, names in CONSTRUCTORS.items():
            for name in names:
                cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], name)
                self._set(cls, "__init__", self._wrap(f"{layer}.{name}", cls.__init__))
        for layer in OPTIMIZER_LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            stand_in = _OptimizeStandIn(self._counted_minimize(layer))
            for attr, value in list(vars(mod).items()):
                if value is scipy.optimize:
                    self._set(mod, attr, stand_in)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self) -> dict[str, float]:
        """Every metric of ``metric_specs``, by name."""
        values: dict[str, float] = dict(self.counts)
        for name, span in self.spans.items():
            values[f"{name}.calls"] = span.calls
            values[f"{name}.total_s"] = span.total_s
            values[f"{name}.self_s"] = span.self_s
            if name in RSS_TRACKED:
                values[f"{name}.rss_grow_mb"] = span.rss_grow_kb / 1024.0
        return {name: values[name] for name, _, _ in metric_specs()}
