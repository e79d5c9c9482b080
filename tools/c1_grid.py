"""Run C1, accessible information and C_2 on fixed random ensembles and write
or compare their values and witnesses.

Usage: python3 tools/c1_grid.py SRC OUT
       python3 tools/c1_grid.py --diff BASE NEW

The first form imports ``qkdsim`` from the package under SRC (a ``src``
directory) and writes to the file OUT, as JSON keyed ``ensemble/quantity``,
the value, the prior, the POVM effects (real and imaginary parts) and the
``converged`` flag of ``c1`` and ``accessible_information`` on 56
ensembles, and of ``c_k(e, 2)`` where the ensemble is a pair of qubit
letters. Ensembles 0-39 are random: ensemble i is drawn from
``default_rng(1000 + i)``, 2 to 4 letters on a qubit or a qutrit, each a
random density matrix of random rank, at a Dirichlet prior, scored under
``OptimizerConfig(restarts=r, seed=i)`` with r drawn from 1..2. Ensembles
40-55 are pairs of pure letters, whose C1 ``c1`` returns in closed form:
40-45 are ``paper_example``'s adversary letters at the overlaps
``PAPER_OVERLAPS``, at the uniform prior and at (0.3, 0.7), under the default
``OptimizerConfig(seed=i)``; 46-55 are random pure pairs from
``default_rng(1000 + i)``, on a qubit (i even) or a qutrit (i odd), at the
uniform prior or a Dirichlet one, with ``restarts`` drawn from 0..8. JSON
writes every float at full precision, so a witness round-trips bit for bit.
The equality set's golden files hold C1 at a few points and 12 digits only;
this grid shows what a change to the POVM ascent moved. It also prints the
work behind the grid (``lbfgs_work``): the L-BFGS calls, objective
evaluations and calls that took no step, the prior ascents and the scipy
``minimize`` calls they reach, and the Holevo-capacity solves.

The second form prints every value in NEW that moved by more than 1e-12
against BASE, every witness (prior or effects) that changed a byte, every
``converged`` flag that flipped, and a count of each, then exits 0.
"""

from __future__ import annotations

import json
import os
import sys

import lbfgs_work

MIXED = 40
PAPER_OVERLAPS = (0.2, 0.5, 0.8)
PURE_PAIRS = 10
ENSEMBLES = range(MIXED + 2 * len(PAPER_OVERLAPS) + PURE_PAIRS)
TOLERANCE = 1e-12


def ensemble(i: int):
    """Ensemble i of the grid and its ``OptimizerConfig``."""
    import numpy as np

    from qkdsim.channels import CqEnsemble
    from qkdsim.information import OptimizerConfig
    from qkdsim.scenarios import paper_example

    rng = np.random.default_rng(1000 + i)
    if MIXED <= i < MIXED + 2 * len(PAPER_OVERLAPS):
        overlap, skewed = PAPER_OVERLAPS[(i - MIXED) // 2], (i - MIXED) % 2
        e = paper_example(overlap).eve_ensemble()
        return CqEnsemble([0.3, 0.7] if skewed else e.prior, e.states), OptimizerConfig(seed=i)
    if i >= MIXED:
        dim = 2 + i % 2
        vectors = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
        states = [np.outer(v, v.conj()) / np.vdot(v, v).real for v in vectors]
        prior = rng.dirichlet(np.ones(2)) if i // 2 % 2 else np.full(2, 0.5)
        return CqEnsemble(prior, states), OptimizerConfig(restarts=int(rng.integers(0, 9)), seed=i)
    size, dim = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    states = []
    for _ in range(size):
        rank = int(rng.integers(1, dim + 1))
        a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        m = a @ a.conj().T
        states.append(m / np.trace(m).real)
    prior = rng.dirichlet(np.ones(size))
    return CqEnsemble(prior, states), OptimizerConfig(restarts=int(rng.integers(1, 3)), seed=i)


def run_grid() -> dict[str, dict]:
    """Value, prior and effects of every quantity of the grid, keyed
    ``ensemble/quantity``; the package must be importable."""
    from qkdsim.information import accessible_information, c1, c_k

    def record(res):
        effects = res.povm.effects
        return {"value": res.value, "prior": res.prior.tolist(),
                "real": effects.real.tolist(), "imag": effects.imag.tolist(),
                "converged": res.converged}

    out = {}
    for i in ENSEMBLES:
        e, cfg = ensemble(i)
        out[f"{i}/c1"] = record(c1(e, cfg))
        out[f"{i}/accessible"] = record(accessible_information(e, cfg))
        if e.size == 2 and e.dim == 2:
            out[f"{i}/c2"] = record(c_k(e, 2, cfg))
    return out


def diff(base: dict[str, dict], new: dict[str, dict]) -> list[str]:
    """One line per value that moved by more than TOLERANCE, per witness
    that changed a byte and per ``converged`` flag that flipped, then a
    summary."""
    lines, moved, changed, witnesses, flips = [], 0, 0, 0, 0
    shared = sorted(base.keys() & new.keys(), key=lambda k: (int(k.split("/")[0]), k))
    for key in shared:
        old, now = base[key], new[key]
        delta = now["value"] - old["value"]
        changed += now["value"] != old["value"]
        if abs(delta) > TOLERANCE:
            moved += 1
            lines.append(f"value {key}: {old['value']!r} -> {now['value']!r} ({delta:+.3e})")
        parts = [p for p in ("prior", "real", "imag") if json.dumps(old[p]) != json.dumps(now[p])]
        if parts:
            witnesses += 1
            lines.append(f"witness {key}: {', '.join(parts)} changed")
        if old["converged"] != now["converged"]:
            flips += 1
            lines.append(f"converged {key}: {old['converged']} -> {now['converged']}")
    missing = sorted(base.keys() ^ new.keys())
    if missing:
        lines.append(f"entries in only one file: {' '.join(missing)}")
    lines.append(f"{len(shared)} entries compared: {moved} values moved beyond {TOLERANCE:g}, "
                 f"{changed} changed any bit; {witnesses} witnesses changed a byte; "
                 f"{flips} converged flags flipped")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--diff":
        with open(argv[1], encoding="utf-8") as fh, open(argv[2], encoding="utf-8") as gh:
            print("\n".join(diff(json.load(fh), json.load(gh))))
        return 0
    if len(argv) != 2:
        print("\n".join(__doc__.strip().splitlines()[3:5]), file=sys.stderr)
        return 1
    src, out = (os.path.abspath(a) for a in argv)
    sys.path.insert(0, src)
    import qkdsim

    if not os.path.abspath(qkdsim.__file__).startswith(src + os.sep):
        print(f"error: imported qkdsim from {qkdsim.__file__}, not {src}", file=sys.stderr)
        return 1
    with lbfgs_work.counted() as counts:
        values = run_grid()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(values, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(values)} entries written to {out}")
    print(lbfgs_work.summary(counts))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
