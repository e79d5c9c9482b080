"""Command-line interface: analyze, simulate, sweep, capacity, accessible.

Human-readable output goes to stdout with 6 decimal places; machine output
(--out) is JSON (or CSV for sweep) with floats at 12 significant digits and
is byte-identical across runs for identical flags and seeds. Files are
written atomically. Exit codes: 0 success, 1 validation or parse failure
(the message names the failed invariant), 2 optimizer non-convergence
(partial report still emitted) or partial sweep failure, 3 budget
exceeded (the message names the count that exceeds it: the receiver's Gram
dimension, the adversary's outcome tuples, a codebook's letters, a sweep's
cells, or a tensor power's or block capacity's dimension).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time

import numpy as np

from .channels import DEFAULT_DIM_BUDGET
from .errors import BudgetExceeded, ValidationError
from .information import (
    ConditionReport,
    OptimizerConfig,
    accessible_information,
    c1,
    classical_advantage,
    holevo_capacity,
    holevo_chi,
    quantum_condition,
)
from .scenarios import ScenarioFormatError, load_scenario, write_atomic
from .simulation import run_cell, sweep

SWEEP_COLUMNS = ("scenario", "n", "seed", "coder", "eve", "p_agree", "bob_info", "eve_info", "flags")


def _round12(obj):
    """Round every float in a JSON-like structure to 12 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, np.floating):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _dump_json(payload: dict) -> str:
    return json.dumps(_round12(payload), indent=2, sort_keys=True) + "\n"


def _effects_as_pairs(povm) -> list:
    return np.stack([povm.effects.real, povm.effects.imag], axis=-1).tolist()


def _condition_dict(report: ConditionReport) -> dict:
    out = {
        "kind": report.kind,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "satisfied": report.satisfied,
        "margin": report.margin,
        "converged": report.converged,
        "lhs_prior": None if report.lhs_prior is None else [float(p) for p in report.lhs_prior],
        "rhs_prior": None if report.rhs_prior is None else [float(p) for p in report.rhs_prior],
    }
    if report.rhs_povm is not None:
        out["rhs_povm"] = _effects_as_pairs(report.rhs_povm)
    return out


def _config_from_args(args) -> OptimizerConfig:
    return OptimizerConfig(
        grid_points=args.grid, restarts=args.restarts, tol=args.tol, seed=args.seed
    )


def _load(args):
    return load_scenario(args.scenario, params=args.params, overlap=args.overlap)


def _check_out(path: str) -> None:
    """Refuse an --out path that cannot be written, before any work is done."""
    if os.path.isdir(path):
        raise ValidationError("--out", f"{path!r} is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ValidationError("--out", f"the directory of {path!r} does not exist")


def _emit(args, text: str) -> None:
    """Write ``text`` to --out, when given; a failed write names --out."""
    if not args.out:
        return
    try:
        write_atomic(args.out, text)
    except OSError as exc:
        raise ValidationError("--out", f"cannot write {args.out!r}: {exc}") from None


def cmd_analyze(args) -> int:
    scenario = _load(args)
    cfg = _config_from_args(args)
    t0 = time.perf_counter()
    quantum = quantum_condition(scenario.ensemble, scenario.theta, cfg)
    classical = None
    if scenario.classical_pair is not None:
        classical = classical_advantage(*scenario.classical_pair, cfg)
    elapsed = time.perf_counter() - t0
    print(f"scenario: {scenario.name}")
    print(
        f"quantum condition: lhs={_fmt(quantum.lhs)} rhs={_fmt(quantum.rhs)} "
        f"satisfied={str(quantum.satisfied).lower()}"
    )
    if classical is not None:
        print(
            f"classical condition: advantage={_fmt(classical.lhs)} "
            f"satisfied={str(classical.satisfied).lower()}"
        )
    converged = quantum.converged and (classical is None or classical.converged)
    if not converged:
        print("warning: optimizer did not converge; report is partial", file=sys.stderr)
    print(f"wall time: {elapsed:.2f} s")
    payload = {
        "command": "analyze",
        "scenario": scenario.name,
        "quantum": _condition_dict(quantum),
        "classical": None if classical is None else _condition_dict(classical),
        "config": dataclasses.asdict(cfg),
        "satisfied": quantum.satisfied,
    }
    _emit(args, _dump_json(payload))
    return 0 if converged else 2


def _check_block_lengths(values, flag: str) -> None:
    if min(values) < 1:
        raise ValidationError(flag, f"block lengths must be >= 1, got {min(values)}")


def cmd_simulate(args) -> int:
    _check_block_lengths([args.n], "-n")
    scenario = _load(args)
    cfg = _config_from_args(args)
    t0 = time.perf_counter()
    report = run_cell(scenario, args.n, args.coder, args.seed, args.eve, cfg)
    condition = quantum_condition(scenario.ensemble, scenario.theta, cfg)
    elapsed = time.perf_counter() - t0
    flags = "ok" if condition.converged else "non-converged"
    print(f"scenario: {scenario.name} n={args.n} seed={args.seed} "
          f"coder={args.coder} eve={args.eve}")
    print(
        f"p_agree={_fmt(report.p_agree)} bob_info={_fmt(report.bob_info)} "
        f"eve_info={_fmt(report.eve_info)}"
    )
    print(
        f"quantum condition: lhs={_fmt(condition.lhs)} rhs={_fmt(condition.rhs)} "
        f"satisfied={str(condition.satisfied).lower()}"
    )
    print(f"flags: {flags}")
    print(f"wall time: {elapsed:.2f} s")
    # Wall time stays out of machine output, so identical flags and seeds
    # give byte-identical files.
    payload = {
        "command": "simulate",
        "scenario": scenario.name,
        "n": args.n,
        "seed": args.seed,
        "coder": args.coder,
        "eve": args.eve,
        "p_agree": report.p_agree,
        "bob_info": report.bob_info,
        "eve_info": report.eve_info,
        "quantum_lhs": condition.lhs,
        "quantum_rhs": condition.rhs,
        "quantum_satisfied": condition.satisfied,
        "flags": flags,
        "config": dataclasses.asdict(cfg),
    }
    _emit(args, _dump_json(payload))
    return 0 if condition.converged else 2


def _parse_int_range(text: str, flag: str) -> range | list[int]:
    """The integers of ``a..b`` as a range, never listed, or of a comma list."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = range(int(lo), int(hi) + 1)
        else:
            values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValidationError(flag, f"expected integers like 1..4 or 1,2,4, got {text!r}") from None
    if not values:
        raise ValidationError(flag, f"{text!r} names no value")
    return values


def _size(values) -> int:
    """How many values a parsed range holds; ``len`` fails past 2^63."""
    return max(values.stop - values.start, 0) if isinstance(values, range) else len(values)


def _sweep_rows(cells) -> list[dict]:
    rows = []
    for cell in cells:
        row = {
            "scenario": cell.scenario,
            "n": cell.n,
            "seed": cell.seed,
            "coder": cell.coder,
            "eve": cell.eve,
        }
        if cell.report is not None:
            row.update(
                p_agree=cell.report.p_agree,
                bob_info=cell.report.bob_info,
                eve_info=cell.report.eve_info,
                flags="ok",
            )
        else:
            row.update(p_agree=None, bob_info=None, eve_info=None, flags=f"error:{cell.error}")
        rows.append(row)
    return rows


def _rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        cells = []
        for col in SWEEP_COLUMNS:
            value = row[col]
            if value is None:
                cells.append("")
            elif isinstance(value, float):
                cells.append(f"{value:.12g}")
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    n_range = _parse_int_range(args.n_range, "--n-range")
    seeds = _parse_int_range(args.seeds, "--seeds")
    # Counted before any pass over the values: a range may be too long to walk.
    count = _size(n_range) * _size(seeds)
    if count > DEFAULT_DIM_BUDGET:
        raise BudgetExceeded(count, DEFAULT_DIM_BUDGET, "n values times seeds", "sweep cell count")
    _check_block_lengths(n_range, "--n-range")
    if any(seed < 0 for seed in seeds):
        raise ValidationError("--seeds", f"codebook seeds must be >= 0, got {min(seeds)}")
    scenario = _load(args)
    cells = sweep(scenario, n_range, seeds, cfg, coder=args.coder, eve=args.eve)
    rows = _sweep_rows(cells)
    failed = sum(1 for c in cells if c.error is not None)
    for row in rows:
        if row["flags"] == "ok":
            print(
                f"n={row['n']} seed={row['seed']} p_agree={_fmt(row['p_agree'])} "
                f"bob_info={_fmt(row['bob_info'])} eve_info={_fmt(row['eve_info'])}"
            )
        else:
            print(f"n={row['n']} seed={row['seed']} {row['flags']}")
    if args.format == "csv":
        _emit(args, _rows_to_csv(rows))
    else:
        payload = {
            "command": "sweep",
            "scenario": scenario.name,
            "rows": rows,
            "config": dataclasses.asdict(cfg),
        }
        _emit(args, _dump_json(payload))
    return 2 if failed else 0


def cmd_capacity(args) -> int:
    scenario = _load(args)
    cfg = _config_from_args(args)
    ensemble = scenario.bob_ensemble()
    chi = holevo_chi(ensemble)
    cap = holevo_capacity(ensemble, cfg)
    print(f"scenario: {scenario.name}")
    print(f"chi at ensemble prior: {_fmt(chi)}")
    print(f"capacity: {_fmt(cap.value)} at prior {[round(float(p), 6) for p in cap.prior]}")
    payload = {
        "command": "capacity",
        "scenario": scenario.name,
        "chi": chi,
        "capacity": cap.value,
        "prior": [float(p) for p in cap.prior],
        "converged": cap.converged,
        "config": dataclasses.asdict(cfg),
    }
    _emit(args, _dump_json(payload))
    return 0 if cap.converged else 2


def cmd_accessible(args) -> int:
    scenario = _load(args)
    cfg = _config_from_args(args)
    ensemble = scenario.eve_ensemble()
    acc = accessible_information(ensemble, cfg)
    joint = c1(ensemble, cfg)
    print(f"scenario: {scenario.name}")
    print(f"accessible information at ensemble prior: {_fmt(acc.value)}")
    print(f"single-copy capacity: {_fmt(joint.value)} at prior "
          f"{[round(float(p), 6) for p in joint.prior]}")
    payload = {
        "command": "accessible",
        "scenario": scenario.name,
        "accessible_information": acc.value,
        "c1": joint.value,
        "prior": [float(p) for p in joint.prior],
        "converged": acc.converged and joint.converged,
        "config": dataclasses.asdict(cfg),
    }
    _emit(args, _dump_json(payload))
    return 0 if acc.converged and joint.converged else 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scenario", help="builtin name or scenario file path")
    parser.add_argument(
        "params", nargs="*", type=float, help="the bsc-pair crossovers EPS_B EPS_E"
    )
    parser.add_argument("--overlap", type=float, default=None, help="paper-example overlap s")
    parser.add_argument(
        "--grid", type=int, default=2001, help="start grid points of the two-input wiretap search"
    )
    parser.add_argument("--restarts", type=int, default=8, help="optimizer restarts")
    parser.add_argument("--tol", type=float, default=1e-9, help="convergence tolerance")
    parser.add_argument("--seed", type=int, default=0, help="seed for codebooks and optimizers")
    parser.add_argument("--out", default=None, help="write machine-readable output here")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qkdsim`` parser, built on first use and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="qkdsim",
        description="Key-distribution feasibility analysis and exact finite-block simulation",
        epilog="exit codes: 0 success; 1 validation or parse failure; 2 optimizer "
        "non-convergence or partial sweep failure; 3 budget exceeded (a simulation "
        "builds at most 2^12 receiver Gram dimensions, 2^12 adversary outcome tuples "
        "and a codebook of 2^20 letters; a sweep runs at most 2^12 cells)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="check the feasibility conditions")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run the exact pipeline once")
    _add_common(p)
    p.add_argument("-n", type=int, default=1, help="block length, >= 1")
    p.add_argument("--coder", choices=("random", "repetition"), default="repetition")
    p.add_argument("--eve", choices=("default", "optimized"), default="default")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="simulate over a grid of block lengths and seeds")
    _add_common(p)
    p.add_argument("--n-range", default="1..3", help="block lengths >= 1, e.g. 1..4 or 1,2,4")
    p.add_argument("--seeds", default="0", help="codebook seeds, e.g. 0..4 or 0,7")
    p.add_argument("--coder", choices=("random", "repetition"), default="repetition")
    p.add_argument("--eve", choices=("default", "optimized"), default="default")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("capacity", help="receiver-side collective capacity")
    _add_common(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("accessible", help="adversary-side single-copy information")
    _add_common(p)
    p.set_defaults(func=cmd_accessible)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code != 2:  # --help exits 0
            raise
        return 1  # argparse's usage error: 2 means non-convergence here
    try:
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except ScenarioFormatError as exc:
        print(f"error: scenario: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"error: budget: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
