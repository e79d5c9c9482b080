"""Closed-form oracles and per-command output checks for the benchmark.

The expected values are written out here rather than taken from the package,
so a wrong number from the program cannot also move what it is checked
against. Every check takes the text the command wrote to ``--out`` and
returns None when the output is right, or a message naming what is wrong.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def pure_pair_capacity(s: float) -> float:
    """Holevo capacity C of two equiprobable pure states with overlap s."""
    return binary_entropy((1 - s) / 2)


def helstrom_crossover(s: float) -> float:
    """Error probability of optimal discrimination of an equiprobable pure pair."""
    return (1 - math.sqrt(1 - s * s)) / 2


def pure_pair_c1(s: float) -> float:
    """Single-copy capacity C1 of the pure pair: Helstrom channel, uniform prior."""
    return 1.0 - binary_entropy(helstrom_crossover(s))


def block_success(s: float, d: int) -> float:
    """Success of discriminating two codewords that differ in d letters."""
    return (1 + math.sqrt(1 - s ** (2 * d))) / 2


def majority_error(eps: float, n: int) -> float:
    """Majority-vote error of n independent symmetric slots (odd n)."""
    return sum(math.comb(n, k) * eps**k * (1 - eps) ** (n - k) for k in range(n // 2 + 1, n + 1))


def majority_vote_info(eps: float, d: int, tie_share: float) -> float:
    """Information about a uniform key bit in a majority vote over d letters,
    each misread with probability eps, when a share ``tie_share`` of the tied
    votes (even d) is decoded as key 0 and the rest as key 1."""
    right = sum(math.comb(d, k) * eps**k * (1 - eps) ** (d - k) for k in range((d + 1) // 2))
    tie = math.comb(d, d // 2) * (eps * (1 - eps)) ** (d // 2) if d % 2 == 0 else 0.0
    wrong = 1 - right - tie
    given_0 = right + tie_share * tie  # P(decoded 0 | key 0)
    given_1 = wrong + tie_share * tie  # P(decoded 0 | key 1)
    return binary_entropy((given_0 + given_1) / 2) - (
        binary_entropy(given_0) + binary_entropy(given_1)) / 2


def random_codewords(seed: int, key_count: int, n: int, alphabet: int) -> list[list[int]]:
    """Codewords the random coder draws for ``--seed``: i.i.d. uniform letters
    from numpy's default generator, one row per key."""
    import numpy as np  # here, so numpy loads after run.py pins BLAS threads

    return np.random.default_rng(seed).integers(0, alphabet, size=(key_count, n)).tolist()


def _close(name: str, got: float, want: float, tol: float) -> str | None:
    if abs(got - want) <= tol:
        return None
    return f"{name}={got!r}, expected {want!r} within {tol:g}"


def _at_most(name: str, got: float, ceiling: float) -> str | None:
    return None if got <= ceiling + 1e-9 else f"{name}={got!r} exceeds {ceiling!r}"


def _at_least(name: str, got: float, floor: float) -> str | None:
    return None if got >= floor - 1e-9 else f"{name}={got!r} below {floor!r}"


def _first_error(*results: str | None) -> str | None:
    return next((r for r in results if r is not None), None)


def check_pipeline(text: str, overlap: float, n: int, seed: int) -> str | None:
    """One random-coder sweep cell with the default adversary.

    p_agree is the block success at the codewords' Hamming distance d. The
    adversary measures every letter with Helstrom and decodes by maximum
    likelihood: a majority vote over the d letters where the codewords
    differ, the shared letters telling nothing. For even d the vote can tie.
    Tied likelihoods are equal only in exact arithmetic; the program's
    per-letter tables are not symmetric to the last bit, so a tie goes to
    whichever key rounding favours. Any split of the ties gives eve_info
    between an even split (least) and all ties to one key (most), so that
    interval is the check; for odd d, and for d = 0, it is a single point.
    """
    rows = json.loads(text)["rows"]
    if len(rows) != 1 or rows[0]["flags"] != "ok":
        return f"expected one ok row, got {rows!r}"
    row = rows[0]
    a, b = random_codewords(seed, 2, n, 2)
    d = sum(x != y for x, y in zip(a, b))
    eps = helstrom_crossover(overlap)
    return _first_error(
        _close("p_agree", row["p_agree"], block_success(overlap, d), 1e-9),
        _at_least("eve_info", row["eve_info"], majority_vote_info(eps, d, 0.5)),
        _at_most("eve_info", row["eve_info"], majority_vote_info(eps, d, 1.0)),
    )


def check_feasibility(text: str, overlap: float) -> str | None:
    """``analyze``: C and C1 at acceptance criterion 1's tolerances, and
    the condition holds."""
    payload = json.loads(text)
    quantum = payload["quantum"]
    return _first_error(
        _close("lhs", quantum["lhs"], pure_pair_capacity(overlap), 1e-4),
        _close("rhs", quantum["rhs"], pure_pair_c1(overlap), 1e-3),
        None if payload["satisfied"] is True else "satisfied is not true",
    )


def check_eve_seesaw(text: str, overlap: float, n: int) -> str | None:
    """``simulate --eve optimized`` on the repetition code: the receiver's
    information is exact, and the optimized adversary lies between the
    default strategy (Helstrom slots, majority vote) and n*C1."""
    payload = json.loads(text)
    bob = 1 - binary_entropy(1 - block_success(overlap, n))
    default_eve = 1 - binary_entropy(majority_error(helstrom_crossover(overlap), n))
    return _first_error(
        _close("bob_info", payload["bob_info"], bob, 1e-6),
        _at_least("eve_info", payload["eve_info"], default_eve),
        _at_most("eve_info", payload["eve_info"], n * pure_pair_c1(overlap)),
    )


def check_classical(text: str, eps_b: float, eps_e: float) -> str | None:
    """``analyze bsc-pair``: the wiretap advantage of degraded BSCs is
    h(eps_e) - h(eps_b)."""
    classical = json.loads(text)["classical"]
    want = binary_entropy(eps_e) - binary_entropy(eps_b)
    return _first_error(
        _close("advantage", classical["lhs"], want, 1e-6),
        None if classical["satisfied"] is True else "classical condition not satisfied",
    )


def check_capacity(text: str, overlap: float) -> str | None:
    payload = json.loads(text)
    want = pure_pair_capacity(overlap)
    return _first_error(
        _close("capacity", payload["capacity"], want, 1e-4),
        _close("chi", payload["chi"], want, 1e-9),
    )


def check_accessible(text: str, overlap: float) -> str | None:
    payload = json.loads(text)
    want = pure_pair_c1(overlap)
    return _first_error(
        _close("c1", payload["c1"], want, 1e-3),
        _close("accessible_information", payload["accessible_information"], want, 1e-3),
        _at_most("accessible_information", payload["accessible_information"], payload["c1"]),
    )


def check_simulate_default(text: str, overlap: float, n: int) -> str | None:
    """``simulate --eve default`` on the repetition code (odd n): the
    adversary's key channel is a BSC with the majority-vote error."""
    payload = json.loads(text)
    eve = 1 - binary_entropy(majority_error(helstrom_crossover(overlap), n))
    return _first_error(
        _close("p_agree", payload["p_agree"], block_success(overlap, n), 1e-9),
        _close("eve_info", payload["eve_info"], eve, 1e-9),
    )


def check_sweep_csv(text: str, overlap: float, ns: list[int], seeds: list[int]) -> str | None:
    """Repetition-coder CSV sweep: one ok row per (n, seed), p_agree exact,
    the adversary under both n*C1 and the one key bit."""
    rows = list(csv.DictReader(io.StringIO(text)))
    cells = sorted((int(r["n"]), int(r["seed"])) for r in rows)
    if cells != sorted((n, s) for n in ns for s in seeds):
        return f"sweep cells {cells!r} do not match the requested grid"
    for row in rows:
        n = int(row["n"])
        error = _first_error(
            None if row["flags"] == "ok" else f"row flags {row['flags']!r}",
            _close("p_agree", float(row["p_agree"]), block_success(overlap, n), 1e-9),
            _at_most("eve_info", float(row["eve_info"]), min(1.0, n * pure_pair_c1(overlap))),
        )
        if error is not None:
            return f"n={n} seed={row['seed']}: {error}"
    return None


def run_op(main, argv: list[str], out_path: str, check) -> tuple[float, str | None]:
    """Run one CLI command in-process with ``--out out_path`` and check it.

    Returns the command's latency and None, or a message saying why the op
    failed: it raised, exited non-zero, wrote no output or failed its check.
    Failures are returned, never raised, so one bad op cannot end a run.
    """
    with contextlib.suppress(FileNotFoundError):
        os.unlink(out_path)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv + ["--out", out_path])
    except SystemExit as exc:  # argparse rejects bad argv this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the run must go on; the op counts as failed
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if code != 0:
        return latency, f"exit code {code}: {sink.getvalue().strip()[-300:]}"
    try:
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        return latency, check(text)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return latency, f"unreadable output: {type(exc).__name__}: {exc}"
