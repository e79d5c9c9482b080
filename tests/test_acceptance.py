"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values are frozen from the independent oracles in
oracles.py (closed forms and dense grids), never from the code under test.
"""

import json
import time

import numpy as np
import pytest

from qkdsim.channels import CqEnsemble
from qkdsim.cli import main
from qkdsim.information import OptimizerConfig, c1, c_k, holevo_chi, quantum_condition
from qkdsim.measurements import random_rank1_povm
from qkdsim.scenarios import paper_example
from qkdsim.simulation import (
    EveStrategy,
    bob_decoder,
    eve_default_strategy,
    eve_optimize,
    evaluate,
    repetition_codebook,
    sample_codebook,
)
from qkdsim.states import pure_state, von_neumann_entropy

from conftest import random_density, random_pure
from oracles import (
    binary_entropy,
    block_success,
    grid_c1_qubit,
    helstrom_crossover,
    majority_error,
    pure_pair_c1,
    pure_pair_capacity,
)


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_example_condition(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "analyze.json"
    code = main(
        ["analyze", "paper-example", "--overlap", "0.5", "--restarts", "3",
         "--out", str(out)]
    )
    payload = json.loads(out.read_text())
    lhs, rhs = payload["quantum"]["lhs"], payload["quantum"]["rhs"]
    ok = (
        code == 0
        and abs(lhs - pure_pair_capacity(0.5)) <= 1e-4
        and abs(rhs - pure_pair_c1(0.5)) <= 1e-3
        and payload["satisfied"] is True
    )
    detail = f"lhs={lhs:.6f} rhs={rhs:.6f}"
    for s in (0.0, 1.0):
        sc = paper_example(s)
        rep = quantum_condition(sc.ensemble, sc.theta, OptimizerConfig(restarts=2))
        ok = ok and abs(rep.lhs - rep.rhs) <= 1e-6 and not rep.satisfied
        detail += f" | s={s:g}: |lhs-rhs|={abs(rep.lhs - rep.rhs):.2e}"
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report("criterion 1 (example condition values)", ok, detail + f" ({elapsed:.1f}s)")


def test_criterion_2_nonorthogonality_advantage():
    t0 = time.perf_counter()
    cfg = OptimizerConfig(restarts=2, seed=0)
    min_gap = np.inf
    for s in np.linspace(0.05, 0.95, 20):
        sc = paper_example(float(s))
        rep = quantum_condition(sc.ensemble, sc.theta, cfg)
        min_gap = min(min_gap, rep.lhs - rep.rhs)
    elapsed = time.perf_counter() - t0
    ok = min_gap > 1e-4 and elapsed < 120.0
    _report(
        "criterion 2 (nonorthogonality gives advantage)",
        ok,
        f"min gap {min_gap:.6f} over 20 overlaps ({elapsed:.1f}s)",
    )


def test_criterion_3_seesaw_matches_grid_oracle():
    rng = np.random.default_rng(2024)
    cfg = OptimizerConfig(restarts=3, seed=17)
    worst = 0.0
    for _ in range(25):
        v0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        v1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        v0, v1 = v0 / np.linalg.norm(v0), v1 / np.linalg.norm(v1)
        e = CqEnsemble([0.5, 0.5], (pure_state(v0), pure_state(v1)))
        seesaw = c1(e, cfg).value
        oracle = grid_c1_qubit(v0, v1)
        worst = max(worst, abs(seesaw - oracle))
    ok = worst <= 1e-3
    _report(
        "criterion 3 (seesaw vs brute-force grid)",
        ok,
        f"worst |seesaw - grid| = {worst:.2e} over 25 ensembles",
    )


def test_criterion_4_classical_condition(tmp_path):
    out = tmp_path / "bsc.json"
    code = main(["analyze", "bsc-pair", "0.1", "0.3", "--restarts", "1", "--out", str(out)])
    payload = json.loads(out.read_text())
    adv = payload["classical"]["lhs"]
    oracle = binary_entropy(0.3) - binary_entropy(0.1)
    ok = code == 0 and abs(adv - oracle) <= 1e-4 and payload["classical"]["satisfied"]
    out2 = tmp_path / "bsc-eq.json"
    code2 = main(["analyze", "bsc-pair", "0.15", "0.15", "--restarts", "1", "--out", str(out2)])
    adv2 = json.loads(out2.read_text())["classical"]["lhs"]
    ok = ok and code2 == 0 and abs(adv2) <= 1e-9
    _report(
        "criterion 4 (classical wiretap condition)",
        ok,
        f"advantage={adv:.6f} (oracle {oracle:.6f}), equal-case={adv2:.2e}",
    )


def test_criterion_5_entangled_vs_factorized():
    t0 = time.perf_counter()
    s = 0.5
    sc = paper_example(s).with_n(3)
    book = repetition_codebook(2, 3)
    mb = bob_decoder(sc, book)
    rep = evaluate(sc, book, mb, eve_default_strategy(sc, book))
    p_agree_oracle = block_success(s, 3)
    bob_oracle = 1 - binary_entropy(1 - p_agree_oracle)
    eve_oracle = 1 - binary_entropy(majority_error(helstrom_crossover(s), 3))
    ok = (
        abs(rep.p_agree - p_agree_oracle) <= 1e-6
        and abs(rep.bob_info - bob_oracle) <= 1e-5
        and abs(rep.eve_info - eve_oracle) <= 1e-5
    )
    opt = eve_optimize(sc, book, OptimizerConfig(restarts=20, seed=1))
    rep_opt = evaluate(sc, book, mb, opt)
    ok = ok and rep.bob_info > rep_opt.eve_info
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(
        "criterion 5 (entangled decoder beats factorized attack)",
        ok,
        f"p_agree={rep.p_agree:.6f} bob={rep.bob_info:.6f} eve={rep.eve_info:.6f} "
        f"eve_opt={rep_opt.eve_info:.6f} ({elapsed:.1f}s)",
    )


def test_criterion_6_factorized_adversary_ceiling():
    rng = np.random.default_rng(99)
    cfg = OptimizerConfig(restarts=2, seed=11)
    c1_cache = {}
    worst_slack = np.inf
    for _ in range(50):
        s = float(rng.choice([0.3, 0.5, 0.7]))
        n = int(rng.integers(1, 5))
        sc = paper_example(s).with_n(n)
        if s not in c1_cache:
            c1_cache[s] = c1(sc.eve_ensemble(), cfg).value
        book = sample_codebook(2, n, 2, int(rng.integers(0, 10_000)))
        if rng.random() < 0.5:
            me = eve_default_strategy(sc, book)
        else:
            slots = [random_rank1_povm(2, 4, rng) for _ in range(n)]
            me = EveStrategy(slots, [int(rng.integers(0, 2)) for _ in range(4**n)])
        rep = evaluate(sc, book, bob_decoder(sc, book), me)
        ceiling = n * c1_cache[s] + 1e-6
        worst_slack = min(worst_slack, ceiling - rep.eve_info)
        if rep.eve_info > ceiling:
            _report(
                "criterion 6 (factorized-adversary ceiling)",
                False,
                f"violated at s={s} n={n}: {rep.eve_info:.6f} > {ceiling:.6f}",
            )
    _report(
        "criterion 6 (factorized-adversary ceiling)",
        True,
        f"50 cells within n*C1+1e-6, worst slack {worst_slack:.2e}",
    )


def test_criterion_7_block_capacity_sandwich():
    s = 0.5
    sc = paper_example(s)
    ee = sc.eve_ensemble()
    cfg = OptimizerConfig(restarts=2, seed=3)
    res = c_k(ee, 2, cfg)
    lo = 2 * pure_pair_c1(s) - 1e-3
    hi = 2 * pure_pair_capacity(s) + 1e-3
    ok = lo <= res.value <= hi
    _report(
        "criterion 7 (block-2 capacity sandwich)",
        ok,
        f"C_2={res.value:.6f} in [{lo:.6f}, {hi:.6f}]",
    )


def test_criterion_8_invariant_suites():
    rng = np.random.default_rng(5)
    ok = True
    notes = []
    # POVM completeness and positivity
    for dim, m in ((2, 4), (3, 9)):
        povm = random_rank1_povm(dim, m, rng)
        total = sum(povm.effects)
        ok &= np.abs(total - np.eye(dim)).max() < 1e-9
    notes.append("povm")
    # entropy bounds
    for _ in range(20):
        rho = random_density(rng, 4)
        h = von_neumann_entropy(rho)
        ok &= 0.0 <= h <= 2.0 + 1e-12
    notes.append("entropy")
    # Holevo bound
    from qkdsim.information import accessible_information

    cfg = OptimizerConfig(restarts=1, seed=8)
    for _ in range(10):
        e = CqEnsemble([0.5, 0.5], (random_pure(rng, 2), random_pure(rng, 2)))
        ok &= accessible_information(e, cfg).value <= holevo_chi(e) + 1e-6
    notes.append("holevo-bound")
    # joint normalization and determinism under fixed seeds
    sc = paper_example(0.5).with_n(2)
    book = sample_codebook(2, 2, 2, seed=4)
    cfg2 = OptimizerConfig(restarts=2, seed=21)
    r1 = evaluate(sc, book, bob_decoder(sc, book), eve_optimize(sc, book, cfg2))
    r2 = evaluate(sc, book, bob_decoder(sc, book), eve_optimize(sc, book, cfg2))
    ok &= abs(r1.joint.sum() - 1.0) < 1e-9
    ok &= bool(np.array_equal(r1.joint, r2.joint))
    notes.append("joint+determinism")
    _report("criterion 8 (invariant suites)", bool(ok), "+".join(notes))
