"""Frozen scalar outputs of the POVM ascents, the prior ascent, C_k and the
adversary's seesaw between its slots and its decoder, on binary alphabets and
on a three-letter and a four-letter scenario file, exact to abs 1e-10; and
lower bounds on maxima that an earlier start set or ascent reported low, which
a change may meet or beat, never miss.
"""

import json

import numpy as np
import pytest

from qkdsim.channels import CqEnsemble
from qkdsim.cli import main
from qkdsim.information import OptimizerConfig, accessible_information, c1, c_k
from qkdsim.measurements import helstrom
from qkdsim.scenarios import paper_example
from qkdsim.simulation import (
    eve_optimize,
    evaluate,
    repetition_codebook,
    sample_codebook,
)

from conftest import FOUR_LETTER, THREE_MIXED

ABS = 1e-10


def _run(tmp_path, argv):
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_analyze_paper_example_pin(tmp_path):
    payload = _run(tmp_path, ["analyze", "paper-example", "--overlap", "0.5", "--restarts", "1"])
    assert payload["quantum"]["lhs"] == pytest.approx(0.811278124459, abs=ABS)
    assert payload["quantum"]["rhs"] == pytest.approx(0.645421097335, abs=ABS)


def test_analyze_uniform_c1_prior_without_noise(tmp_path):
    # At overlap 0.2 the value is flat in C1's prior near its optimum, so a
    # prior search that stops early leaves its witness a few 1e-9 off.
    payload = _run(tmp_path, ["analyze", "paper-example", "--overlap", "0.2"])
    assert payload["quantum"]["rhs_prior"] == pytest.approx([0.5, 0.5], abs=1e-9)


def test_analyze_bsc_pair_classical_pin(tmp_path):
    payload = _run(tmp_path, ["analyze", "bsc-pair", "0.1", "0.3"])
    assert payload["classical"]["lhs"] == pytest.approx(0.412295305641, abs=ABS)


@pytest.mark.parametrize(
    "argv, eve_info, p_agree",
    [
        (["-n", "2", "--coder", "random", "--restarts", "3", "--seed", "4"], 0.0, 0.5),
        # The seesaw pool of the benchmark's eve-seesaw workload.
        (["-n", "3", "--restarts", "2", "--seed", "0"], 0.900789087176, 0.996078370825),
        (["-n", "3", "--restarts", "2", "--seed", "7"], 0.944777153452, 0.996078370825),
    ],
    ids=["n2-random-seed4", "n3-seed0", "n3-seed7"],
)
def test_simulate_optimized_pin(tmp_path, argv, eve_info, p_agree):
    payload = _run(
        tmp_path, ["simulate", "paper-example", "--overlap", "0.5", "--eve", "optimized"] + argv
    )
    assert payload["eve_info"] == pytest.approx(eve_info, abs=ABS)
    assert payload["p_agree"] == pytest.approx(p_agree, abs=ABS)


@pytest.fixture
def three_mixed(tmp_path):
    path = tmp_path / "three-mixed.json"
    path.write_text(json.dumps(THREE_MIXED))
    return str(path)


def test_analyze_three_letter_c1_pin(tmp_path, three_mixed):
    # Three letters: C1's prior search ends on the boundary of the simplex,
    # with no weight on one of the two mirror-image letters 0 and 2.
    payload = _run(tmp_path, ["analyze", three_mixed])
    assert payload["quantum"]["rhs"] == pytest.approx(0.323844957799, abs=ABS)
    prior = payload["quantum"]["rhs_prior"]
    assert prior == pytest.approx([0.401945739056, 0.598054260944, 0.0], abs=ABS)


@pytest.mark.parametrize("weight", [1e-8, 1e-10])
def test_analyze_tiny_prior_weight(tmp_path, weight):
    # The pretty-good measurement at such a prior failed its Hermiticity
    # check, and analyze exited 1.
    path = tmp_path / "tiny-prior.json"
    path.write_text(json.dumps({
        "format": "qkdsim-scenario-v1",
        "name": "tiny-prior",
        "key_count": 2,
        "alphabet_size": 2,
        "states": {"0": [[1, 0], [0, 0]], "1": [[0.6, 0], [0.8, 0]]},
        "prior": [weight, 1.0 - weight],
        "channel": {"builtin": "identity"},
        "output_dims": [1, 2],
    }))
    assert main(["analyze", str(path), "--out", str(tmp_path / "out.json")]) == 0


def test_capacity_four_letter_file(tmp_path):
    # Blahut-Arimoto alone moves weight between the two nearly equal letters
    # slowly; it stopped at its iteration cap 3.2e-5 low and exited 2.
    path = tmp_path / "four-letter.json"
    path.write_text(json.dumps(FOUR_LETTER))
    payload = _run(tmp_path, ["capacity", str(path)])
    assert payload["converged"]
    assert payload["capacity"] == pytest.approx(0.934237, abs=1e-6)
    assert payload["prior"] == pytest.approx([0.5, 0.0, 0.0, 0.5], abs=1e-6)


def test_simulate_three_letter_optimized_pin(tmp_path, three_mixed):
    argv = ["simulate", three_mixed, "-n", "2", "--coder", "random", "--eve", "optimized",
            "--restarts", "2", "--seed", "1"]
    payload = _run(tmp_path, argv)
    assert payload["eve_info"] == pytest.approx(0.551012909932, abs=ABS)


def test_seesaw_gain_over_default_pin():
    # Random coder, words (1,0,0) and (0,0,1): the default attack gives
    # 0.861721703825 bits, the seesaw lifts it.
    sc = paper_example(0.3)
    book = sample_codebook(2, 3, 2, 3)
    me = eve_optimize(sc, book, OptimizerConfig(restarts=1, seed=3))
    report = evaluate(sc, book, me)
    assert report.eve_info == pytest.approx(0.9682890994937405, abs=ABS)


def test_c_k_two_copy_pin():
    # No command reaches C_k, so no golden output covers it.
    result = c_k(paper_example(0.5).eve_ensemble(), 2, OptimizerConfig(restarts=2, seed=3))
    assert result.value == pytest.approx(1.2908421946694615, abs=1e-12)
    assert result.prior == pytest.approx([0.25] * 4, abs=1e-12)
    assert result.converged
    assert len(result.povm) == 4


def test_tied_structured_starts_keep_the_first_witness():
    # At overlap 0.8 the Helstrom starts at priors 0.5 and 0.25 reach the same
    # maximum; the second climbs to it and leads by 3.3e-16, which is rounding.
    # The first start, the exact Helstrom measurement at the ensemble's prior,
    # stays the witness (golden 18).
    e = paper_example(0.8).eve_ensemble()
    result = c1(e, OptimizerConfig())
    assert result.value == pytest.approx(0.278071905113, abs=ABS)
    assert np.array_equal(result.prior, [0.5, 0.5])
    assert np.array_equal(result.povm.effects, helstrom(e.states[0], e.states[1], 0.5).effects)


def test_zero_effect_slot_keeps_its_outcome():
    # At overlap 1 the letters coincide, so the Helstrom slot measurement has
    # a zero effect; the slot ascent must keep both outcomes.
    sc = paper_example(1.0)
    book = repetition_codebook(2, 2)
    me = eve_optimize(sc, book, OptimizerConfig(restarts=2, seed=0))
    assert [len(p) for p in me.slots] == [2, 2]
    traces = [float(np.trace(e).real) for p in me.slots for e in p.effects]
    assert traces == pytest.approx([0.0, 2.0, 0.0, 2.0], abs=ABS)
    report = evaluate(sc, book, me)
    assert report.eve_info == pytest.approx(0.0, abs=ABS)
    assert report.p_agree == pytest.approx(0.5, abs=ABS)


def _random_letters(rng, size, dim):
    """``size`` letters on C^dim, each of rank ``rng.integers(1, dim + 1)``,
    rho = G G^dagger / tr(G G^dagger) with G complex Gaussian."""
    letters = []
    for _ in range(size):
        r = int(rng.integers(1, dim + 1))
        g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
        rho = g @ g.conj().T
        letters.append(rho / np.trace(rho).real)
    return letters


def test_c1_skewed_prior_three_qutrit_pin():
    # Three qutrit letters at a prior of about [0.005, 0.977, 0.018]: every
    # start but the pretty-good measurement at the uniform prior ends at
    # 0.319725, with letter 0 dropped; that one alone reaches 0.591733.
    rng = np.random.default_rng(1195)
    rng.integers(2, 4), rng.integers(2, 4), rng.integers(0, 4)
    letters = _random_letters(rng, 3, 3)
    e = CqEnsemble(rng.dirichlet(np.ones(3)), letters)
    assert c1(e, OptimizerConfig(restarts=0, seed=7)).value >= 0.591733 - 1e-9


@pytest.mark.parametrize("seed, value", [(1010, 0.3100118949), (1014, 0.547042575259)])
def test_accessible_information_pin(seed, value):
    # Four and three qubit letters. Climbed as one coupled problem, the starts
    # of seed 1010 ended 7.5e-5 low; climbed one by one without the
    # pretty-good start at the uniform prior, those of seed 1014 end 6.0e-4
    # low. In both, that start alone reaches the pinned value.
    rng = np.random.default_rng(seed)
    size, dim = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    letters = _random_letters(rng, size, dim)
    e = CqEnsemble(rng.dirichlet(np.ones(size)), letters)
    assert accessible_information(e, OptimizerConfig(restarts=2)).value >= value - 1e-9
