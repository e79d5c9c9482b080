"""Frozen scalar outputs of the POVM ascent, the binary-prior search and the
adversary's seesaw between its slots and its decoder.

Both ascent callers (C1 and the seesaw) share one routine, so a change to it
shows in every pin here; the values are exact to abs 1e-10.
"""

import json

import numpy as np
import pytest

from qkdsim.cli import main
from qkdsim.information import OptimizerConfig
from qkdsim.scenarios import paper_example
from qkdsim.simulation import (
    bob_decoder,
    eve_optimize,
    evaluate,
    repetition_codebook,
    sample_codebook,
)

ABS = 1e-10


def _run(tmp_path, argv):
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_analyze_paper_example_pin(tmp_path):
    payload = _run(tmp_path, ["analyze", "paper-example", "--overlap", "0.5", "--restarts", "1"])
    assert payload["quantum"]["lhs"] == pytest.approx(0.811278124459, abs=ABS)
    assert payload["quantum"]["rhs"] == pytest.approx(0.645421097335, abs=ABS)


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


def test_seesaw_gain_over_default_pin():
    # Random coder, words (1,0,0) and (0,0,1): the default attack gives
    # 0.861721703825 bits, the seesaw lifts it.
    sc = paper_example(0.3).with_n(3)
    book = sample_codebook(2, 3, 2, 3)
    me = eve_optimize(sc, book, OptimizerConfig(restarts=1, seed=3))
    report = evaluate(sc, book, bob_decoder(sc, book), me)
    assert report.eve_info == pytest.approx(0.9682890994937405, abs=ABS)


def test_zero_effect_slot_keeps_its_outcome():
    # At overlap 1 the letters coincide, so the Helstrom slot measurement has
    # a zero effect; the slot ascent must keep both outcomes.
    sc = paper_example(1.0).with_n(2)
    book = repetition_codebook(2, 2)
    me = eve_optimize(sc, book, OptimizerConfig(restarts=2, seed=0))
    assert [len(p) for p in me.slots] == [2, 2]
    traces = [float(np.trace(e).real) for p in me.slots for e in p.effects]
    assert traces == pytest.approx([0.0, 2.0, 0.0, 2.0], abs=ABS)
    report = evaluate(sc, book, bob_decoder(sc, book), me)
    assert report.eve_info == pytest.approx(0.0, abs=ABS)
    assert report.p_agree == pytest.approx(0.5, abs=ABS)
