"""Tests of the benchmark itself: ``python3 -m pytest bench -q`` from the root."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from functools import partial

import pytest

import checks
import run

sys.path.insert(0, run.SRC)

import qkdsim  # noqa: E402
import qkdsim.cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _pipeline_op(seed: int, expected_overlap: float) -> run.Op:
    argv = ["sweep", "paper-example", "--overlap", "0.5", "--n-range", "3", "--seeds", str(seed),
            "--coder", "random", "--format", "json"]
    return run.Op(argv, partial(checks.check_pipeline, overlap=expected_overlap, n=3, seed=seed))


def test_wrong_output_counts_as_failed_and_the_run_goes_on(tmp_path):
    # Seed 0 draws codewords that differ in all 3 letters, so p_agree is
    # block_success(0.5, 3); the middle op's check expects it at overlap 0.6.
    ops = [_pipeline_op(0, 0.5), _pipeline_op(0, 0.6), _pipeline_op(1, 0.5)]
    loop = run.run_loop(qkdsim.cli.main, lambda rng: ops, None, 0.0, str(tmp_path),
                        lambda seconds: 1.0)
    assert (len(loop.latencies), loop.passes) == (3, 1)
    assert len(loop.failures) == 1 and "p_agree" in loop.failures[0]


def test_op_times_are_scaled_by_the_probes_around_them(tmp_path):
    slowness = iter([1.0, 3.0, 2.0])
    ops = [_pipeline_op(0, 0.5), _pipeline_op(1, 0.5)]
    loop = run.run_loop(qkdsim.cli.main, lambda rng: ops, None, 0.0, str(tmp_path),
                        lambda seconds: next(slowness))
    assert loop.slowness == [1.0, 3.0, 2.0]
    assert loop.latencies == pytest.approx([t / 2 for t in loop.raw_latencies])
    assert loop.raw_loop_s >= sum(loop.raw_latencies)


@pytest.mark.parametrize("kind", ["optimizer", "dense"])
def test_host_probes_read_a_slowness_near_one(kind):
    import hostspeed

    with hostspeed.probe(kind) as probe:
        assert 0.1 < probe(0.05) < 10


def test_host_slowness_is_a_median_of_the_probes_around_each_interval():
    probes = [1.0] * 6 + [9.0] + [1.0] * 6 + [2.0] * 12
    slowness = run.host_slowness(probes)
    assert len(slowness) == len(probes) - 1
    assert set(slowness[:12]) == {1.0}  # one misread probe moves nothing
    assert slowness[-run.SPEED_WINDOW:] == [2.0] * run.SPEED_WINDOW  # drift is followed


def test_pipeline_check_pins_the_adversary_information():
    eps = checks.helstrom_crossover(0.5)
    for d in (1, 3, 5):
        exact = 1 - checks.binary_entropy(checks.majority_error(eps, d))
        assert checks.majority_vote_info(eps, d, 0.5) == pytest.approx(exact, abs=1e-12)
        assert checks.majority_vote_info(eps, d, 1.0) == pytest.approx(exact, abs=1e-12)
    assert checks.majority_vote_info(eps, 0, 1.0) == 0.0
    assert checks.majority_vote_info(eps, 2, 0.5) < checks.majority_vote_info(eps, 2, 1.0)
    # Seed 0 draws codewords that differ in all 3 letters: no ties.
    eve = checks.majority_vote_info(eps, 3, 1.0)

    def row(eve_info):
        return json.dumps({"rows": [{"flags": "ok", "p_agree": checks.block_success(0.5, 3),
                                     "eve_info": eve_info}]})

    assert checks.check_pipeline(row(eve), overlap=0.5, n=3, seed=0) is None
    for wrong in (eve - 1e-6, eve + 1e-6, -0.1):
        assert "eve_info" in checks.check_pipeline(row(wrong), overlap=0.5, n=3, seed=0)


def test_exit_codes_and_exceptions_count_as_failed(tmp_path):
    out = str(tmp_path / "out")
    _, error = checks.run_op(qkdsim.cli.main, ["analyze", "bsc-pair", "0.1"], out, None)
    assert error.startswith("exit code 1")
    _, error = checks.run_op(qkdsim.cli.main, ["no-such-command"], out, None)
    assert error.startswith("exit code 2")

    def boom(argv):
        raise RuntimeError("boom")

    _, error = checks.run_op(boom, [], out, None)
    assert error == "raised RuntimeError: boom"


def test_tracer_wraps_every_namespace_that_imports_a_function():
    original = qkdsim.measurements.expand
    tracer = Tracer()
    tracer.install()
    try:
        assert qkdsim.simulation.expand is qkdsim.measurements.expand is not original
        assert qkdsim.expand is qkdsim.measurements.expand
        scenario = qkdsim.paper_example(0.5)
        qkdsim.simulation.sweep(scenario, [2], [0], qkdsim.OptimizerConfig())
    finally:
        tracer.uninstall()
    assert qkdsim.simulation.expand is qkdsim.measurements.expand is original
    m = tracer.metrics()
    assert m["simulation.sweep.calls"] == 1
    assert m["measurements.expand.calls"] == 1
    assert m["channels.tensor_power.calls"] == 1
    assert m["states.DensityOperator.calls"] > 0
    assert 0 <= m["simulation.sweep.self_s"] < m["simulation.sweep.total_s"]
    assert m["information.c1.calls"] == 0


def test_minimize_counts_go_to_the_calling_layer():
    scenario = qkdsim.paper_example(0.5).with_n(1)
    cfg = qkdsim.OptimizerConfig(restarts=1, grid_points=101)
    tracer = Tracer()
    tracer.install()
    try:
        qkdsim.information.c1(scenario.eve_ensemble(), cfg)
        info_only = dict(tracer.metrics())
        book = qkdsim.repetition_codebook(2, 1)
        qkdsim.simulation.eve_optimize(scenario, book, cfg)
    finally:
        tracer.uninstall()
    assert info_only["information.lbfgs.calls"] > 0
    assert info_only["information.lbfgs.nfev"] >= info_only["information.lbfgs.calls"]
    assert info_only["simulation.lbfgs.calls"] == 0
    m = tracer.metrics()
    assert m["simulation.lbfgs.calls"] > 0
    assert m["information.lbfgs.calls"] == info_only["information.lbfgs.calls"]
    assert qkdsim.information.sciopt is qkdsim.simulation.sciopt


@pytest.mark.parametrize("n, expected", [(100, (90, 90, 10)), (16, (37, 6, 10)), (5, (100, 5, 0))])
def test_tail_has_ten_ops_beyond_it(n, expected):
    assert run.tail([float(x) for x in range(n, 0, -1)]) == expected


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       qkdsim.errors",
        "import time:        50 |        300 |       scipy._lib",
        "import time:        20 |         20 |         scipy.optimize._x",
        "import time:       100 |        400 |       scipy.optimize._optimize",
        "import time:         5 |       1000 |     qkdsim.information",
        "import time:         1 |       1500 |   qkdsim",
    ])
    assert run.parse_importtime(stderr) == {
        "setup.import_qkdsim_s": 1500e-6, "setup.import_scipy_optimize_s": 700e-6}


def _bench(*args, cwd=run.ROOT):
    argv = [sys.executable, os.path.join(cwd, "bench", "run.py"), *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_every_metric_in_the_spec(trace, section):
    done = _bench("--workload", "pipeline", "--seed", "3", "--seconds", "0",
                  "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.PIPELINE_PASS_OPS
    spec = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == spec


def test_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".tmp-*"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = _bench(*"--workload pipeline --seed 1 --seconds 1 --trace 0".split(), cwd=str(tmp_path))
    assert done.returncode != 0 and done.stdout == ""


def test_readme_smoke_passes():
    done = subprocess.run([sys.executable, os.path.join(run.BENCH_DIR, "smoke.py")],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["failed"] == 0
