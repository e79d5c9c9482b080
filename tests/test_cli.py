import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qkdsim import cli
from qkdsim.cli import main
from qkdsim.information import ConditionReport
from qkdsim.scenarios import (
    ScenarioFormatError,
    bsc_pair,
    load_scenario,
    paper_example,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

from conftest import THREE_MIXED
from oracles import binary_entropy, pure_pair_c1, pure_pair_capacity


class TestScenarioIO:
    def test_builtin_paper_example_overlap(self):
        sc = load_scenario("paper-example", overlap=0.5)
        # letter states must overlap as <xi(0), xi(1)> = s^2 per qubit pair
        m0, m1 = sc.ensemble.states
        fidelity = np.trace(m0 @ m1).real
        assert fidelity == pytest.approx(0.5**4, abs=1e-12)

    @pytest.mark.parametrize("a, b", [(0.999999999997, 1.0), (0.5, 0.5000001)])
    def test_overlaps_equal_to_six_digits_get_distinct_names(self, a, b):
        # Both pairs print alike to 6 significant digits.
        assert f"{a:g}" == f"{b:g}"
        names = [load_scenario("paper-example", overlap=s).name for s in (a, b)]
        assert names == [f"paper-example(s={a!r})", f"paper-example(s={b!r})"]
        assert names[0] != names[1]

    @pytest.mark.parametrize("overlap, name", [(1, "paper-example(s=1.0)"), (0, "paper-example(s=0.0)")])
    def test_whole_number_overlaps_name_themselves_as_floats(self, overlap, name):
        # `--overlap 1` printed `s=1` under the old `{s:g}` name.
        assert load_scenario("paper-example", overlap=overlap).name == name

    def test_builtin_orthogonal(self):
        sc = load_scenario("orthogonal")
        m0, m1 = sc.ensemble.states
        assert np.trace(m0 @ m1).real == pytest.approx(0.0, abs=1e-12)

    def test_builtin_bsc_pair_marginals(self):
        sc = load_scenario("bsc-pair", params=(0.1, 0.3))
        v, w = sc.classical_pair
        np.testing.assert_allclose(v.matrix, [[0.9, 0.1], [0.1, 0.9]])
        np.testing.assert_allclose(w.matrix, [[0.7, 0.3], [0.3, 0.7]])
        bob = sc.bob_ensemble()
        np.testing.assert_allclose(bob.states[0], np.diag([0.9, 0.1]), atol=1e-12)
        eve = sc.eve_ensemble()
        np.testing.assert_allclose(eve.states[1], np.diag([0.3, 0.7]), atol=1e-12)

    def test_bsc_pair_needs_two_params(self):
        with pytest.raises(ScenarioFormatError, match="two crossover"):
            load_scenario("bsc-pair", params=(0.1,))

    def test_round_trip(self, tmp_path):
        sc = paper_example(0.37)
        path = tmp_path / "scenario.json"
        save_scenario(sc, str(path))
        back = load_scenario(str(path))
        assert back.name == sc.name
        assert back.key_count == sc.key_count
        for a, b in zip(back.ensemble.states, sc.ensemble.states):
            assert np.abs(a - b).max() < 1e-12
        for a, b in zip(back.theta.kraus, sc.theta.kraus):
            assert np.abs(a - b).max() < 1e-12
        np.testing.assert_allclose(back.ensemble.prior, sc.ensemble.prior, atol=1e-15)

    def test_saved_file_format(self, tmp_path):
        sc = load_scenario("bsc-pair", params=(0.2, 0.4))
        path = tmp_path / "bsc.json"
        save_scenario(sc, str(path))
        expected = json.dumps(scenario_to_dict(sc), indent=2, sort_keys=True) + "\n"
        assert path.read_text() == expected
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    def test_round_trip_with_classical_pair(self, tmp_path):
        sc = load_scenario("bsc-pair", params=(0.2, 0.4))
        path = tmp_path / "bsc.json"
        save_scenario(sc, str(path))
        back = load_scenario(str(path))
        np.testing.assert_allclose(back.classical_pair[0].matrix, [[0.8, 0.2], [0.2, 0.8]])
        for a, b in zip(back.theta.kraus, sc.theta.kraus):
            assert np.abs(a - b).max() < 1e-12

    def test_file_with_builtin_identity_channel(self, tmp_path):
        data = {
            "format": "qkdsim-scenario-v1",
            "name": "custom",
            "key_count": 2,
            "alphabet_size": 2,
            "states": {
                "0": [[1, 0], [0, 0], [0, 0], [0, 0]],
                "1": [[0, 0], [0, 0], [0, 0], [1, 0]],
            },
            "channel": {"builtin": "identity"},
            "output_dims": [2, 2],
        }
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(data))
        sc = load_scenario(str(path))
        assert sc.name == "custom"
        np.testing.assert_allclose(sc.ensemble.prior, [0.5, 0.5])
        assert sc.theta.out_factorization.dims == (2, 2)
        code = main(["analyze", str(path), "--restarts", "1"])
        assert code == 0

    def test_missing_state_names_letter(self, tmp_path):
        data = scenario_to_dict(paper_example(0.5))
        del data["states"]["1"]
        with pytest.raises(ScenarioFormatError, match="letter 1"):
            scenario_from_dict(data)

    def test_missing_field_diagnostic(self):
        with pytest.raises(ScenarioFormatError, match="channel: field missing"):
            scenario_from_dict(
                {
                    "format": "qkdsim-scenario-v1",
                    "name": "x",
                    "key_count": 2,
                    "alphabet_size": 2,
                    "states": {},
                    "output_dims": [2, 2],
                }
            )

    def test_classical_pair_without_w_names_field(self):
        data = scenario_to_dict(bsc_pair(0.1, 0.3))
        del data["classical_pair"]["w"]
        with pytest.raises(ScenarioFormatError, match="classical_pair"):
            scenario_from_dict(data)

    def test_non_numeric_prior_names_field(self):
        data = scenario_to_dict(paper_example(0.5))
        data["prior"] = ["a", "b"]
        with pytest.raises(ScenarioFormatError, match="prior"):
            scenario_from_dict(data)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("key_count", "two"),
            ("output_dims", 4),
            ("channel", [1]),
            ("channel", {"kraus": 5}),
            ("classical_pair", [1]),
        ],
    )
    def test_mistyped_field_names_field(self, field, value):
        data = scenario_to_dict(paper_example(0.5))
        data[field] = value
        with pytest.raises(ScenarioFormatError, match=field):
            scenario_from_dict(data)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda d: d["states"]["0"][0].__setitem__(0, float("nan")), "amplitudes"),
            (lambda d: d["classical_pair"].pop("w"), "classical_pair"),
            (lambda d: d.__setitem__("prior", ["a", "b"]), "prior"),
            (lambda d: d.__setitem__("prior", [1.5, -0.5]), "sum to 1, got [1.5, -0.5]"),
        ],
        ids=["nan-amplitude", "no-w", "text-prior", "negative-prior"],
    )
    def test_malformed_file_exits_1_without_traceback(self, corrupt, message, tmp_path, capsys):
        data = scenario_to_dict(bsc_pair(0.1, 0.3))
        corrupt(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["analyze", str(path), "--restarts", "1"]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_directory_path_exits_1_without_traceback(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path), "--restarts", "1"]) == 1
        err = capsys.readouterr().err
        assert f"error: scenario: cannot read {str(tmp_path)!r}" in err and "Traceback" not in err

    def test_non_utf8_file_exits_1_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b'{"name": "\xd0\x00"}')
        assert main(["analyze", str(path), "--restarts", "1"]) == 1
        err = capsys.readouterr().err
        assert f"error: scenario: {str(path)!r} is not UTF-8 text" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "amps, message",
        [
            ([[float("nan"), 0.0], [0.0, 0.0]], "states[1]: amplitudes"),
            ([[float("inf"), 0.0], [0.0, 0.0]], "states[1]: amplitudes"),
            ([[0.9, 0.0], [0.0, 0.0]], "states[1]: normalized"),
        ],
        ids=["nan", "inf", "norm-0.9"],
    )
    def test_bad_state_names_letter(self, amps, message, tmp_path, capsys):
        data = scenario_to_dict(bsc_pair(0.1, 0.3))
        data["states"]["1"] = amps
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["analyze", str(path), "--restarts", "1"]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("key_count", 2.7),
            ("key_count", float("inf")),
            ("alphabet_size", 2.5),
            ("output_dims", [2.9, 2.2]),
            ("alphabet_size", 0),
            ("alphabet_size", -1),
        ],
    )
    def test_non_integral_integer_field_exits_1(self, field, value, tmp_path, capsys):
        data = scenario_to_dict(paper_example(0.5))
        data[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["analyze", str(path), "--restarts", "1"]) == 1
        err = capsys.readouterr().err
        assert f"{field}: cannot read" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["analyze", "orthogonal", "--overlap", "0.3"], "--overlap"),
            (["sweep", "FILE", "--overlap", "0.3"], "--overlap"),
            (["analyze", "bsc-pair", "0.1", "0.3", "--overlap", "0.5"], "--overlap"),
            (["analyze", "paper-example", "0.3"], "parameters"),
            (["analyze", "paper-example", "0.3", "0.4"], "parameters"),
            (["analyze", "paper-example", "0.3", "--overlap", "0.4"], "parameters"),
            (["analyze", "FILE", "0.3"], "parameters"),
        ],
    )
    def test_parameter_the_scenario_does_not_take_exits_1(self, argv, named, tmp_path, capsys):
        path = tmp_path / "bsc.json"
        save_scenario(bsc_pair(0.1, 0.3), str(path))
        argv = [str(path) if a == "FILE" else a for a in argv]
        assert main(argv + ["--restarts", "1"]) == 1
        err = capsys.readouterr().err
        assert f"error: scenario: {named}:" in err and "Traceback" not in err

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(ScenarioFormatError, match="invalid JSON"):
            load_scenario(str(path))

    def test_unknown_builtin_or_path(self):
        with pytest.raises(ScenarioFormatError, match="no such scenario"):
            load_scenario("definitely-not-a-file.json")


class TestAnalyzeCommand:
    def test_example_satisfied(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["analyze", "paper-example", "--overlap", "0.5", "--restarts", "2",
             "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "satisfied=true" in text
        payload = json.loads(out.read_text())
        assert payload["satisfied"] is True
        assert payload["quantum"]["lhs"] == pytest.approx(pure_pair_capacity(0.5), abs=1e-4)
        assert payload["quantum"]["rhs"] == pytest.approx(pure_pair_c1(0.5), abs=1e-3)

    def test_orthogonal_not_satisfied(self, capsys):
        code = main(["analyze", "paper-example", "--overlap", "0.0", "--restarts", "1"])
        assert code == 0
        assert "satisfied=false" in capsys.readouterr().out

    def test_bsc_pair_advantage(self, capsys, tmp_path):
        out = tmp_path / "bsc.json"
        code = main(["analyze", "bsc-pair", "0.1", "0.3", "--restarts", "1", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        oracle = binary_entropy(0.3) - binary_entropy(0.1)
        assert payload["classical"]["lhs"] == pytest.approx(oracle, abs=1e-4)
        assert payload["classical"]["satisfied"] is True

    def test_bsc_pair_equal_not_satisfied(self, capsys, tmp_path):
        out = tmp_path / "eq.json"
        code = main(["analyze", "bsc-pair", "0.2", "0.2", "--restarts", "1", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert abs(payload["classical"]["lhs"]) <= 1e-9
        assert payload["classical"]["satisfied"] is False

    def test_deterministic_json(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["analyze", "paper-example", "--overlap", "0.3", "--restarts", "2",
                "--seed", "4"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_twelve_significant_digits(self, tmp_path):
        out = tmp_path / "digits.json"
        main(["analyze", "paper-example", "--overlap", "0.5", "--restarts", "1",
              "--out", str(out)])
        raw = out.read_text()
        lhs_line = [l for l in raw.splitlines() if '"lhs"' in l][0]
        digits = lhs_line.split(":")[1].strip().rstrip(",")
        assert len(digits.replace("0.", "")) <= 12

    def test_validation_error_exit_code(self, capsys):
        code = main(["analyze", "paper-example", "--overlap", "1.5"])
        assert code == 1
        assert "overlap" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["analyze"], "the following arguments are required: scenario"),
        (["analyze", "paper-example", "--restarts", "x"], "argument --restarts: invalid int value"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    ], ids=["no-scenario", "non-integer-restarts", "unknown-command"])
    def test_usage_error_exits_1_with_usage(self, argv, message, capsys):
        # Exit 2 is non-convergence or a partial sweep, not argparse's usage error.
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qkdsim") and message in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qkdsim")

    def test_no_tmp_files_left(self, tmp_path):
        out = tmp_path / "r.json"
        main(["analyze", "orthogonal", "--restarts", "1", "--out", str(out)])
        assert out.exists()
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


class TestSimulateCommand:
    def test_example_simulation(self, capsys, tmp_path):
        out = tmp_path / "sim.json"
        code = main(
            ["simulate", "paper-example", "--overlap", "0.5", "-n", "3",
             "--coder", "repetition", "--eve", "default", "--restarts", "1",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["p_agree"] == pytest.approx(0.996078, abs=1e-6)
        assert payload["eve_info"] == pytest.approx(0.900789, abs=1e-5)
        assert payload["quantum_satisfied"] is True
        assert "wall_time" not in json.dumps(payload)

    def test_nearly_identical_codewords_simulate(self, capsys):
        # The codeword Gram matrix's smaller eigenvalue is about 6e-12.
        code = main(["simulate", "paper-example", "--overlap", "0.999999999997", "-n", "2"])
        assert code == 0
        assert "p_agree=0.500002" in capsys.readouterr().out

    def test_orthogonal_perfect(self, capsys):
        code = main(["simulate", "orthogonal", "-n", "1", "--restarts", "1"])
        assert code == 0
        assert "p_agree=1.000000" in capsys.readouterr().out

    def test_optimized_zero_restarts_equals_default(self, tmp_path):
        base = ["simulate", "paper-example", "--overlap", "0.5", "-n", "2", "--seed", "3"]
        a, b = tmp_path / "d.json", tmp_path / "o.json"
        assert main(base + ["--eve", "default", "--restarts", "0", "--out", str(a)]) == 0
        assert main(base + ["--eve", "optimized", "--restarts", "0", "--out", str(b)]) == 0
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        assert da["p_agree"] == db["p_agree"]
        assert da["bob_info"] == db["bob_info"]
        assert da["eve_info"] == db["eve_info"]

    def test_non_converged_condition_exits_2(self, capsys, monkeypatch, tmp_path):
        def stalled(*args, **kwargs):
            return ConditionReport(kind="quantum", lhs=0.5, rhs=0.25, margin=1e-6,
                                   converged=False)

        monkeypatch.setattr(cli, "quantum_condition", stalled)
        out = tmp_path / "sim.json"
        code = main(["simulate", "paper-example", "-n", "1", "--out", str(out)])
        assert code == 2
        assert "flags: non-converged" in capsys.readouterr().out
        assert json.loads(out.read_text())["flags"] == "non-converged"

    def test_budget_exit_code_names_dimension(self, capsys):
        code = main(["simulate", "paper-example", "-n", "13", "--restarts", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert "budget: adversary outcome tuple count 8192 exceeds budget 4096" in err

    def test_attack_budget_is_checked_before_the_receiver(self, capsys):
        # Both exceed the budget here: 4^12 outcome tuples of the random
        # starts, and a receiver Gram dimension of 2 * 2^12.
        argv = ["simulate", "bsc-pair", "0.1", "0.3", "-n", "12", "--eve", "optimized",
                "--restarts", "2"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "budget: adversary outcome tuple count 16777216 exceeds budget 4096" in err

    def test_budget_beyond_32_slots_exits_3(self, capsys):
        # Past 32 slots a Kronecker product formed as one outer product needs
        # more than numpy's 64 axes; the budget must still be what refuses.
        argv = ["simulate", "paper-example", "--overlap", "0.5", "-n", "33",
                "--coder", "repetition", "--eve", "default"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "budget: adversary outcome tuple count 8589934592 exceeds budget 4096" in err

    def test_count_past_the_string_limit_exits_3(self, capsys):
        # 2^100000 outcome tuples has 30103 digits, past the 4300 digits
        # Python converts an int to a string by default.
        assert main(["simulate", "paper-example", "-n", "100000"]) == 3
        err = capsys.readouterr().err
        assert "budget: adversary outcome tuple count 9.99e+30102 exceeds budget 4096" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("coder", ["repetition", "random"])
    def test_block_length_past_numpy_exits_3(self, coder, capsys):
        # 2 * 10^20 letters: numpy could neither repeat nor draw them.
        assert main(["simulate", "paper-example", "-n", "1" + "0" * 20, "--coder", coder]) == 3
        err = capsys.readouterr().err
        assert err == ("error: budget: codebook letter count 2.00e+20 exceeds budget 1048576"
                       " (n=100000000000000000000)\n")

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_block_length_below_one_exits_1(self, n, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_load", lambda args: pytest.fail("scenario loaded"))
        assert main(["simulate", "paper-example", "-n", n]) == 1
        assert "error: -n: block lengths must be >= 1" in capsys.readouterr().err


class TestSweepCommand:
    def test_csv_columns_and_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "paper-example", "--overlap", "0.5", "--n-range", "1..2",
             "--seeds", "0", "--restarts", "1", "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "scenario,n,seed,coder,eve,p_agree,bob_info,eve_info,flags"
        assert len(lines) == 3
        assert lines[1].startswith("paper-example(s=0.5),1,0,repetition,default,")

    @pytest.mark.parametrize("text", ["3..1", ",,", ""])
    @pytest.mark.parametrize("flag", ["--n-range", "--seeds"])
    def test_empty_range_exits_1(self, flag, text, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_load", lambda args: pytest.fail("scenario loaded"))
        out = tmp_path / "empty.csv"
        code = main(["sweep", "paper-example", "--n-range", "1", "--seeds", "0",
                     flag, text, "--restarts", "1", "--out", str(out)])
        assert code == 1
        assert f"error: {flag}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["0..1", "2,-1"])
    def test_block_length_below_one_exits_1(self, text, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_load", lambda args: pytest.fail("scenario loaded"))
        out = tmp_path / "low.csv"
        code = main(["sweep", "paper-example", "--n-range", text, "--seeds", "0",
                     "--out", str(out)])
        assert code == 1
        assert "error: --n-range: block lengths must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_block_length_past_numpy_marks_its_cell(self, capsys):
        code = main(["sweep", "paper-example", "--n-range", "2," + "1" + "0" * 20, "--seeds", "0",
                     "--restarts", "1"])
        assert code == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("n=2 seed=0 p_agree=")
        assert lines[1] == ("n=100000000000000000000 seed=0 error:codebook letter count 2.00e+20"
                            " exceeds budget 1048576 (n=100000000000000000000)")

    @pytest.mark.parametrize("n_range, seeds, count", [("1..99999999999", "0", "99999999999"),
                                                       ("1", "1..99999999999", "99999999999"),
                                                       ("0..65", "-1..63", "4290")],
                             ids=["n-range", "seeds", "before-the-value-checks"])
    def test_more_cells_than_the_budget_exit_3(self, n_range, seeds, count, tmp_path, capsys,
                                               monkeypatch):
        # Refused from the ranges' lengths alone, before any value is listed
        # or checked: "0..65" holds a block length 0 and "-1..63" a seed -1.
        monkeypatch.setattr(cli, "_load", lambda args: pytest.fail("scenario loaded"))
        out = tmp_path / "huge.csv"
        assert main(["sweep", "paper-example", "--n-range", n_range, f"--seeds={seeds}",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (f"error: budget: sweep cell count {count} exceeds"
                                           " budget 4096 (n values times seeds)\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--n-range", "--seeds"])
    def test_non_integer_range_exits_1(self, flag, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        code = main(["sweep", "paper-example", flag, "abc", "--restarts", "1",
                     "--out", str(out)])
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, invariant",
        [(["--restarts", "-3"], "restarts"), (["--tol", "nan"], "tolerance")],
    )
    def test_invalid_optimizer_config_exits_1(self, extra, invariant, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        code = main(["sweep", "paper-example", "--n-range", "1", "--seeds", "0",
                     "--out", str(out)] + extra)
        assert code == 1
        assert invariant in capsys.readouterr().err
        assert not out.exists()

    def test_partial_failure_markers_and_exit_2(self, tmp_path, capsys):
        out = tmp_path / "partial.csv"
        code = main(
            ["sweep", "paper-example", "--n-range", "1,13", "--seeds", "0",
             "--restarts", "1", "--format", "csv", "--out", str(out)]
        )
        assert code == 2
        lines = out.read_text().strip().splitlines()
        assert any("error:" in l for l in lines)
        ok_rows = [l for l in lines[1:] if ",ok" in l]
        assert len(ok_rows) == 1

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            ["sweep", "paper-example", "--n-range", "1", "--seeds", "0,1",
             "--restarts", "1", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 2
        assert payload["rows"][0]["flags"] == "ok"

    def test_deterministic_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "paper-example", "--overlap", "0.4", "--n-range", "1..2",
                "--seeds", "0..1", "--eve", "optimized", "--restarts", "2", "--seed", "5",
                "--format", "csv"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


OUT_COMMANDS = {
    "analyze": ["analyze", "paper-example", "--restarts", "1"],
    "simulate": ["simulate", "paper-example", "-n", "1", "--restarts", "1"],
    "sweep": ["sweep", "paper-example", "--n-range", "1", "--seeds", "0", "--restarts", "1"],
}


class TestOutPath:
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    @pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
    def test_unusable_out_exits_1_before_any_work(
        self, command, where, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "_load", lambda args: pytest.fail("scenario loaded"))
        out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
        assert main(OUT_COMMANDS[command] + ["--out", str(out)]) == 1
        assert "error: --out:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
    def test_failed_write_exits_1(self, command, tmp_path, capsys, monkeypatch):
        def full_disk(path, text):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_atomic", full_disk)
        assert main(OUT_COMMANDS[command] + ["--out", str(tmp_path / "x.json")]) == 1
        err = capsys.readouterr().err
        assert "error: --out:" in err and "No space left" in err


class TestFileMode:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_written_files_follow_the_umask(self, umask, mode, tmp_path):
        old = os.umask(umask)
        try:
            out = tmp_path / "cap.json"
            assert main(["capacity", "paper-example", "--restarts", "1", "--out", str(out)]) == 0
            saved = tmp_path / "scenario.json"
            save_scenario(paper_example(0.5), str(saved))
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o777 == mode
        assert saved.stat().st_mode & 0o777 == mode

    def test_mode_comes_without_touching_the_umask(self, tmp_path, monkeypatch):
        """The kernel applies the umask to the new file: a write never calls
        os.umask, which would clear it for the whole process for a moment."""

        def no_umask(mask):
            raise AssertionError("os.umask called")

        set_umask = os.umask
        old = set_umask(0o027)
        monkeypatch.setattr(os, "umask", no_umask)
        try:
            out = tmp_path / "cap.json"
            assert main(["capacity", "paper-example", "--restarts", "1", "--out", str(out)]) == 0
            saved = tmp_path / "scenario.json"
            save_scenario(paper_example(0.5), str(saved))
        finally:
            set_umask(old)
        assert out.stat().st_mode & 0o777 == 0o640
        assert saved.stat().st_mode & 0o777 == 0o640

    def test_taken_temporary_name_is_skipped(self, tmp_path, monkeypatch):
        """A temporary name that already exists is left alone and another is drawn."""
        taken = tmp_path / f"tmp{bytes(6).hex()}.tmp"
        taken.write_text("someone else's")
        draws = iter([bytes(6), bytes([1] * 6)])
        monkeypatch.setattr(os, "urandom", lambda size: next(draws))
        saved = tmp_path / "scenario.json"
        save_scenario(paper_example(0.5), str(saved))
        assert taken.read_text() == "someone else's"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json", taken.name]


class TestSeedValidation:
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["analyze", "paper-example", "--seed", "-5"], "seed"),
            (["simulate", "paper-example", "-n", "2", "--seed=-1"], "seed"),
            (["sweep", "paper-example", "--n-range", "2", "--seeds=-3", "--coder", "random"],
             "--seeds"),
        ],
    )
    def test_negative_seed_exits_1(self, argv, named, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(argv + ["--out", str(out)]) == 1
        assert f"error: {named}:" in capsys.readouterr().err
        assert not out.exists()


class TestInfoCommands:
    def test_capacity(self, capsys, tmp_path):
        out = tmp_path / "cap.json"
        code = main(["capacity", "paper-example", "--overlap", "0.5", "--restarts", "1",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["capacity"] == pytest.approx(pure_pair_capacity(0.5), abs=1e-6)
        assert payload["chi"] == pytest.approx(pure_pair_capacity(0.5), abs=1e-6)

    def test_accessible(self, capsys, tmp_path):
        out = tmp_path / "acc.json"
        code = main(["accessible", "paper-example", "--overlap", "0.5", "--restarts", "1",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["c1"] == pytest.approx(pure_pair_c1(0.5), abs=1e-4)
        assert payload["accessible_information"] == pytest.approx(pure_pair_c1(0.5), abs=1e-4)


def _scipy_after(commands):
    """Exit codes of ``main`` on each argv in commands, run in order in a fresh
    interpreter, and the scipy modules loaded after them."""
    script = (
        "import json, sys\n"
        "import qkdsim\n"
        "from qkdsim.cli import main\n"
        f"codes = [main(argv) for argv in {commands!r}]\n"
        "scipy = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(json.dumps({'codes': codes, 'scipy': scipy}))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


class TestStartup:
    def test_enumerator_and_argument_errors_never_load_scipy(self):
        sweep = ["sweep", "paper-example", "--overlap", "0.5", "--n-range", "1..3",
                 "--seeds", "0..2", "--coder", "random", "--eve", "default"]
        bad_overlap = ["analyze", "paper-example", "--overlap", "2"]
        run = _scipy_after([sweep, bad_overlap])
        assert run == {"codes": [0, 1], "scipy": []}

    def test_symmetric_binary_capacity_never_loads_scipy(self):
        # The prior ascent starts at the uniform prior, which already meets its stop.
        run = _scipy_after([["capacity", "paper-example", "--overlap", "0.5"],
                            ["capacity", "bsc-pair", "0.1", "0.3"]])
        assert run == {"codes": [0, 0], "scipy": []}

    def test_first_optimizer_call_loads_scipy(self, tmp_path):
        # The prior ascents are L-BFGS-B, and this capacity's climbs: the
        # uniform prior of |0>, 0.6|0> + 0.8|1> and |1> is not optimal.
        path = tmp_path / "skewed.json"
        path.write_text(json.dumps({
            "format": "qkdsim-scenario-v1", "name": "skewed", "key_count": 2,
            "alphabet_size": 3, "channel": {"builtin": "identity"}, "output_dims": [2, 1],
            "states": {"0": [[1, 0], [0, 0]], "1": [[0.6, 0], [0.8, 0]], "2": [[0, 0], [1, 0]]},
        }))
        run = _scipy_after([["capacity", str(path)]])
        assert run["codes"] == [0]
        assert "scipy.optimize" in run["scipy"]

    def test_optimized_simulate_never_loads_scipy_optimize(self):
        # Every ascent of the adversary's seesaw is the package's own L-BFGS.
        run = _scipy_after([["simulate", "paper-example", "--overlap", "0.5", "-n", "3",
                             "--eve", "optimized", "--restarts", "2"],
                            ["sweep", "paper-example", "--overlap", "0.5", "--n-range", "3",
                             "--seeds", "0", "--coder", "repetition", "--eve", "optimized"]])
        assert run["codes"] == [0, 0]
        assert "scipy.optimize" not in run["scipy"]

    def test_symmetric_binary_accessible_never_loads_scipy_optimize(self):
        # Every start climbs by the package's own L-BFGS, and the starts are
        # built from the ensemble alone, with no Holevo-capacity solve.
        run = _scipy_after([["accessible", "paper-example", "--overlap", "0.5"]])
        assert run["codes"] == [0]
        assert "scipy.optimize" not in run["scipy"]

    def test_two_mixed_letters_accessible_never_loads_scipy_optimize(self, tmp_path):
        # C1 and accessible information of two mixed letters at a non-uniform
        # prior: no start needs the Holevo-capacity prior, so no prior ascent.
        path = tmp_path / "two-mixed.json"
        states = {a: THREE_MIXED["states"][a] for a in ("0", "1")}
        path.write_text(json.dumps(dict(THREE_MIXED, name="two-mixed", alphabet_size=2,
                                        states=states, prior=[0.3, 0.7])))
        run = _scipy_after([["accessible", str(path)]])
        assert run["codes"] == [0]
        assert "scipy.optimize" not in run["scipy"]

    def test_binary_analyze_never_loads_scipy_optimize(self):
        # C1's joint ascents are the package's own L-BFGS, and the symmetric
        # capacity's uniform prior already meets its stop.
        run = _scipy_after([["analyze", "paper-example", "--overlap", "0.3"]])
        assert run["codes"] == [0]
        assert "scipy.optimize" not in run["scipy"]
