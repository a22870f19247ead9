import argparse
import csv
import importlib
import importlib.util
import json
import math
import numbers
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qrecover import cli, dephasing, openloop, runner
from qrecover.cli import main
from qrecover.dephasing import BLOCK_SIZE
from qrecover.entanglement import eof_from_concurrence
from qrecover.runner import OUTPUT_SCHEMAS, RunConfig, output_schema, run, write_rows

from helpers import table_rows

REPO_ROOT = Path(__file__).resolve().parents[1]


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestOpenLoopRunner:
    def test_full_correlation_echo_has_zero_error_at_every_sample_count(self, tmp_path):
        # n-samples 49 wrote 2.13e-09 here, with the mean an ulp short of -1/2
        out = tmp_path / "x.csv"
        argv = ["open-loop", "--mu", "1", "--method", "monte_carlo", "--n-samples", "49"]
        assert main(argv + ["--seed", "1", "--out", str(out)]) == 0
        (last,) = [r for r in read_csv(out) if (r["control"], r["step"]) == ("echoed", "4")]
        assert (last["concurrence"], last["stat_error"]) == ("1", "0")

    @pytest.mark.parametrize("sigma", ["1e155", "1e300", "1e308"])
    def test_huge_sigma_dephases_without_overflow(self, tmp_path, sigma):
        out = tmp_path / "huge.csv"
        assert main(["open-loop", "--mu", "0.5", "--sigma", sigma, "--out", str(out)]) == 0
        for row in read_csv(out):
            if row["control"] == "uncontrolled" and row["step"] != "0":
                assert float(row["concurrence"]) == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", ["monte_carlo", "both"])
    def test_sampling_beyond_the_float_range_is_rejected(self, tmp_path, capsys, method):
        out = tmp_path / "x.csv"
        argv = ["open-loop", "--mu", "0.5", "--sigma", "1e308", "--method", method]
        assert main(argv + ["--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "qrecover: error: sigma 1e+308 too large to sample: phase draws overflow\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "extra", [["--sigma", "1e307"], ["--sigma", "1e308", "--clip-to-hardware"]]
    )
    def test_sampling_with_finite_phases_succeeds(self, tmp_path, extra):
        out = tmp_path / "x.csv"
        argv = ["open-loop", "--mu", "0.5", "--method", "monte_carlo", "--seed", "1"]
        assert main(argv + extra + ["--out", str(out)]) == 0
        assert all(math.isfinite(float(row["concurrence"])) for row in read_csv(out))

    @pytest.mark.parametrize("mu", ["0", "0.3", "0.7", "1"])
    @pytest.mark.parametrize("steps", ["1", "4", "6"])
    def test_monte_carlo_rows_agree_with_their_analytic_twins(self, tmp_path, mu, steps):
        # 5 standard errors, as perfbench's checker allows; clipping is left
        # out because analytic rows do not model it
        out = tmp_path / "both.csv"
        argv = ["open-loop", "--mu", mu, "--steps", steps, "--method", "both"]
        argv += ["--fidelity", "1.0", "0.9", "--n-samples", "100000", "--seed", "5"]
        assert main(argv + ["--out", str(out)]) == 0
        rows = {}
        for row in read_csv(out):
            rows.setdefault((row["fidelity"], row["control"], row["step"]), {})[row["method"]] = row
        assert len(rows) == 2 * 3 * (int(steps) + 1)
        for key, pair in rows.items():
            exact = float(pair["analytic"]["concurrence"])
            sampled = float(pair["monte_carlo"]["concurrence"])
            error = float(pair["monte_carlo"]["stat_error"])
            if error == 0.0:
                assert sampled == exact, key
            else:
                assert abs(sampled - exact) <= 5.0 * error, key

    def test_row_count_contract(self, tmp_path):
        out = tmp_path / "open_loop_mu10.csv"
        code = main(
            [
                "open-loop",
                "--mu", "1.0",
                "--sigma", "0.6",
                "--fidelity", "1.0", "0.96",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 3 * 5 * 2
        assert list(rows[0]) == OUTPUT_SCHEMAS["open_loop"]["columns"]

    def test_eof_column_consistency(self, tmp_path):
        out = tmp_path / "open_loop_mu07.csv"
        assert main(["open-loop", "--mu", "0.7", "--fidelity", "1.0", "0.96", "--out", str(out)]) == 0
        for row in read_csv(out):
            c = float(row["concurrence"])
            assert float(row["eof"]) == pytest.approx(eof_from_concurrence(c), abs=1e-9)

    def test_analytic_rows_have_empty_stat_error(self, tmp_path):
        out = tmp_path / "a.csv"
        assert main(["open-loop", "--mu", "0.2", "--out", str(out)]) == 0
        assert all(row["stat_error"] == "" for row in read_csv(out))

    def test_monte_carlo_rows_have_errors_and_match_analytic(self, tmp_path):
        out = tmp_path / "b.csv"
        code = main(
            [
                "open-loop",
                "--mu", "0.7",
                "--method", "both",
                "--n-samples", "20000",
                "--seed", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 2 * 3 * 5
        analytic = {
            (r["control"], r["step"]): float(r["concurrence"])
            for r in rows
            if r["method"] == "analytic"
        }
        for row in rows:
            if row["method"] != "monte_carlo":
                continue
            assert row["stat_error"] != ""
            key = (row["control"], row["step"])
            assert float(row["concurrence"]) == pytest.approx(analytic[key], abs=0.05)

    def test_any_step_count_agrees_with_monte_carlo(self, tmp_path):
        out = tmp_path / "six.csv"
        code = main(
            [
                "open-loop",
                "--mu", "0.7",
                "--steps", "6",
                "--method", "both",
                "--n-samples", "20000",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 2 * 3 * 7
        analytic = {
            (r["control"], r["step"]): float(r["concurrence"])
            for r in rows
            if r["method"] == "analytic"
        }
        for row in rows:
            if row["method"] == "monte_carlo":
                gap = abs(float(row["concurrence"]) - analytic[row["control"], row["step"]])
                assert gap <= 5 * float(row["stat_error"])

    def test_mu_is_required(self, tmp_path, capsys):
        assert main(["open-loop", "--out", str(tmp_path / "x.csv")]) == 2
        assert "mu" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["analytic", "monte_carlo", "both"])
    @pytest.mark.parametrize("n_samples", ["-5", "0"])
    def test_sample_count_is_checked_for_every_method(self, tmp_path, capsys, method, n_samples):
        out = tmp_path / "x.csv"
        argv = ["open-loop", "--mu", "0.5", "--method", method, "--n-samples", n_samples]
        seed = [] if method == "analytic" else ["--seed", "1"]
        assert main(argv + seed + ["--out", str(out)]) == 2
        assert f"n_samples must be an integer >= 1, got {n_samples}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestClosedLoopRunner:
    def test_p_sweep_uncontrolled_profile(self, tmp_path):
        out = tmp_path / "p_sweep.csv"
        code = main(
            [
                "closed-loop",
                "--sweep", "p",
                "--theta", "0",
                "--fidelity", "1.0", "0.90", "0.95",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 101 * 3 * 2
        for row in rows:
            if row["fidelity"] == "1" and row["variant"] == "uncontrolled":
                p = float(row["p"])
                assert float(row["concurrence"]) == pytest.approx(abs(1 - 2 * p), abs=1e-9)
            if row["fidelity"] == "1" and row["variant"] == "controlled":
                assert float(row["concurrence"]) == pytest.approx(1.0, abs=1e-9)

    def test_theta_sweep_controlled_profile(self, tmp_path):
        out = tmp_path / "theta_sweep.csv"
        assert main(["closed-loop", "--sweep", "theta", "--p", "0.5", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 91 * 2
        for row in rows:
            theta = float(row["theta"])
            if row["variant"] == "controlled":
                expected = eof_from_concurrence(abs(math.cos(2 * theta)))
                assert float(row["eof"]) == pytest.approx(expected, abs=1e-7)
            else:
                assert float(row["concurrence"]) == pytest.approx(0.0, abs=1e-9)
            assert float(row["eof"]) == pytest.approx(
                eof_from_concurrence(float(row["concurrence"])), abs=1e-9
            )

    def test_near_unit_fidelity_rows_equal_the_closed_forms(self):
        fidelity = 0.999999
        eta = (4 * fidelity - 1) / 3
        for sweep, point in (("p", {"theta": 0.3}), ("theta", {"p": 0.2})):
            config = RunConfig(
                experiment="closed_loop",
                out="unused.csv",
                sweep=sweep,
                fidelity=(fidelity,),
                grid_points=41,
                **point,
            )
            table = runner._closed_loop_rows(config)
            assert table["method"] == "analytic"
            rows = table_rows(table)
            assert len(rows) == 2 * 41
            for row in rows:
                if row["variant"] == "controlled":
                    c = max(0.0, eta * (1 + 2 * abs(math.cos(2 * row["theta"]))) - 1) / 2
                else:
                    c = max(0.0, 2 * eta * abs(1 - 2 * row["p"]) - (1 - eta)) / 2
                assert abs(row["concurrence"] - c) < 1e-12
                assert abs(row["eof"] - eof_from_concurrence(c)) < 1e-12

    def test_p_prime_accepted_and_converted(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["closed-loop", "--sweep", "theta", "--p-prime", "1.0", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert all(float(row["p"]) == pytest.approx(0.5, abs=1e-12) for row in rows)

    def test_negative_p_prime_rejected(self, tmp_path, capsys):
        code = main(["closed-loop", "--sweep", "theta", "--p-prime", "-0.5", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "ratio" in capsys.readouterr().err


class TestAssistScanRunner:
    def test_p_is_required(self, tmp_path, capsys):
        assert main(["assist-scan", "--out", str(tmp_path / "x.csv")]) == 2
        assert "requires p" in capsys.readouterr().err

    def test_scan_marks_the_natural_basis(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["assist-scan", "--p", "0.5", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 181
        best = [row for row in rows if row["is_best"] == "1"]
        assert len(best) == 1
        assert float(best[0]["theta"]) == 0.0
        assert float(best[0]["ensemble_eof"]) == pytest.approx(1.0, abs=1e-9)


class TestCountsDemoRunner:
    def test_demo_rows(self, tmp_path):
        out = tmp_path / "counts.csv"
        assert main(
            ["counts-demo", "--p", "0.5", "--theta", "0.3", "--seed", "9", "--out", str(out)]
        ) == 0
        rows = read_csv(out)
        assert [row["quantity"] for row in rows] == ["p_prime", "theta"]
        ratio_row, angle_row = rows
        assert float(ratio_row["true_value"]) == pytest.approx(1.0, abs=1e-9)
        assert float(angle_row["true_value"]) == pytest.approx(0.3, abs=1e-9)
        for row in rows:
            estimate = float(row["estimate"])
            error = float(row["stat_error"])
            assert abs(estimate - float(row["true_value"])) < 5 * error

    def test_seed_required(self, tmp_path, capsys):
        assert main(["counts-demo", "--p", "0.5", "--out", str(tmp_path / "x.csv")]) == 2
        assert "seed" in capsys.readouterr().err

    def test_right_angle_is_estimated(self, tmp_path):
        out = tmp_path / "counts.csv"
        argv = ["counts-demo", "--p", "0.5", "--theta", str(math.pi / 2), "--seed", "1"]
        assert main(argv + ["--out", str(out)]) == 0
        angle_row = read_csv(out)[1]
        assert float(angle_row["estimate"]) == pytest.approx(math.pi / 2, abs=1e-8)
        assert 0.0 < float(angle_row["stat_error"]) < 0.02

    @pytest.mark.parametrize(
        "p, theta, estimator_message",
        [
            ("0.5", "0.3", "mode-0 and mode-1 counts sum to zero; angle undefined"),
            ("0.9", str(math.pi / 2), "up-path counts sum to zero; ratio undefined"),
        ],
    )
    def test_too_few_pairs_names_total_pairs(self, tmp_path, capsys, p, theta, estimator_message):
        out = tmp_path / "counts.csv"
        argv = ["counts-demo", "--p", p, "--theta", theta, "--total-pairs", "1", "--seed", "1"]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "total_pairs 1 is too small for the drawn counts" in err
        assert estimator_message in err
        assert not out.exists()


# a negative seed is refused by the one rule for counts
SEED_MESSAGE = "seed must be an integer >= 0, got -1"


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "argv, field",
        [
            (["open-loop", "--mu", "0.5", "--sigma", "inf"], "sigma"),
            (["open-loop", "--mu", "0.5", "--mean-phase", "nan"], "mean_phase"),
            (["open-loop", "--mu", "0.5", "--fidelity", "1.0", "nan"], "fidelity"),
            (["closed-loop", "--theta", "nan"], "theta"),
            (["counts-demo", "--p", "0.5", "--theta", "nan", "--seed", "1"], "theta"),
            (["closed-loop", "--sweep", "theta", "--p", "1.02", "--fidelity", "0.9"], "p 1.02"),
            (["counts-demo", "--p", "0.5", "--theta", "-0.3", "--seed", "1"], "theta -0.3"),
            (["counts-demo", "--p", "0.5", "--theta", "2.0", "--seed", "1"], "theta 2.0"),
            (["open-loop", "--mu", "0.5", "--method", "both", "--seed", "-1"], SEED_MESSAGE),
            (["counts-demo", "--p", "0.5", "--seed", "-1"], SEED_MESSAGE),
            (["open-loop", "--mu", "0.5", "--fidelity", "0.2"], "fidelity 0.2 outside"),
            (["closed-loop", "--fidelity", "1.0", "0.2"], "fidelity 0.2 outside"),
            (["counts-demo", "--total-pairs", f"{10**30}", "--seed", "1"], f"total_pairs {10**30}"),
            (["open-loop", "--mu", "0.7", "--clip-to-hardware"], "clip_to_hardware"),
            (
                ["open-loop", "--mu", "0.7", "--clip-to-hardware", "--method", "both", "--seed", "1"],
                "clip_to_hardware",
            ),
        ],
    )
    def test_rejected_by_name_without_a_file(self, tmp_path, capsys, argv, field):
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestMeanPhaseBound:
    @pytest.mark.parametrize("method", ["analytic", "monte_carlo"])
    @pytest.mark.parametrize("mean_phase", ["1e308", "-1e308", "1e16", "1000000001"])
    def test_beyond_the_bound_exits_2_naming_mean_phase(self, tmp_path, capsys, method, mean_phase):
        # 1e308 overflows mean_phase * sum(signs); near 1e16 the phase draws
        # lie 2 rad apart, and Monte Carlo rows would read far from analytic
        argv = ["open-loop", "--mu", "0.5", f"--mean-phase={mean_phase}", "--method", method]
        assert main(argv + ["--seed", "1", "--out", str(tmp_path / "x.csv")]) == 2
        assert f"mean_phase {float(mean_phase)!r} outside [-1e9, 1e9]" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mean_phase", ["1e9", "-1e9"])
    def test_at_the_bound_monte_carlo_matches_the_closed_form(self, tmp_path, mean_phase):
        out = tmp_path / "x.csv"
        argv = ["open-loop", "--mu", "0.5", f"--mean-phase={mean_phase}", "--method", "both"]
        assert main(argv + ["--seed", "1", "--n-samples", "20000", "--out", str(out)]) == 0
        rows = read_csv(out)
        analytic = {
            (row["control"], row["step"]): float(row["concurrence"])
            for row in rows
            if row["method"] == "analytic"
        }
        sampled = [row for row in rows if row["method"] == "monte_carlo"]
        assert len(sampled) == len(analytic) == 15
        for row in sampled:
            gap = abs(float(row["concurrence"]) - analytic[row["control"], row["step"]])
            assert gap <= 5 * float(row["stat_error"])


OPEN_LOOP = ["open-loop", "--mu", "0.5", "--method", "analytic"]


class TestNegativeValues:
    """A negative number after its flag is the flag's value, however it is spelled."""

    @staticmethod
    def outcome(argv, out, capsys):
        try:
            code = main(argv + ["--out", str(out)])
        except SystemExit as exited:
            code = exited.code
        return code, capsys.readouterr().err, out.read_bytes() if out.exists() else None

    @pytest.mark.parametrize(
        "argv, flag, value, error",
        [
            (OPEN_LOOP, "--mean-phase", "-1e-3", None),
            (OPEN_LOOP, "--mean-phase", "-1E-3", None),
            (OPEN_LOOP, "--mean-phase", "-1e9", None),
            (OPEN_LOOP, "--mean-phase", "-.5e+0", None),
            (OPEN_LOOP, "--mean-phase", "-1e10", "mean_phase -10000000000.0 outside"),
            (OPEN_LOOP, "--mean-phase", "-inf", "mean_phase -inf must be finite"),
            (OPEN_LOOP, "--mean-phase", "-nan", "mean_phase nan must be finite"),
            (OPEN_LOOP, "--seed", "-1e0", "argument --seed: invalid int value: '-1e0'"),
            (["closed-loop", "--sweep", "p"], "--theta", "-2e-1", None),
            (["counts-demo", "--seed", "1"], "--theta", "-2E-1", "theta -0.2 outside"),
        ],
    )
    def test_the_spaced_form_acts_as_the_joined_form(
        self, tmp_path, capsys, argv, flag, value, error
    ):
        spaced = self.outcome(argv + [flag, value], tmp_path / "spaced", capsys)
        joined = self.outcome(argv + [f"{flag}={value}"], tmp_path / "joined", capsys)
        assert spaced == joined
        code, message, written = spaced
        if error is None:
            assert code == 0 and written
        else:
            assert code == 2 and error in message and written is None


class TestConfigFileTypes:
    @pytest.mark.parametrize(
        "verb, values, field",
        [
            ("open-loop", {"mu": "0.3"}, "mu"),
            ("open-loop", {"mu": True}, "mu"),
            ("open-loop", {"mu": 0.3, "workers": "2"}, "workers"),
            ("open-loop", {"mu": 0.3, "seed": 1.5}, "seed"),
            ("open-loop", {"mu": 0.3, "fidelity": "0.9"}, "fidelity"),
            ("open-loop", {"mu": 0.3, "fidelity": [1.0, "0.9"]}, "fidelity"),
            ("open-loop", {"mu": 0.3, "clip_to_hardware": 1}, "clip_to_hardware"),
            ("open-loop", {"mu": 0.3, "n_samples": True}, "n_samples"),
            ("open-loop", {"mu": 0.3, "n_samples": 1e5}, "n_samples"),
            ("closed-loop", {"sweep": 1}, "sweep"),
            ("assist-scan", {"p": 0.3, "grid_points": 3.5}, "grid_points"),
            ("counts-demo", {"seed": 1, "total_pairs": "4000"}, "total_pairs"),
        ],
    )
    def test_rejected_by_name_without_a_file(self, tmp_path, capsys, verb, values, field):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "x.csv"
        assert main([verb, "--config", str(config), "--out", str(out)]) == 2
        assert f"{field} must be" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    def test_integers_count_as_numbers(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"mu": 1, "sigma": 1, "fidelity": 1}))
        out = tmp_path / "x.csv"
        assert main(["open-loop", "--config", str(config), "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize(
        "experiment, numpy_values, plain_values",
        [
            (
                "closed_loop",
                {"sweep": "theta", "grid_points": np.int64(5), "p": np.float64(0.3),
                 "fidelity": (1.0, np.float64(0.9))},
                {"sweep": "theta", "grid_points": 5, "p": 0.3, "fidelity": (1.0, 0.9)},
            ),
            (
                "counts_demo",
                {"seed": np.int64(3), "p": np.float64(0.3), "total_pairs": np.int64(4000)},
                {"seed": 3, "p": 0.3, "total_pairs": 4000},
            ),
        ],
    )
    def test_numpy_scalars_are_accepted_as_their_builtins(
        self, tmp_path, experiment, numpy_values, plain_values
    ):
        # split over two experiments, since each takes only the fields it reads
        common = {"experiment": experiment, "format": "jsonl"}
        numpy_config = RunConfig(out=str(tmp_path / "numpy.jsonl"), **numpy_values, **common)
        plain = RunConfig(out=str(tmp_path / "plain.jsonl"), **plain_values, **common)
        assert type(numpy_config.p) is float
        assert set(map(type, numpy_config.fidelity)) == {float}
        assert run(numpy_config).read_bytes() == run(plain).read_bytes()

    @pytest.mark.parametrize(
        "field, value, description",
        [("clip_to_hardware", np.bool_(True), "true or false"), ("p", True, "a number")],
    )
    def test_a_bool_is_not_a_number_nor_a_numpy_bool_a_bool(self, field, value, description):
        with pytest.raises(ValueError) as raised:
            RunConfig(experiment="open_loop", out="x.csv", mu=0.5, **{field: value})
        assert str(raised.value) == f"{field} must be {description}, got {value!r}"

    def test_integer_values_write_the_bytes_of_their_floats(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"p": 0, "grid_points": 5, "format": "jsonl"}))
        from_file, from_flag = tmp_path / "file.jsonl", tmp_path / "flag.jsonl"
        assert main(["assist-scan", "--config", str(config), "--out", str(from_file)]) == 0
        argv = ["assist-scan", "--p", "0", "--grid-points", "5", "--format", "jsonl"]
        assert main(argv + ["--out", str(from_flag)]) == 0
        assert from_file.read_bytes() == from_flag.read_bytes()
        assert b'"p": 0.0,' in from_file.read_bytes()

    @pytest.mark.parametrize(
        "verb, values, field",
        [
            ("assist-scan", {"p": 10**400}, "p"),
            ("open-loop", {"mu": 0.3, "fidelity": [1.0, 10**400]}, "fidelity"),
        ],
    )
    def test_integers_beyond_the_float_range_are_named(
        self, tmp_path, capsys, verb, values, field
    ):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "x.csv"
        assert main([verb, "--config", str(config), "--out", str(out)]) == 2
        assert f"{field} {10**400} is beyond the float range" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]


class TestSweptParameter:
    @pytest.mark.parametrize(
        "argv, field",
        [
            (["--sweep", "p", "--p", "0.3"], "p"),
            (["--p", "0.3"], "p"),
            (["--sweep", "p", "--p-prime", "-5"], "p_prime"),
            (["--sweep", "theta", "--theta", "0.3"], "theta"),
        ],
    )
    def test_a_fixed_value_for_the_swept_parameter_is_refused(
        self, tmp_path, capsys, argv, field
    ):
        out = tmp_path / "x.csv"
        assert main(["closed-loop", *argv, "--out", str(out)]) == 2
        assert f"{field} cannot be fixed in a sweep over" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestDeterminism:
    def test_identical_bytes_across_worker_counts(self, tmp_path):
        args = [
            "open-loop",
            "--mu", "0.7",
            "--method", "monte_carlo",
            "--n-samples", "20000",
            "--seed", "11",
            "--fidelity", "1.0", "0.96",
        ]
        out1 = tmp_path / "w1.csv"
        out8 = tmp_path / "w8.csv"
        assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
        assert main(args + ["--workers", "8", "--out", str(out8)]) == 0
        assert out1.read_bytes() == out8.read_bytes()

    def test_oversized_pool_gives_identical_bytes(self, tmp_path):
        args = ["open-loop", "--mu", "0.3", "--method", "monte_carlo", "--n-samples", "9000", "--seed", "4"]
        out1 = tmp_path / "w1.csv"
        out64 = tmp_path / "w64.csv"
        assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
        assert main(args + ["--workers", "64", "--out", str(out64)]) == 0
        assert out1.read_bytes() == out64.read_bytes()

    def test_pool_is_bounded_by_tasks_and_cores(self, monkeypatch, tmp_path):
        shares, submitted = [], []
        share, submit = dephasing._share, ThreadPoolExecutor.submit

        def recording_share(*args):
            shares.append(args[6])
            share(*args)

        def recording_submit(pool, *args, **kwargs):
            submitted.append(1)
            return submit(pool, *args, **kwargs)

        monkeypatch.setattr(dephasing, "_share", recording_share)
        # every pool in the process, wherever its class was imported
        monkeypatch.setattr(ThreadPoolExecutor, "submit", recording_submit)
        monkeypatch.setattr(dephasing.os, "cpu_count", lambda: 2)
        sampled = [
            "open-loop",
            "--mu", "0.7",
            "--method", "monte_carlo",
            "--n-samples", str(3 * BLOCK_SIZE),
            "--seed", "2",
            "--fidelity", "1.0", "0.9",
        ]
        assert main(sampled + ["--workers", "64", "--out", str(tmp_path / "o.csv")]) == 0
        # two shares, one on the caller and one given to a pool thread
        assert shares == [2, 2] and len(submitted) == 1
        closed = ["closed-loop", "--sweep", "p", "--fidelity", "1.0", "0.9"]
        assert main(closed + ["--out", str(tmp_path / "c.csv")]) == 0
        assert shares == [2, 2] and len(submitted) == 1

    def test_method_both_bytes_across_worker_counts(self, monkeypatch, tmp_path):
        # more cores than blocks, so the pool really takes 1, 2 and 5 threads
        monkeypatch.setattr(dephasing.os, "cpu_count", lambda: 64)
        args = [
            "open-loop",
            "--mu", "0.3",
            "--steps", "6",
            "--method", "both",
            "--n-samples", str(4 * BLOCK_SIZE + 7),
            "--seed", "12",
            "--fidelity", "1.0", "0.9",
        ]
        files = []
        for workers in (1, 2, 64):
            out = tmp_path / f"w{workers}.csv"
            assert main(args + ["--workers", str(workers), "--out", str(out)]) == 0
            files.append(out.read_bytes())
        assert files[0] == files[1] == files[2]

    def test_one_draw_per_block_for_every_row(self, monkeypatch, tmp_path):
        calls = []
        draw = dephasing._block_draws

        def counting(noise, steps, seed, block_index, count):
            calls.append(block_index)
            return draw(noise, steps, seed, block_index, count)

        monkeypatch.setattr(dephasing, "_block_draws", counting)
        out = tmp_path / "both.csv"
        argv = [
            "open-loop",
            "--mu", "0.7",
            "--method", "both",
            "--fidelity", "1.0", "0.96", "0.9",
            "--n-samples", str(3 * BLOCK_SIZE + 1),
            "--seed", "3",
            "--out", str(out),
        ]
        assert main(argv) == 0
        assert sorted(calls) == [0, 1, 2, 3]
        assert len(read_csv(out)) == 3 * 2 * 3 * 5

    def test_repeated_runs_are_identical(self, tmp_path):
        args = ["closed-loop", "--sweep", "theta", "--p", "0.5"]
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestFormatsAndConfig:
    def test_jsonl_output(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        assert main(
            ["closed-loop", "--sweep", "theta", "--p", "0.5", "--format", "jsonl", "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 91 * 2
        record = json.loads(lines[0])
        assert list(record) == OUTPUT_SCHEMAS["closed_loop"]["columns"]

    def test_nine_significant_digits(self, tmp_path):
        out = tmp_path / "digits.csv"
        assert main(["closed-loop", "--sweep", "theta", "--p", "0.5", "--out", str(out)]) == 0
        for row in read_csv(out):
            for column in ("concurrence", "eof"):
                text = row[column]
                mantissa = text.replace("-", "").replace(".", "").lstrip("0")
                assert len(mantissa.split("e")[0]) <= 9

    def test_config_file_supplies_values(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text(
            "mu: 0.7\nsigma: 0.6\nfidelity: [1.0, 0.96]\nout: {}\n".format(tmp_path / "cfg.csv")
        )
        assert main(["open-loop", "--config", str(config)]) == 0
        rows = read_csv(tmp_path / "cfg.csv")
        assert len(rows) == 30
        assert all(row["mu"] == "0.7" for row in rows)

    def test_cli_flags_override_config(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text("mu: 0.2\nout: {}\n".format(tmp_path / "cfg.csv"))
        assert main(["open-loop", "--config", str(config), "--mu", "1.0"]) == 0
        rows = read_csv(tmp_path / "cfg.csv")
        assert all(row["mu"] == "1" for row in rows)

    def test_json_config(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"p": 0.5, "sweep": "theta", "out": str(tmp_path / "j.csv")}))
        assert main(["closed-loop", "--config", str(config)]) == 0
        assert (tmp_path / "j.csv").exists()

    def test_unknown_config_keys_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.yaml"
        config.write_text("muu: 0.2\nout: x.csv\n")
        assert main(["open-loop", "--config", str(config)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb, values, keys",
        [
            ("closed-loop", {"steps": 7, "mu": 0.2, "workers": 3}, ["mu", "steps", "workers"]),
            ("closed-loop", {"steps": 7}, ["steps"]),
            ("assist-scan", {"p": 0.3, "seed": 5}, ["seed"]),
            ("assist-scan", {"p": 0.3, "experiment": "open_loop"}, ["experiment"]),
            ("counts-demo", {"seed": 1, "workers": 3}, ["workers"]),
            ("open-loop", {"mu": 0.3, "sweep": "p"}, ["sweep"]),
        ],
    )
    def test_a_key_the_verb_does_not_read_is_refused(self, tmp_path, capsys, verb, values, keys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values))
        assert main([verb, "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
        assert f"unknown config keys {keys} for {verb}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    def test_unknown_keys_of_other_types_are_named(self, tmp_path, capsys):
        config = tmp_path / "run.yaml"
        config.write_text("mu: 0.3\n1: 2\nzz: 3\nnull: 4\n")
        assert main(["open-loop", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
        assert "unknown config keys [1, None, 'zz'] for open-loop" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize(
        "name, text",
        [
            ("run.yaml", b"a: [1\n"),
            ("run.json", b'{"mu": 0.5,'),
            ("run.yaml", b"\xffmu: 0.5\n"),
            ("run.json", b'\xff{"mu": 0.5}'),
        ],
    )
    def test_malformed_config_names_the_file(self, tmp_path, capsys, name, text):
        config = tmp_path / name
        config.write_bytes(text)
        out = tmp_path / "x.csv"
        assert main(["open-loop", "--config", str(config), "--out", str(out)]) == 2
        assert f"config file {config}: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    def test_yaml_is_imported_only_for_yaml_configs(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
        )
        code = "import sys, qrecover.cli; print('yaml' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "False"

    def test_every_flag_is_a_config_field(self):
        """Each verb's flags are --config and its PARAMETERS fields, typed by the tables."""
        verbs = next(
            action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert list(verbs.choices) == [name.replace("_", "-") for name in runner.PARAMETERS]
        kinds = {name: kind for _, kind, names in runner._FIELD_TYPES for name in names}
        flag_types = {str: str, numbers.Integral: int, numbers.Real: float}
        for experiment, names in runner.PARAMETERS.items():
            actions = verbs.choices[experiment.replace("_", "-")]._actions
            assert [action.dest for action in actions] == ["help", "config", *names]
            for action in actions[2:]:
                assert action.option_strings[0] == "--" + action.dest.replace("_", "-")
                assert action.default is None
                assert action.choices == runner.CHOICES.get(action.dest)
                if action.dest == "fidelity":
                    assert (action.type, action.nargs) == (float, "+")
                elif kinds[action.dest] is bool:
                    assert isinstance(action, argparse.BooleanOptionalAction)
                else:
                    assert action.type is flag_types[kinds[action.dest]], action.dest

    @pytest.mark.parametrize(
        "experiment, configs",
        [
            ("open_loop", [{"mu": 0.5, "method": "both", "n_samples": 2000, "seed": 1}]),
            ("closed_loop", [{"sweep": "p", "theta": 0.3}, {"sweep": "theta", "p_prime": 2.0}]),
            ("assist_scan", [{"p": 0.3, "grid_points": 5}]),
            ("counts_demo", [{"p": 0.5, "theta": 0.3, "seed": 1}]),
        ],
    )
    def test_each_experiment_reads_its_parameters(self, experiment, configs):
        """The fields a builder reads, and the out and format ``run`` reads, are PARAMETERS."""

        class Recording:
            def __init__(self, config):
                self.config = config

            def __getattr__(self, name):
                if name not in RunConfig.__dataclass_fields__:
                    # a method such as resolved_p reads its fields through the recorder
                    return getattr(RunConfig, name).__get__(self)
                read.add(name)
                return getattr(self.config, name)

        read = {"out", "format"}
        for values in configs:
            config = RunConfig(experiment=experiment, out="x.csv", **values)
            runner._BUILDERS[experiment](Recording(config))
        assert read == set(runner.PARAMETERS[experiment])

    def test_a_field_the_experiment_does_not_read_is_refused(self):
        with pytest.raises(ValueError) as refused:
            RunConfig(
                experiment="assist_scan", out="a.csv", p=0.3, grid_points=5,
                steps=7, seed=5, workers=9, mu=0.2,
            )
        assert str(refused.value) == (
            "assist_scan does not read workers, seed, mu, steps; leave them at their defaults"
        )

    @pytest.mark.parametrize("experiment", list(runner.PARAMETERS))
    def test_each_unread_field_is_named_and_its_default_accepted(self, experiment):
        needed = {"open_loop": {"mu": 0.5}, "counts_demo": {"seed": 1}}.get(experiment, {})
        # a valid value other than the default, for every field but experiment and out
        other = {
            "format": "jsonl", "workers": 2, "seed": 1, "fidelity": (0.9,), "mu": 0.5,
            "sigma": 0.5, "mean_phase": 1.0, "steps": 3, "method": "both", "n_samples": 10,
            "clip_to_hardware": True, "sweep": "theta", "p": 0.3, "p_prime": 0.5,
            "theta": 0.2, "grid_points": 5, "total_pairs": 100,
        }
        unread = [name for name in other if name not in runner.PARAMETERS[experiment]]
        assert unread
        for name in unread:
            with pytest.raises(ValueError, match=f"^{experiment} does not read {name};"):
                RunConfig(experiment=experiment, out="x.csv", **needed, **{name: other[name]})
        # a field left at its default is accepted, however it is given
        defaults = {name: RunConfig.__dataclass_fields__[name].default for name in unread}
        RunConfig(experiment=experiment, out="x.csv", **needed, **defaults)

    def test_missing_out_rejected(self, capsys):
        assert main(["open-loop", "--mu", "1.0"]) == 2
        assert "output path" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["closed-loop", "--grid-points", "100000000000"],
            ["open-loop", "--mu", "0.5", "--steps", "100000000000"],
        ],
    )
    def test_an_allocation_that_fails_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        # a stand-in builder raises, so nothing is allocated for real
        experiment = argv[0].replace("-", "_")
        for error, message in (
            (MemoryError("Unable to allocate 745. GiB for an array"), "Unable to allocate"),
            (MemoryError(), "out of memory"),
        ):

            def exhausted(config):
                raise error

            monkeypatch.setitem(runner._BUILDERS, experiment, exhausted)
            assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
            assert capsys.readouterr().err.startswith(f"qrecover: error: {message}")
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_path_rejected(self, tmp_path, capsys, monkeypatch):
        # the directory is checked before any row is built
        calls = []

        def refuse(config):
            calls.append(config)
            raise AssertionError("rows built for an unwritable path")

        monkeypatch.setitem(runner._BUILDERS, "open_loop", refuse)
        target = tmp_path / "no_such_dir" / "x.csv"
        argv = ["open-loop", "--mu", "1.0", "--method", "monte_carlo", "--seed", "1"]
        assert main(argv + ["--out", str(target)]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert calls == []

    def test_directory_as_out_rejected(self, tmp_path, capsys, monkeypatch):
        calls = []

        def refuse(config):
            calls.append(config)
            raise AssertionError("rows built for a directory path")

        monkeypatch.setitem(runner._BUILDERS, "open_loop", refuse)
        argv = ["open-loop", "--mu", "1.0", "--method", "monte_carlo", "--seed", "1"]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert f"output path {tmp_path} is a directory" in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_an_empty_out_is_the_current_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["assist-scan", "--p", "0.3", "--out", ""]) == 2
        assert capsys.readouterr().err == "qrecover: error: output path . is a directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_file_as_the_output_directory_is_named(self, tmp_path, capsys, monkeypatch):
        def refuse(config):
            raise AssertionError("rows built under a file")

        monkeypatch.setitem(runner._BUILDERS, "assist_scan", refuse)
        parent = tmp_path / "README.md"
        parent.write_text("text\n")
        assert main(["assist-scan", "--p", "0.3", "--out", str(parent / "x.csv")]) == 2
        error = f"qrecover: error: output directory {parent} is not a directory\n"
        assert capsys.readouterr().err == error
        assert list(tmp_path.iterdir()) == [parent] and parent.read_text() == "text\n"


CORE_MODULES = [
    "qrecover",
    "qrecover.cli",
    "qrecover.closedloop",
    "qrecover.counts",
    "qrecover.dephasing",
    "qrecover.entanglement",
    "qrecover.openloop",
    "qrecover.runner",
]
# names that left the package: of 0.2.0, the state toolkit and the general
# concurrence live in the test oracle now, and the rest is gone; of 0.7.0,
# the control and preparation records, whose values are plain sign vectors
# and fidelities now; of 0.8.0, the count record, whose estimators take the
# two count sums now; of 0.9.0, the scan and moment records, whose values are
# plain arrays now; of 0.10.0, the noise record, whose values are plain
# arguments now
REMOVED_NAMES = {
    "states", "DensityMatrix", "LocalOperator", "PureState", "RegisterError",
    "apply_local", "apply_two_qubit", "bell_state", "bit_flip", "fidelity_to_pure",
    "kron_state", "maximally_mixed", "partial_trace", "phase_shift",
    "concurrence", "concurrence_x_state", "concurrence_with_path", "XStateError",
    "X_SPARSITY_ATOL", "PureStateEnsemble", "ensemble_average_eof", "mixture", "werner",
    "PhaseSequence", "sample_sequence", "sample_phase_matrix", "trajectory_state",
    "correction_phase", "CORRECTION_VARIANTS", "_mixed_concurrence",
    "OpenLoopResult", "run_open_loop", "ClosedLoopParams", "check_eta",
    "TrajectoryControl", "PreparationModel", "UNCONTROLLED", "CORRECTED", "ECHOED",
    "CoincidenceCounts", "SPLIT_FIELDS", "AssistanceScan", "MonteCarloMoments", "NoiseParams",
}


class TestNoVerbBuildsAQuantumState:
    """Every verb runs on closed forms and coherence moments alone."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["open-loop", "--mu", "0.7", "--method", "both", "--n-samples", "2000", "--seed", "1"],
            ["closed-loop", "--sweep", "theta", "--fidelity", "1.0", "0.9"],
            ["assist-scan", "--p", "0.3"],
            ["counts-demo", "--p", "0.4", "--theta", "0.3", "--seed", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_runs_with_state_construction_forbidden(self, tmp_path, argv):
        # a fresh interpreter in which importing the test oracle fails; after
        # the verb, only the core modules of the package are loaded
        code = (
            "import json, sys\n"
            "sys.modules['oracle'] = sys.modules['helpers'] = None\n"
            "from qrecover.cli import main\n"
            f"assert main({argv + ['--out', str(tmp_path / 'x.csv')]!r}) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'qrecover')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert json.loads(done.stdout.splitlines()[-1]) == CORE_MODULES
        assert (tmp_path / "x.csv").stat().st_size > 0

    def test_removed_names_are_gone(self):
        for module in CORE_MODULES:
            loaded = importlib.import_module(module)
            assert sorted(REMOVED_NAMES & set(vars(loaded))) == [], module
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("qrecover.states")


class TestAtomicWrites:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, fmt):
        # a cell of an accepted kind, so that the failure comes from formatting
        class Unprintable(int):
            def __str__(self):
                raise RuntimeError("cannot format")

        out = tmp_path / f"rows.{fmt}"
        write_rows(out, ["a"], {"a": np.array([1.0])}, fmt)
        before = out.read_bytes()
        table = {"a": np.full(1001, 2.0), "b": np.array([1] * 1000 + [Unprintable()], dtype=object)}
        with pytest.raises((RuntimeError, TypeError)):
            write_rows(out, ["a", "b"], table, fmt)
        assert out.read_bytes() == before
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_failed_rename_keeps_the_previous_file(self, tmp_path, fmt, monkeypatch):
        out = tmp_path / f"rows.{fmt}"
        write_rows(out, ["a"], {"a": np.array([1.0])}, fmt)
        before = out.read_bytes()

        def refuse(source, target):
            assert Path(source).read_bytes()  # the new rows were written in full
            raise OSError("rename refused")

        monkeypatch.setattr(runner.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            write_rows(out, ["a"], {"a": np.full(1000, 2.0)}, fmt)
        assert out.read_bytes() == before
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_failed_single_write_keeps_the_previous_file(self, tmp_path, fmt, monkeypatch):
        out = tmp_path / f"rows.{fmt}"
        write_rows(out, ["a"], {"a": np.array([1.0])}, fmt)
        before = out.read_bytes()
        writes = []

        class FailingHandle:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, text):
                writes.append(text)
                raise OSError("disk full")

        def failing_open(*args, **kwargs):
            return FailingHandle(open(*args, **kwargs))

        monkeypatch.setattr(runner, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            write_rows(out, ["a"], {"a": np.full(1000, 2.0)}, fmt)
        # the whole file went to the one write call
        assert len(writes) == 1 and writes[0].count("\n") == 1000 + (fmt == "csv")
        assert out.read_bytes() == before
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize(
        "cell",
        [(1.0, 2.0), [1.0, 2.0], np.array([1 + 2j, 3j]), np.array([None, 1j], dtype=object)],
        ids=["tuple", "list", "complex-array", "complex-cell"],
    )
    def test_cells_of_other_kinds_are_refused(self, tmp_path, fmt, cell):
        # a tuple was written as its repr on every row, a list raised
        # "unhashable type" and a complex array wrote (1+2j)
        with pytest.raises(ValueError, match="column 'b' holds a"):
            write_rows(tmp_path / "rows", ["a", "b"], {"a": np.arange(2), "b": cell}, fmt)
        assert list(tmp_path.iterdir()) == []

    def test_numpy_numbers_are_cells(self, tmp_path):
        table = {"a": np.arange(2), "seed": np.int64(7), "x": np.float64(0.5)}
        write_rows(tmp_path / "rows.csv", list(table), table, "csv")
        assert (tmp_path / "rows.csv").read_text() == "a,seed,x\n0,7,0.5\n1,7,0.5\n"

    def test_columns_of_unequal_length_are_refused(self, tmp_path):
        out = tmp_path / "rows.csv"
        with pytest.raises(ValueError, match="broadcast to a grid"):
            write_rows(out, ["a", "b"], {"a": np.array([1.0, 2.0]), "b": np.arange(3)}, "csv")
        assert list(tmp_path.iterdir()) == []


def stdlib_bytes(path, columns, table, fmt):
    """The file the standard library writes for ``table``: ``csv.writer``
    (header, then rows) or ``json.dumps`` of each row, floats at 9 digits."""
    records = [[row[column] for column in columns] for row in table_rows(table)]
    if fmt == "csv":
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(columns)
            writer.writerows(
                [format(v, ".9g") if isinstance(v, float) else v for v in row] for row in records
            )
    else:
        with open(path, "w") as handle:
            for row in records:
                values = [float(format(v, ".9g")) if isinstance(v, float) else v for v in row]
                handle.write(json.dumps(dict(zip(columns, values))) + "\n")
    return Path(path).read_bytes()


# the characters csv.writer quotes for, "%", blanks, NUL and non-ASCII text
TEXT = st.text(
    st.sampled_from(list(',"\r\n %\t\x00ab') + ["\u00e9", "\u20ac", "\U0001f600"]), max_size=5
)
CELL = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1 + 0.2]),
    TEXT,
)


# the cells of an ndarray column, by dtype: an object array holds any cell
ARRAY_CELLS = {
    "object": CELL,
    "float": st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0.0, -0.0])
    ),
    "int": st.integers(-(2**63), 2**63 - 1),
    "bool": st.booleans(),
}


@st.composite
def broadcast_tables(draw):
    """1 to 5 named columns on a row grid of 1 to 3 axes.  The first is an
    ndarray with at least one axis; any other is an ndarray or one value.
    Each ndarray keeps a trailing run of the grid's axes, any of them cut
    to 1, so no column need have the grid's full shape, and may be
    read-only, as the writer's shared constant columns are."""
    axes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    columns = draw(st.lists(TEXT, min_size=1, max_size=5, unique=True))
    table = {}
    for column in columns:
        if column != columns[0] and draw(st.booleans()):
            table[column] = draw(CELL)
            continue
        first = draw(st.integers(0, len(axes) - (column == columns[0])))
        shape = tuple(size if draw(st.booleans()) else 1 for size in axes[first:])
        dtype = draw(st.sampled_from(sorted(ARRAY_CELLS)))
        cells = draw(st.lists(ARRAY_CELLS[dtype], min_size=math.prod(shape), max_size=math.prod(shape)))
        table[column] = cells_array(cells, dtype).reshape(shape)
        table[column].flags.writeable = draw(st.booleans())
    return columns, table


def read_only(array):
    array.flags.writeable = False
    return array


def cells_array(cells, dtype=object):
    """A 1-D array of ``cells``, each kept as it is in an object array."""
    array = np.empty(len(cells), dtype=dtype)
    array[:] = cells
    return array


class TestWriterMatchesTheStandardLibrary:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @settings(max_examples=400, deadline=None)
    @given(table=broadcast_tables())
    @example(table=(["a"], {"a": cells_array([None, "", 1.0])}))
    @example(table=([""], {"": cells_array([None])}))
    @example(table=(["a", "b"], {"a": cells_array([None, None]), "b": None}))
    @example(table=(["a", "b"], {"a": np.arange(3.0).reshape(3, 1), "b": np.array([["x,y", None]])}))
    @example(table=(["a"], {"a": np.array([[-0.0, 0.0]])}))
    @example(table=(["a", "b"], {"a": read_only(np.array([0.5, -0.0])), "b": read_only(np.ones(2))}))
    @example(table=(["a"], {"a": read_only(np.array([[""], ["x"]]))}))
    def test_bytes_equal_csv_writer_and_json_dumps(self, fmt, table):
        columns, table = table
        with tempfile.TemporaryDirectory() as directory:
            out, expected = Path(directory, "rows"), Path(directory, "expected")
            write_rows(out, columns, table, fmt)
            assert out.read_bytes() == stdlib_bytes(expected, columns, table, fmt)

    @pytest.mark.parametrize(
        "table",
        [
            {"a": np.zeros((2, 3)), "b": np.zeros(2)},
            {"a": np.zeros((2, 1)), "b": np.zeros((1, 3)), "c": np.zeros((3, 1))},
            {"a": np.zeros((1, 0)), "b": np.zeros(2)},
            # no array with an axis
            {"a": np.array(1.0), "b": 2.0},
        ],
    )
    def test_arrays_that_do_not_broadcast_are_refused(self, tmp_path, table):
        with pytest.raises(ValueError, match="broadcast to a grid"):
            write_rows(tmp_path / "rows.csv", list(table), table, "csv")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_array_columns_equal_their_lists(self, tmp_path, fmt):
        values = {"x": np.array([0.0, -0.0, 5e-324, 1e308, 0.1 + 0.2]), "n": np.arange(5)}
        write_rows(tmp_path / "arrays", ["x", "n"], values, fmt)
        expected = stdlib_bytes(tmp_path / "expected", ["x", "n"], values, fmt)
        assert (tmp_path / "arrays").read_bytes() == expected

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize(
        "values",
        [
            np.array([0.1, -0.0, 3.4e38, 1e-45, 2.5], dtype=np.float32),
            np.array([-128, 0, 127], dtype=np.int8),
            np.array([0, 2**63, 2**64 - 1], dtype=np.uint64),
        ],
        ids=lambda values: str(values.dtype),
    )
    def test_number_columns_write_the_bytes_of_their_cells(self, tmp_path, fmt, values):
        # a column inline, spread over a second axis, and read-only; each
        # against the same column as an object array of the cells of tolist
        tables = [
            lambda column: {"x": column},
            lambda column: {"x": column.reshape(-1, 1), "y": np.arange(2)},
            lambda column: {"x": read_only(column.copy())},
        ]
        for table in tables:
            for name, column in (("array", values), ("cells", cells_array(values.tolist()))):
                write_rows(tmp_path / name, ["x", "y"], {"y": None, **table(column)}, fmt)
            assert (tmp_path / "array").read_bytes() == (tmp_path / "cells").read_bytes()

    @pytest.mark.parametrize(
        "fmt, text", [("csv", "a\r\n1\r\n0.3\r\n"), ("jsonl", '{"a": 1}\n{"a": 0.3}\n')]
    )
    def test_a_float_after_an_integer_keeps_nine_digits(self, tmp_path, fmt, text):
        write_rows(tmp_path / "rows", ["a"], {"a": cells_array([1, 0.1 + 0.2])}, fmt)
        assert (tmp_path / "rows").read_bytes() == text.encode()

    def test_bools_are_json_booleans(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        write_rows(out, ["a"], {"a": cells_array([True, 0.5, False])}, "jsonl")
        assert out.read_text() == '{"a": true}\n{"a": 0.5}\n{"a": false}\n'
        values = [json.loads(line)["a"] for line in out.read_text().splitlines()]
        assert values == [True, 0.5, False]


# the golden assist-scan job, and its files under tests/data
ASSIST_GOLDEN = ["assist-scan", "--p", "0.3", "--grid-points", "181"]
DATA = REPO_ROOT / "tests" / "data"


def clear_constant_caches():
    runner._constant_texts.cache_clear()


class TestConstantColumns:
    """A read-only ndarray column's texts are made once per process and
    kept, keyed on its contents; every other column is formatted per file."""

    def test_every_constant_axis_is_one_read_only_array(self):
        tables = {
            "variant": runner._closed_loop_rows(RunConfig(experiment="closed_loop", out="x")),
            "quantity": runner._counts_demo_rows(
                RunConfig(experiment="counts_demo", out="x", seed=1)
            ),
            "control": runner._open_loop_rows(RunConfig(experiment="open_loop", out="x", mu=0.5)),
        }
        constants = {"variant": runner._VARIANTS, "quantity": runner._QUANTITIES}
        constants["control"] = openloop.CONTROLS
        for column, table in tables.items():
            assert table[column] is constants[column] and not constants[column].flags.writeable

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_read_only_view_follows_its_base(self, tmp_path, fmt):
        base = np.array([0.5, 0.1 + 0.2, -0.0])
        view = read_only(base.view())
        for values in ([0.5, 0.1 + 0.2, -0.0], [1e308, 5e-324, 0.25]):
            base[:] = values
            write_rows(tmp_path / "rows", ["x"], {"x": view}, fmt)
            expected = stdlib_bytes(tmp_path / "expected", ["x"], {"x": base.copy()}, fmt)
            assert (tmp_path / "rows").read_bytes() == expected

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_object_and_writeable_columns_are_formatted_per_file(self, tmp_path, fmt):
        clear_constant_caches()
        table = {
            "a": read_only(cells_array([None, 0.5, "x"])),
            "b": np.array([0.25, 0.75, 1.0]),
            "c": read_only(np.array([1.5, 2.5, 3.5])),
        }
        for _ in range(2):
            write_rows(tmp_path / "rows", list(table), table, fmt)
            assert (tmp_path / "rows").read_bytes() == stdlib_bytes(
                tmp_path / "expected", list(table), table, fmt
            )
        # only "c" has a text entry, made on the first call and reused on the second
        info = runner._constant_texts.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_writeable_columns_keep_their_inline_fields(self, monkeypatch):
        fields = []
        column = runner._column

        def recording(*args):
            field, values = column(*args)
            fields.append(field)
            return field, values

        monkeypatch.setattr(runner, "_column", recording)
        table = {"x": np.array([0.5, 0.25]), "n": np.arange(2)}
        assert runner._file_text(["x", "n"], table, "csv") == "x,n\r\n0.5,0\r\n0.25,1\r\n"
        assert fields == ["%.9g", "%d"]

    def test_the_cache_is_bounded(self, tmp_path):
        clear_constant_caches()
        for size in range(2, 50):
            write_rows(tmp_path / "rows.csv", ["x"], {"x": read_only(np.arange(size))}, "csv")
        info = runner._constant_texts.cache_info()
        assert info.maxsize == 32 and info.currsize == 32 and info.misses == 48

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_long_column_is_formatted_per_file(self, tmp_path, fmt):
        clear_constant_caches()
        kept = runner._KEPT_CELLS
        write_rows(tmp_path / "short", ["n"], {"n": read_only(np.arange(kept))}, fmt)
        info = runner._constant_texts.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        table = {"x": read_only(np.linspace(0.0, 1.0, kept + 1))}
        for _ in range(2):
            write_rows(tmp_path / "rows", ["x"], table, fmt)
            expected = stdlib_bytes(tmp_path / "expected", ["x"], table, fmt)
            assert (tmp_path / "rows").read_bytes() == expected
        assert runner._constant_texts.cache_info() == info

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_miss_and_a_hit_write_the_golden_bytes(self, tmp_path, fmt):
        clear_constant_caches()
        golden = (DATA / f"assist_scan_p0.3.{fmt}").read_bytes()
        for attempt in ("miss", "hit"):
            out = tmp_path / f"{attempt}.{fmt}"
            assert main(ASSIST_GOLDEN + ["--format", fmt, "--out", str(out)]) == 0
            assert out.read_bytes() == golden, attempt
        assert runner._constant_texts.cache_info().hits == 1

    def test_the_angles_are_formatted_on_the_first_job_only(self, tmp_path, monkeypatch):
        clear_constant_caches()
        formatted = []
        column = runner._column

        def counting(name, values, fmt, inline, kind):
            formatted.append(name)
            return column(name, values, fmt, inline, kind)

        monkeypatch.setattr(runner, "_column", counting)
        argv = ["assist-scan", "--p", "0.3", "--grid-points", "1001", "--out"]
        assert main(argv + [str(tmp_path / "first.csv")]) == 0
        assert formatted.count("theta") == 1
        formatted.clear()
        assert main(argv[:2] + ["0.7"] + argv[3:] + [str(tmp_path / "second.csv")]) == 0
        assert "theta" not in formatted and "ensemble_eof" in formatted
        first, second = (read_csv(tmp_path / name) for name in ("first.csv", "second.csv"))
        assert [row["theta"] for row in first] == [row["theta"] for row in second]


class TestSchema:
    def test_repo_schema_file_matches_code(self):
        shipped = json.loads((REPO_ROOT / "output_schema.json").read_text())
        assert shipped == output_schema()

    def test_package_version_matches_pyproject(self):
        import re

        import qrecover

        text = (REPO_ROOT / "pyproject.toml").read_text()
        declared = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE).group(1)
        assert qrecover.__version__ == declared

    def test_readme_library_example_runs(self):
        text = (REPO_ROOT / "README.md").read_text()
        block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})

    def test_runconfig_validation(self):
        with pytest.raises(ValueError, match="experiment"):
            RunConfig(experiment="nope", out="x.csv")
        with pytest.raises(ValueError, match="seed"):
            RunConfig(experiment="open_loop", out="x.csv", mu=1.0, method="monte_carlo")
        with pytest.raises(ValueError, match="fidelity"):
            RunConfig(experiment="open_loop", out="x.csv", mu=1.0, fidelity=())
        with pytest.raises(ValueError, match="grid_points"):
            RunConfig(experiment="closed_loop", out="x.csv", grid_points=1)
        # format, method and sweep are checked whatever the experiment reads
        for field in ("format", "method", "sweep"):
            with pytest.raises(ValueError, match=f"unknown {field} 'nope'; expected \\("):
                RunConfig(experiment="assist_scan", out="x.csv", p=0.3, **{field: "nope"})

    def test_changing_the_returned_schema_changes_nothing_else(self, tmp_path):
        shipped = json.loads(json.dumps(OUTPUT_SCHEMAS))
        config = RunConfig(experiment="assist_scan", out=str(tmp_path / "s.csv"), p=0.3)
        before = run(config).read_bytes()
        for schema in output_schema().values():
            schema["columns"].append("extra")
            schema["columns"].reverse()
            schema["description"] = ""
        assert OUTPUT_SCHEMAS == shipped and output_schema() == shipped
        assert run(config).read_bytes() == before

    def test_run_returns_path(self, tmp_path):
        config = RunConfig(experiment="assist_scan", out=str(tmp_path / "s.csv"), p=0.5)
        assert run(config) == tmp_path / "s.csv"


# Two jobs of each verb, in csv and jsonl, with the verbs interleaved.
_BATTERY = [
    ["open-loop", "--mu", "0.7", "--method", "both", "--n-samples", "5000", "--seed", "3"],
    ["closed-loop", "--sweep", "theta", "--p", "0.5", "--grid-points", "7"],
    ["assist-scan", "--p", "0.3", "--grid-points", "9"],
    ["counts-demo", "--p", "0.4", "--theta", "0.3", "--seed", "1"],
    ["open-loop", "--mu", "0.3", "--steps", "5", "--fidelity", "1.0", "0.9"],
    ["closed-loop", "--sweep", "p", "--theta", "0", "--fidelity", "1.0", "0.95"],
    ["assist-scan", "--p-prime", "2.0", "--grid-points", "5"],
    ["counts-demo", "--p", "0.5", "--theta", "0.7", "--total-pairs", "900", "--seed", "2"],
]


def _run_battery(directory: Path) -> dict[str, bytes]:
    directory.mkdir()
    for i, argv in enumerate(_BATTERY):
        for fmt in ("csv", "jsonl"):
            out = directory / f"job{i}.{fmt}"
            assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def counting_build_parser(monkeypatch) -> list:
    """Patch ``cli.build_parser`` to record each call; returns the record."""
    built = []
    build = cli.build_parser

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    return built


class TestRepeatedCalls:
    """In-process ``main`` calls keep no state from one to the next, and a
    parser is built only for an argv the flag table cannot read."""

    def test_a_parser_is_built_only_for_argvs_the_table_cannot_read(self, tmp_path, monkeypatch):
        built = counting_build_parser(monkeypatch)
        files = _run_battery(tmp_path / "jobs")
        assert len(files) == 2 * len(_BATTERY)
        # exact flags with plain values are read from the flag table alone
        assert built == []
        for i, argv in enumerate(_BATTERY):
            # the "=" form is left to the full parser, built for that call
            out = tmp_path / "jobs" / f"job{i}.csv"
            assert main(argv + [f"--out={out}"]) == 0
            assert out.read_bytes() == files[out.name]
            assert len(built) == i + 1

    def test_every_benchmark_job_is_read_from_the_flag_table(self, tmp_path, monkeypatch):
        jobs = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location("jobs", REPO_ROOT / "perfbench" / "jobs.py")
        )
        jobs.__spec__.loader.exec_module(jobs)
        full = cli.build_parser()
        argvs = [
            jobs.argv(spec, str(tmp_path / f"x.{spec['format']}"))
            for workload in jobs.WORKLOADS
            for pass_index in range(3)
            for spec in jobs.job_list(workload, 1, pass_index)
        ]
        assert {argv[0] for argv in argvs} == set(cli._FLAGS)
        built = counting_build_parser(monkeypatch)
        for argv in argvs:
            parsed = cli._parse_args(argv)
            assert list(vars(parsed).items()) == list(vars(full.parse_args(argv)).items())
        assert built == []

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_rejected_call_leaves_the_next_correct(self, tmp_path, capsys):
        expected = _run_battery(tmp_path / "before")
        with pytest.raises(SystemExit) as exited:
            main(["open-loop", "--mu", "0.5", "--method", "nope", "--out", "x.csv"])
        assert exited.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["open-loop", "--steps", "two", "--out", "x.csv"])
        assert _run_battery(tmp_path / "after") == expected

    def test_concurrent_calls_write_the_serial_bytes(self, tmp_path):
        serial = _run_battery(tmp_path / "serial")
        clear_constant_caches()
        # more threads than cores, racing from empty caches, switching often
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                dirs = [tmp_path / f"thread{i}" for i in range(4)]
                runs = list(pool.map(_run_battery, dirs, timeout=120))
        finally:
            sys.setswitchinterval(switch)
        assert runs == [serial] * 4

    @pytest.mark.parametrize(
        "verb", [None, "open-loop", "closed-loop", "assist-scan", "counts-demo"]
    )
    def test_help_matches_a_fresh_parser(self, capsys, verb):
        argv = ([verb] if verb else []) + ["--help"]
        texts = []
        for parse in (main, main, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as exited:
                parse(argv)
            assert exited.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0].startswith("usage: qrecover")
        assert texts[1:] == texts[:1] * 2


# Good and bad argv alike: main parses a verb's arguments with the verb's own
# subparser, and must answer every argv as the full parser does.
_ARGV_CORPUS = [
    [],
    ["-h"],
    ["nope", "--out", "x.csv"],
    ["-x"],
    ["--", "assist-scan", "--p", "0.3", "--out", "x.csv"],
    ["assist-scan", "--", "--p", "0.3", "--out", "x.csv"],
    ["closed-loop", "-h"],
    ["closed-loop", "--p", "abc", "--out", "x.csv"],
    ["closed-loop", "--grid-points", "3.5", "--out", "x.csv"],
    ["open-loop", "--mu", "0.5", "--method", "nope", "--out", "x.csv"],
    ["closed-loop", "--out"],
    ["open-loop", "--mu", "0.5", "--fidelity", "--out", "x.csv"],
    ["open-loop", "--m", "0.5", "--out", "x.csv"],
    ["open-loop", "--mu", "0.5", "--st", "3", "--out", "x.csv"],
    ["open-loop", "--mu", "-0.5", "--fidelity", "1.0", "-0.5", "--out", "x.csv"],
    ["counts-demo", "--seed", "-3", "--out", "x.csv"],
    ["assist-scan", "--config", "a.json", "--config", "b.json", "--out", "x.csv"],
    ["assist-scan", "--p", "0.3", "--bogus", "--out", "x.csv"],
    ["closed-loop", "--workers", "2", "--out", "x.csv"],
    ["assist-scan", "--p", "0.3", "--seed", "1", "--out", "x.csv"],
    ["assist-scan", "--p", "0.3", "extra", "--out", "x.csv"],
    ["closed-loop", "closed-loop", "--out", "x.csv"],
    ["closed-loop"],
    ["assist-scan", "--out=x.csv", "--p=0.3", "--grid-points=5"],
    ["open-loop", "--mu", "0.7", "--method", "both", "--n-samples", "3000", "--seed", "3",
     "--no-clip-to-hardware", "--format", "jsonl", "--out", "x.jsonl"],
    ["closed-loop", "--sweep", "theta", "--p-prime", "2", "--grid-points", "4",
     "--fidelity", "1.0", "0.9", "--out", "x.csv"],
    ["counts-demo", "--p", "0.4", "--theta", "0.3", "--seed", "1", "--total-pairs", "900",
     "--out", "x.csv"],
]


# the values drawn for each field's flag, good and bad alike; every job they
# make is small
_FLOAT_VALUES = [
    "0.3", "0.5", ".5", "1", "-0.25", "-1e-3", "-1E-3", "-inf", "-nan", "1_0.5", "-1_0",
    "1e400", "abc",
]
_DRAWN_VALUES = {
    "config": ["a.json", "b.json", "missing.json"],
    "out": ["x.csv", "y.jsonl", "", "sub/x.csv", "a.json/x.csv"],
    "format": ["csv", "jsonl", "xml"],
    "method": ["analytic", "both", "monte_carlo", "nope"],
    "sweep": ["p", "theta", "q"],
    "workers": ["1", "2", "-1"],
    "seed": ["3", "-3", "1_0", "x"],
    "steps": ["1", "4", "2.5"],
    "n_samples": ["1000", "2_000", "1e3"],
    "grid_points": ["2", "5", "1"],
    "total_pairs": ["900", "4000"],
    "fidelity": ["1.0", "0.9", "-0.5", "1_0"],
    "clip_to_hardware": ["1", "true"],
    **dict.fromkeys(("mu", "sigma", "mean_phase", "p", "p_prime", "theta"), _FLOAT_VALUES),
}
# tokens that are no flag: a lone dash, an empty string, a stray word or
# number, the end of options, help, and flags no verb has
_STRAY_TOKENS = ["-", "", "extra", "-1e-3", "--", "-h", "--help", "-x", "--bogus"]


@st.composite
def _flag_tokens(draw):
    """One flag of any verb as an argv spells it, with or without its values."""
    field = draw(st.sampled_from(sorted(_DRAWN_VALUES)))
    flag, values = "--" + field.replace("_", "-"), st.sampled_from(_DRAWN_VALUES[field])
    form = draw(st.sampled_from(["exact"] * 4 + ["abbreviated", "joined", "negated", "stray"]))
    if form == "abbreviated":
        return [flag[: draw(st.integers(3, len(flag)))], draw(values)]
    if form == "joined":
        return [f"{flag}={draw(values)}"]
    if form == "negated":
        return ["--no-" + flag[2:]]
    if form == "stray":
        return [draw(st.sampled_from(_STRAY_TOKENS))]
    # a switch takes no value; one, a list or none at all for any other flag
    count = draw(st.sampled_from([0, 0, 0, 1] if field == "clip_to_hardware" else [1, 1, 1, 0, 2]))
    return [flag] + [draw(values) for _ in range(count)]


@st.composite
def _argvs(draw):
    verbs = [experiment.replace("_", "-") for experiment in runner.EXPERIMENTS]
    verb = draw(st.sampled_from(verbs * 3 + ["nope", None]))
    argv = [verb] if verb else []
    for tokens in draw(st.lists(_flag_tokens(), max_size=6)):
        argv += tokens
    return argv + (["--out", "x.csv"] if draw(st.booleans()) else [])


class TestArgvParity:
    """``main`` gives the full parser's exit code, stdout, stderr and files."""

    @staticmethod
    def outcome(argv, directory, monkeypatch, capsys):
        directory.mkdir()
        (directory / "a.json").write_text('{"p": 0.2}')
        (directory / "b.json").write_text('{"p": 0.4, "grid_points": 5}')
        monkeypatch.chdir(directory)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err, {path.name: path.read_bytes() for path in directory.iterdir()}

    def check(self, argv, directory, monkeypatch, capsys):
        own = self.outcome(argv, directory / "table", monkeypatch, capsys)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
            full = self.outcome(argv, directory / "full", monkeypatch, capsys)
        assert own == full
        assert own[0] in (0, 2) and (own[1] or own[2])
        # an argv both parsers accept gives the same namespace, in the same order
        try:
            namespace = vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            capsys.readouterr()
            return
        # compared by repr, under which a NaN value equals itself
        assert repr(list(vars(cli._parse_args(argv)).items())) == repr(list(namespace.items()))

    @pytest.mark.parametrize("argv", _ARGV_CORPUS, ids=" ".join)
    def test_main_answers_as_the_full_parser(self, argv, tmp_path, monkeypatch, capsys):
        self.check(argv, tmp_path, monkeypatch, capsys)

    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(argv=_argvs())
    @example(argv=["open-loop", "--mu", "-1e-3", "--fidelity", "1.0", "-0.5", "--out", "x.csv"])
    @example(argv=["assist-scan", "--p", "0.3", "--p", "0.4", "--out", ""])
    @example(argv=["closed-loop", "--sweep", "theta", "--p", "-inf", "--out", "x.csv"])
    @example(argv=["counts-demo", "--seed", "1_0", "--p", "0.4", "--out", "x.csv"])
    @example(argv=["open-loop", "--mu", "0.5", "--no-clip-to-hardware", "1", "--out", "x.csv"])
    @example(argv=["open-loop", "--mu", "0.5", "--mean-phase", "-1_0", "--out", "x.csv"])
    @example(argv=["closed-loop", "--theta", "-nan"])
    def test_drawn_argvs_are_answered_as_the_full_parser(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        self.check(argv, Path(tempfile.mkdtemp(dir=tmp_path)), monkeypatch, capsys)
