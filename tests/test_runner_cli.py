import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from qrecover import dephasing, runner
from qrecover.cli import main
from qrecover.dephasing import BLOCK_SIZE
from qrecover.entanglement import eof_from_concurrence
from qrecover.runner import OUTPUT_SCHEMAS, RunConfig, output_schema, run, write_rows
from qrecover.states import DensityMatrix, PureState

REPO_ROOT = Path(__file__).resolve().parents[1]


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestOpenLoopRunner:
    @pytest.mark.parametrize("sigma", ["1e155", "1e300"])
    def test_huge_sigma_dephases_without_overflow(self, tmp_path, sigma):
        out = tmp_path / "huge.csv"
        assert main(["open-loop", "--mu", "0.5", "--sigma", sigma, "--out", str(out)]) == 0
        for row in read_csv(out):
            if row["control"] == "uncontrolled" and row["step"] != "0":
                assert float(row["concurrence"]) == 0.0

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
            rows = runner._closed_loop_rows(config)
            assert {row["method"] for row in rows} == {"analytic"}
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
            (["open-loop", "--mu", "0.5", "--method", "both", "--seed", "-1"], "seed -1"),
            (["counts-demo", "--p", "0.5", "--seed", "-1"], "seed -1"),
        ],
    )
    def test_rejected_by_name_without_a_file(self, tmp_path, capsys, argv, field):
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


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
        sizes = []
        init = ThreadPoolExecutor.__init__

        def recording_init(pool, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            init(pool, max_workers, *args, **kwargs)

        # every pool in the process, wherever its class was imported
        monkeypatch.setattr(ThreadPoolExecutor, "__init__", recording_init)
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
        assert sizes == [2]
        closed = ["closed-loop", "--sweep", "p", "--fidelity", "1.0", "0.9"]
        assert main(closed + ["--workers", "64", "--out", str(tmp_path / "c.csv")]) == 0
        assert sizes == [2]

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
        draw = dephasing._block_phases

        def counting(params, seed, block_index, count):
            calls.append(block_index)
            return draw(params, seed, block_index, count)

        monkeypatch.setattr(dephasing, "_block_phases", counting)
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

    def test_missing_out_rejected(self, capsys):
        assert main(["open-loop", "--mu", "1.0"]) == 2
        assert "output path" in capsys.readouterr().err

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
    def test_runs_with_state_construction_forbidden(self, tmp_path, monkeypatch, argv):
        def refuse(self):
            raise AssertionError(f"{type(self).__name__} built")

        monkeypatch.setattr(PureState, "__post_init__", refuse)
        monkeypatch.setattr(DensityMatrix, "__post_init__", refuse)
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.stat().st_size > 0


class TestAtomicWrites:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, fmt):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("cannot format")

        out = tmp_path / f"rows.{fmt}"
        write_rows(out, ["a"], [{"a": 1.0}], fmt)
        before = out.read_bytes()
        rows = [{"a": 2.0}] * 1000 + [{"a": Unprintable()}]
        with pytest.raises((RuntimeError, TypeError)):
            write_rows(out, ["a"], rows, fmt)
        assert out.read_bytes() == before
        assert list(tmp_path.iterdir()) == [out]


class TestSchema:
    def test_repo_schema_file_matches_code(self):
        shipped = json.loads((REPO_ROOT / "output_schema.json").read_text())
        assert shipped == output_schema()

    def test_runconfig_validation(self):
        with pytest.raises(ValueError, match="experiment"):
            RunConfig(experiment="nope", out="x.csv")
        with pytest.raises(ValueError, match="seed"):
            RunConfig(experiment="open_loop", out="x.csv", mu=1.0, method="monte_carlo")
        with pytest.raises(ValueError, match="fidelity"):
            RunConfig(experiment="open_loop", out="x.csv", mu=1.0, fidelity=())
        with pytest.raises(ValueError, match="grid_points"):
            RunConfig(experiment="closed_loop", out="x.csv", grid_points=1)

    def test_run_returns_path(self, tmp_path):
        config = RunConfig(experiment="assist_scan", out=str(tmp_path / "s.csv"), p=0.5)
        assert run(config) == tmp_path / "s.csv"
