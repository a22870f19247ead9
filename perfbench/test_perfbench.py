"""Tests of the benchmark's own parts.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checker
import jobs
import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

SCHEMA = json.loads((ROOT / "output_schema.json").read_text())


def run_cli(spec: dict, out: Path) -> None:
    from qrecover import cli

    assert cli.main(jobs.argv(spec, str(out))) == 0


def perturb_concurrence(path: Path, fmt: str, row_index: int, delta: float) -> None:
    if fmt == "csv":
        with open(path, newline="") as handle:
            table = list(csv.reader(handle))
        column = table[0].index("concurrence")
        table[row_index + 1][column] = repr(float(table[row_index + 1][column]) + delta)
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows(table)
        return
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[row_index]["concurrence"] += delta
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


CLOSED_LOOP = {
    "verb": "closed-loop",
    "sweep": "p",
    "theta": 0.3,
    "grid_points": 11,
    "fidelity": [1.0, 0.93],
    "format": "csv",
}
OPEN_LOOP_MC = {
    "verb": "open-loop",
    "mu": 0.7,
    "sigma": 0.6,
    "steps": 4,
    "method": "both",
    "n_samples": 20000,
    "fidelity": [1.0, 0.9],
    "workers": 2,
    "seed": 11,
    "format": "jsonl",
}


@pytest.mark.parametrize(
    "spec", [CLOSED_LOOP, OPEN_LOOP_MC], ids=["closed-loop-csv", "open-loop-jsonl"]
)
def test_checker_accepts_cli_output_and_flags_one_perturbed_concurrence(tmp_path, spec):
    out = tmp_path / f"out.{spec['format']}"
    run_cli(spec, out)
    rows, errors = checker.check_file(spec, str(out), SCHEMA)
    assert rows == checker.expected_rows(spec)
    assert errors == []
    perturb_concurrence(out, spec["format"], row_index=7, delta=1e-4)
    _, errors = checker.check_file(spec, str(out), SCHEMA)
    assert any("closed form" in e for e in errors), errors


def test_checker_flags_a_dropped_row_and_a_wrong_header(tmp_path):
    out = tmp_path / "out.csv"
    run_cli(CLOSED_LOOP, out)
    lines = out.read_text().splitlines(keepends=True)
    out.write_text("".join(lines[:-1]))
    _, errors = checker.check_file(CLOSED_LOOP, str(out), SCHEMA)
    assert any("rows, expected" in e for e in errors)
    out.write_text(lines[0].replace("eof", "entropy") + "".join(lines[1:]))
    _, errors = checker.check_file(CLOSED_LOOP, str(out), SCHEMA)
    assert any("schema" in e for e in errors)


def test_dephased_magnitude_matches_hand_expanded_forms():
    mu, sigma = 0.35, 0.6
    s2 = sigma * sigma
    two = math.exp(-2 * s2) * (mu + (1 - mu) * math.exp(s2))
    assert checker.dephased_magnitude([1, 1], mu, sigma) == pytest.approx(two, abs=1e-15)
    # Full correlation: the echo cancels the phases exactly.
    assert checker.dephased_magnitude([1, 1, -1, -1], 1.0, sigma) == pytest.approx(1.0, abs=1e-15)
    assert checker.dephased_magnitude([], mu, sigma) == 1.0


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        (1, 0, "job", 0.0, 10.0),
        (2, 1, "a", 1.0, 6.0),  # pool thread 1
        (3, 1, "a", 4.0, 9.0),  # pool thread 2, overlaps span 2
        (4, 2, "b", 2.0, 3.0),
        (5, 3, "b", 4.5, 5.0),
    ]
    totals = tracing.span_totals(spans)
    assert totals["job"] == (1, pytest.approx(2.0))
    assert totals["a"] == (2, pytest.approx(4.0 + 4.5))
    assert totals["b"] == (2, pytest.approx(1.5))


def test_covered_time_clips_children_to_the_parent():
    intervals = [(-1.0, 2.0), (1.5, 3.0), (8.0, 12.0)]
    assert tracing.covered_time(intervals, 0.0, 10.0) == pytest.approx(5.0)
    assert tracing.covered_time([], 0.0, 1.0) == 0.0


def test_tracer_attaches_pool_spans_to_the_waiting_span_and_restores_names(tmp_path):
    import qrecover
    from qrecover import cli, dephasing, openloop

    original = dephasing.monte_carlo_moments
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert openloop.monte_carlo_moments is not original
        assert qrecover.monte_carlo_moments is openloop.monte_carlo_moments
        spec = dict(OPEN_LOOP_MC, n_samples=5000)
        assert tracer.job(cli.main, jobs.argv(spec, str(tmp_path / "o.jsonl"))) == 0
    finally:
        tracer.uninstall()
    assert openloop.monte_carlo_moments is original
    assert qrecover.monte_carlo_moments is original
    assert tracer.absent == []
    spans, draws, routes = tracer.take()
    ids = {span[2]: span[0] for span in spans if span[2] in ("job", "runner.run")}
    points = [span for span in spans if span[2] == "openloop.open_loop_point"]
    assert len(points) == 2 * 2 * 3 * 5
    assert {span[1] for span in points} == {ids["runner.run"]}
    assert draws == [5000] * (2 * 15)
    assert set(routes) == {"x_state"}


def test_tracer_reports_missing_names_as_absent(monkeypatch):
    from qrecover import counts

    monkeypatch.delattr(counts, "estimate_theta")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["counts.estimate_theta"]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_job_lists_repeat_per_seed_and_keep_their_shape_across_seeds(workload):
    def shape(job_list):
        return [
            (
                spec["verb"],
                spec["format"],
                spec.get("steps"),
                spec.get("method"),
                spec.get("n_samples"),
                spec.get("grid_points"),
                len(spec.get("fidelity", ())),
                spec.get("workers"),
            )
            for spec in job_list
        ]

    first = jobs.job_list(workload, 1, 0)
    assert jobs.job_list(workload, 1, 0) == first
    other = jobs.job_list(workload, 2, 0)
    assert other != first
    assert shape(other) == shape(first)
    assert shape(jobs.job_list(workload, 1, 5)) == shape(first)


def test_run_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    ignore = shutil.ignore_patterns("results", "__pycache__")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_jobs", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
