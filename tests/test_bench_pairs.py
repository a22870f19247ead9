"""The summaries of tools/bench_pairs.py and tools/ab_inprocess.py on synthetic
results, and the export-and-load step of tools/ab_inprocess.py (no benchmark runs)."""

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {
    "wall_s": {"better": "lower", "bound": 0.25},
    "peak_rss_mib": {"better": "lower", "bound": 0.1},
    "throughput": {"better": "higher", "bound": 0.25},
}


def result(wall, rss, failed=0, throughput=None):
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "peak_rss_mib": {"value": rss, "unit": "MiB"}}
    if throughput is not None:
        metrics["throughput"] = {"value": throughput, "unit": "1/s"}
    return {"correct": True, "attempted": 4, "failed": failed, "metrics": metrics}


def runs_of(pairs, workload="mc_echo"):
    runs = []
    for index, (seed, base, head) in enumerate(pairs):
        first = "base" if index % 2 == 0 else "head"
        runs.append({"workload": workload, "seed": seed, "side": "base", "first": first, "result": base})
        runs.append({"workload": workload, "seed": seed, "side": "head", "first": first, "result": head})
    return runs


def test_spread_and_pair_wins():
    pairs = [
        (1, result(0.050, 40.0), result(0.040, 41.0)),
        (2, result(0.056, 40.0), result(0.041, 40.0)),
        (3, result(0.052, 40.0), result(0.039, 40.5, failed=1)),
        (4, result(0.054, 41.0), result(0.060, 41.0)),
    ]
    summary = bench_pairs.summarize(runs_of(pairs), BETTER)
    entry = summary["mc_echo"]
    assert entry["seeds"] == [1, 2, 3, 4]
    assert entry["first"] == ["base", "head", "base", "head"]
    assert entry["failed"] == {"base": [0, 0, 0, 0], "head": [0, 0, 1, 0]}
    assert entry["attempted"]["head"] == [4] * 4
    wall = entry["metrics"]["wall_s"]
    assert wall["unit"] == "s" and wall["better"] == "lower"
    assert (wall["head_wins"], wall["base_wins"], wall["ties"]) == (3, 1, 0)
    assert wall["base"]["values"] == [0.050, 0.056, 0.052, 0.054]
    assert wall["base"]["median"] == pytest.approx(0.053)
    assert wall["base"]["min"] == 0.050
    # inclusive quartiles of 0.050, 0.052, 0.054, 0.056
    assert wall["base"]["q1"] == pytest.approx(0.0515)
    assert wall["base"]["q3"] == pytest.approx(0.0545)
    assert wall["base_iqr"] == pytest.approx(0.003)
    assert wall["head"]["median"] == pytest.approx(0.0405)
    assert wall["median_change"] == pytest.approx(0.0405 / 0.053 - 1)
    rss = entry["metrics"]["peak_rss_mib"]
    assert (rss["head_wins"], rss["base_wins"], rss["ties"]) == (0, 2, 2)
    # absent from the results, so not summarised
    assert "throughput" not in entry["metrics"]


def test_higher_is_better_metrics_and_single_runs():
    pairs = [(7, result(1.0, 1.0, throughput=10.0), result(1.0, 1.0, throughput=12.0))]
    summary = bench_pairs.summarize(runs_of(pairs, "small_jobs"), BETTER)
    metric = summary["small_jobs"]["metrics"]["throughput"]
    assert (metric["head_wins"], metric["base_wins"], metric["ties"]) == (1, 0, 0)
    assert metric["base"] == {"median": 10.0, "min": 10.0, "q1": 10.0, "q3": 10.0, "values": [10.0]}
    assert summary["small_jobs"]["metrics"]["wall_s"]["ties"] == 1


def test_each_metric_is_held_to_its_bound_and_a_wide_base_is_unresolved():
    # wall_s: the head median is 30% worse, beyond the 0.25 bound, with a
    # narrow base.  peak_rss_mib: 5% worse, within 0.1, but the base
    # quartiles spread 25% and the sides overlap.  throughput: the base
    # spreads 50%, but every head run beats every base run.
    walls = [(1.00, 1.30), (1.01, 1.31), (0.99, 1.29), (1.00, 1.30)]
    rss = [(32.0, 33.6), (44.0, 46.2), (36.0, 37.8), (48.0, 50.4)]
    rates = [(6.0, 15.0), (8.0, 16.0), (12.0, 17.0), (14.0, 18.0)]
    pairs = [
        (seed, result(w0, r0, throughput=t0), result(w1, r1, throughput=t1))
        for seed, ((w0, w1), (r0, r1), (t0, t1)) in enumerate(zip(walls, rss, rates))
    ]
    metrics = bench_pairs.summarize(runs_of(pairs), BETTER)["mc_echo"]["metrics"]
    wall, memory, throughput = (metrics[name] for name in ("wall_s", "peak_rss_mib", "throughput"))
    assert wall["bound"] == 0.25 and memory["bound"] == 0.1
    assert wall["median_change"] == pytest.approx(0.30)
    assert (wall["within_bound"], wall["unresolved"]) == (False, False)
    assert memory["median_change"] == pytest.approx(0.05)
    assert memory["base_iqr"] / memory["base"]["median"] == pytest.approx(0.25)
    assert (memory["within_bound"], memory["unresolved"]) == (True, True)
    assert throughput["base_iqr"] / throughput["base"]["median"] == pytest.approx(0.5)
    assert (throughput["within_bound"], throughput["unresolved"]) == (True, False)
    # a higher-is-better metric that falls by more than its bound
    pairs = [(seed, result(1.0, 1.0, throughput=10.0), result(1.0, 1.0, throughput=7.0))
             for seed in range(3)]
    throughput = bench_pairs.summarize(runs_of(pairs), BETTER)["mc_echo"]["metrics"]["throughput"]
    assert (throughput["within_bound"], throughput["unresolved"]) == (False, False)


@pytest.mark.parametrize(
    "offsets, gain",
    [
        # 9 wins and a tie, by 0.1 against a base spread of 0.045
        ([-0.1] * 9 + [0.0], True),
        # 8 wins and 2 ties, by as much
        ([-0.1] * 8 + [0.0] * 2, False),
        # 9 wins and a loss, the lost pair by far
        ([-0.1] * 9 + [0.5], True),
        # 8 wins and 2 losses
        ([-0.1] * 8 + [0.01] * 2, False),
        # 10 wins, by less than the base spread
        ([-0.01] * 10, False),
    ],
)
def test_a_gain_wins_nine_in_ten_pairs_by_more_than_the_base_spread(offsets, gain):
    bases = [1.0 + 0.01 * index for index in range(10)]
    walls = [(base, base + offset) for base, offset in zip(bases, offsets)]
    pairs = [
        (seed, result(base, 40.0, throughput=1 / base), result(head, 40.0, throughput=1 / head))
        for seed, (base, head) in enumerate(walls)
    ]
    metrics = bench_pairs.summarize(runs_of(pairs), BETTER)["mc_echo"]["metrics"]
    assert metrics["wall_s"]["base_iqr"] == pytest.approx(0.045)
    assert metrics["wall_s"]["gain"] is gain and metrics["throughput"]["gain"] is gain
    # equal on every pair: ten ties
    assert metrics["peak_rss_mib"]["gain"] is False


def test_workloads_are_kept_apart_and_a_missing_side_is_an_error():
    runs = runs_of([(1, result(1.0, 1.0), result(0.5, 1.0))], "a")
    runs += runs_of([(1, result(2.0, 1.0), result(3.0, 1.0))], "b")
    summary = bench_pairs.summarize(runs, BETTER)
    assert summary["a"]["metrics"]["wall_s"]["head_wins"] == 1
    assert summary["b"]["metrics"]["wall_s"]["base_wins"] == 1
    with pytest.raises(ValueError, match="lacks a run"):
        bench_pairs.summarize(runs[:-1], BETTER)


AB_TOOL = TOOL.parent / "ab_inprocess.py"
ab_spec = importlib.util.spec_from_file_location("ab_inprocess", AB_TOOL)
ab_inprocess = importlib.util.module_from_spec(ab_spec)
ab_spec.loader.exec_module(ab_inprocess)


def test_an_exported_revision_loads_as_a_package_of_its_own(tmp_path):
    if not (bench_pairs.ROOT / ".git").exists():
        pytest.skip("needs the git repository to export a revision from")
    from qrecover import cli as installed

    tree = bench_pairs.export("HEAD", tmp_path / "tree")
    name = "qrecover_exported"
    argv = ["assist-scan", "--p", "0.3", "--grid-points", "5", "--out"]
    try:
        cli, runner = ab_inprocess.load_package(tree, name)
        assert runner.__name__ == f"{name}.runner" and cli is not installed
        assert Path(runner.__file__).parent == tree / "src" / "qrecover"
        out = tmp_path / "scan.csv"
        config = cli.config_from_args(cli.build_parser().parse_args(argv + [str(out)]))
        table = runner._BUILDERS[config.experiment](config)
        runner.write_rows(out, runner.OUTPUT_SCHEMAS[config.experiment]["columns"], table, "csv")
        assert installed.main(argv + [str(tmp_path / "ref.csv")]) == 0
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    finally:
        for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
            del sys.modules[module]


def test_paired_differences_and_their_interval():
    base = {index: 100_000 + 1_000 * index for index in range(20)}
    head = {index: value - 10_000 for index, value in base.items()}
    times = {
        "base": {stage: dict(base) for stage in ab_inprocess.STAGES},
        "head": {stage: dict(head) for stage in ab_inprocess.STAGES},
    }
    summary = ab_inprocess.summarize(times, random.Random(1))
    write = summary["write"]
    assert write["pairs"] == 20 and write["head_wins"] == 20
    assert write["median_difference"] == pytest.approx(-10.0)
    assert write["interval_95"] == [pytest.approx(-10.0), pytest.approx(-10.0)]
    assert write["base_median"] == pytest.approx(109.5)
    assert write["head_median"] == pytest.approx(99.5)


def test_a_regression_in_one_verb_shows_in_its_own_summary():
    specs = [{"verb": "open-loop"}] * 16 + [{"verb": "closed-loop"}] * 4
    base = {index: 100_000 + 1_000 * index for index in range(20)}
    head = {index: value + (5_000 if index >= 16 else -10_000) for index, value in base.items()}
    times = {
        "base": {stage: dict(base) for stage in ab_inprocess.STAGES},
        "head": {stage: dict(head) for stage in ab_inprocess.STAGES},
    }
    keys = ab_inprocess.by_verb(specs)
    assert keys == {"open-loop": list(range(16)), "closed-loop": [16, 17, 18, 19]}
    overall = ab_inprocess.summarize(times, random.Random(1))["write"]
    assert overall["median_difference"] == pytest.approx(-10.0) and overall["head_wins"] == 16
    verb = ab_inprocess.summarize(
        times, random.Random(1), ab_inprocess.VERB_STAGES, keys["closed-loop"]
    )
    assert set(verb) == {"parse", "build", "write", "job"}
    write = verb["write"]
    assert write["pairs"] == 4 and write["head_wins"] == 0
    assert write["median_difference"] == pytest.approx(5.0)
    assert write["interval_95"] == [pytest.approx(5.0), pytest.approx(5.0)]
    assert write["base_median"] == pytest.approx(117.5)
    assert write["head_median"] == pytest.approx(122.5)


def test_the_null_run_gives_each_stage_its_interval_width():
    # base against itself: differences spread evenly over -4 .. +4 us
    base = {index: 100_000 + 1_000 * index for index in range(20)}
    null = {index: value + 1_000 * (index % 9 - 4) for index, value in base.items()}
    shift = {"parse": -9_000, "build": -10_000, "write": -2_000, "total": -12_000, "job": +20_000}
    times = {
        "base": {stage: dict(base) for stage in ab_inprocess.STAGES},
        "null": {stage: dict(null) for stage in ab_inprocess.STAGES},
        "head": {
            stage: {index: v + shift[stage] + 1_000 * (index % 3 - 1) for index, v in base.items()}
            for stage in ab_inprocess.STAGES
        },
    }
    for stage in ("parse", "job"):
        assert stage in ab_inprocess.STAGES and stage in ab_inprocess.VERB_STAGES
    null_summary = ab_inprocess.summarize(times, random.Random(2), sides=("base", "null"))
    assert null_summary["job"]["median_difference"] == pytest.approx(0.0, abs=1.0)
    summary = ab_inprocess.add_null(ab_inprocess.summarize(times, random.Random(1)), null_summary)
    for stage, entry in summary.items():
        low, high = null_summary[stage]["interval_95"]
        assert entry["null_interval_95"] == [low, high]
        assert entry["null_width"] == pytest.approx(high - low) and 0 < high - low < 8
    # 9, 10 and 12 us gains and a 20 us loss clear the null width; a 2 us gain does not
    assert {stage: entry["clear_of_null"] for stage, entry in summary.items()} == {
        "parse": True, "build": True, "write": False, "total": True, "job": True,
    }
    assert summary["job"]["head_wins"] == 0


def test_every_stage_and_verb_is_measured_against_the_null(tmp_path):
    if not (bench_pairs.ROOT / ".git").exists():
        pytest.skip("needs the git repository to export a revision from")
    out = tmp_path / "ab.json"
    argv = ["--base", "HEAD", "--head", "HEAD", "--workload", "feedback", "--rounds", "1",
            "--out", str(out)]
    try:
        assert ab_inprocess.main(argv) == 0
    finally:
        for side in ab_inprocess.SIDES:
            name = f"qrecover_{side}"
            for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
                del sys.modules[module]
    summary = json.loads(out.read_text())
    assert summary["identical_bytes"] and summary["jobs"] == 5
    entries = list(summary["stages"].values()) + [
        entry for stages in summary["verbs"].values() for entry in stages.values()
    ]
    assert set(summary["stages"]) == set(ab_inprocess.STAGES)
    assert set(summary["verbs"]) == {"assist-scan", "closed-loop", "counts-demo"}
    for entry in entries:
        low, high = entry["null_interval_95"]
        assert low <= high and entry["null_width"] == pytest.approx(high - low)
        assert isinstance(entry["clear_of_null"], bool)


def test_the_cold_mode_clears_every_cache(tmp_path):
    name = "qrecover_cold"
    try:
        cli, runner = ab_inprocess.load_package(bench_pairs.ROOT, name)
        # "--p=0.3" is left to the full parser, so the call builds one
        argv = ["assist-scan", "--p=0.3", "--grid-points", "5", "--out", str(tmp_path / "s.csv")]
        assert cli.main(argv) == 0
        # every functools cache in any module of the loaded package, found by walking them
        caches = {
            id(value): value
            for module_name, module in list(sys.modules.items())
            if module_name.startswith(name + ".")
            for value in vars(module).values()
            if hasattr(value, "cache_info")
        }
        assert runner._constant_texts in caches.values() and runner._names in caches.values()
        assert all(cache.cache_info().currsize for cache in (runner._constant_texts, runner._names))
        ab_inprocess.cache_clearer(name)()
        assert [cache.cache_info().currsize for cache in caches.values()] == [0] * len(caches)
    finally:
        for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
            del sys.modules[module]
