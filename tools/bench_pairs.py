"""Alternating pairs of benchmark runs on two revisions, summarised in one JSON file.

Run from the repository root:

    python3 tools/bench_pairs.py --base <rev> --head <rev> \\
        --workload mc_echo mc_scale --seeds 801 802 803 --out BENCH_<n>.json

Each revision (anything ``git archive`` accepts: a commit, a branch, or a
tree from ``git write-tree``) is exported into a temporary directory, and
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` runs from
each export's own root, with T the ``run_seconds`` of ``BENCHMARK.json``.
For every seed and workload the two sides form a pair; even-numbered pairs
run the base first and odd-numbered ones the head first, so a drift of the
host's speed falls on both sides alike.

For each workload, end-to-end metric and side the file records the median,
minimum and quartiles over the seeds, and per pair which side did better.
Against the metric's ``bound`` in ``BENCHMARK.json`` (a fraction of the
base median) it records ``within_bound``, whether the head median is no
worse than the base median by more than the bound, and ``unresolved``,
whether the base's quartile spread exceeds the bound while some head run
does not beat every base run.  It records ``gain``, the rule a claimed
gain must pass: the head wins at least 9 in 10 of the pairs, a tie
counting for neither side, and its median is better than the base median
by more than ``base_iqr``, the base's quartile spread.  The file also
holds the seeds, the failed-job counts, whether each run's rows passed
the benchmark's checker, the Python and numpy versions, the core count,
the CPU model and both revisions.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "head")


def export(rev: str, directory: Path) -> Path:
    """Write the files of ``rev`` into ``directory`` with ``git archive``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    )
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        # the extraction filter exists from Python 3.10.12 and 3.11.4 on
        filters = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(directory, **filters)
    return directory


def resolve(rev: str) -> str:
    return subprocess.run(
        ["git", "rev-parse", rev], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its result is the JSON object on the last line of stdout."""
    argv = [
        sys.executable, "perfbench/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {done.returncode}: {done.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median, minimum and quartiles (inclusive method) of one side's runs."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "min": min(values),
        "q1": q1,
        "q3": q3,
        "values": values,
    }


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per workload and metric, each side's spread, the pair wins and the bound.

    ``runs`` holds one entry per benchmark run: ``workload``, ``seed``,
    ``side`` ("base" or "head"), ``first`` (the side that ran first in its
    pair) and ``result`` (run.py's JSON result, whose ``correct`` says
    whether the run's rows passed the checker).  ``metrics`` maps each
    end-to-end metric to its ``BENCHMARK.json`` entry: ``better`` ("lower"
    or "higher") and ``bound``, the largest change for the worse, as a
    fraction of the base median.  A pair is a workload and seed with one
    run of each side; a tie counts for neither side.
    """
    by_pair: dict[tuple[str, int], dict[str, dict]] = {}
    firsts: dict[tuple[str, int], str] = {}
    for run in runs:
        key = (run["workload"], run["seed"])
        by_pair.setdefault(key, {})[run["side"]] = run["result"]
        firsts[key] = run["first"]
    workloads: dict[str, dict] = {}
    for (workload, seed), sides in sorted(by_pair.items()):
        if set(sides) != set(SIDES):
            raise ValueError(f"{workload} seed {seed} lacks a run of {set(SIDES) - set(sides)}")
        entry = workloads.setdefault(
            workload,
            {"seeds": [], "first": [], "attempted": {s: [] for s in SIDES},
             "failed": {s: [] for s in SIDES}, "correct": {s: [] for s in SIDES},
             "metrics": {}},
        )
        entry["seeds"].append(seed)
        entry["first"].append(firsts[(workload, seed)])
        for side in SIDES:
            entry["attempted"][side].append(sides[side]["attempted"])
            entry["failed"][side].append(sides[side]["failed"])
            entry["correct"][side].append(sides[side]["correct"])
        for name, declared in metrics.items():
            if not all(name in sides[s]["metrics"] for s in SIDES):
                continue
            direction = declared["better"]
            metric = entry["metrics"].setdefault(
                name,
                {"unit": sides["base"]["metrics"][name]["unit"], "better": direction,
                 "bound": declared["bound"], "values": {s: [] for s in SIDES},
                 "head_wins": 0, "base_wins": 0, "ties": 0},
            )
            base, head = (sides[s]["metrics"][name]["value"] for s in SIDES)
            for side, value in zip(SIDES, (base, head)):
                metric["values"][side].append(value)
            gain = base - head if direction == "lower" else head - base
            metric["head_wins" if gain > 0 else "base_wins" if gain < 0 else "ties"] += 1
    for entry in workloads.values():
        for metric in entry["metrics"].values():
            values = metric.pop("values")
            for side in SIDES:
                metric[side] = spread(values[side])
            base, head = metric["base"], metric["head"]
            metric["median_change"] = head["median"] / base["median"] - 1.0
            metric["base_iqr"] = base["q3"] - base["q1"]
            # the change for the worse, and whether every head run beat every base run
            if metric["better"] == "lower":
                worse, separated = metric["median_change"], max(head["values"]) < base["min"]
            else:
                worse, separated = -metric["median_change"], head["min"] > max(base["values"])
            metric["within_bound"] = worse <= metric["bound"]
            metric["unresolved"] = (
                metric["base_iqr"] / base["median"] > metric["bound"] and not separated
            )
            # the pair rule of a claimed gain; -worse * base median is how much
            # better the head median is, in the metric's unit
            pairs = metric["head_wins"] + metric["base_wins"] + metric["ties"]
            metric["gain"] = (
                10 * metric["head_wins"] >= 9 * pairs
                and -worse * base["median"] > metric["base_iqr"]
            )
    return workloads


def environment() -> dict:
    import numpy

    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "cpu_model": cpu_model,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision measured as the parent")
    parser.add_argument("--head", required=True, help="revision measured as the change")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    revisions = {"base": args.base, "head": args.head}
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as workdir:
        trees = {}
        for side, rev in revisions.items():
            trees[side] = export(rev, Path(workdir) / side)
        for index, seed in enumerate(args.seeds):
            for workload in args.workload:
                order = SIDES if index % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = run_once(trees[side], workload, seed, seconds)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "first": order[0], "result": result})
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"{workload} seed {seed} {side}: wall_s {wall:.4g}, "
                          f"failed {result['failed']}, correct {result['correct']}",
                          file=sys.stderr)
    summary = {
        "command": "perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "revisions": {side: {"rev": rev, "resolved": resolve(rev)}
                      for side, rev in revisions.items()},
        "environment": environment(),
        "workloads": summarize(runs, metrics),
    }
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
