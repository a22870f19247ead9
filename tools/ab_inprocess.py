"""In-process A/B timing of the table builders and ``write_rows`` on two revisions.

Run from the repository root:

    python3 tools/ab_inprocess.py --base <rev> --head <rev> --out AB.json \\
        [--workload small_jobs] [--rounds 5] [--seed 1]

Each revision (anything ``git archive`` accepts) is exported into a
temporary directory, and its ``src/qrecover`` is imported as a package of
its own name, ``qrecover_base`` or ``qrecover_head``; the package imports
its modules relatively, so the two sides share one process and nothing
else.  The job specs are those of ``perfbench/jobs.py`` in this checkout
(passes 0 .. rounds-1 of the workload at the seed), parsed by each side's
own CLI parser outside the timed region.

After one untimed warm-up of every job on both sides, every (round, job,
side) trial runs once, in an order shuffled with the seed.  A trial times
the experiment's builder and then ``write_rows`` of the built table, each
with ``perf_counter_ns``.  A pair is one round and job on both sides; its
difference is head minus base.

The file records, for the builder, ``write_rows`` and their sum: each
side's median, the median paired difference and a 95% bootstrap interval
of it (resampled pairs, seeded), and the count of pairs the head won.
Under ``verbs`` it records the same for the builder and ``write_rows`` of
each CLI verb's jobs alone, so that a change to one verb's tables is not
averaged away among the others.  It also records whether every job wrote
the same bytes on both sides, with the revisions and the Python and numpy
versions.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path


def load_module(name: str, path: Path):
    """Import the file ``path`` as the module ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the sibling tool's export, resolve and environment
bench_pairs = load_module("bench_pairs", Path(__file__).resolve().with_name("bench_pairs.py"))
ROOT = bench_pairs.ROOT
SIDES = bench_pairs.SIDES
STAGES = ("build", "write", "total")
VERB_STAGES = ("build", "write")
BOOTSTRAP = 2000


def load_package(tree: Path, name: str):
    """Import ``tree/src/qrecover`` as the package ``name``; returns its (cli, runner)."""
    source = tree / "src" / "qrecover"
    spec = importlib.util.spec_from_file_location(
        name, source / "__init__.py", submodule_search_locations=[str(source)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli"), importlib.import_module(f"{name}.runner")


def median_interval(diffs: list[float], rng: random.Random) -> tuple[float, float]:
    """The 2.5% and 97.5% points of the median over resamples of ``diffs``."""
    medians = sorted(
        statistics.median(rng.choices(diffs, k=len(diffs))) for _ in range(BOOTSTRAP)
    )
    return medians[int(0.025 * BOOTSTRAP)], medians[int(0.975 * BOOTSTRAP) - 1]


def summarize(times: dict, rng: random.Random, stages=STAGES, keys=None) -> dict:
    """Per stage: medians, paired differences and head wins, in microseconds.

    ``times[side][stage]`` maps each pair key to that side's nanoseconds;
    ``keys``, when given, keeps only those pairs.
    """
    summary = {}
    for stage in stages:
        base, head = times["base"][stage], times["head"][stage]
        pairs = list(base) if keys is None else keys
        diffs = [(head[key] - base[key]) / 1e3 for key in pairs]
        low, high = median_interval(diffs, rng)
        summary[stage] = {
            "unit": "us",
            "pairs": len(diffs),
            "base_median": statistics.median(base[key] for key in pairs) / 1e3,
            "head_median": statistics.median(head[key] for key in pairs) / 1e3,
            "median_difference": statistics.median(diffs),
            "interval_95": [low, high],
            "head_wins": sum(d < 0 for d in diffs),
        }
    return summary


def by_verb(specs: list[dict]) -> dict:
    """The indices of the job specs of each CLI verb."""
    keys = {}
    for index, spec in enumerate(specs):
        keys.setdefault(spec["verb"], []).append(index)
    return keys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision measured as the parent")
    parser.add_argument("--head", required=True, help="revision measured as the change")
    parser.add_argument("--workload", default="small_jobs")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    jobs = load_module("perfbench_jobs", ROOT / "perfbench" / "jobs.py")
    specs = [
        spec
        for round_index in range(args.rounds)
        for spec in jobs.job_list(args.workload, args.seed, round_index)
    ]
    rng = random.Random(args.seed)
    times = {side: {stage: {} for stage in STAGES} for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="ab-inprocess-") as workdir:
        sides = {}
        for side, rev in (("base", args.base), ("head", args.head)):
            tree = bench_pairs.export(rev, Path(workdir) / side)
            cli, runner = load_package(tree, f"qrecover_{side}")
            outs = Path(workdir) / f"out-{side}"
            outs.mkdir()
            configs = [
                cli.config_from_args(cli.build_parser().parse_args(
                    jobs.argv(spec, str(outs / f"{index}.{spec['format']}"))
                ))
                for index, spec in enumerate(specs)
            ]
            sides[side] = (runner, configs)

        def trial(side: str, index: int) -> tuple[int, int]:
            runner, configs = sides[side]
            config = configs[index]
            columns = runner.OUTPUT_SCHEMAS[config.experiment]["columns"]
            start = time.perf_counter_ns()
            table = runner._BUILDERS[config.experiment](config)
            built = time.perf_counter_ns()
            runner.write_rows(Path(config.out), columns, table, config.format)
            return built - start, time.perf_counter_ns() - built

        for side in SIDES:
            for index in range(len(specs)):
                trial(side, index)
        identical = all(
            Path(base.out).read_bytes() == Path(head.out).read_bytes()
            for base, head in zip(sides["base"][1], sides["head"][1])
        )
        trials = [(side, index) for index in range(len(specs)) for side in SIDES]
        rng.shuffle(trials)
        for side, index in trials:
            build, write = trial(side, index)
            for stage, value in zip(STAGES, (build, write, build + write)):
                times[side][stage][index] = value
    summary = {
        "command": f"tools/ab_inprocess.py --workload {args.workload} "
                   f"--rounds {args.rounds} --seed {args.seed}",
        "revisions": {side: {"rev": rev, "resolved": bench_pairs.resolve(rev)}
                      for side, rev in (("base", args.base), ("head", args.head))},
        "environment": bench_pairs.environment(),
        "jobs": len(specs),
        "identical_bytes": identical,
        "stages": summarize(times, rng),
        "verbs": {
            verb: summarize(times, rng, VERB_STAGES, keys)
            for verb, keys in sorted(by_verb(specs).items())
        },
    }
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    report = [("", summary["stages"])] + [(f"{verb} ", s) for verb, s in summary["verbs"].items()]
    for prefix, stages in report:
        for stage, entry in stages.items():
            print(f"{prefix}{stage}: base {entry['base_median']:.1f} us, "
                  f"head {entry['head_median']:.1f} us, "
                  f"paired median {entry['median_difference']:+.1f} us "
                  f"[{entry['interval_95'][0]:+.1f}, {entry['interval_95'][1]:+.1f}], "
                  f"head wins {entry['head_wins']}/{entry['pairs']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
