"""In-process A/B timing of parses, builders, ``write_rows`` and whole CLI jobs on two revisions.

Run from the repository root:

    python3 tools/ab_inprocess.py --base <rev> --head <rev> --out AB.json \\
        [--workload small_jobs] [--rounds 5] [--seed 1] [--cold]

Each revision (anything ``git archive`` accepts) is exported into a
temporary directory, and its ``src/qrecover`` is imported as a package of
its own name, ``qrecover_base`` or ``qrecover_head``; the package imports
its modules relatively, so the sides share one process and nothing
else.  The base is imported a second time, as ``qrecover_null``, so that
base against itself gives the width of an interval for code that did not
change.  The job specs are those of ``perfbench/jobs.py`` in this checkout
(passes 0 .. rounds-1 of the workload at the seed), parsed by each side's
own CLI parser outside the timed region for the builder and ``write_rows``.

After one untimed warm-up of every job on every side, every (round, job,
side) trial runs once, in an order shuffled with the seed.  The warm-up
fills each side's own caches, so the timed trials take the hit path, as
every perfbench pass after the first does.  With ``--cold``, every
functools cache of a side's package is cleared before a trial's parse and
again before its job, so every stage takes the miss path and ``parse`` is
what a one-shot CLI process pays.  Clearing also leaves the allocator and
the CPU caches cold, so a cold absolute median includes the clearing
itself: only the paired differences, where both sides clear alike, mean
anything.  A trial times, each with ``perf_counter_ns``, the parse of the
job's argv (each side's ``cli._parse_args``), the experiment's builder,
then ``write_rows`` of the built table, then the whole job
(``cli.main(argv)``, stdout captured).  A pair is one round and job on the
base and the head, or on the base and the null; its difference is head
(or null) minus base.  Every side writes its files into one shared directory.

The file records, for the parse, the builder, ``write_rows``, the sum of
the builder and ``write_rows`` and the whole job: each side's median, the
median paired difference and a 95% bootstrap interval of it (resampled
pairs, seeded), and the count of pairs the head won.  Under ``verbs`` it
records the same for the parse, the builder, ``write_rows`` and the job
of each CLI verb's jobs alone, so that a change to one verb's tables is
not averaged away among the others.  Every entry also records
the null pairs' interval, ``null_interval_95``, its width ``null_width``
and ``clear_of_null``, whether the A/B interval misses 0 by more than that
width: an interval that excludes 0 by less is noise.  The file records
whether every job wrote the same bytes on base and head, with the
revisions and the Python and numpy versions.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
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
SIDES = bench_pairs.SIDES + ("null",)
STAGES = ("parse", "build", "write", "total", "job")
VERB_STAGES = ("parse", "build", "write", "job")
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


def cache_clearer(name: str):
    """A function that clears every functools cache of the package ``name``'s modules."""
    caches = [
        value.cache_clear
        for module_name, module in list(sys.modules.items())
        if module_name.startswith(f"{name}.")
        for value in vars(module).values()
        if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == module_name
    ]

    def clear() -> None:
        for cache_clear in caches:
            cache_clear()

    return clear


def median_interval(diffs: list[float], rng: random.Random) -> tuple[float, float]:
    """The 2.5% and 97.5% points of the median over resamples of ``diffs``."""
    medians = sorted(
        statistics.median(rng.choices(diffs, k=len(diffs))) for _ in range(BOOTSTRAP)
    )
    return medians[int(0.025 * BOOTSTRAP)], medians[int(0.975 * BOOTSTRAP) - 1]


def summarize(
    times: dict, rng: random.Random, stages=STAGES, keys=None, sides=("base", "head")
) -> dict:
    """Per stage: medians, paired differences and head wins, in microseconds.

    ``times[side][stage]`` maps each pair key to that side's nanoseconds;
    ``keys``, when given, keeps only those pairs.  ``sides`` names the base
    and the head of each pair.
    """
    summary = {}
    for stage in stages:
        base, head = (times[side][stage] for side in sides)
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


def add_null(summary: dict, null: dict) -> dict:
    """``summary`` with, per stage, the interval of the null pairs and its width.

    An A/B interval is clear of the null when it misses 0 by more than the
    width of the null interval of the same stage.
    """
    for stage, entry in summary.items():
        low, high = null[stage]["interval_95"]
        width = high - low
        entry["null_interval_95"] = [low, high]
        entry["null_width"] = width
        entry["clear_of_null"] = entry["interval_95"][1] < -width or entry["interval_95"][0] > width
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
    parser.add_argument(
        "--cold", action="store_true",
        help="clear each side's caches before every timed stage (the miss path)",
    )
    args = parser.parse_args(argv)
    revisions = {"base": args.base, "head": args.head, "null": args.base}
    jobs = load_module("perfbench_jobs", ROOT / "perfbench" / "jobs.py")
    specs = [
        spec
        for round_index in range(args.rounds)
        for spec in jobs.job_list(args.workload, args.seed, round_index)
    ]
    rng = random.Random(args.seed)
    times = {side: {stage: {} for stage in STAGES} for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="ab-inprocess-") as workdir:
        # one output directory for every side, since the cost of creating and
        # renaming a file can differ by directory (by 100 us a job on ext4)
        outs = Path(workdir) / "out"
        outs.mkdir()
        loaded = {}
        for side in SIDES:
            tree = bench_pairs.export(revisions[side], Path(workdir) / side)
            cli, runner = load_package(tree, f"qrecover_{side}")
            argvs = [
                jobs.argv(spec, str(outs / f"{side}-{index}.{spec['format']}"))
                for index, spec in enumerate(specs)
            ]
            configs = [cli.config_from_args(cli.build_parser().parse_args(a)) for a in argvs]
            clear = cache_clearer(f"qrecover_{side}") if args.cold else lambda: None
            loaded[side] = (cli, runner, argvs, configs, clear)

        def trial(side: str, index: int) -> tuple[int, int, int, int]:
            cli, runner, argvs, configs, clear = loaded[side]
            config = configs[index]
            columns = runner.OUTPUT_SCHEMAS[config.experiment]["columns"]
            clear()
            parsing = time.perf_counter_ns()
            cli._parse_args(argvs[index])
            start = time.perf_counter_ns()
            table = runner._BUILDERS[config.experiment](config)
            built = time.perf_counter_ns()
            runner.write_rows(Path(config.out), columns, table, config.format)
            written = time.perf_counter_ns()
            clear()
            # the whole job rewrites the same file; its printed path is kept off the terminal
            with contextlib.redirect_stdout(io.StringIO()):
                called = time.perf_counter_ns()
                code = cli.main(argvs[index])
                returned = time.perf_counter_ns()
            if code != 0:
                raise RuntimeError(f"{side} job {argvs[index]} exited {code}")
            return start - parsing, built - start, written - built, returned - called

        for side in SIDES:
            for index in range(len(specs)):
                trial(side, index)
        identical = all(
            Path(base.out).read_bytes() == Path(head.out).read_bytes()
            for base, head in zip(loaded["base"][3], loaded["head"][3])
        )
        trials = [(side, index) for index in range(len(specs)) for side in SIDES]
        rng.shuffle(trials)
        for side, index in trials:
            parse, build, write, job = trial(side, index)
            for stage, value in zip(STAGES, (parse, build, write, build + write, job)):
                times[side][stage][index] = value

    def summaries(stages=STAGES, keys=None) -> dict:
        null = summarize(times, rng, stages, keys, ("base", "null"))
        return add_null(summarize(times, rng, stages, keys), null)

    summary = {
        "command": f"tools/ab_inprocess.py --workload {args.workload} "
                   f"--rounds {args.rounds} --seed {args.seed}" + " --cold" * args.cold,
        "revisions": {side: {"rev": rev, "resolved": bench_pairs.resolve(rev)}
                      for side, rev in (("base", args.base), ("head", args.head))},
        "environment": bench_pairs.environment(),
        # the files are written here, and creating and renaming them is most of a small job
        "temp_dir": tempfile.gettempdir(),
        "jobs": len(specs),
        "identical_bytes": identical,
        "stages": summaries(),
        "verbs": {
            verb: summaries(VERB_STAGES, keys) for verb, keys in sorted(by_verb(specs).items())
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
                  f"head wins {entry['head_wins']}/{entry['pairs']}, "
                  f"null width {entry['null_width']:.1f} us", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
