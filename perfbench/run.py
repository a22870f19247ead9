"""Benchmark of the qrecover command line.

Run from the repository root:

    python3 perfbench/run.py --workload mc_echo --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 1

Each job is one call of ``qrecover.cli.main(argv)`` in this process, with
its output captured and its file written to a temporary directory under
``perfbench/results``.  Jobs run one after another (a closed loop with one
client).  A pass is one workload's job list; passes repeat with fresh
parameters while the next one would end within ``--seconds``, and every
file is checked by ``checker.py`` after its pass, outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, each the
median over the traced passes, plus the tracing overhead.  Every time of a
pass is divided by the host factor of ``hostspeed.py``, measured around the
pass, so that the shared host's drifting speed stays out of it.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Each run also writes a JSON-lines record (seed,
argv of every job, versions, core count, CPU model, commit) to
``perfbench/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import checker
import hostspeed
import jobs
import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_REPEATS = 9

# Time a fresh interpreter takes to import the CLI and build its parser.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import qrecover.cli
qrecover.cli.build_parser()
elapsed = time.perf_counter() - start
print(qrecover.__file__)
print(elapsed)
"""

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "peak_rss_mib": "MiB"}
UNIT_OF_SUFFIX = {
    ".calls": "count",
    ".self_s": "s",
    ".overhead_s": "s",
    ".mc_draws": "count",
    ".draw_efficiency": "ratio",
    ".x_route_share": "ratio",
    ".rows_written": "count",
    ".bytes_written": "bytes",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_cli():
    """Import the CLI from this checkout's source tree, nowhere else."""
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module(f"{tracing.PACKAGE}.cli")
    package = sys.modules[tracing.PACKAGE]
    if Path(package.__file__).resolve().parent != SRC / tracing.PACKAGE:
        raise ImportError(f"{tracing.PACKAGE} was imported from {package.__file__}, not {SRC}")
    return cli, package


def measure_setup(repeats: int) -> tuple[float, float]:
    """Median setup time over ``repeats`` fresh interpreters, after one warm-up,
    and the mean host factor before and after them.

    ``-I`` keeps the environment out, so the warm-up writes the bytecode
    cache the timed imports then read, as an installed package would.
    """
    host_before = hostspeed.host_factor()
    times = []
    for i in range(repeats + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        origin, elapsed = done.stdout.split()[-2:]
        if Path(origin).resolve().parent != SRC / tracing.PACKAGE:
            raise ImportError(f"setup imported {origin}, not the checkout's package")
        if i:
            times.append(float(elapsed))
    return statistics.median(times), (host_before + hostspeed.host_factor()) / 2


class Bench:
    """One run of a workload: its passes, job counts and check errors."""

    def __init__(self, cli, workload: str, seed: int, workdir: Path, log):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.log = log
        self.schema = json.loads((ROOT / "output_schema.json").read_text())
        self.check_errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.passes: list[dict] = []
        # Host speed after the last pass, which is also the speed before the next.
        self.host_after: float | None = None

    def run_job(self, spec: dict, out: Path, tracer=None):
        """Run one CLI call; returns (seconds, argv, exit code or None, stderr)."""
        argv = jobs.argv(spec, os.path.relpath(out, ROOT))
        captured_out, captured_err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured_out), contextlib.redirect_stderr(captured_err):
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = tracer.job(self.cli.main, argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash in the program is a failed job, not a crash here
            code = None
            captured_err.write(repr(exc))
        return time.perf_counter() - start, argv, code, captured_err.getvalue().strip()

    def check(self, spec: dict, out: Path, code, message: str) -> tuple[bool, int, int]:
        """Whether the job succeeded, and the rows and bytes of its file."""
        if code != 0:
            self.check_errors.append(f"{out.name}: exit {code}: {message}")
            return False, 0, 0
        rows, errors = checker.check_file(spec, str(out), self.schema)
        self.check_errors.extend(f"{out.name}: {e}" for e in errors)
        return not errors, rows, out.stat().st_size if out.exists() else 0

    def run_pass(self, pass_index: int, tracer=None) -> dict:
        """Run and time one pass, then check its files."""
        specs = jobs.job_list(self.workload, self.seed, pass_index)
        directory = Path(tempfile.mkdtemp(prefix=f"pass{pass_index}-", dir=self.workdir))
        outs = [directory / f"job{i:03d}.{spec['format']}" for i, spec in enumerate(specs)]
        gc.collect()
        host_before = self.host_after or hostspeed.host_factor()
        start = time.perf_counter()
        results = [self.run_job(spec, out, tracer) for spec, out in zip(specs, outs)]
        wall = time.perf_counter() - start
        self.host_after = hostspeed.host_factor()
        rows = nbytes = 0
        for spec, out, (_, _, code, message) in zip(specs, outs, results):
            ok, file_rows, file_bytes = self.check(spec, out, code, message)
            self.failed += not ok
            rows += file_rows
            nbytes += file_bytes
        self.attempted += len(specs)
        shutil.rmtree(directory)
        record = {
            "index": pass_index,
            "traced": tracer is not None,
            "wall_s": wall,
            "job_s": [r[0] for r in results],
            "host_factor": (host_before + self.host_after) / 2,
            "rows": rows,
            "bytes": nbytes,
        }
        # The argv lists go straight to the record file: kept in memory they
        # would grow with the pass count and inflate peak_rss_mib.
        write_line(self.log, {"pass": dict(record, argv=[r[1] for r in results])})
        self.passes.append(record)
        return record

    def run_untimed(self, specs: list[dict]) -> None:
        """Run and check jobs outside the timed passes."""
        directory = Path(tempfile.mkdtemp(prefix="untimed-", dir=self.workdir))
        for i, spec in enumerate(specs):
            out = directory / f"untimed{i}.{spec['format']}"
            _, _, code, message = self.run_job(spec, out)
            self.check(spec, out, code, message)
        shutil.rmtree(directory)

    def run_probes(self, probes: list[tuple[dict, str]]) -> list[dict]:
        """Run the known-defect probes of ``jobs.probe_jobs``, untimed.

        A probe that shows its known defect, or that passes the check once
        the defect is fixed, is not an error; any other outcome is.
        """
        directory = Path(tempfile.mkdtemp(prefix="probe-", dir=self.workdir))
        outcomes = []
        for i, (spec, defect) in enumerate(probes):
            out = directory / f"probe{i}.{spec['format']}"
            _, argv, code, detail = self.run_job(spec, out)
            errors = [f"exit {code}: {detail}"]
            if code == 0:
                errors = checker.check_file(spec, str(out), self.schema)[1]
                loose = checker.check_file(spec, str(out), self.schema, jobs.IMPRECISE_TOL)[1]
                if errors and defect == "imprecise" and not loose:
                    status, detail = "known defect", errors[0]
                else:
                    status = "error" if errors else "fixed"
            elif code == 2 and defect == "rejected":
                status = "known defect"
            else:
                status = "error"
            if status == "error":
                self.check_errors.extend(f"probe {out.name}: {e}" for e in errors)
            outcomes.append(
                {"argv": argv, "defect": defect, "status": status, "exit": code, "detail": detail}
            )
        shutil.rmtree(directory)
        return outcomes


def traced_pass_metrics(totals, draws, routes, record, specs) -> dict[str, float]:
    metrics = {}
    layer_self = defaultdict(float)
    for name in tracing.TRACED_NAMES:
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s / record["host_factor"]
        layer_self[name.split(".")[0]] += self_s / record["host_factor"]
    for layer in tracing.WRAPPED:
        metrics[f"layer.{layer}.self_s"] = layer_self[layer]
    mc_draws = sum(draws)
    useful = sum(s["n_samples"] for s in specs if s.get("method") in ("monte_carlo", "both"))
    metrics["dephasing.mc_draws"] = mc_draws
    # Draws a single pass over each job's samples would need, per draw made;
    # 0 where no job samples.
    metrics["dephasing.draw_efficiency"] = useful / mc_draws if mc_draws else 0.0
    metrics["entanglement.x_route_share"] = routes.count("x_state") / len(routes) if routes else 0.0
    metrics["runner.rows_written"] = record["rows"]
    metrics["runner.bytes_written"] = record["bytes"]
    return metrics


def unit_of(name: str) -> str:
    for suffix, unit in UNIT_OF_SUFFIX.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def run_passes(bench: Bench, seconds: float, tracer=None) -> list[dict]:
    """Run passes until the next one would end after ``seconds``.

    Returns the per-pass traced metrics; when tracing, untraced passes
    interleave with traced ones and at least one of each runs.
    """
    traced_metrics = []
    start = time.perf_counter()
    last = 0.0
    index = 0
    while index < (2 if tracer else 1) or time.perf_counter() - start + last <= seconds:
        pass_start = time.perf_counter()
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
            try:
                record = bench.run_pass(index, tracer)
            finally:
                tracer.uninstall()
            spans, draws, routes = tracer.take()
            specs = jobs.job_list(bench.workload, bench.seed, index)
            totals = tracing.span_totals(spans)
            traced_metrics.append(traced_pass_metrics(totals, draws, routes, record, specs))
            record["spans"] = spans
        else:
            bench.run_pass(index)
        last = time.perf_counter() - pass_start
        index += 1
    return traced_metrics


def write_line(handle, entry: dict) -> None:
    handle.write(json.dumps(entry) + "\n")


def write_spans(path: Path, passes: list[dict]) -> None:
    with gzip.open(path, "wt") as handle:
        handle.write("pass,id,parent,name,start_s,end_s\n")
        for record in passes:
            for span_id, parent, name, start, end in record.pop("spans", ()):
                handle.write(f"{record['index']},{span_id},{parent},{name},{start!r},{end!r}\n")


def environment(package) -> dict:
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
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            commit = done.stdout.strip() or None
        except OSError:
            pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "cpu_model": cpu_model,
        "qrecover_version": getattr(package, "__version__", None),
        "git_commit": commit,
    }


def run_workload(args) -> int:
    cli, package = load_cli()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = RESULTS / f"{stem}.jsonl"
    metrics: dict[str, float] = {}
    notes = []
    setup = measure_setup(SETUP_REPEATS) if args.trace == 0 else None
    with (
        open(record_path, "w") as log,
        tempfile.TemporaryDirectory(prefix=f"{stem}-", dir=RESULTS) as workdir,
    ):
        write_line(log, {"run": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment(package),
            "setup": setup and {"median_s": setup[0], "host_factor": setup[1]},
        }})
        bench = Bench(cli, args.workload, args.seed, Path(workdir), log)
        # Let lazy initialisation finish before timing: one small job per verb.
        bench.run_untimed(jobs.job_list("small_jobs", args.seed, -1)[:5])
        tracer = tracing.Tracer() if args.trace else None
        traced_metrics = run_passes(bench, args.seconds, tracer)
        probes = []
        if args.workload == "small_jobs":
            probes = bench.run_probes(jobs.probe_jobs(args.seed))
            for probe in probes:
                if probe["status"] == "known defect":
                    command = " ".join(probe["argv"][:7])
                    defect, detail = probe["defect"], probe["detail"]
                    notes.append(f"known defect ({defect}): {command} ...: {detail}")
        # Times are rescaled by their pass's host factor; see hostspeed.py.
        untraced = [p["wall_s"] / p["host_factor"] for p in bench.passes if not p["traced"]]
        if args.trace == 0:
            metrics["setup_s"] = setup[0] / setup[1]
            metrics["wall_s"] = statistics.median(untraced)
            metrics["job_p50_s"] = statistics.median(
                t / p["host_factor"] for p in bench.passes for t in p["job_s"]
            )
            metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            # median_low keeps each value one pass's measurement, so counts stay
            # whole numbers.
            for name in traced_metrics[0]:
                metrics[name] = statistics.median_low(m[name] for m in traced_metrics)
            traced_walls = [p["wall_s"] / p["host_factor"] for p in bench.passes if p["traced"]]
            overhead = statistics.median(traced_walls) - statistics.median(untraced)
            metrics["tracing.overhead_s"] = overhead
            write_spans(RESULTS / f"{stem}-spans.csv.gz", bench.passes)
            if tracer.absent:
                notes.append(f"absent from the package, reported as 0: {', '.join(tracer.absent)}")
        result = {
            "correct": not bench.check_errors,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {
                name: {"value": value, "unit": END_TO_END_UNITS.get(name) or unit_of(name)}
                for name, value in metrics.items()
            },
        }
        write_line(log, {
            "probes": probes,
            "absent": tracer.absent if tracer else [],
            "check_errors": bench.check_errors,
            "result": result,
        })

    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(bench.passes)} passes, "
        f"{bench.attempted} jobs, {bench.failed} failed; "
        f"record {os.path.relpath(record_path, ROOT)}"
    )
    for message in bench.check_errors[:10] + notes:
        print(f"  {message}")
    for name, entry in result["metrics"].items():
        print(f"  {name:48s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so memory peaks do not carry over."""
    results = {}
    for workload in jobs.WORKLOADS:
        done = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"{workload}: exit {done.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / tracing.PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no {tracing.PACKAGE} source under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
