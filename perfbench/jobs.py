"""Seeded job lists for the four benchmark workloads.

A job is one call of the public CLI.  Its spec is a dict of CLI flags and
values, plus the verb; every value the checker needs is written out in the
spec rather than left to a CLI default, so the checker never has to know
the program's defaults.

The workload name, the run seed and the pass index fix the parameter values
of a pass.  A seed never changes the number of jobs, the verbs, n_samples or
grid sizes, so the cost of a pass does not depend on the seed.  Each pass
draws fresh values, so a later cache keyed on repeated inputs cannot make
passes after the first one cheaper.
"""

from __future__ import annotations

import random

WORKLOADS = ("mc_echo", "mc_scale", "feedback", "small_jobs")

MC_ECHO_JOBS = 2
MC_ECHO_SAMPLES = 100_000
MC_SCALE_SAMPLES = 1_000_000
SMALL_JOBS = 200
SMALL_GRID = 5
# Known defects of the program, each shown by untimed probe jobs that run
# next to small_jobs, so the timed workloads stay free of failing work:
# - "rejected": open-loop at 5 or 6 steps exits 2 with "step 5 outside 1..4";
# - "imprecise": at a fidelity within about 3e-6 of 1 the constructed
#   concurrence clamps eigenvalues below 1e-12 of the largest to zero and
#   misses the closed form by up to about 3e-6.  Its probe passes the
#   check at IMPRECISE_TOL but not at the checker's 1e-7.
PROBE_STEPS = (5, 6)
PROBE_FIDELITY = 0.999999
IMPRECISE_TOL = 1e-5


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    # String seeds hash through sha512, so lists repeat across processes.
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _fidelity(rng: random.Random, low: float, high: float) -> float:
    # Quoted to four decimals, as measured fidelities are; this also keeps
    # timed jobs away from the "imprecise" defect, which its probe shows.
    return round(rng.uniform(low, high), 4)


def _open_loop_mc(rng, n_samples, fidelity, workers):
    return {
        "verb": "open-loop",
        "mu": rng.choice((0.3, 0.7, 1.0)),
        "sigma": 0.6,
        "steps": 4,
        "method": "both",
        "n_samples": n_samples,
        "fidelity": fidelity,
        "workers": workers,
        "seed": _seed(rng),
        "format": "csv",
    }


def _open_loop_analytic(rng, steps, fmt):
    return {
        "verb": "open-loop",
        "mu": rng.uniform(0.0, 1.0),
        "sigma": rng.uniform(0.1, 1.3),
        "steps": steps,
        "method": "analytic",
        "fidelity": [_fidelity(rng, 0.8, 1.0)],
        "format": fmt,
    }


def _counts_demo(rng, fmt):
    return {
        "verb": "counts-demo",
        "p": rng.uniform(0.2, 0.8),
        "theta": rng.uniform(0.1, 0.7),
        "total_pairs": 4000,
        "seed": _seed(rng),
        "format": fmt,
    }


def _theta_sweep(rng, grid_points, fidelity, fmt):
    return {
        "verb": "closed-loop",
        "sweep": "theta",
        "p": rng.uniform(0.1, 0.9),
        "grid_points": grid_points,
        "fidelity": fidelity,
        "format": fmt,
    }


def _assist_scan(rng, grid_points, fmt):
    return {
        "verb": "assist-scan",
        "p": rng.uniform(0.1, 0.9),
        "grid_points": grid_points,
        "format": fmt,
    }


def job_list(workload: str, seed: int, pass_index: int) -> list[dict]:
    """The job specs of one pass of a workload."""
    rng = _rng(workload, seed, pass_index)
    if workload == "mc_echo":
        return [
            _open_loop_mc(rng, MC_ECHO_SAMPLES, [1.0, 0.96, 0.9], workers=1)
            for _ in range(MC_ECHO_JOBS)
        ]
    if workload == "mc_scale":
        return [_open_loop_mc(rng, MC_SCALE_SAMPLES, [1.0], workers=2)]
    if workload == "feedback":
        return [
            {
                "verb": "closed-loop",
                "sweep": "p",
                "theta": rng.uniform(0.05, 0.75),
                "grid_points": 101,
                "fidelity": [1.0, _fidelity(rng, 0.85, 0.99), _fidelity(rng, 0.85, 0.99)],
                "format": "csv",
            },
            _theta_sweep(rng, 91, [1.0], "csv"),
            # A fifth job keeps the median job inside one job type: with an
            # even count it falls between two types and jumps with either.
            _theta_sweep(
                rng, 91, [1.0, _fidelity(rng, 0.85, 0.99), _fidelity(rng, 0.85, 0.99)], "csv"
            ),
            _assist_scan(rng, 1001, "csv"),
            _counts_demo(rng, "csv"),
        ]
    if workload == "small_jobs":
        jobs = []
        for i in range(SMALL_JOBS):
            fmt = "csv" if i % 2 == 0 else "jsonl"
            family = i % 5
            if family in (0, 1):
                # 80 open-loop jobs, 20 at each step count 1..4.
                steps = 1 + (2 * (i // 5) + family) % 4
                jobs.append(_open_loop_analytic(rng, steps, fmt))
            elif family == 2:
                jobs.append(_counts_demo(rng, fmt))
            elif family == 3:
                jobs.append(_theta_sweep(rng, SMALL_GRID, [_fidelity(rng, 0.8, 1.0)], fmt))
            else:
                jobs.append(_assist_scan(rng, SMALL_GRID, fmt))
        return jobs
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def probe_jobs(seed: int) -> list[tuple[dict, str]]:
    """The untimed probe jobs, each with the known defect it shows."""
    rng = _rng("probe", seed, 0)
    probes = [
        (_open_loop_analytic(rng, steps, fmt), "rejected")
        for steps, fmt in zip(PROBE_STEPS, ("csv", "jsonl"))
    ]
    probes.append((_theta_sweep(rng, SMALL_GRID, [PROBE_FIDELITY], "csv"), "imprecise"))
    return probes


def argv(spec: dict, out: str) -> list[str]:
    """CLI argv of a job spec writing to ``out``.

    Floats are written with ``repr`` so the CLI parses back the exact value
    the checker uses.
    """
    args = [spec["verb"]]
    for key, value in spec.items():
        if key == "verb":
            continue
        values = value if isinstance(value, list) else [value]
        args.append("--" + key.replace("_", "-"))
        args.extend(repr(v) if isinstance(v, float) else str(v) for v in values)
    args += ["--out", out]
    return args
