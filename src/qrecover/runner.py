"""Sweep runner: declarative configs in, deterministic data files out.

Rows are built serially and written in grid order.  ``workers`` only
spreads the Monte Carlo blocks of an open-loop job over threads, and blocks
are reduced in index order, so a given config and seed produce
byte-identical files for any worker count.  Floats are serialized with 9
significant digits in both the CSV and the JSON-lines formats.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .closedloop import (
    ClosedLoopParams,
    assistance_scan,
    controlled_concurrence_closed,
    uncontrolled_concurrence_closed,
)
from .counts import coincidence_probabilities, estimate_p_prime, estimate_theta, simulate_counts
from .dephasing import NoiseParams
from .entanglement import PreparationModel, eof_from_concurrence
from .openloop import open_loop_series

EXPERIMENTS = ("open_loop", "closed_loop", "assist_scan", "counts_demo")
FORMATS = ("csv", "jsonl")
_FLOAT_FIELDS = ("mu", "sigma", "mean_phase", "p", "p_prime", "theta")
_FIELD_TYPES = (
    ("a string", str, ("experiment", "out", "format", "method", "sweep")),
    (
        "an integer",
        numbers.Integral,
        ("workers", "seed", "steps", "n_samples", "grid_points", "total_pairs"),
    ),
    ("a number", numbers.Real, _FLOAT_FIELDS),
    ("true or false", bool, ("clip_to_hardware",)),
)

OUTPUT_SCHEMAS = {
    "open_loop": {
        "columns": [
            "mu",
            "sigma",
            "fidelity",
            "control",
            "method",
            "step",
            "concurrence",
            "eof",
            "stat_error",
        ],
        "description": (
            "Step-resolved entanglement of the dephased pair; one row per "
            "(fidelity, method, control arm, step).  stat_error is empty for "
            "analytic rows and is the propagated one-sigma coherence error "
            "for monte_carlo rows."
        ),
    },
    "closed_loop": {
        "columns": [
            "sweep",
            "p",
            "theta",
            "fidelity",
            "variant",
            "method",
            "concurrence",
            "eof",
            "stat_error",
        ],
        "description": (
            "Feedback-experiment entanglement along a p or theta sweep; one "
            "row per (fidelity, grid value, variant).  Values come from the "
            "closed forms; stat_error is always empty."
        ),
    },
    "assist_scan": {
        "columns": ["p", "theta", "ensemble_eof", "is_best"],
        "description": (
            "Average post-measurement ensemble entanglement versus the "
            "measurement angle; is_best marks the maximizing grid point."
        ),
    },
    "counts_demo": {
        "columns": ["quantity", "total_pairs", "seed", "true_value", "estimate", "stat_error"],
        "description": (
            "Simulated coincidence-count calibration: Poisson counts are "
            "drawn from the protocol probabilities, then the attenuation "
            "ratio and measurement angle are re-estimated with propagated "
            "errors."
        ),
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a reproducible sweep needs.

    Only the fields relevant to the chosen experiment are read; ``seed`` is
    mandatory whenever sampling is involved (Monte Carlo rows or simulated
    counts).
    """

    experiment: str
    out: str
    format: str = "csv"
    workers: int = 1
    seed: int | None = None
    fidelity: tuple[float, ...] = (1.0,)
    # open loop
    mu: float | None = None
    sigma: float = 0.6
    mean_phase: float = math.pi / 2
    steps: int = 4
    method: str = "analytic"
    n_samples: int = 100_000
    clip_to_hardware: bool = False
    # closed loop / assist scan / counts demo
    sweep: str = "p"
    p: float | None = None
    p_prime: float | None = None
    theta: float | None = None
    grid_points: int | None = None
    total_pairs: int = 4000

    def __post_init__(self):
        self._check_types()
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; expected {EXPERIMENTS}")
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}; expected {FORMATS}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed {self.seed!r} must be >= 0")
        if not self.fidelity:
            raise ValueError("fidelity list must be nonempty")
        object.__setattr__(self, "fidelity", tuple(float(f) for f in self.fidelity))
        named = [(name, getattr(self, name)) for name in _FLOAT_FIELDS]
        for name, value in named + [("fidelity", f) for f in self.fidelity]:
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} {value!r} must be finite")
        if self.grid_points is not None and self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")
        if self.experiment == "open_loop":
            if self.mu is None:
                raise ValueError("open_loop requires mu")
            if self.method not in ("analytic", "monte_carlo", "both"):
                raise ValueError(f"unknown method {self.method!r}")
            if self.method in ("monte_carlo", "both") and self.seed is None:
                raise ValueError("monte_carlo rows require a seed")
        if self.experiment == "closed_loop" and self.sweep not in ("p", "theta"):
            raise ValueError(f"sweep must be 'p' or 'theta', got {self.sweep!r}")
        if self.experiment == "counts_demo":
            if self.seed is None:
                raise ValueError("counts_demo requires a seed")
            # the count ratio identifies an angle only in the first quadrant
            if self.theta is not None and not 0.0 <= self.theta <= math.pi / 2:
                raise ValueError(f"theta {self.theta!r} outside [0, pi/2]")

    def _check_types(self):
        """Reject a value of the wrong type by field name, before any use.

        A field whose default is None may be None.
        """
        for description, kind, names in _FIELD_TYPES:
            for name in names:
                value = getattr(self, name)
                if value is None and self.__dataclass_fields__[name].default is None:
                    continue
                if not _is_a(value, kind):
                    raise ValueError(f"{name} must be {description}, got {value!r}")
        if not isinstance(self.fidelity, (tuple, list)) or not all(
            _is_a(f, numbers.Real) for f in self.fidelity
        ):
            raise ValueError(f"fidelity must be a list of numbers, got {self.fidelity!r}")

    def resolved_p(self, default: float | None = None) -> float | None:
        if self.p_prime is not None:
            params = ClosedLoopParams.from_p_prime(self.p_prime)
            if self.p is not None and abs(self.p - params.p) > 1e-12:
                raise ValueError(
                    f"p {self.p!r} and p_prime {self.p_prime!r} are inconsistent"
                )
            return params.p
        return self.p if self.p is not None else default


def _is_a(value, kind: type) -> bool:
    """isinstance, except that a bool is a bool and never a number."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _format_float(value: float) -> str:
    return f"{value:.9g}"


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return _format_float(value)
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        return float(_format_float(value))
    return value


def write_rows(path: Path, columns: list[str], rows: list[dict], fmt: str) -> None:
    """Write the rows atomically: into a temp file beside ``path``, then rename.

    A failure part way leaves any previous file at ``path`` untouched.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(temp, "x", newline="" if fmt == "csv" else None) as handle:
            if fmt == "csv":
                writer = csv.writer(handle)
                writer.writerow(columns)
                for row in rows:
                    writer.writerow([_format_cell(row.get(c)) for c in columns])
            else:
                for row in rows:
                    record = {c: _json_value(row.get(c)) for c in columns}
                    handle.write(json.dumps(record) + "\n")
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _open_loop_rows(config: RunConfig) -> list[dict]:
    params = NoiseParams(
        mu=config.mu,
        sigma=config.sigma,
        mean_phase=config.mean_phase,
        steps=config.steps,
        clip_to_hardware=config.clip_to_hardware,
    )
    methods = ("analytic", "monte_carlo") if config.method == "both" else (config.method,)
    preps = [PreparationModel.from_fidelity(fidelity) for fidelity in config.fidelity]
    results = open_loop_series(
        params, preps, methods, config.n_samples, config.seed, config.workers
    )
    return [
        {
            "mu": params.mu,
            "sigma": params.sigma,
            "fidelity": result.prep.fidelity,
            "control": result.control_kind,
            "method": result.method,
            "step": result.step,
            "concurrence": result.concurrence,
            "eof": result.eof,
            "stat_error": result.stat_error,
        }
        for result in results
    ]


def _closed_loop_rows(config: RunConfig) -> list[dict]:
    if config.sweep == "p":
        n = config.grid_points or 101
        grid = np.linspace(0.0, 1.0, n)
        theta = config.theta if config.theta is not None else 0.0
        points = [(float(p), theta) for p in grid]
    else:
        n = config.grid_points or 91
        grid = np.linspace(0.0, math.pi / 2.0, n)
        p = config.resolved_p(default=0.5)
        points = [(p, float(theta)) for theta in grid]
    rows = []
    for fidelity in config.fidelity:
        eta = PreparationModel.from_fidelity(fidelity).eta
        for p, theta in points:
            c_unco = uncontrolled_concurrence_closed(p, eta)
            c_cont = controlled_concurrence_closed(theta, eta)
            for variant, c in (("uncontrolled", c_unco), ("controlled", c_cont)):
                rows.append(
                    {
                        "sweep": config.sweep,
                        "p": p,
                        "theta": theta,
                        "fidelity": fidelity,
                        "variant": variant,
                        "method": "analytic",
                        "concurrence": c,
                        "eof": eof_from_concurrence(c),
                        "stat_error": None,
                    }
                )
    return rows


def _assist_scan_rows(config: RunConfig) -> list[dict]:
    p = config.resolved_p()
    if p is None:
        raise ValueError("assist_scan requires p (or p_prime)")
    scan = assistance_scan(p, config.grid_points or 181)
    return [
        {
            "p": p,
            "theta": float(theta),
            "ensemble_eof": float(eof),
            "is_best": int(i == scan.best_index),
        }
        for i, (theta, eof) in enumerate(zip(scan.thetas, scan.eofs))
    ]


def _counts_demo_rows(config: RunConfig) -> list[dict]:
    p = config.resolved_p(default=0.5)
    theta = config.theta if config.theta is not None else 0.0
    if p >= 1.0:
        raise ValueError("counts_demo requires p < 1 (finite attenuation ratio)")
    probabilities = coincidence_probabilities(p, theta)
    counts = simulate_counts(probabilities, config.total_pairs, config.seed)
    ratio, ratio_err = estimate_p_prime(counts)
    angle, angle_err = estimate_theta(counts)
    return [
        {
            "quantity": "p_prime",
            "total_pairs": config.total_pairs,
            "seed": config.seed,
            "true_value": p / (1.0 - p),
            "estimate": ratio,
            "stat_error": ratio_err,
        },
        {
            "quantity": "theta",
            "total_pairs": config.total_pairs,
            "seed": config.seed,
            "true_value": theta,
            "estimate": angle,
            "stat_error": angle_err,
        },
    ]


_BUILDERS = {
    "open_loop": _open_loop_rows,
    "closed_loop": _closed_loop_rows,
    "assist_scan": _assist_scan_rows,
    "counts_demo": _counts_demo_rows,
}


def run(config: RunConfig) -> Path:
    """Evaluate the configured sweep and write the data file; returns its path."""
    path = Path(config.out)
    if not path.parent.exists():
        raise OSError(f"output directory {path.parent} does not exist")
    if path.is_dir():
        raise OSError(f"output path {path} is a directory")
    rows = _BUILDERS[config.experiment](config)
    if not rows:
        raise ValueError("sweep produced no rows")
    columns = OUTPUT_SCHEMAS[config.experiment]["columns"]
    write_rows(path, columns, rows, config.format)
    return path


def output_schema() -> dict:
    """The documented column sets, one entry per experiment."""
    return {name: dict(schema) for name, schema in OUTPUT_SCHEMAS.items()}
