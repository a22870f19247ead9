"""Sweep runner: declarative configs in, deterministic data files out.

Each experiment builds its table as columns: a mapping from every output
column to its values in grid order, or to one value that repeats on every
row.  The open-loop table is ``openloop.open_loop_series`` with the mu
and sigma columns added.  The closed forms evaluate a whole grid per
call, and ``write_rows`` formats the file column by column (all float
cells of a column in one ``%`` call, each distinct label once), joins
the rows and writes the file with one write.  The bytes are those of
``csv.writer`` and of ``json.dumps`` of each row.
``workers`` only spreads the Monte Carlo blocks of an open-loop job over
threads, and blocks are reduced in index order, so a given config and
seed produce byte-identical files for any worker count.  Float fields are
held as floats, however a config file spells them, and floats are
serialized with 9 significant digits in both the CSV and the JSON-lines
formats.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .closedloop import (
    assistance_scan,
    controlled_concurrence_closed,
    uncontrolled_concurrence_closed,
)
from .counts import (
    EstimationError,
    coincidence_probabilities,
    estimate_p_prime,
    estimate_theta,
    simulate_counts,
)
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
        for name in _FLOAT_FIELDS:
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _finite_float(name, getattr(self, name)))
        fidelity = tuple(_finite_float("fidelity", f) for f in self.fidelity)
        object.__setattr__(self, "fidelity", fidelity)
        if self.grid_points is not None and self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")
        if self.experiment == "open_loop":
            if self.mu is None:
                raise ValueError("open_loop requires mu")
            if self.method not in ("analytic", "monte_carlo", "both"):
                raise ValueError(f"unknown method {self.method!r}")
            if self.method in ("monte_carlo", "both") and self.seed is None:
                raise ValueError("monte_carlo rows require a seed")
        if self.experiment == "closed_loop":
            if self.sweep not in ("p", "theta"):
                raise ValueError(f"sweep must be 'p' or 'theta', got {self.sweep!r}")
            for name in ("p", "p_prime") if self.sweep == "p" else ("theta",):
                if getattr(self, name) is not None:
                    raise ValueError(f"{name} cannot be fixed in a sweep over {self.sweep}")
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
        """``p``, or the weight p'/(1 + p') of a given attenuation ratio p'."""
        if self.p_prime is None:
            return self.p if self.p is not None else default
        if self.p_prime < 0.0:
            raise ValueError(f"attenuation ratio {self.p_prime!r} must be >= 0")
        p = self.p_prime / (1.0 + self.p_prime)
        if self.p is not None and abs(self.p - p) > 1e-12:
            raise ValueError(f"p {self.p!r} and p_prime {self.p_prime!r} are inconsistent")
        return p


def _finite_float(name: str, value) -> float:
    """A real number as a float, once it is finite and within the float range."""
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{name} {value!r} is beyond the float range") from None
    if not math.isfinite(number):
        raise ValueError(f"{name} {value!r} must be finite")
    return number


def _is_a(value, kind: type) -> bool:
    """isinstance, except that a bool is a bool and never a number."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


_SEQUENCES = (list, tuple, np.ndarray)
# csv.writer's minimal quoting: a field holding one of these is quoted
_CSV_QUOTED = frozenset(',"\r\n')


def _cells(values, rows: int, fmt: str) -> list[str]:
    """The text of one column, one cell per row.

    ``values`` is a sequence with one value per row, or one value that
    repeats on ``rows`` rows and is formatted once.  Each cell is written
    by its own type: a float with 9 significant digits (a JSON line holds
    the float they spell), anything else as ``_label`` writes it.  The
    float cells of a column take one ``%`` call, and each distinct other
    value is encoded once.
    """
    if not isinstance(values, _SEQUENCES):
        return _cells([values], 1, fmt) * rows
    if isinstance(values, np.ndarray):
        values = values.tolist()
    kinds = set(map(type, values))
    if len(kinds) > 1:
        # each type's cells are formatted together, then put back in row order
        text = {
            kind: iter(_cells([v for v in values if type(v) is kind], 0, fmt)) for kind in kinds
        }
        return [next(text[type(v)]) for v in values]
    if kinds and issubclass(kinds.pop(), float):
        text = ("%.9g\n" * len(values) % tuple(values)).split("\n")[:-1]
        return list(map(repr, map(float, text))) if fmt == "jsonl" else text
    # equal values of one type have one text
    labels = dict.fromkeys(values)
    for value in labels:
        labels[value] = _label(value, fmt)
    return list(map(labels.__getitem__, values))


def _label(value, fmt: str) -> str:
    """The text of a cell that is not a float, or of a CSV header field."""
    if fmt == "jsonl":
        if value is None:
            return "null"
        if isinstance(value, bool):
            return "true" if value else "false"
        return encode_basestring_ascii(value) if isinstance(value, str) else str(value)
    text = "" if value is None else str(value)
    return text if _CSV_QUOTED.isdisjoint(text) else '"' + text.replace('"', '""') + '"'


def _row_count(table: dict) -> int:
    lengths = {len(v) for v in table.values() if isinstance(v, _SEQUENCES)}
    if len(lengths) != 1:
        raise ValueError(f"a table needs columns of one length, got lengths {sorted(lengths)}")
    return lengths.pop()


def write_rows(path: Path, columns: list[str], table: dict, fmt: str) -> None:
    """Write ``table`` atomically: into a temp file beside ``path``, then rename.

    ``table`` maps each column to its values (see ``_cells``).  The file,
    the bytes ``csv.writer`` writes (header, then rows) or those of
    ``json.dumps({column: value, ...})`` and a newline per row, is formatted
    in full and then written with one write.  A failure part way leaves any
    previous file at ``path`` untouched.
    """
    path = Path(path)
    rows = _row_count(table)
    cells = [_cells(table[column], rows, fmt) for column in columns]
    if fmt == "csv":
        header = ",".join([_label(column, fmt) for column in columns])
        lines = [header, *map(",".join, zip(*cells))]
        if len(columns) == 1:
            # csv.writer quotes the field of a row whose one field is empty
            lines = [line or '""' for line in lines]
        text = "\r\n".join(lines) + "\r\n"
    else:
        # one %-template per row, so a "%" in a column name is doubled
        keys = [encode_basestring_ascii(column).replace("%", "%%") for column in columns]
        line = "{" + ", ".join([f"{key}: %s" for key in keys]) + "}\n"
        text = "".join(map(line.__mod__, zip(*cells)))
    temp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(temp, "x", newline="" if fmt == "csv" else None) as handle:
            handle.write(text)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _open_loop_rows(config: RunConfig) -> dict:
    params = NoiseParams(
        mu=config.mu,
        sigma=config.sigma,
        mean_phase=config.mean_phase,
        steps=config.steps,
        clip_to_hardware=config.clip_to_hardware,
    )
    methods = ("analytic", "monte_carlo") if config.method == "both" else (config.method,)
    preps = [PreparationModel.from_fidelity(fidelity) for fidelity in config.fidelity]
    table = open_loop_series(params, preps, methods, config.n_samples, config.seed, config.workers)
    return {"mu": params.mu, "sigma": params.sigma, **table}


def _closed_loop_rows(config: RunConfig) -> dict:
    """Rows run fidelity-major, then grid point, then variant (uncontrolled first)."""
    if config.sweep == "p":
        grid = np.linspace(0.0, 1.0, config.grid_points or 101)
        p, theta = grid, config.theta if config.theta is not None else 0.0
    else:
        grid = np.linspace(0.0, math.pi / 2.0, config.grid_points or 91)
        p, theta = config.resolved_p(default=0.5), grid
    fidelity = config.fidelity
    eta = np.array([[PreparationModel.from_fidelity(f).eta] for f in fidelity])
    concurrence = np.empty((len(fidelity), grid.size, 2))
    concurrence[..., 0] = uncontrolled_concurrence_closed(p, eta)
    concurrence[..., 1] = controlled_concurrence_closed(theta, eta)
    concurrence = concurrence.ravel()
    table = {
        "sweep": config.sweep,
        "p": p,
        "theta": theta,
        "fidelity": np.array(fidelity).repeat(2 * grid.size),
        "variant": ["uncontrolled", "controlled"] * (grid.size * len(fidelity)),
        "method": "analytic",
        "concurrence": concurrence,
        "eof": eof_from_concurrence(concurrence),
        "stat_error": None,
    }
    # the swept column holds each grid value on both variant rows, per fidelity
    table[config.sweep] = grid.repeat(2).tolist() * len(fidelity)
    return table


def _assist_scan_rows(config: RunConfig) -> dict:
    p = config.resolved_p()
    if p is None:
        raise ValueError("assist_scan requires p (or p_prime)")
    scan = assistance_scan(p, config.grid_points or 181)
    is_best = np.zeros(scan.thetas.size, dtype=int)
    is_best[scan.best_index] = 1
    return {"p": p, "theta": scan.thetas, "ensemble_eof": scan.eofs, "is_best": is_best}


def _counts_demo_rows(config: RunConfig) -> dict:
    p = config.resolved_p(default=0.5)
    theta = config.theta if config.theta is not None else 0.0
    if p >= 1.0:
        raise ValueError("counts_demo requires p < 1 (finite attenuation ratio)")
    probabilities = coincidence_probabilities(p, theta)
    counts = simulate_counts(probabilities, config.total_pairs, config.seed)
    try:
        ratio, ratio_err = estimate_p_prime(counts)
        angle, angle_err = estimate_theta(counts)
    except EstimationError as exc:
        raise EstimationError(
            f"total_pairs {config.total_pairs!r} is too small for the drawn counts: {exc}"
        ) from exc
    return {
        "quantity": ["p_prime", "theta"],
        "total_pairs": config.total_pairs,
        "seed": config.seed,
        "true_value": [p / (1.0 - p), theta],
        "estimate": [ratio, angle],
        "stat_error": [ratio_err, angle_err],
    }


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
    table = _BUILDERS[config.experiment](config)
    write_rows(path, OUTPUT_SCHEMAS[config.experiment]["columns"], table, config.format)
    return path


def output_schema() -> dict:
    """The documented column sets, one entry per experiment."""
    return {name: dict(schema) for name, schema in OUTPUT_SCHEMAS.items()}
