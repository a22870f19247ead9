"""Sweep runner: declarative configs in, deterministic data files out.

Each experiment builds its table as columns on a row grid, whose cells in
C order are the file's rows: an ndarray column broadcasts against the
grid (numpy's rule), and any other value is one value on every row, the
0-d case of the same rule.  The closed-loop table has the grid
(fidelity, grid point, variant): its fidelities are an (F, 1, 1) array,
the swept values (1, G, 1), the two variants (2,) and the concurrences
(F, G, 2).  The open-loop table is ``openloop.open_loop_series`` on the
grid (fidelity, method, arm, step), with the mu and sigma columns added;
the counts-demo table holds its two quantities as (2,) arrays.
``write_rows`` formats each column once at its own shape (its float
cells in one ``%`` call, each distinct label once), spreads
the texts over the grid and writes the whole file from one row template
with one ``%`` and one write.  The bytes are those of ``csv.writer`` and
of ``json.dumps`` of each row.  A read-only ndarray column is a
constant: a shared axis (arm, variant, quantity), or a swept grid, which
its builder marks read-only as it puts it in the table; a grid is new for
each job but has the same values for the same end point and size.  So
the texts of one of at most 1024 cells are made once per process for
each (column, format, contents) and kept for later files; every other
column is formatted for each file.
``workers`` only spreads the Monte Carlo blocks of an open-loop job over
threads, one strided share of the blocks per thread, and the block sums
are added up in block order, so a given config and seed produce
byte-identical files for any worker count.  Float fields are
held as floats, however a config file spells them, and floats are
serialized with 9 significant digits in both the CSV and the JSON-lines
formats.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import math
import numbers
import os
import threading
from dataclasses import dataclass, fields
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .closedloop import (
    assistance_scan,
    controlled_concurrence_closed,
    sweep_grid,
    uncontrolled_concurrence_closed,
)
from .counts import (
    EstimationError,
    coincidence_probabilities,
    estimate_p_prime,
    estimate_theta,
    simulate_counts,
)
from .entanglement import check_count, eof_from_concurrence, eta_from_fidelity
from .openloop import METHODS, open_loop_series

# the RunConfig fields each experiment reads, in the order of its CLI flags
PARAMETERS = {
    "open_loop": (
        "out", "format", "workers", "seed", "mu", "sigma", "mean_phase", "steps",
        "fidelity", "method", "n_samples", "clip_to_hardware",
    ),
    "closed_loop": ("out", "format", "sweep", "p", "p_prime", "theta", "grid_points", "fidelity"),
    "assist_scan": ("out", "format", "p", "p_prime", "grid_points"),
    "counts_demo": ("out", "format", "seed", "p", "p_prime", "theta", "total_pairs"),
}
EXPERIMENTS = tuple(PARAMETERS)
FORMATS = ("csv", "jsonl")
# the values each string field other than experiment and out may take
CHOICES = {"format": FORMATS, "method": (*METHODS, "both"), "sweep": ("p", "theta")}
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

    An experiment reads only its ``PARAMETERS`` fields, and every other
    field must keep its default; ``seed`` is mandatory whenever sampling is
    involved (Monte Carlo rows or simulated counts).  Every field is
    checked whatever the experiment, so format, method and sweep must each
    be one of its ``CHOICES``.
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
        for name, choices in CHOICES.items():
            if getattr(self, name) not in choices:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}; expected {choices}")
        check_count("workers", self.workers)
        if self.seed is not None:
            check_count("seed", self.seed, 0)
        if not self.fidelity:
            raise ValueError("fidelity list must be nonempty")
        for name in _FLOAT_FIELDS:
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _finite_float(name, getattr(self, name)))
        fidelity = tuple(_finite_float("fidelity", f) for f in self.fidelity)
        object.__setattr__(self, "fidelity", fidelity)
        unread = [
            name for name, default in _UNREAD[self.experiment] if getattr(self, name) != default
        ]
        if unread:
            raise ValueError(
                f"{self.experiment} does not read {', '.join(unread)}; leave them at their defaults"
            )
        if self.grid_points is not None:
            check_count("grid_points", self.grid_points, 2)
        if self.experiment == "open_loop":
            if self.mu is None:
                raise ValueError("open_loop requires mu")
            # checked for every method, so a config is right or wrong for all of them
            check_count("n_samples", self.n_samples)
            if self.method in ("monte_carlo", "both") and self.seed is None:
                raise ValueError("monte_carlo rows require a seed")
        if self.experiment == "closed_loop":
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


# the fields each experiment does not read, with the default each must keep
_UNREAD = {
    experiment: tuple(
        (f.name, f.default) for f in fields(RunConfig) if f.name not in ("experiment", *names)
    )
    for experiment, names in PARAMETERS.items()
}


def _finite_float(name: str, value) -> float:
    """A real number as a float, once it is finite and within the float range."""
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{name} {value!r} is beyond the float range") from None
    if not math.isfinite(number):
        raise ValueError(f"{name} {value!r} must be finite")
    return number


# the builtin type of each kind of field, checked before the slower numbers ABCs
_BUILTIN = {str: str, numbers.Integral: int, numbers.Real: float, bool: bool}


def _is_a(value, kind: type) -> bool:
    """isinstance, except that a bool is a bool and never a number."""
    if type(value) is _BUILTIN[kind]:
        return True
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


# the type of every cell that ``tolist`` gives for an ndarray of numbers,
# by its scalar type; a long double keeps its numpy type, so it is not here
_CELL_TYPES = {
    **{np.dtype(code).type: int for code in np.typecodes["AllInteger"]},
    **{np.dtype(code).type: float for code in "efd"},
}
# csv.writer's minimal quoting: a field holding one of these is quoted
_CSV_QUOTED = frozenset(',"\r\n')


def _column(
    name: str, values: list, fmt: str, inline: bool, kind: type | None
) -> tuple[str, list]:
    """The template field of column ``name``'s values, and its %-arguments, one per value.

    Each cell is written by its own type: a float with 9 significant digits
    (a JSON line holds the float they spell), anything else as ``_label``
    writes it.  The field is ``%s`` and the arguments are the texts: the
    floats take one ``%`` call, an int is its ``str`` in both formats, and
    each distinct other value is encoded once.  With ``inline``, a column
    of ints is instead the field ``%d``, and a CSV column of floats the
    field ``%.9g``; the arguments are then the values themselves.  A cell
    that is not None, a bool, a str or a real number (a numbers.Integral
    is one) is a ValueError naming the column.  ``kind`` is the type of
    every cell when the caller knows it, or None to find it.
    """
    kinds = {kind} if kind else set(map(type, values))
    if len(kinds) > 1:
        # each type's cells are formatted together, then put back in order
        text = {
            kind: iter(
                _column(name, [v for v in values if type(v) is kind], fmt, False, kind)[1]
            )
            for kind in kinds
        }
        return "%s", [next(text[type(v)]) for v in values]
    kind = kinds.pop() if kinds else None
    if kind is int:
        return ("%d", values) if inline else ("%s", list(map(str, values)))
    if kind and issubclass(kind, float):
        if inline and fmt == "csv":
            return "%.9g", values
        text = ("%.9g\n" * len(values) % tuple(values)).split("\n")[:-1]
        return "%s", list(map(repr, map(float, text))) if fmt == "jsonl" else text
    # numpy numbers (an np.int64 seed from a config file) are cells too
    if kind and not issubclass(kind, (type(None), str, numbers.Real)):
        raise ValueError(f"column {name!r} holds a {kind.__name__}, not a str, number or None")
    # equal values of one type have one text
    labels = dict.fromkeys(values)
    for value in labels:
        labels[value] = _label(value, fmt)
    return "%s", list(map(labels.__getitem__, values))


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


def _row_grid(table: dict) -> tuple[int, ...]:
    """The shape of the table's row grid, whose cells in C order are the rows:
    the broadcast shape of its ndarray columns, which must have an axis."""
    arrays = [values for values in table.values() if isinstance(values, np.ndarray)]
    try:
        grid = np.broadcast(*arrays).shape
    except ValueError:
        grid = ()
    if not grid:
        raise ValueError(
            f"a table needs array columns that broadcast to a grid with an axis, "
            f"got shapes {sorted(array.shape for array in arrays)}"
        )
    return grid


def _spread(values: list, shape: tuple[int, ...], grid: tuple[int, ...]) -> list:
    """The cells of an array of ``shape``, ``values`` in C order, broadcast to ``grid``."""
    shape = (1,) * (len(grid) - len(shape)) + shape
    block = 1  # the cells of one step along the axis, in the spread part
    for size, own in zip(reversed(grid), reversed(shape)):
        if own != size:
            if block == 1:
                # each cell repeated, from ``size`` iterators over the same list
                values = list(chain.from_iterable(zip(*[values] * size)))
            elif len(values) == block:
                values = values * size
            else:
                values = [
                    value
                    for start in range(0, len(values), block)
                    for value in values[start : start + block] * size
                ]
        block *= size
    return values


def _file_text(columns: list[str], table: dict, fmt: str) -> str:
    """The whole file: one row template, applied to every row by one ``%``.

    Each ndarray column is formatted once at its own shape (``_column``),
    and any other value is one cell.  The text of a column with one value
    is part of the template; any other column's arguments are spread over
    the row grid in C order.  A read-only ndarray column of at most
    ``_KEPT_CELLS`` cells, none of them an object, is a constant, whose
    texts come from ``_constant_texts``.  Of
    the other columns, one with an int on every row is a ``%d`` field, and
    a CSV column with a float on every row a ``%.9g`` field, formatted by
    the ``%`` itself.
    """
    grid = _row_grid(table)
    rows = math.prod(grid)
    # csv.writer quotes the field of a row whose one field is empty
    quote_empty = fmt == "csv" and len(columns) == 1
    fields, cells = [], []
    for column in columns:
        values = table[column]
        if not isinstance(values, np.ndarray):
            field, values = _column(column, [values], fmt, False, None)
        elif not (values.flags.writeable or values.dtype.hasobject) and values.size <= _KEPT_CELLS:
            field, values = "%s", _constant_texts(column, fmt, values.dtype, values.tobytes())
        else:
            inline = values.size == rows > 1
            kind = _CELL_TYPES.get(values.dtype.type)
            field, values = _column(column, values.ravel().tolist(), fmt, inline, kind)
        if quote_empty and field == "%s":
            values = [text or '""' for text in values]
        if len(values) == 1:
            # the same text on every row is part of the template
            fields.append(values[0].replace("%", "%%"))
        else:
            fields.append(field)
            shape = table[column].shape  # only an ndarray holds more than one value
            cells.append(values if len(values) == rows else _spread(values, shape, grid))
    # the %-arguments: each row's cells, row after row
    arguments = [None] * (rows * len(cells))
    for index, values in enumerate(cells):
        arguments[index :: len(cells)] = values
    head, keys = _names(tuple(columns), fmt)
    if fmt == "csv":
        template = ",".join(fields) + "\r\n"
    else:
        template = "{" + ", ".join([f"{key}: {field}" for key, field in zip(keys, fields)]) + "}\n"
    return head + template * rows % tuple(arguments)


# the most cells of a constant column whose texts are kept; a longer one is
# formatted for each file, so the 32 kept texts of number columns, with
# their keys, take at most about 3 MiB
_KEPT_CELLS = 1024


@functools.lru_cache(maxsize=32)
def _constant_texts(column: str, fmt: str, dtype: np.dtype, contents: bytes) -> tuple[str, ...]:
    """The texts of a read-only column's cells in C order, ``_column``'s
    ``%s`` arguments for the values that ``contents`` holds as ``dtype``.

    The key is the column's contents, not the array, so a read-only view
    of an array that has since changed gets the texts of its new values.
    At most 32 are kept, each the texts of at most ``_KEPT_CELLS`` cells.
    """
    values = np.frombuffer(contents, dtype).tolist()
    return tuple(_column(column, values, fmt, False, _CELL_TYPES.get(dtype.type))[1])


@functools.lru_cache(maxsize=16)
def _names(columns: tuple[str, ...], fmt: str) -> tuple[str, tuple[str, ...]]:
    """The column names as a file spells them: the CSV header line, or the
    JSON key of each column, "%" doubled for the row template."""
    if fmt == "csv":
        header = ",".join([_label(column, fmt) for column in columns])
        return (header or '""') + "\r\n", ()
    return "", tuple(encode_basestring_ascii(column).replace("%", "%%") for column in columns)


def write_rows(path: Path, columns: list[str], table: dict, fmt: str) -> None:
    """Write ``table`` atomically: into a temp file beside ``path``, then rename.

    ``table`` maps each column to its values on a row grid (``_row_grid``):
    an ndarray broadcasts against the grid, and any other value is one
    value on every row.  The rows are the grid's cells in C order, and a
    cell is None, a bool, a str, a ``numbers.Integral`` or a
    ``numbers.Real``; any other cell is a ValueError naming its column,
    raised before a file is opened.  A read-only ndarray column of at most
    ``_KEPT_CELLS`` cells is taken for a constant: its texts are
    kept for later calls, keyed on its contents (``_constant_texts``).
    The file, the bytes ``csv.writer`` writes (header, then rows) or those
    of ``json.dumps({column: value, ...})`` and a newline per row, is
    formatted in full (``_file_text``) and then written with one write.  A failure part way leaves any previous
    file at ``path`` untouched.
    """
    text = _file_text(columns, table, fmt)
    directory, name = os.path.split(path)
    temp = os.path.join(directory, f".{name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(temp, "x", newline="" if fmt == "csv" else None) as handle:
            handle.write(text)
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        raise


def _open_loop_rows(config: RunConfig) -> dict:
    methods = ("analytic", "monte_carlo") if config.method == "both" else (config.method,)
    table = open_loop_series(
        config.mu, config.sigma, config.fidelity, steps=config.steps,
        mean_phase=config.mean_phase, clip_to_hardware=config.clip_to_hardware,
        methods=methods, n_samples=config.n_samples, seed=config.seed, workers=config.workers,
    )
    return {"mu": config.mu, "sigma": config.sigma, **table}


# the variant axis of a closed-loop table; read-only, since every table shares it
_VARIANTS = np.array(["uncontrolled", "controlled"])
_VARIANTS.flags.writeable = False


def _closed_loop_rows(config: RunConfig) -> dict:
    """The table on the row grid (fidelity, grid point, variant).

    ``fidelity`` has shape (F, 1, 1), the swept column (1, G, 1), ``variant``
    (2,) with the uncontrolled variant first, and ``concurrence`` and ``eof``
    (F, G, 2); the other columns are one value each.
    """
    if config.sweep == "p":
        grid = sweep_grid(1.0, config.grid_points or 101)
        p, theta = grid, config.theta if config.theta is not None else 0.0
    else:
        grid = sweep_grid(math.pi / 2.0, config.grid_points or 91)
        p, theta = config.resolved_p(default=0.5), grid
    grid.flags.writeable = False
    fidelity = np.array(config.fidelity).reshape(-1, 1, 1)
    eta = eta_from_fidelity(fidelity[:, 0])
    concurrence = np.empty((len(config.fidelity), grid.size, 2))
    concurrence[..., 0] = uncontrolled_concurrence_closed(p, eta)
    concurrence[..., 1] = controlled_concurrence_closed(theta, eta)
    table = {
        "sweep": config.sweep,
        "p": p,
        "theta": theta,
        "fidelity": fidelity,
        "variant": _VARIANTS,
        "method": "analytic",
        "concurrence": concurrence,
        "eof": eof_from_concurrence(concurrence),
        "stat_error": None,
    }
    table[config.sweep] = grid.reshape(1, -1, 1)
    return table


def _assist_scan_rows(config: RunConfig) -> dict:
    p = config.resolved_p()
    if p is None:
        raise ValueError("assist_scan requires p (or p_prime)")
    thetas, eofs = assistance_scan(p, config.grid_points or 181)
    thetas.flags.writeable = False
    # the first angle, theta = 0, is the maximum for every p (closedloop)
    is_best = np.zeros(thetas.size, dtype=int)
    is_best[0] = 1
    return {"p": p, "theta": thetas, "ensemble_eof": eofs, "is_best": is_best}


# the quantity axis of a counts-demo table; read-only, since every table shares it
_QUANTITIES = np.array(["p_prime", "theta"])
_QUANTITIES.flags.writeable = False


def _counts_demo_rows(config: RunConfig) -> dict:
    p = config.resolved_p(default=0.5)
    theta = config.theta if config.theta is not None else 0.0
    if p >= 1.0:
        raise ValueError("counts_demo requires p < 1 (finite attenuation ratio)")
    probabilities = coincidence_probabilities(p, theta)
    counts = simulate_counts(probabilities, config.total_pairs, config.seed)
    try:
        ratio, ratio_err = estimate_p_prime(
            counts["c_hh_d"] + counts["c_vv_d"], counts["c_hv_u"] + counts["c_vh_u"]
        )
        angle, angle_err = estimate_theta(
            counts["c_hv_0"] + counts["c_vh_0"], counts["c_hv_1"] + counts["c_vh_1"]
        )
    except EstimationError as exc:
        raise EstimationError(
            f"total_pairs {config.total_pairs!r} is too small for the drawn counts: {exc}"
        ) from exc
    return {
        "quantity": _QUANTITIES,
        "total_pairs": config.total_pairs,
        "seed": config.seed,
        "true_value": np.array([p / (1.0 - p), theta]),
        "estimate": np.array([ratio, angle]),
        "stat_error": np.array([ratio_err, angle_err]),
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
    # through the Path, since "" spells the current directory only as a Path
    if not os.path.isdir(path.parent):
        state = "is not a directory" if os.path.exists(path.parent) else "does not exist"
        raise OSError(f"output directory {path.parent} {state}")
    if os.path.isdir(path):
        raise OSError(f"output path {path} is a directory")
    table = _BUILDERS[config.experiment](config)
    write_rows(path, OUTPUT_SCHEMAS[config.experiment]["columns"], table, config.format)
    return path


def output_schema() -> dict:
    """The documented column sets, one entry per experiment: a copy the caller may change."""
    return copy.deepcopy(OUTPUT_SCHEMAS)
