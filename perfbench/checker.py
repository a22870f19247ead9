"""Independent checks of the files the CLI writes.

Every expected value is computed here from the physics, not imported from
``qrecover``, so a broken closed form in the package fails the check
instead of agreeing with itself.  The formulas:

* open loop: the live coherence after k steps is half of
  |<exp(-i sum_j s_j chi_j)>|, summed exactly over the 2^(k-1) keep/redraw
  patterns of the correlated phase process; s_j = +1, except that the echo
  flips the sign of the phases after step ``ECHO_AFTER``.  With mixing
  weight eta the concurrence is max(0, eta * magnitude - (1 - eta) / 2);
* closed loop: controlled C = max(0, eta (1 + 2 |cos 2 theta|) - 1) / 2 and
  uncontrolled C = max(0, 2 eta |1 - 2p| - (1 - eta)) / 2;
* assist scan: measuring the path qubit of
  sqrt(1-p)|psi-> |u> + sqrt(p)|phi-> |d> in the theta-rotated basis leaves
  alpha|psi-> + beta|phi-> with concurrence |alpha^2 - beta^2|;
* counts demo: each estimate lies within ``COUNTS_SIGMAS`` of the truth.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

EXPERIMENT_OF_VERB = {
    "open-loop": "open_loop",
    "closed-loop": "closed_loop",
    "assist-scan": "assist_scan",
    "counts-demo": "counts_demo",
}
CONTROL_KINDS = ("uncontrolled", "corrected", "echoed")
ECHO_AFTER = 2

CLOSED_FORM_TOL = 1e-7
EXACT_TOL = 1e-9
# Inputs echoed into a file carry 9 significant digits.
ECHO_TOL = 1e-8
MC_SIGMAS = 5.0
COUNTS_SIGMAS = 6.0
MAX_ERRORS = 5


def eta_of(fidelity: float) -> float:
    return (4.0 * fidelity - 1.0) / 3.0


def eof(c: float) -> float:
    """Entanglement of formation of concurrence c."""
    c = min(1.0, max(0.0, c))
    x = (1.0 + math.sqrt(1.0 - c * c)) / 2.0
    if x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def dephased_magnitude(signs: list[int], mu: float, sigma: float) -> float:
    """|<exp(-i sum_j s_j chi_j)>| over the correlated Gaussian phases.

    Each phase repeats the previous one with probability mu, so a pattern
    of keep/redraw decisions splits the steps into blocks sharing one
    Gaussian draw; a block of signed weight w contributes exp(-w^2 sigma^2/2).
    """
    if not signs:
        return 1.0
    total = 0.0
    for keeps in itertools.product((True, False), repeat=len(signs) - 1):
        probability = 1.0
        weights = [signs[0]]
        for keep, sign in zip(keeps, signs[1:]):
            if keep:
                probability *= mu
                weights[-1] += sign
            else:
                probability *= 1.0 - mu
                weights.append(sign)
        total += probability * math.exp(-0.5 * sigma * sigma * sum(w * w for w in weights))
    return total


def open_loop_concurrence(
    kind: str, k: int, steps: int, mu: float, sigma: float, eta: float
) -> float:
    """Concurrence of one plotted open-loop point, with the arms' fill rule."""
    if kind == "corrected" and k == steps:
        magnitude = 1.0
    elif kind == "echoed" and k > ECHO_AFTER:
        magnitude = dephased_magnitude([1] * ECHO_AFTER + [-1] * (k - ECHO_AFTER), mu, sigma)
    else:
        magnitude = dephased_magnitude([1] * k, mu, sigma)
    return min(1.0, max(0.0, eta * magnitude - (1.0 - eta) / 2.0))


def controlled_concurrence(theta: float, eta: float) -> float:
    return max(0.0, eta * (1.0 + 2.0 * abs(math.cos(2.0 * theta))) - 1.0) / 2.0


def uncontrolled_concurrence(p: float, eta: float) -> float:
    return max(0.0, 2.0 * eta * abs(1.0 - 2.0 * p) - (1.0 - eta)) / 2.0


def assisted_eof(p: float, theta: float) -> float:
    """Average entanglement of the two measurement branches."""
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    total = 0.0
    for psi_weight, phi_weight in ((c2 * (1.0 - p), s2 * p), (s2 * (1.0 - p), c2 * p)):
        probability = psi_weight + phi_weight
        if probability > 0.0:
            total += probability * eof(abs(psi_weight - phi_weight) / probability)
    return total


def grid(start: float, stop: float, n: int) -> list[float]:
    return [start + (stop - start) * i / (n - 1) for i in range(n)]


def read_rows(path: str, fmt: str) -> tuple[list[list[str]], list[dict]]:
    """Column lists and row dicts of a CSV or JSON-lines file.

    A CSV file has one column list, its header; a JSON-lines file has one
    per record.  Empty CSV cells become None, as null does in JSON lines.
    """
    if fmt == "csv":
        with open(path, newline="") as handle:
            table = list(csv.reader(handle))
        if not table:
            return [], []
        header, body = table[0], table[1:]
        rows = [{c: (v if v != "" else None) for c, v in zip(header, line)} for line in body]
        return [header], rows
    with open(path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return [list(r) for r in records], records


def _close(actual, expected: float, tol: float) -> bool:
    return actual is not None and abs(float(actual) - expected) <= tol


def _echoed(actual, expected: float) -> bool:
    """Whether a file value is an input value printed to 9 digits."""
    return _close(actual, expected, ECHO_TOL * max(1.0, abs(expected)))


def _input_of(actual, inputs: list[float]):
    """The input value a file value echoes, or None."""
    return next((x for x in inputs if _echoed(actual, x)), None)


class _Report:
    def __init__(self, tol: float):
        self.tol = tol  # for values that should equal a closed form
        self.errors: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok and len(self.errors) < MAX_ERRORS:
            self.errors.append(message)


def _check_open_loop(spec: dict, rows: list[dict], report: _Report) -> None:
    steps, mu, sigma = spec["steps"], spec["mu"], spec["sigma"]
    methods = ("analytic", "monte_carlo") if spec["method"] == "both" else (spec["method"],)
    expected_keys = {
        (f, m, kind, k)
        for f in spec["fidelity"]
        for m in methods
        for kind in CONTROL_KINDS
        for k in range(steps + 1)
    }
    seen = {}
    for row in rows:
        f = _input_of(row["fidelity"], spec["fidelity"])
        seen[(f, row["method"], row["control"], int(float(row["step"])))] = row
    report.expect(
        set(seen) == expected_keys,
        "rows do not cover each (fidelity, method, control, step) once",
    )
    for (f, method, kind, k), row in seen.items():
        if (f, method, kind, k) not in expected_keys:
            continue
        where = f"F={f} {method} {kind} k={k}"
        report.expect(
            _echoed(row["mu"], mu) and _echoed(row["sigma"], sigma),
            f"{where}: mu/sigma differ from the job",
        )
        eta = eta_of(f)
        c = open_loop_concurrence(kind, k, steps, mu, sigma, eta)
        actual = float(row["concurrence"])
        report.expect(
            _close(row["eof"], eof(actual), report.tol),
            f"{where}: eof {row['eof']} != eof(C={actual})",
        )
        if kind == "corrected" and k == steps:
            report.expect(
                abs(actual - max(0.0, (3.0 * eta - 1.0) / 2.0)) <= EXACT_TOL,
                f"{where}: corrected arm C {actual} != (3 eta - 1)/2",
            )
        if method == "analytic":
            report.expect(row["stat_error"] is None, f"{where}: analytic row has a stat_error")
            report.expect(
                abs(actual - c) <= report.tol,
                f"{where}: C {actual} != closed form {c:.9g}",
            )
            continue
        error = float(row["stat_error"]) if row["stat_error"] is not None else math.nan
        twin = seen.get((f, "analytic", kind, k))
        reference = float(twin["concurrence"]) if twin is not None else c
        tolerance = max(MC_SIGMAS * error, EXACT_TOL)
        report.expect(
            error >= 0.0
            and abs(actual - reference) <= tolerance
            and abs(actual - c) <= tolerance + report.tol,
            f"{where}: MC C {actual} +/- {error} is over {MC_SIGMAS:g} sigma from {reference:.9g}",
        )


def _check_closed_loop(spec: dict, rows: list[dict], report: _Report) -> None:
    n = spec["grid_points"]
    if spec["sweep"] == "p":
        points = [(p, spec["theta"]) for p in grid(0.0, 1.0, n)]
    else:
        points = [(spec["p"], t) for t in grid(0.0, math.pi / 2.0, n)]
    expected = [
        (f, p, theta, variant)
        for f in spec["fidelity"]
        for p, theta in points
        for variant in ("uncontrolled", "controlled")
    ]
    for (f, p, theta, variant), row in zip(expected, rows):
        where = f"F={f} p={p:.6g} theta={theta:.6g} {variant}"
        report.expect(
            row["sweep"] == spec["sweep"]
            and row["variant"] == variant
            and _echoed(row["fidelity"], f)
            and _echoed(row["p"], p)
            and _echoed(row["theta"], theta)
            and row["stat_error"] is None,
            f"{where}: row out of grid order or labels differ: {row}",
        )
        eta = eta_of(f)
        if variant == "controlled":
            c = controlled_concurrence(theta, eta)
        else:
            c = uncontrolled_concurrence(p, eta)
        report.expect(
            _close(row["concurrence"], c, report.tol),
            f"{where}: C {row['concurrence']} != closed form {c:.9g}",
        )
        report.expect(
            _close(row["eof"], eof(c), report.tol),
            f"{where}: eof {row['eof']} != {eof(c):.9g}",
        )


def _check_assist_scan(spec: dict, rows: list[dict], report: _Report) -> None:
    p = spec["p"]
    thetas = grid(0.0, math.pi / 2.0, spec["grid_points"])
    for theta, row in zip(thetas, rows):
        expected = assisted_eof(p, theta)
        report.expect(
            _echoed(row["p"], p) and _echoed(row["theta"], theta),
            f"assist row {row} is off the theta grid",
        )
        report.expect(
            _close(row["ensemble_eof"], expected, report.tol),
            f"theta={theta:.6g}: ensemble_eof {row['ensemble_eof']} != {expected:.9g}",
        )
    best = [row for row in rows if int(float(row["is_best"])) == 1]
    report.expect(len(best) == 1, f"{len(best)} rows are marked is_best, expected 1")
    if best:
        top = max(float(row["ensemble_eof"]) for row in rows)
        report.expect(
            float(best[0]["ensemble_eof"]) >= top - EXACT_TOL,
            "is_best row is not at the maximum",
        )


def _check_counts_demo(spec: dict, rows: list[dict], report: _Report) -> None:
    p, theta = spec["p"], spec["theta"]
    truths = {"p_prime": p / (1.0 - p), "theta": theta}
    report.expect(
        [row["quantity"] for row in rows] == list(truths),
        "counts rows are not p_prime, theta",
    )
    for row in rows:
        truth = truths.get(row["quantity"])
        if truth is None:
            continue
        where = row["quantity"]
        report.expect(
            int(float(row["total_pairs"])) == spec["total_pairs"]
            and int(float(row["seed"])) == spec["seed"],
            f"{where}: total_pairs/seed differ from the job",
        )
        report.expect(
            _echoed(row["true_value"], truth),
            f"{where}: true_value {row['true_value']} != {truth:.9g}",
        )
        error = float(row["stat_error"]) if row["stat_error"] is not None else 0.0
        report.expect(
            error > 0.0 and abs(float(row["estimate"]) - truth) <= COUNTS_SIGMAS * error,
            f"{where}: estimate {row['estimate']} +/- {error} is over "
            f"{COUNTS_SIGMAS:g} sigma from {truth:.9g}",
        )


_CHECKS = {
    "open_loop": _check_open_loop,
    "closed_loop": _check_closed_loop,
    "assist_scan": _check_assist_scan,
    "counts_demo": _check_counts_demo,
}


def expected_rows(spec: dict) -> int:
    verb = spec["verb"]
    if verb == "open-loop":
        methods = 2 if spec["method"] == "both" else 1
        return len(spec["fidelity"]) * methods * len(CONTROL_KINDS) * (spec["steps"] + 1)
    if verb == "closed-loop":
        return len(spec["fidelity"]) * spec["grid_points"] * 2
    if verb == "assist-scan":
        return spec["grid_points"]
    return 2


def check_file(
    spec: dict, path: str, schema: dict, tol: float = CLOSED_FORM_TOL
) -> tuple[int, list[str]]:
    """Number of data rows in the job's file and the problems found in it."""
    experiment = EXPERIMENT_OF_VERB[spec["verb"]]
    columns = schema[experiment]["columns"]
    report = _Report(tol)
    try:
        headers, rows = read_rows(path, spec["format"])
    except (OSError, ValueError) as exc:
        return 0, [f"cannot read {path}: {exc}"]
    report.expect(
        bool(headers) and all(h == columns for h in headers),
        f"columns {headers[:1]} != schema {columns}",
    )
    report.expect(
        len(rows) == expected_rows(spec),
        f"{len(rows)} rows, expected {expected_rows(spec)}",
    )
    if not report.errors:
        try:
            _CHECKS[experiment](spec, rows, report)
        except (KeyError, TypeError, ValueError) as exc:
            report.expect(False, f"malformed row: {exc!r}")
    return len(rows), report.errors
