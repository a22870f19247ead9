"""Simulated coincidence counting and Poissonian error propagation.

Two count groups are used to calibrate the feedback experiment: the
down/up-path split fixes the attenuation ratio p' = p/(1-p), and the
rotated-output split fixes the measurement angle theta.  Each estimate
depends on the two sums of its group only, and each count C carries a
Poissonian standard error sqrt(C), so a zero count contributes zero error.
The estimators take the sums as numbers or as numpy arrays, which
broadcast; ``simulate_counts`` draws every label's count in one call.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .closedloop import measurement_branches
from .entanglement import as_result, check_count, check_range

# the labels in the order they are drawn: the ``_d``/``_u`` group (HH and VV
# on the down path, HV and VH on the up path) sets the attenuation ratio, the
# ``_1``/``_0`` group (HV and VH on the rotated output modes) the angle
COUNT_LABELS = ("c_hh_d", "c_vv_d", "c_hv_u", "c_vh_u", "c_hv_1", "c_vh_1", "c_hv_0", "c_vh_0")


class EstimationError(ValueError):
    """The counts cannot support the requested estimate."""


def _count_sum(name: str, value) -> np.ndarray:
    """``value`` as a float array, once every element is a nonnegative integer."""
    complaint = "must be a nonnegative integer"
    values = check_range(f"{name} count", value, 0.0, sys.float_info.max, complaint)
    fractional = values != np.floor(values)
    if fractional.any():
        raise ValueError(f"{name} count {float(values[fractional][0])!r} {complaint}")
    return values


def estimate_p_prime(down, up):
    """Attenuation ratio down/up of the down- and up-path count sums, and its error.

    First-order propagation of sqrt(C) per count gives the error
    sqrt(down/up^2 + down^2/up^3).  The sums are numbers or arrays; the
    ratio is undefined where ``up`` is 0.
    """
    down, up = _count_sum("down", down), _count_sum("up", up)
    if (up == 0.0).any():
        raise EstimationError("up-path counts sum to zero; ratio undefined")
    return as_result(down / up), as_result(np.sqrt(down / up**2 + down**2 / up**3))


def estimate_theta(mode0, mode1):
    """Measurement angle arctan(sqrt(mode1/mode0)) of the two mode sums, and its error.

    First-order propagation gives the error (mode0 + mode1)^(-1/2) / 2; with
    no mode-0 counts the angle is pi/2.  The sums are numbers or arrays; the
    angle is undefined where both are 0.
    """
    mode0, mode1 = _count_sum("mode0", mode0), _count_sum("mode1", mode1)
    total = mode0 + mode1
    if (total == 0.0).any():
        raise EstimationError("mode-0 and mode-1 counts sum to zero; angle undefined")
    return as_result(np.arctan2(np.sqrt(mode1), np.sqrt(mode0))), as_result(0.5 / np.sqrt(total))


def simulate_counts(probabilities: dict[str, float], total_pairs: int, seed: int) -> dict[str, int]:
    """Independent Poisson counts with means probability * total_pairs, per label.

    Labels absent from ``probabilities`` count zero.  Deterministic for a
    fixed seed, an integer >= 0: one call draws the labels in
    ``COUNT_LABELS`` order, and a zero mean draws nothing from the stream.
    """
    check_count("total_pairs", total_pairs)
    check_count("seed", seed, 0)
    unknown = set(probabilities) - set(COUNT_LABELS)
    if unknown:
        raise ValueError(f"unknown count labels {sorted(unknown)}")
    lam = np.array([probabilities.get(label, 0.0) for label in COUNT_LABELS], dtype=float)
    # a NaN fails both comparisons
    outside = ~((lam >= 0.0) & (lam <= 1.0))
    if outside.any():
        label = COUNT_LABELS[np.flatnonzero(outside)[0]]
        problem = "negative" if probabilities[label] < 0.0 else "outside [0, 1]"
        raise ValueError(f"probability for {label} is {problem}: {probabilities[label]!r}")
    rng = np.random.default_rng(seed)
    try:
        draws = rng.poisson(lam * float(total_pairs))
    except (ValueError, OverflowError) as exc:
        # a total_pairs beyond a float, or a mean beyond the sampler's range
        # (numpy: "lam value too large")
        raise ValueError(f"total_pairs {total_pairs!r} too large to sample: {exc}") from exc
    return dict(zip(COUNT_LABELS, map(int, draws)))


def coincidence_probabilities(p: float, theta: float) -> dict[str, float]:
    """Per-label detection probabilities implied by the feedback protocol.

    The split group comes from the unrotated post-interaction state
    sqrt(1-p) |psi->|u> + sqrt(p) |phi->|d>: HH and VV on the down path carry
    p/2 each, HV and VH on the up path (1-p)/2 each.  In the angle group, HV
    and VH see only the |psi-> part of each measurement branch:
    (1-p) cos^2(theta)/2 each on mode 0 (outcome u) and (1-p) sin^2(theta)/2
    each on mode 1 (outcome d), or 0 when the branch has probability 0.  The
    mode-1/mode-0 ratio works out to tan^2(theta) for every p.
    """
    (mode0, _), (mode1, _) = measurement_branches(p, theta)
    down = p / 2.0
    up = (1.0 - p) / 2.0
    angle0 = up * math.cos(theta) ** 2 if mode0 > 0.0 else 0.0
    angle1 = up * math.sin(theta) ** 2 if mode1 > 0.0 else 0.0
    return {
        "c_hh_d": down,
        "c_vv_d": down,
        "c_hv_u": up,
        "c_vh_u": up,
        "c_hv_0": angle0,
        "c_vh_0": angle0,
        "c_hv_1": angle1,
        "c_vh_1": angle1,
    }
