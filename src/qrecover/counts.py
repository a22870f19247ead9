"""Simulated coincidence counting and Poissonian error propagation.

Two count groups are used to calibrate the feedback experiment: the
down/up-path split fixes the attenuation ratio p' = p/(1-p), and the
rotated-output split fixes the measurement angle theta.  Each count C
carries a Poissonian standard error sqrt(C); a zero count contributes zero
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .closedloop import measurement_branches

SPLIT_FIELDS = ("c_hh_d", "c_vv_d", "c_hv_u", "c_vh_u")
ANGLE_FIELDS = ("c_hv_1", "c_vh_1", "c_hv_0", "c_vh_0")


class EstimationError(ValueError):
    """The counts cannot support the requested estimate."""


@dataclass(frozen=True)
class CoincidenceCounts:
    """Nonnegative coincidence counts per outcome label.

    The ``_u``/``_d`` group (HH and VV on the down path, HV and VH on the up
    path) sets the attenuation ratio; the ``_0``/``_1`` group (HV and VH on
    the rotated output modes u and d) sets the measurement angle.
    """

    c_hh_d: int = 0
    c_vv_d: int = 0
    c_hv_u: int = 0
    c_vh_u: int = 0
    c_hv_1: int = 0
    c_vh_1: int = 0
    c_hv_0: int = 0
    c_vh_0: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if int(value) != value or value < 0:
                raise ValueError(f"count {f.name} = {value!r} must be a nonnegative integer")
            object.__setattr__(self, f.name, int(value))


def estimate_p_prime(counts: CoincidenceCounts) -> tuple[float, float]:
    """Attenuation ratio (C_hh_d + C_vv_d)/(C_hv_u + C_vh_u) and its error.

    The error follows from first-order propagation of sqrt(C) per count:
    delta^2 = C_hh_d/D^2 + C_hv_u S^2/D^4 + C_vv_d/D^2 + C_vh_u S^2/D^4
    with S the numerator and D the denominator sum.
    """
    numerator = counts.c_hh_d + counts.c_vv_d
    denominator = counts.c_hv_u + counts.c_vh_u
    if denominator <= 0:
        raise EstimationError("up-path counts sum to zero; ratio undefined")
    ratio = numerator / denominator
    variance = (
        counts.c_hh_d / denominator**2
        + counts.c_hv_u * numerator**2 / denominator**4
        + counts.c_vv_d / denominator**2
        + counts.c_vh_u * numerator**2 / denominator**4
    )
    return float(ratio), float(math.sqrt(variance))


def estimate_theta(counts: CoincidenceCounts) -> tuple[float, float]:
    """Measurement angle arctan(sqrt(R)) with R the mode-1/mode-0 count ratio.

    delta theta = (C_hv_0 + C_vh_0)^(-1/2) (1 + R)^(-1/2) / 2.  With no
    mode-0 counts the angle is pi/2 and the error (C_hv_1 + C_vh_1)^(-1/2) / 2;
    with no counts in either mode it is undefined.
    """
    mode0 = counts.c_hv_0 + counts.c_vh_0
    mode1 = counts.c_hv_1 + counts.c_vh_1
    if mode0 <= 0:
        if mode1 <= 0:
            raise EstimationError("mode-0 and mode-1 counts sum to zero; angle undefined")
        return math.pi / 2, 0.5 / math.sqrt(mode1)
    ratio = mode1 / mode0
    theta = math.atan(math.sqrt(ratio))
    delta = 0.5 / math.sqrt(mode0) / math.sqrt(1.0 + ratio)
    return float(theta), float(delta)


def simulate_counts(
    probabilities: dict[str, float], total_pairs: int, seed: int
) -> CoincidenceCounts:
    """Independent Poisson draws with means probability * total_pairs.

    Labels absent from ``probabilities`` stay zero.  Deterministic for a
    fixed seed; labels are drawn in the declared field order.
    """
    if int(total_pairs) != total_pairs or total_pairs < 1:
        raise ValueError(f"total_pairs {total_pairs!r} must be a positive integer")
    known = {f.name for f in fields(CoincidenceCounts)}
    unknown = set(probabilities) - known
    if unknown:
        raise ValueError(f"unknown count labels {sorted(unknown)}")
    for label, prob in probabilities.items():
        if prob < 0.0:
            raise ValueError(f"probability for {label} is negative: {prob!r}")
    rng = np.random.default_rng(seed)
    draws = {}
    for f in fields(CoincidenceCounts):
        prob = probabilities.get(f.name, 0.0)
        draws[f.name] = int(rng.poisson(prob * total_pairs)) if prob > 0.0 else 0
    return CoincidenceCounts(**draws)


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
