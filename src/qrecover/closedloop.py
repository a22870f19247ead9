"""Qubit-environment coupling, environment measurement, and conditioned correction.

The pair starts in the singlet with a path qubit O in |u>.  O is rotated by
a weight-p gate, then controls a bit flip on B, leaving
sqrt(1-p) |psi-> |u> + sqrt(p) |phi-> |d>.  Measuring O in a basis rotated
by an angle theta in the u-d plane selects a two-member pure-state ensemble
for the pair; flipping B back on the "down" outcome turns that ensemble
into cos^2(theta) |psi-><psi-| + sin^2(theta) |phi-><phi-|, independent of
p, with concurrence |cos 2 theta|.

The measurement basis kets are cos(theta)|u> + sin(theta)|d> and
-sin(theta)|u> + cos(theta)|d>: a real rotation of the path basis.  That is
the convention under which the protocol reproduces the outcome
probabilities and recovered concurrences above.

Everything here is a closed form: the traced-out and the corrected pair
concurrences, and the probability and concurrence of each measurement
branch.  No quantum state is built.  The gate-by-gate construction of the
same pipeline (rotate O, flip B, rotate the measurement basis, project)
is kept in the test suite as the reference these are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import check_eta, eof_from_concurrence


@dataclass(frozen=True)
class ClosedLoopParams:
    """Knobs of the feedback experiment.

    ``p`` is the environment rotation weight; ``p_prime``, when given, is the
    attenuation ratio p/(1-p) it was set through and must be consistent.
    """

    p: float
    theta: float = 0.0
    eta: float = 1.0
    p_prime: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p {self.p!r} outside [0, 1]")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta {self.theta!r} must be finite")
        check_eta(self.eta)
        if self.p_prime is not None:
            if self.p_prime < 0.0:
                raise ValueError(f"attenuation ratio {self.p_prime!r} must be >= 0")
            if abs(self.p - self.p_prime / (1.0 + self.p_prime)) > 1e-12:
                raise ValueError(
                    f"p {self.p!r} inconsistent with attenuation ratio {self.p_prime!r}"
                )

    @classmethod
    def from_p_prime(cls, p_prime: float, theta: float = 0.0, eta: float = 1.0):
        if p_prime < 0.0:
            raise ValueError(f"attenuation ratio {p_prime!r} must be >= 0")
        return cls(p=p_prime / (1.0 + p_prime), theta=theta, eta=eta, p_prime=p_prime)


def uncontrolled_concurrence_closed(p: float, eta: float = 1.0) -> float:
    """Pair concurrence after tracing out the environment:
    max{0, 2 eta |1 - 2p| - (1 - eta)} / 2."""
    ClosedLoopParams(p=p, eta=eta)
    return max(0.0, 2.0 * eta * abs(1.0 - 2.0 * p) - (1.0 - eta)) / 2.0


def measurement_branches(
    p: float, theta: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """(probability, concurrence) of outcome u, then of outcome d.

    Outcome u projects O onto cos(theta)|u> + sin(theta)|d>, leaving the pair
    in a real mix of |psi-> (weight (1-p) cos^2 theta) and |phi->
    (weight p sin^2 theta); outcome d swaps cos and sin.  The two Bell
    states enter the pure-state concurrence |psi^T (sy x sy) psi| (Wootters,
    PRL 80, 2245, 1998) with opposite signs, so a branch's concurrence is the
    difference of its weights over their sum.  A branch with probability <= 1e-14 is reported
    as (0, 0).
    """
    ClosedLoopParams(p=p, theta=theta)
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    return _branch((1.0 - p) * c2, p * s2), _branch((1.0 - p) * s2, p * c2)


def _branch(psi_weight: float, phi_weight: float) -> tuple[float, float]:
    probability = psi_weight + phi_weight
    if probability <= 1e-14:
        return 0.0, 0.0
    return probability, abs(phi_weight - psi_weight) / probability


def controlled_concurrence_closed(theta: float, eta: float = 1.0) -> float:
    """Pair concurrence after measurement plus conditioned correction:
    max{0, 2 eta |cos 2 theta| - (1 - eta)} / 2, independent of p."""
    ClosedLoopParams(p=0.0, theta=theta, eta=eta)  # p does not enter
    return max(0.0, 2.0 * eta * abs(math.cos(2.0 * theta)) - (1.0 - eta)) / 2.0


@dataclass(frozen=True)
class AssistanceScan:
    """Grid scan of the average post-measurement entanglement over theta."""

    thetas: np.ndarray
    eofs: np.ndarray
    best_index: int
    best_theta: float
    best_eof: float


def assistance_scan(p: float, n_theta: int = 181) -> AssistanceScan:
    """Average ensemble entanglement versus measurement angle on [0, pi/2].

    Returns the full curve and the maximizing angle; values within 1e-12 of
    the maximum count as ties, resolved toward the smallest angle.
    """
    if n_theta < 2:
        raise ValueError("n_theta must be >= 2")
    thetas = np.linspace(0.0, math.pi / 2.0, n_theta)
    eofs = np.array(
        [
            sum(prob * eof_from_concurrence(c) for prob, c in measurement_branches(p, theta))
            for theta in thetas
        ]
    )
    best = int(np.argmax(eofs >= eofs.max() - 1e-12))
    return AssistanceScan(
        thetas=thetas,
        eofs=eofs,
        best_index=best,
        best_theta=float(thetas[best]),
        best_eof=float(eofs[best]),
    )
