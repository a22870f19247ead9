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
probabilities and recovered concurrences above; tests assert that rotating
the state and projecting onto |u>, |d> is equivalent to projecting onto the
rotated kets.

Everything here is computed from these closed forms and direct
projections; the gate-by-gate construction of the same pipeline is kept in
the test suite as the reference they are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import PureStateEnsemble, check_eta, ensemble_average_eof
from .states import BELL_AMPLITUDES, PureState

REGISTER = ("A", "B", "O")
OUTCOME_LABELS = ("theta_u", "theta_d")


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


@dataclass(frozen=True)
class MeasurementOutcome:
    """One branch of the environment measurement.

    ``post_state`` is None for a zero-probability branch.
    """

    label: str
    probability: float
    post_state: PureState | None


def measurement_basis(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The rotated basis kets (outcome u, outcome d) as 2-vectors."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([c, s], dtype=complex), np.array([-s, c], dtype=complex)


def state_after_interaction(p: float) -> PureState:
    """sqrt(1-p)|psi->|u> + sqrt(p)|phi->|d>: the three-qubit state after the
    environment rotation and the controlled flip."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p {p!r} outside [0, 1]")
    amps = np.zeros(8, dtype=complex)
    amps[0::2] = math.sqrt(1.0 - p) * BELL_AMPLITUDES["psi_minus"]
    amps[1::2] = math.sqrt(p) * BELL_AMPLITUDES["phi_minus"]
    return PureState(REGISTER, amps)


def uncontrolled_concurrence_closed(p: float, eta: float = 1.0) -> float:
    """Pair concurrence after tracing out the environment:
    max{0, 2 eta |1 - 2p| - (1 - eta)} / 2."""
    ClosedLoopParams(p=p, eta=eta)
    return max(0.0, 2.0 * eta * abs(1.0 - 2.0 * p) - (1.0 - eta)) / 2.0


def measure_environment(p: float, theta: float) -> list[MeasurementOutcome]:
    """Both branches of the rotated-basis measurement of O.

    Mixing the branch projectors with their probabilities reproduces the
    traced-out state exactly.
    """
    return _measure(_pair_slices(p), theta)


def _pair_slices(p: float) -> np.ndarray:
    # row j: the pair amplitude j paired with O in |u>, |d>
    return state_after_interaction(p).amplitudes.reshape(4, 2)


def _measure(slices: np.ndarray, theta: float) -> list[MeasurementOutcome]:
    outcomes = []
    for ket, label in zip(measurement_basis(theta), OUTCOME_LABELS):
        vector = slices @ ket.conj()
        probability = float(np.vdot(vector, vector).real)
        if probability <= 1e-14:
            outcomes.append(MeasurementOutcome(label, 0.0, None))
            continue
        post = PureState(("A", "B"), vector / math.sqrt(probability))
        outcomes.append(MeasurementOutcome(label, probability, post))
    return outcomes


def measurement_ensemble(p: float, theta: float) -> PureStateEnsemble:
    """The pure-state ensemble tagged by the measurement outcome."""
    return _ensemble(_pair_slices(p), theta)


def _ensemble(slices: np.ndarray, theta: float) -> PureStateEnsemble:
    members = [
        (outcome.probability, outcome.post_state)
        for outcome in _measure(slices, theta)
        if outcome.post_state is not None
    ]
    return PureStateEnsemble(tuple(members))


def controlled_concurrence_closed(theta: float, eta: float = 1.0) -> float:
    """Pair concurrence after measurement plus conditioned correction:
    max{0, eta (1 + 2 |cos 2 theta|) - 1} / 2, independent of p."""
    ClosedLoopParams(p=0.0, theta=theta, eta=eta)  # p does not enter
    return max(0.0, eta * (1.0 + 2.0 * abs(math.cos(2.0 * theta))) - 1.0) / 2.0


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
    slices = _pair_slices(p)
    eofs = np.array([ensemble_average_eof(_ensemble(slices, theta)) for theta in thetas])
    best = int(np.argmax(eofs >= eofs.max() - 1e-12))
    return AssistanceScan(
        thetas=thetas,
        eofs=eofs,
        best_index=best,
        best_theta=float(thetas[best]),
        best_eof=float(eofs[best]),
    )
