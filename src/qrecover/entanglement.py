"""Two-qubit entanglement quantifiers and the imperfect-preparation model.

Concurrence is computed two ways: the general route through the spin-flipped
product matrix, and a shortcut valid for density matrices whose only nonzero
entries sit on the main diagonal and the anti-diagonal ("X" sparsity).  Pure
ensemble members use the exact pure-state form |psi^T (sy x sy) psi|.  The
entanglement of formation follows from the concurrence through the binary
entropy of (1 + sqrt(1 - C^2))/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (
    DensityMatrix,
    PureState,
    SIGMA_Y,
    bell_state,
    maximally_mixed,
)

X_SPARSITY_ATOL = 1e-9
_SPIN_FLIP = np.kron(SIGMA_Y, SIGMA_Y)
# Positions of a 4x4 matrix outside the diagonal and anti-diagonal.
_OFF_X = [(0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)]


class XStateError(ValueError):
    """The density matrix does not have the X sparsity pattern."""


def _require_two_qubits(rho: DensityMatrix) -> np.ndarray:
    if rho.dim != 4:
        raise ValueError(f"concurrence is defined for two qubits, got dimension {rho.dim}")
    return rho.matrix


def concurrence(rho: DensityMatrix) -> float:
    """Concurrence of a two-qubit density matrix.

    Takes the eigenvalues of rho (sy x sy) rho* (sy x sy) with a general
    complex eigensolver and returns max(0, l1 - l2 - l3 - l4) of the square
    roots, sorted descending.  Real parts below 1e-12 of the largest
    eigenvalue are numerically indistinguishable from zero and are clamped
    before the square root (which would otherwise amplify 1e-16-level noise
    to 1e-8).  Residual imaginary parts above 1e-8 indicate a numerical
    pathology and raise.
    """
    m = _require_two_qubits(rho)
    flipped = _SPIN_FLIP @ m.conj() @ _SPIN_FLIP
    eigenvalues = np.linalg.eigvals(m @ flipped)
    if np.abs(eigenvalues.imag).max() > 1e-8:
        raise ArithmeticError(
            f"spin-flip spectrum has imaginary parts up to {np.abs(eigenvalues.imag).max():.3e}"
        )
    floor = 1e-12 * max(eigenvalues.real.max(), 0.0)
    real_parts = np.where(eigenvalues.real > floor, eigenvalues.real, 0.0)
    lam = np.sqrt(real_parts)
    lam[::-1].sort()
    return float(min(1.0, max(0.0, lam[0] - lam[1] - lam[2] - lam[3])))


def concurrence_x_state(rho: DensityMatrix) -> float:
    """Closed-form concurrence for X-form density matrices.

    C = 2 max{0, |rho_12| - sqrt(rho_00 rho_33), |rho_03| - sqrt(rho_11 rho_22)}
    with indices over the shared basis order.  Inputs with entries off the
    X pattern larger than 1e-9 raise XStateError; use the general route then.
    """
    m = _require_two_qubits(rho)
    worst = max(abs(m[i, j]) for i, j in _OFF_X)
    if worst > X_SPARSITY_ATOL:
        raise XStateError(f"entries off the X pattern as large as {worst:.3e}")
    diag = np.clip(m.diagonal().real, 0.0, None)
    inner = abs(m[1, 2]) - np.sqrt(diag[0] * diag[3])
    outer = abs(m[0, 3]) - np.sqrt(diag[1] * diag[2])
    return float(min(1.0, max(0.0, 2.0 * inner, 2.0 * outer)))


def concurrence_with_path(rho: DensityMatrix) -> tuple[float, str]:
    """Concurrence plus which route produced it: "x_state" or "wootters"."""
    try:
        return concurrence_x_state(rho), "x_state"
    except XStateError:
        return concurrence(rho), "wootters"


def binary_entropy(x: float) -> float:
    """-x log2 x - (1-x) log2 (1-x) with the 0 log 0 = 0 convention."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation as a function of concurrence."""
    if not -1e-9 <= c <= 1.0 + 1e-9:
        raise ValueError(f"concurrence {c!r} outside [0, 1]")
    c = min(1.0, max(0.0, c))
    return binary_entropy((1.0 + np.sqrt(1.0 - c * c)) / 2.0)


@dataclass(frozen=True, eq=False)
class PureStateEnsemble:
    """Weighted pure states on a two-qubit register, probabilities summing to one."""

    members: tuple[tuple[float, PureState], ...]

    def __post_init__(self):
        members = tuple((float(p), state) for p, state in self.members)
        if not members:
            raise ValueError("ensemble must have at least one member")
        total = 0.0
        for p, state in members:
            if not -1e-12 <= p <= 1.0 + 1e-12:
                raise ValueError(f"probability {p!r} outside [0, 1]")
            if state.num_qubits != 2:
                raise ValueError("ensemble members must be two-qubit states")
            total += p
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "members", members)


def ensemble_average_eof(ensemble: PureStateEnsemble) -> float:
    """Probability-weighted entanglement of formation over ensemble members.

    Each member's concurrence is Wootters' pure-state form
    |psi^T (sy x sy) psi|, which is exact and needs no eigensolver.
    """
    return float(
        sum(
            p * eof_from_concurrence(abs(state.amplitudes @ _SPIN_FLIP @ state.amplitudes))
            for p, state in ensemble.members
            if p > 0.0
        )
    )


def mixture(ensemble: PureStateEnsemble) -> DensityMatrix:
    """The density matrix realized by forgetting which member occurred."""
    register = ensemble.members[0][1].register
    total = np.zeros((4, 4), dtype=complex)
    for p, state in ensemble.members:
        total += p * np.outer(state.amplitudes, state.amplitudes.conj())
    return DensityMatrix(register, total)


def check_eta(eta: float) -> None:
    """Reject a singlet weight eta outside [0, 1] (NaN included)."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta {eta!r} outside [0, 1]")


@dataclass(frozen=True)
class PreparationModel:
    """Imperfectly prepared singlet: eta |psi-><psi-| + (1 - eta) 1/4.

    ``eta`` and the singlet fidelity are locked together by
    eta = (4 F - 1) / 3.
    """

    eta: float
    fidelity: float

    def __post_init__(self):
        check_eta(self.eta)
        if not 0.25 <= self.fidelity <= 1.0:
            raise ValueError(f"fidelity {self.fidelity!r} outside [1/4, 1]")
        if abs(self.eta - (4.0 * self.fidelity - 1.0) / 3.0) > 1e-12:
            raise ValueError(
                f"eta {self.eta!r} inconsistent with fidelity {self.fidelity!r}"
            )

    @classmethod
    def from_fidelity(cls, fidelity: float) -> "PreparationModel":
        return cls(eta=(4.0 * float(fidelity) - 1.0) / 3.0, fidelity=float(fidelity))

    @classmethod
    def from_eta(cls, eta: float) -> "PreparationModel":
        return cls(eta=float(eta), fidelity=(1.0 + 3.0 * float(eta)) / 4.0)

    @classmethod
    def ideal(cls) -> "PreparationModel":
        return cls(eta=1.0, fidelity=1.0)


def werner(prep: PreparationModel, register=("A", "B")) -> DensityMatrix:
    """The mixed input state of the preparation model on the given register."""
    singlet = bell_state("psi_minus", register).projector().matrix
    mixed = maximally_mixed(register).matrix
    return DensityMatrix(register, prep.eta * singlet + (1.0 - prep.eta) * mixed)
