"""Entanglement of the pair and the imperfect-preparation model.

Every state the protocols produce is an X state: the singlet mixed with
weight eta against the maximally mixed state, then dephased, so one live
coherence z remains.  Its concurrence is 2 max{0, eta |z| - (1 - eta)/4}
(``mixed_concurrence``).  The entanglement of formation follows from the
concurrence through the binary entropy of (1 + sqrt(1 - C^2))/2.  The
tests check the closed form against the general Wootters concurrence
(PRL 80, 2245, 1998) of the explicitly built density matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def mixed_concurrence(coherence_magnitude: float, eta: float) -> float:
    """Concurrence 2 max{0, eta |z| - (1 - eta)/4} of the eta-mixed X state.

    ``coherence_magnitude`` is |z| of the ideal-input output, at most 1/2;
    eta weighs it against the maximally mixed state.
    """
    return float(min(1.0, max(0.0, 2.0 * (eta * coherence_magnitude - (1.0 - eta) / 4.0))))


def check_eta(eta: float) -> None:
    """Reject a singlet weight eta outside [0, 1] (NaN included)."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta {eta!r} outside [0, 1]")


def _check_fidelity(fidelity: float) -> None:
    if not 0.25 <= fidelity <= 1.0:
        raise ValueError(f"fidelity {fidelity!r} outside [1/4, 1]")


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
        _check_fidelity(self.fidelity)
        if abs(self.eta - (4.0 * self.fidelity - 1.0) / 3.0) > 1e-12:
            raise ValueError(
                f"eta {self.eta!r} inconsistent with fidelity {self.fidelity!r}"
            )

    @classmethod
    def from_fidelity(cls, fidelity: float) -> "PreparationModel":
        # checked before eta is derived, so the error names the value given
        _check_fidelity(float(fidelity))
        return cls(eta=(4.0 * float(fidelity) - 1.0) / 3.0, fidelity=float(fidelity))

    @classmethod
    def from_eta(cls, eta: float) -> "PreparationModel":
        return cls(eta=float(eta), fidelity=(1.0 + 3.0 * float(eta)) / 4.0)

    @classmethod
    def ideal(cls) -> "PreparationModel":
        return cls(eta=1.0, fidelity=1.0)

