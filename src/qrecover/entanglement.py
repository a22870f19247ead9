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


_ABOVE_ZERO, _BELOW_ONE = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)


def as_result(values: np.ndarray):
    """A Python float for a 0-d result, else the array itself."""
    return float(values) if values.ndim == 0 else values


def check_range(name: str, value, low: float, high: float, complaint: str) -> np.ndarray:
    """``value`` as a float array, once every element lies in [low, high].

    Otherwise raise ValueError "<name> <value> <complaint>" for the first
    element outside, NaN included: a scalar by its repr, an array element
    as a float.
    """
    values = np.asarray(value, dtype=float)
    # a NaN element makes min and max NaN, and both comparisons false
    if values.size and not (low <= values.min() and values.max() <= high):
        outside = ~((values >= low) & (values <= high))
        bad = value if values.ndim == 0 else float(values[outside][0])
        raise ValueError(f"{name} {bad!r} {complaint}")
    return values


def binary_entropy(x):
    """-x log2 x - (1-x) log2 (1-x) with the 0 log 0 = 0 convention.

    ``x`` is a number or an array of them; outside (0, 1) the entropy is 0.
    """
    x = np.asarray(x, dtype=float)
    # clamping into the open interval leaves exactly the elements inside it
    # unchanged, keeps log2 finite, and is cheaper than a mask and a select
    inside = x.clip(_ABOVE_ZERO, _BELOW_ONE)
    entropy = -inside * np.log2(inside) - (1.0 - inside) * np.log2(1.0 - inside)
    return as_result(entropy * (inside == x))


def eof_from_concurrence(c):
    """Entanglement of formation as a function of concurrence (a number or an array)."""
    c = check_range("concurrence", c, -1e-9, 1.0 + 1e-9, "outside [0, 1]").clip(0.0, 1.0)
    return binary_entropy((1.0 + np.sqrt(1.0 - c * c)) / 2.0)


def mixed_concurrence(coherence_magnitude, eta):
    """Concurrence 2 max{0, eta |z| - (1 - eta)/4} of the eta-mixed X state.

    ``coherence_magnitude`` is |z| of the ideal-input output, at most 1/2;
    eta weighs it against the maximally mixed state.  Both may be arrays,
    which broadcast.
    """
    z = np.asarray(coherence_magnitude, dtype=float)
    return as_result((2.0 * (eta * z - (1.0 - eta) / 4.0)).clip(0.0, 1.0))


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
        if not 0.0 <= self.eta <= 1.0:  # NaN included
            raise ValueError(f"eta {self.eta!r} outside [0, 1]")
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

