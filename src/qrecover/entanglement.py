"""Entanglement of the pair and the imperfect-preparation model.

Every state the protocols produce is an X state: the singlet mixed with
weight eta against the maximally mixed state, then dephased, so one live
coherence z remains.  Its concurrence is 2 max{0, eta |z| - (1 - eta)/4}
(``mixed_concurrence``), where a pair prepared with singlet fidelity F has
eta = (4 F - 1)/3 (``eta_from_fidelity``).  The entanglement of formation
follows from the concurrence through the binary entropy of
(1 + sqrt(1 - C^2))/2.  The tests check the closed form against the
general Wootters concurrence (PRL 80, 2245, 1998) of the explicitly built
density matrices.
"""

from __future__ import annotations

import numbers

import numpy as np


_ABOVE_ZERO, _BELOW_ONE = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)


def as_result(values: np.ndarray):
    """A Python float for a 0-d result, else the array itself."""
    return float(values) if values.ndim == 0 else values


def check_range(name: str, value, low: float, high: float, complaint: str) -> np.ndarray:
    """``value`` as a float array, once every element lies in [low, high].

    Otherwise raise ValueError "<name> <value> <complaint>" for the first
    element outside, NaN included: a Python int or float by its repr, an
    array element or a numpy scalar as a float.
    """
    values = np.asarray(value, dtype=float)
    # a NaN element makes min and max NaN, and both comparisons false
    if values.size and not (low <= values.min() and values.max() <= high):
        outside = ~((values >= low) & (values <= high))
        bad = value if type(value) in (int, float) else float(values[outside][0])
        raise ValueError(f"{name} {bad!r} {complaint}")
    return values


def check_count(name: str, value, low: int = 1) -> None:
    """Raise ValueError "<name> must be an integer >= <low>, got <value>"
    unless ``value`` is an integer of at least ``low`` (a bool is not a count)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


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


def eta_from_fidelity(fidelity):
    """Singlet weight eta = (4 F - 1)/3 of the imperfectly prepared pair
    eta |psi-><psi-| + (1 - eta) 1/4 whose singlet fidelity is F.

    ``fidelity`` is a number or an array of them, each in [1/4, 1].
    """
    fidelity = check_range("fidelity", fidelity, 0.25, 1.0, "outside [1/4, 1]")
    return as_result((4.0 * fidelity - 1.0) / 3.0)
