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
concurrences, the probability and concurrence of each measurement branch,
and their average entanglement over a grid of angles.  At theta = 0 the
two branches leave |psi-> and |phi->, both Bell states, so that average
is 1, its largest value, for every p; no search is made for it.  Every
swept grid, of p or of theta, is a ``sweep_grid``, built for each call.
No quantum state is built.  The gate-by-gate construction of
the same pipeline (rotate O, flip B, rotate the measurement basis, project)
is kept in the test suite as the reference these are checked against.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .entanglement import (
    as_result,
    check_count,
    check_range,
    eof_from_concurrence,
    mixed_concurrence,
)


def _check_weight(name: str, value) -> np.ndarray:
    return check_range(name, value, 0.0, 1.0, "outside [0, 1]")


def _check_finite(name: str, value) -> np.ndarray:
    return check_range(name, value, -sys.float_info.max, sys.float_info.max, "must be finite")


def uncontrolled_concurrence_closed(p, eta=1.0):
    """Pair concurrence after tracing out the environment:
    max{0, 2 eta |1 - 2p| - (1 - eta)} / 2, the live coherence being |1 - 2p|/2.

    ``p`` and ``eta`` are numbers or arrays, which broadcast.
    """
    p = _check_weight("p", p)
    _check_weight("eta", eta)
    return mixed_concurrence(np.abs(1.0 - 2.0 * p) / 2.0, eta)


def measurement_branches(p, theta):
    """(probability, concurrence) of outcome u, then of outcome d.

    Outcome u projects O onto cos(theta)|u> + sin(theta)|d>, leaving the pair
    in a real mix of |psi-> (weight (1-p) cos^2 theta) and |phi->
    (weight p sin^2 theta); outcome d swaps cos and sin.  The two Bell
    states enter the pure-state concurrence |psi^T (sy x sy) psi| (Wootters,
    PRL 80, 2245, 1998) with opposite signs, so a branch's concurrence is the
    difference of its weights over their sum.  A branch with probability <= 1e-14 is reported
    as (0, 0).  ``p`` and ``theta`` are numbers or arrays, which broadcast.
    """
    p = _check_weight("p", p)
    theta = _check_finite("theta", theta)
    # float_power is the libm pow of Python's x ** 2, which x * x misses in the last bit
    c2, s2 = np.float_power(np.cos(theta), 2.0), np.float_power(np.sin(theta), 2.0)
    q = 1.0 - p
    # outcome u, then d, on a leading axis
    psi_weight, phi_weight = np.array((q * c2, q * s2)), np.array((p * s2, p * c2))
    probability = psi_weight + phi_weight
    live = probability > 1e-14
    # the floor only keeps the division finite where the branch is dropped
    concurrence = np.abs(phi_weight - psi_weight) / np.maximum(probability, 1e-14) * live
    probability = probability * live
    return tuple((as_result(probability[i]), as_result(concurrence[i])) for i in (0, 1))


def controlled_concurrence_closed(theta, eta=1.0):
    """Pair concurrence after measurement plus conditioned correction:
    max{0, 2 eta |cos 2 theta| - (1 - eta)} / 2, independent of p, the live
    coherence being |cos 2 theta|/2.

    ``theta`` and ``eta`` are numbers or arrays, which broadcast.
    """
    theta = _check_finite("theta", theta)
    _check_weight("eta", eta)
    return mixed_concurrence(np.abs(np.cos(2.0 * theta)) / 2.0, eta)


def sweep_grid(stop: float, points: int) -> np.ndarray:
    """``points`` evenly spaced values on [0, ``stop``], a new array on each
    call: the bits of ``np.linspace(0.0, stop, points)`` for a float ``stop``.

    ``points`` must be an integer >= 2.
    """
    check_count("points", points, 2)
    grid = np.arange(points, dtype=float)
    # np.linspace(0.0, stop, points)'s own arithmetic, bit for bit
    step = stop / (points - 1)
    if step == 0.0:
        # a zero stop, or one so small that the step underflows
        grid /= points - 1
        grid *= stop
    else:
        grid *= step
    # linspace adds its start, which turns the -0.0 of a negative step into 0.0
    grid += 0.0
    grid[-1] = stop
    return grid


def assistance_scan(p: float, n_theta: int = 181) -> tuple[np.ndarray, np.ndarray]:
    """Average ensemble entanglement versus measurement angle on [0, pi/2].

    Returns the ``n_theta`` evenly spaced angles, from 0, and the
    probability-weighted entanglement of formation of the two measurement
    branches at each; the first, at theta = 0, is the largest.
    ``n_theta`` must be an integer >= 2.  The angles are a new
    ``sweep_grid(pi/2, n_theta)``.
    """
    check_count("n_theta", n_theta, 2)
    thetas = sweep_grid(math.pi / 2.0, int(n_theta))
    (prob_u, c_u), (prob_d, c_d) = measurement_branches(p, thetas)
    eof_u, eof_d = eof_from_concurrence(np.array((c_u, c_d)))
    return thetas, prob_u * eof_u + prob_d * eof_d
