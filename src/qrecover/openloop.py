"""Step-resolved entanglement of the dephased pair under the three controls.

This module owns the arms (``CONTROL_KINDS``).  The uncontrolled arm walks
the sign vector (1,) * steps and the echoed arm, flipped after step
``ECHO_AFTER``, (1,) * e + (-1,) * (steps - e) with e = min(ECHO_AFTER,
steps); the corrected arm is the uncontrolled one but the singlet at its
last step (``_arms``).  An arm's coherence at step k is that of its
walk's k-step prefix, by the closed form or by Monte Carlo
(:mod:`qrecover.dephasing`).  A pair of singlet fidelity F has
eta = (4 F - 1)/3 (``entanglement.eta_from_fidelity``) and the channel is
unital, so the concurrence is 2 max{0, eta |coherence| - (1 - eta)/4}
(``entanglement.mixed_concurrence``).  The closed form assumes unclipped
Gaussian phases, so analytic values with ``clip_to_hardware`` are refused.

``open_loop_series`` returns a job's rows as one column table on the grid
(fidelity, method, arm, step); one array call each gives the
concurrence and the entanglement of formation of every row.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .dephasing import _check_noise, analytic_coherence, coherence_std_error, monte_carlo_moments
from .entanglement import check_count, eof_from_concurrence, eta_from_fidelity, mixed_concurrence

METHODS = ("analytic", "monte_carlo")
CONTROL_KINDS = ("uncontrolled", "corrected", "echoed")
# the echoed arm's bit flip acts after this step
ECHO_AFTER = 2

# the arm axis of an open-loop table; read-only, since every table shares it
CONTROLS = np.array(CONTROL_KINDS).reshape(-1, 1)
CONTROLS.flags.writeable = False


def _coherences(method, noise, steps, clip, n_samples, seed, workers):
    """The uncontrolled and the echoed arm's coherences after steps
    0..steps, one walk each, as two lists, and their one-sigma errors as
    two lists (None for the closed form)."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    echo = min(ECHO_AFTER, steps)
    walks = ((1,) * steps, (1,) * echo + (-1,) * (steps - echo))
    if method == "analytic":
        if clip:
            raise ValueError(
                "clip_to_hardware is not modelled by the analytic method; "
                "use method monte_carlo"
            )
        return [analytic_coherence(signs, *noise).tolist() for signs in walks], None
    coherences, errors = [], []
    moments = monte_carlo_moments(
        walks, *noise, steps=steps, n_samples=n_samples, seed=seed, workers=workers,
        clip_to_hardware=clip,
    )
    for means, square_means in moments:
        # Python complex values, as the closed form's: abs is then hypot
        means, square_means = means.tolist(), square_means.tolist()
        coherences.append(means)
        errors.append([coherence_std_error(*pair, n_samples) for pair in zip(means, square_means)])
    return coherences, errors


def _arms(plain: list, echoed: list) -> list:
    """The three arms' values over steps 0..steps in ``CONTROL_KINDS`` order:
    the corrected arm is the uncontrolled one but at its last step, where
    the correction returns the singlet of step 0."""
    return [plain, plain[:-1] + plain[:1], echoed]


def open_loop_series(
    mu: float,
    sigma: float,
    fidelities: Sequence[float],
    *,
    steps: int = 4,
    mean_phase: float = math.pi / 2,
    clip_to_hardware: bool = False,
    methods: Sequence[str] = ("analytic",),
    n_samples: int = 100_000,
    seed: int | None = None,
    workers: int = 1,
) -> dict:
    """All three control arms over steps 0..steps, for each singlet fidelity and method.

    Returns the open-loop table: each column (``fidelity``, ``control``,
    ``method``, ``step``, ``concurrence``, ``eof``, ``stat_error``) as an
    array on the row grid (fidelity, method, arm, step), whose cells in
    C order are the rows.  ``fidelity`` has shape (F, 1, 1, 1), ``method``
    (M, 1, 1), ``control`` (3, 1) in ``CONTROL_KINDS`` order (the shared,
    read-only ``CONTROLS``) and ``step`` (S,); ``concurrence``, ``eof`` and
    ``stat_error`` hold the full grid.  Before the echo or the correction
    acts, an arm carries the uncontrolled value under its own label, since
    the arms coincide there.  ``stat_error`` is an object array: the
    propagated one-sigma error of a Monte Carlo row and None on an analytic
    row.

    Each method walks two sign vectors, the uncontrolled and the echoed
    arm's, and takes every arm's values from their prefixes (``_arms``).
    Monte Carlo draws its samples once for both walks, so extra fidelities
    cost no extra samples.  Noise that ``analytic_coherence`` refuses, steps
    not an integer >= 1 or a fidelity outside [1/4, 1] is a ValueError.
    """
    _check_noise(mu, sigma, mean_phase)
    check_count("steps", steps)
    steps = int(steps)
    fidelity = np.array(fidelities, dtype=float).reshape(-1, 1, 1, 1)
    eta = eta_from_fidelity(fidelity[:, 0])
    grid = (len(fidelity), len(methods), len(CONTROL_KINDS), steps + 1)
    magnitudes = np.empty(grid[1:])
    stat_error = np.empty(grid, dtype=object)
    for index, method in enumerate(methods):
        (plain, echoed), errors = _coherences(
            method, (mu, sigma, mean_phase), steps, clip_to_hardware, n_samples, seed, workers
        )
        # abs of each value, as hypot gives it: np.abs's vector loop may
        # round the last bit differently
        magnitudes[index] = _arms(list(map(abs, plain)), list(map(abs, echoed)))
        if errors is not None:
            stat_error[:, index] = 2.0 * eta * np.array(_arms(*errors))
    concurrence = mixed_concurrence(magnitudes, eta[:, None])
    return {
        "fidelity": fidelity,
        "control": CONTROLS,
        "method": np.array(methods).reshape(-1, 1, 1),
        "step": np.arange(steps + 1),
        "concurrence": concurrence,
        "eof": eof_from_concurrence(concurrence),
        "stat_error": stat_error,
    }
