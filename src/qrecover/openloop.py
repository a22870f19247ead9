"""Step-resolved entanglement of the dephased pair under the three controls.

Each control arm at step k is a sign vector (``TrajectoryControl.signs``)
whose live coherence comes from the closed form in :mod:`qrecover.dephasing`
or from Monte Carlo averaging.  For an imperfectly prepared input (mixing
weight eta) the channel is unital, so the output is eta times the
ideal-input output plus (1 - eta)/4 times the identity; the concurrence then
reduces to 2 max{0, eta |coherence| - (1 - eta)/4}
(``entanglement.mixed_concurrence``).  The closed form assumes unclipped
Gaussian phases, so analytic values with ``clip_to_hardware`` are refused.

``open_loop_series`` returns a job's rows as one column table on the grid
(preparation, method, arm, step); one array call each gives the
concurrence and the entanglement of formation of every row.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .dephasing import (
    CONTROL_KINDS,
    NoiseParams,
    TrajectoryControl,
    analytic_coherence,
    monte_carlo_moments,
)
from .entanglement import PreparationModel, eof_from_concurrence, mixed_concurrence

METHODS = ("analytic", "monte_carlo")

# the arm axis of an open-loop table; read-only, since every table shares it
CONTROLS = np.array(CONTROL_KINDS).reshape(-1, 1)
CONTROLS.flags.writeable = False


def _coherences(params, sign_vectors, method, n_samples, seed, workers) -> dict:
    """Each sign vector's coherence and one-sigma error (None for the closed form)."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "analytic":
        if params.clip_to_hardware:
            raise ValueError(
                "clip_to_hardware is not modelled by the analytic method; "
                "use method monte_carlo"
            )
        return {
            signs: (analytic_coherence(signs, params.mu, params.sigma, params.mean_phase), None)
            for signs in sign_vectors
        }
    if seed is None:
        raise ValueError("monte_carlo method requires a seed")
    moments = monte_carlo_moments(params, sign_vectors, n_samples, seed, workers)
    return {
        signs: (m.coherence_mean, m.coherence_std_error())
        for signs, m in zip(sign_vectors, moments)
    }


def open_loop_series(
    params: NoiseParams,
    preps: Sequence[PreparationModel],
    methods: Sequence[str] = ("analytic",),
    n_samples: int = 100_000,
    seed: int | None = None,
    workers: int = 1,
) -> dict:
    """All three control arms over steps 0..steps, for each preparation and method.

    Returns the open-loop table: each column (``fidelity``, ``control``,
    ``method``, ``step``, ``concurrence``, ``eof``, ``stat_error``) as an
    array on the row grid (preparation, method, arm, step), whose cells in
    C order are the rows.  ``fidelity`` has shape (F, 1, 1, 1), ``method``
    (M, 1, 1), ``control`` (3, 1) in ``CONTROL_KINDS`` order (the shared,
    read-only ``CONTROLS``) and ``step`` (S,); ``concurrence``, ``eof`` and
    ``stat_error`` hold the full grid.  Before the echo or the correction
    acts, an arm carries the uncontrolled value under its own label, since
    the arms coincide there.  ``stat_error`` is an object array: the
    propagated one-sigma error of a Monte Carlo row and None on an analytic
    row.

    Each distinct sign vector's coherence is computed once per method, and
    Monte Carlo draws its samples once for all of them, so extra
    preparations cost no extra samples.
    """
    steps = params.steps + 1
    signs = [
        TrajectoryControl(kind=kind).signs(k, params.steps)
        for kind in CONTROL_KINDS
        for k in range(steps)
    ]
    distinct = tuple(dict.fromkeys(signs))
    eta = np.array([prep.eta for prep in preps]).reshape(-1, 1)
    magnitudes = np.empty((len(methods), len(signs)))
    stat_error = np.empty((len(preps), len(methods), len(signs)), dtype=object)
    for index, method in enumerate(methods):
        coherences = _coherences(params, distinct, method, n_samples, seed, workers)
        magnitudes[index] = [abs(coherences[s][0]) for s in signs]
        if method == "monte_carlo":
            stat_error[:, index] = 2.0 * eta * np.array([coherences[s][1] for s in signs])
    grid = (len(preps), len(methods), len(CONTROL_KINDS), steps)
    concurrence = mixed_concurrence(magnitudes, eta[:, None]).reshape(grid)
    return {
        "fidelity": np.array([prep.fidelity for prep in preps]).reshape(-1, 1, 1, 1),
        "control": CONTROLS,
        "method": np.array(methods).reshape(-1, 1, 1),
        "step": np.arange(steps),
        "concurrence": concurrence,
        "eof": eof_from_concurrence(concurrence),
        "stat_error": stat_error.reshape(grid),
    }
