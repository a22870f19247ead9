"""Step-resolved entanglement of the dephased pair under the three controls.

Each control arm at step k is a sign vector (``TrajectoryControl.signs``)
whose live coherence comes from the closed form in :mod:`qrecover.dephasing`
or from Monte Carlo averaging.  For an imperfectly prepared input (mixing
weight eta) the channel is unital, so the output is eta times the
ideal-input output plus (1 - eta)/4 times the identity; the concurrence then
reduces to 2 max{0, eta |coherence| - (1 - eta)/4}
(``entanglement.mixed_concurrence``).  The closed form assumes unclipped
Gaussian phases, so analytic values with ``clip_to_hardware`` are refused.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

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


@dataclass(frozen=True)
class OpenLoopResult:
    """Entanglement of the pair at one step of one control arm."""

    step: int
    concurrence: float
    eof: float
    method: str
    control_kind: str
    prep: PreparationModel
    stat_error: float | None = None


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


def _results(points, coherences, prep, method) -> list[OpenLoopResult]:
    """The results at ``points``, (control, k) each, from their (coherence, error) pairs."""
    magnitudes = np.array([abs(coherence) for coherence, _ in coherences])
    concurrences = mixed_concurrence(magnitudes, prep.eta)
    eofs = eof_from_concurrence(concurrences)
    return [
        OpenLoopResult(
            step=k,
            concurrence=c,
            eof=eof,
            method=method,
            control_kind=control.kind,
            prep=prep,
            stat_error=None if std_error is None else 2.0 * prep.eta * std_error,
        )
        for (control, k), (_, std_error), c, eof in zip(
            points, coherences, concurrences.tolist(), eofs.tolist()
        )
    ]


def run_open_loop(
    params: NoiseParams,
    control: TrajectoryControl,
    prep: PreparationModel,
    k: int,
    method: str = "analytic",
    n_samples: int = 100_000,
    seed: int | None = None,
    workers: int = 1,
) -> OpenLoopResult:
    """Entanglement at step k for one control arm, by closed form or sampling.

    Before the echo or the correction acts, an arm carries the uncontrolled
    value under its own label, since the arms coincide there.
    """
    signs = control.signs(k, params.steps)
    coherences = _coherences(params, (signs,), method, n_samples, seed, workers)
    return _results([(control, k)], [coherences[signs]], prep, method)[0]


def open_loop_series(
    params: NoiseParams,
    preps: Sequence[PreparationModel],
    methods: Sequence[str] = ("analytic",),
    n_samples: int = 100_000,
    seed: int | None = None,
    workers: int = 1,
) -> list[OpenLoopResult]:
    """All three control arms over steps 0..steps, for each preparation and method.

    Results run preparation-major, then method, then arm (``CONTROL_KINDS``
    order), then step.  Each distinct sign vector's coherence is computed
    once per method, and Monte Carlo draws its samples once for all of
    them, so extra preparations cost no extra samples.
    """
    points = [
        (TrajectoryControl(kind=kind), k)
        for kind in CONTROL_KINDS
        for k in range(params.steps + 1)
    ]
    signs = [control.signs(k, params.steps) for control, k in points]
    distinct = tuple(dict.fromkeys(signs))
    coherences = {
        method: _coherences(params, distinct, method, n_samples, seed, workers)
        for method in methods
    }
    return [
        result
        for prep in preps
        for method in methods
        for result in _results(points, [coherences[method][s] for s in signs], prep, method)
    ]
