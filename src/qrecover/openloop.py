"""Step-resolved entanglement of the dephased pair under the three controls.

Each control arm at step k is a sign vector (``TrajectoryControl.signs``)
whose live coherence comes from the closed form in :mod:`qrecover.dephasing`
or from Monte Carlo averaging.  For an imperfectly prepared input (mixing
weight eta) the channel is unital, so the output is eta times the
ideal-input output plus (1 - eta)/4 times the identity; the concurrence then
reduces to 2 max{0, eta |coherence| - (1 - eta)/4}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dephasing import (
    CONTROL_KINDS,
    NoiseParams,
    TrajectoryControl,
    analytic_coherence,
    monte_carlo_moments,
)
from .entanglement import PreparationModel, eof_from_concurrence

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


def _mixed_concurrence(coherence_magnitude: float, eta: float) -> float:
    return float(min(1.0, max(0.0, 2.0 * (eta * coherence_magnitude - (1.0 - eta) / 4.0))))


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
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "analytic":
        signs = control.signs(k, params.steps)
        coherence = analytic_coherence(signs, params.mu, params.sigma, params.mean_phase)
        stat_error = None
    else:
        if seed is None:
            raise ValueError("monte_carlo method requires a seed")
        moments = monte_carlo_moments(params, control, k, n_samples, seed, workers)
        coherence = moments.coherence_mean
        stat_error = 2.0 * prep.eta * moments.coherence_std_error()
    c = _mixed_concurrence(abs(coherence), prep.eta)
    return OpenLoopResult(
        step=k,
        concurrence=c,
        eof=eof_from_concurrence(c),
        method=method,
        control_kind=control.kind,
        prep=prep,
        stat_error=stat_error,
    )


def open_loop_series(
    params: NoiseParams,
    prep: PreparationModel,
    method: str = "analytic",
    n_samples: int = 100_000,
    seed: int | None = None,
    workers: int = 1,
) -> list[OpenLoopResult]:
    """All three control arms over steps 0..steps, in plotting order."""
    return [
        run_open_loop(
            params, TrajectoryControl(kind=kind), prep, k, method, n_samples, seed, workers
        )
        for kind in CONTROL_KINDS
        for k in range(params.steps + 1)
    ]
