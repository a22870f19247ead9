"""Correlated stroboscopic dephasing of one qubit of an entangled pair.

The noisy channel kicks qubit B at discrete steps k = 1..steps, adding a
random phase chi_k between its basis components.  Phases are Gaussian with
mean ``mean_phase`` and standard deviation ``sigma``; each chi_k repeats the
previous value with probability ``mu`` and is redrawn otherwise, which makes
``mu`` the correlation coefficient between adjacent phases.

Trajectory states use the convention that after k uncontrolled steps the
pair state is (|HV> - e^{i phi_k} |VH>) / sqrt(2) with phi_k the running
phase sum; after a mid-sequence bit flip on B ("echoed" control) the state
is (|HH> - e^{i psi_k} |VV>) / sqrt(2) where the phases acquired after the
flip enter psi_k with a minus sign.  Either way the live coherence is
-<e^{-i sum_j s_j chi_j}>/2 for the arm's sign vector s (see
``TrajectoryControl.signs``); ``analytic_coherence`` evaluates it in closed
form and ``monte_carlo_moments`` by sampling.

Reproducibility: Monte Carlo sampling is organized in fixed blocks of
``BLOCK_SIZE`` trajectories; block j draws from a fresh substream keyed by
(seed, j).  One draw per block serves every sign vector a job asks for, so
all arms, steps and fidelities of a job share the same samples and extra
vectors cost no extra draws.  Results for a given (seed, n_samples) are
bit-identical no matter how many workers participate, because blocks are
reduced in index order.

The per-block kernel evaluates e^{-i chi_j} once per trajectory and step
(a cosine and a sine) and forms each vector's e^{-i sum_j s_j chi_j} as the
running product of those factors, conjugated where s_j = -1.  A vector
extends the product of the longest prefix it shares with an earlier vector
of the same pass, always multiplying left to right, so its value does not
depend on the other vectors.  Exactness rule: where a mixed-sign vector's
signed phase sum is exactly 0, its factor is exactly 1, as e^{-i 0} is; so
at mu = 1 a balanced vector gives the coherence -1/2 with zero error.
"""

from __future__ import annotations

import cmath
import collections
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .states import PureState

BLOCK_SIZE = 4096
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

CONTROL_KINDS = ("uncontrolled", "corrected", "echoed")
CORRECTION_VARIANTS = ("ideal", "hardware")


@dataclass(frozen=True)
class NoiseParams:
    """Parameters of the correlated random-phase process."""

    mu: float
    sigma: float
    mean_phase: float = math.pi / 2
    steps: int = 4
    clip_to_hardware: bool = False

    def __post_init__(self):
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu {self.mu!r} outside [0, 1]")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma {self.sigma!r} must be positive and finite")
        if not math.isfinite(self.mean_phase):
            raise ValueError(f"mean_phase {self.mean_phase!r} must be finite")
        if int(self.steps) != self.steps or self.steps < 1:
            raise ValueError(f"steps {self.steps!r} must be a positive integer")
        object.__setattr__(self, "steps", int(self.steps))


@dataclass(frozen=True)
class PhaseSequence:
    """One realization of the random phases, in radians."""

    phases: tuple[float, ...]

    def __post_init__(self):
        phases = tuple(float(x) for x in self.phases)
        if not all(math.isfinite(x) for x in phases):
            raise ValueError("phases must be finite")
        object.__setattr__(self, "phases", phases)


@dataclass(frozen=True)
class TrajectoryControl:
    """Which control is applied along a trajectory.

    ``echo_after_step`` is the step after which the bit flip acts for the
    echoed control.  The corrected control applies the compensating phase
    at the final step; ``correction_variant`` selects between appending it
    after all noise steps ("ideal") or replacing the final noise step by it
    ("hardware"); both return the exact initial state.
    """

    kind: str = "uncontrolled"
    echo_after_step: int = 2
    correction_variant: str = "ideal"

    def __post_init__(self):
        if self.kind not in CONTROL_KINDS:
            raise ValueError(f"unknown control kind {self.kind!r}")
        if self.correction_variant not in CORRECTION_VARIANTS:
            raise ValueError(f"unknown correction variant {self.correction_variant!r}")
        if self.echo_after_step < 1:
            raise ValueError("echo_after_step must be >= 1")

    def signs(self, k: int, steps: int) -> tuple[int, ...]:
        """Signs s_j with which chi_1..chi_k enter the live coherence after step k.

        The coherence is -<e^{-i sum_j s_j chi_j}>/2.  Until the echo or the
        correction acts the arm is uncontrolled (all +1); the echo flips the
        sign of every later phase, and at the correction step the vector is
        empty (the exact singlet).  An echo after the last step never acts.
        """
        if not 0 <= k <= steps:
            raise ValueError(f"step {k} outside 0..{steps}")
        if self.kind == "corrected" and k == steps:
            return ()
        if self.kind == "echoed" and k > self.echo_after_step:
            return (1,) * self.echo_after_step + (-1,) * (k - self.echo_after_step)
        return (1,) * k


UNCONTROLLED = TrajectoryControl(kind="uncontrolled")
CORRECTED = TrajectoryControl(kind="corrected")
ECHOED = TrajectoryControl(kind="echoed")


def _combine(fresh: np.ndarray, stay: np.ndarray, clip: bool) -> np.ndarray:
    """Turn independent draws plus keep-decisions into correlated sequences."""
    phases = fresh.copy()
    for k in range(1, phases.shape[1]):
        phases[:, k] = np.where(stay[:, k - 1], phases[:, k - 1], phases[:, k])
    if clip:
        np.clip(phases, 0.0, math.pi, out=phases)
    return phases


def sample_sequence(params: NoiseParams, rng: np.random.Generator) -> PhaseSequence:
    """Draw one phase sequence from an explicit random stream."""
    fresh = rng.normal(params.mean_phase, params.sigma, size=(1, params.steps))
    stay = rng.random(size=(1, params.steps - 1)) < params.mu
    return PhaseSequence(tuple(_combine(fresh, stay, params.clip_to_hardware)[0]))


def sample_phase_matrix(params: NoiseParams, n_samples: int, seed: int) -> np.ndarray:
    """(n_samples, steps) phase matrix assembled from the fixed block substreams."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    blocks = []
    for start in range(0, n_samples, BLOCK_SIZE):
        count = min(BLOCK_SIZE, n_samples - start)
        blocks.append(_block_phases(params, seed, start // BLOCK_SIZE, count))
    return np.vstack(blocks)


def _block_phases(params: NoiseParams, seed: int, block_index: int, count: int) -> np.ndarray:
    rng = np.random.default_rng([seed, block_index])
    fresh = rng.normal(params.mean_phase, params.sigma, size=(count, params.steps))
    stay = rng.random(size=(count, params.steps - 1)) < params.mu
    return _combine(fresh, stay, params.clip_to_hardware)


def trajectory_state(
    seq: PhaseSequence, k: int, control: TrajectoryControl = UNCONTROLLED
) -> PureState:
    """Pure state of the pair after step k of one noise realization.

    k = 0 is the initial singlet.  The corrected control returns the exact
    singlet at its correction step; the echoed control switches to the
    outer-coherence form once the flip has acted.
    """
    signs = control.signs(k, len(seq.phases))
    phase = sum(s * chi for s, chi in zip(signs, seq.phases))
    amps = np.zeros(4, dtype=complex)
    if -1 in signs:  # the flip has acted: outer-coherence form
        amps[0] = _INV_SQRT2
        amps[3] = -np.exp(1j * phase) * _INV_SQRT2
    else:
        amps[1] = _INV_SQRT2
        amps[2] = -np.exp(1j * phase) * _INV_SQRT2
    return PureState(("A", "B"), amps)


def correction_phase(seq: PhaseSequence, control: TrajectoryControl = CORRECTED) -> float:
    """The compensating phase the corrected control applies at its step."""
    if control.correction_variant == "hardware":
        return -float(np.sum(seq.phases[:-1]))
    return -float(np.sum(seq.phases))


@dataclass(frozen=True)
class MonteCarloMoments:
    """First and second moments of the live coherence over the samples."""

    coherence_mean: complex
    coherence_square_mean: complex
    n_samples: int

    def coherence_std_error(self) -> float:
        """One-sigma error of |coherence_mean| along its own direction."""
        mag = abs(self.coherence_mean)
        if mag == 0.0 or self.n_samples < 2:
            return 0.0
        direction = self.coherence_mean / mag
        second = 0.5 * (0.25 + (self.coherence_square_mean * np.conj(direction) ** 2).real)
        variance = max(0.0, second - mag * mag)
        return float(math.sqrt(variance / self.n_samples))


def _reuse_plan(sign_vectors):
    """How the block reductions share prefix products between sign vectors.

    For each vector: how many leading signs it shares with an earlier vector
    (its product starts from that prefix's), and the prefixes it is the last
    to start from.  A block keeps a prefix's product only while a later
    vector still starts from it: for an open-loop job, three at most.
    """
    seen = set()
    starts = []
    last_start = {}
    for j, signs in enumerate(sign_vectors):
        known = len(signs)
        while known and signs[:known] not in seen:
            known -= 1
        if known:
            last_start[signs[:known]] = j
        seen.update(signs[:k] for k in range(known + 1, len(signs) + 1))
        starts.append(known)
    drops = [[] for _ in sign_vectors]
    for prefix, j in last_start.items():
        drops[j].append(prefix)
    return tuple(zip(sign_vectors, starts, drops)), frozenset(last_start)


def _block_moments(args):
    """Sums of z and z^2 over one block, for each sign vector of the plan.

    z = -w/2 with w = prod_j e^{-i s_j chi_j}: the block's e^{-i chi_j} are
    evaluated once, as cos and -sin, and a vector extends the product of
    the longest prefix it shares with an earlier one.
    """
    params, (plan, kept), seed, block_index, count = args
    phases = _block_phases(params, seed, block_index, count)
    kicks = np.empty((params.steps, count), dtype=complex)
    np.cos(phases.T, out=kicks.real)
    np.sin(phases.T, out=kicks.imag)
    np.negative(kicks.imag, out=kicks.imag)
    products = {}
    sums = []
    for signs, known, drops in plan:
        if not signs:
            sums.append((complex(-0.5 * count), complex(0.25 * count)))
            continue
        w = products[signs[:known]] if known else None
        for k in range(known, len(signs)):
            kick = kicks[k] if signs[k] > 0 else kicks[k].conj()
            w = kick if w is None else w * kick
            if signs[: k + 1] in kept:
                products[signs[: k + 1]] = w
        for prefix in drops:
            del products[prefix]
        if -1 in signs and 1 in signs:
            # e^{-i 0} is exactly 1, but a kick times its conjugate may miss
            # 1 by an ulp; at mu = 1 that would leave a residue of ~1e-19
            total = phases[:, : len(signs)] @ np.asarray(signs, dtype=float)
            w = np.where(total == 0.0, 1.0, w)
        sums.append((-0.5 * w.sum(), 0.25 * (w * w).sum()))
    return sums


def _in_order(pool, tasks, window: int):
    """Block sums in index order, with at most ``window`` blocks in flight.

    ``pool.map`` would queue one future per block up front, which at
    n_samples = 1e6 (245 blocks) adds about half a MiB to peak memory.
    """
    pending = collections.deque()
    for task in tasks:
        pending.append(pool.submit(_block_moments, task))
        if len(pending) == window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _accumulate(totals, block_sums) -> None:
    # blocks arrive in index order, so the sums do not depend on the worker count
    for sums in block_sums:
        for total, (z_sum, z2_sum) in zip(totals, sums):
            total[0] += z_sum
            total[1] += z2_sum


def monte_carlo_moments(
    params: NoiseParams,
    sign_vectors,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> tuple[MonteCarloMoments, ...]:
    """Average the live coherence of each sign vector over n_samples noise realizations.

    Every block of phases is drawn once and reduced for all the vectors;
    the moments come back in the order of ``sign_vectors``.  Blocks go to
    a pool of min(workers, blocks, cpu count) threads.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    sign_vectors = tuple(tuple(signs) for signs in sign_vectors)
    for signs in sign_vectors:
        if len(signs) > params.steps:
            raise ValueError(f"sign vector {signs!r} longer than {params.steps} steps")
        if not all(s in (1, -1) for s in signs):
            raise ValueError(f"sign vector {signs!r} must hold only +1 and -1")
    plan = _reuse_plan(sign_vectors)
    tasks = [
        (params, plan, seed, start // BLOCK_SIZE, min(BLOCK_SIZE, n_samples - start))
        for start in range(0, n_samples, BLOCK_SIZE)
    ]
    totals = [[0.0 + 0.0j, 0.0 + 0.0j] for _ in sign_vectors]
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            _accumulate(totals, _in_order(pool, tasks, window=2 * workers))
    else:
        _accumulate(totals, map(_block_moments, tasks))
    return tuple(
        MonteCarloMoments(
            coherence_mean=z_total / n_samples,
            coherence_square_mean=z2_total / n_samples,
            n_samples=n_samples,
        )
        for z_total, z2_total in totals
    )


def _closed_blocks(weights: dict[int, float], sigma: float) -> float:
    return sum(v * _gaussian(w * sigma) for w, v in weights.items())


def _gaussian(x: float) -> float:
    """e^{-x^2/2}, which is 0.0 in float64 from |x| = 38.7 on, long before x^2 overflows."""
    return math.exp(-0.5 * x**2) if abs(x) < 40.0 else 0.0


def analytic_coherence(
    signs, mu: float, sigma: float, mean_phase: float = math.pi / 2
) -> complex:
    """Closed-form -<e^{-i sum_j s_j chi_j}>/2 over the correlated phase process.

    Exact for any sign vector, in O(k^2).  Equal phases form blocks: each
    junction keeps the block with probability mu and starts a fresh one
    otherwise, and a block of signed weight w contributes
    e^{-i w mean_phase - w^2 sigma^2 / 2}.  The block weights always sum to
    sum(signs), so the mean phase factors out.  The magnitude never exceeds
    1/2.
    """
    if not signs:
        return complex(-0.5)
    # signed weight of the open block -> probability-weighted product of
    # the closed blocks' Gaussian factors
    weights = {signs[0]: 1.0}
    for s in signs[1:]:
        renewed = (1.0 - mu) * _closed_blocks(weights, sigma)
        weights = {w + s: mu * v for w, v in weights.items()}
        weights[s] = weights.get(s, 0.0) + renewed
    return complex(
        -0.5 * _closed_blocks(weights, sigma) * cmath.exp(-1j * mean_phase * sum(signs))
    )
