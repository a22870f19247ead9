"""Correlated stroboscopic dephasing of one qubit of an entangled pair.

The noisy channel kicks qubit B at discrete steps k = 1..steps, adding a
random phase chi_k between its basis components.  Phases are Gaussian with
mean ``mean_phase`` and standard deviation ``sigma``; each chi_k repeats the
previous value with probability ``mu`` and is redrawn otherwise, which makes
``mu`` the correlation coefficient between adjacent phases.

After k uncontrolled steps the pair state is
(|HV> - e^{i phi_k} |VH>) / sqrt(2) with phi_k the running phase sum;
after a mid-sequence bit flip on B ("echoed" control) it is
(|HH> - e^{i psi_k} |VV>) / sqrt(2), the phases acquired after the flip
entering psi_k with a minus sign.  Either way the live coherence is
-<e^{-i sum_j s_j chi_j}>/2 for the arm's sign vector s (see
``TrajectoryControl.signs``); ``analytic_coherence`` evaluates it in closed
form and ``monte_carlo_moments`` by sampling.  No state is built here: the
per-trajectory states and their average are the test suite's oracle
(``trajectory_state`` and ``averaged_projector_oracle`` in
``tests/helpers.py``), which the coherence is checked against.

Reproducibility: Monte Carlo sampling is organized in fixed blocks of
``BLOCK_SIZE`` trajectories; block j draws from a fresh substream keyed by
(seed, j).  One draw per block serves every sign vector a job asks for, so
all arms, steps and fidelities of a job share the same samples and extra
vectors cost no extra draws.  With w workers, each of w pool threads runs
one strided loop over the blocks (blocks i, i + w, i + 2w, ...) and writes
each block's sums into that block's row of a table; the caller only waits
for the w loops, then adds the rows up in block order.  Results for a
given (seed, n_samples) are therefore bit-identical no matter how many
workers participate.  One worker runs the same loop without a pool.

Sampling is keep-first: a block first draws the keep decisions of every
trajectory and step, then one normal per fresh phase only, about
1 + (steps - 1)(1 - mu) of them per trajectory; kept phases index the
value they repeat.  The index is built step-major, one integer add per
step, so every later gather reads it contiguously.  A draw beyond the
float range is rejected there, before any trigonometry.

The per-block kernel evaluates e^{i chi} once per fresh phase (a cosine
and a sine), gathers those into one factor per step and trajectory, and
forms each vector's e^{i sum_j s_j chi_j} as the running product of the
factors, conjugated where s_j = -1.  A block returns the raw sums of that
product and of its square; their conjugates, scaled by -1/2 and 1/4, are
the sums of z and z^2, and the caller scales the block-ordered totals
once, which gives the same bits because conjugating and scaling by a
power of two are exact.  A vector extends the product of the longest
prefix it shares with an earlier vector of the same pass, always
multiplying left to right, so its value does not depend on the other
vectors.  Exactness rule: where a mixed-sign vector's +1 phases and its
-1 phases, each side added up in step order, have equal sums, its factor
is exactly 1, as e^{-i 0} is; so at mu = 1 a balanced vector gives the
coherence -1/2 with zero error, in any summation order of the BLAS
library.  The two side sums are carried along the prefix walk next to
the product, so a vector adds only the phases of the steps it walks.
"""

from __future__ import annotations

import cmath
import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

BLOCK_SIZE = 4096

CONTROL_KINDS = ("uncontrolled", "corrected", "echoed")


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
class TrajectoryControl:
    """Which control is applied along a trajectory.

    ``echo_after_step`` is the step after which the bit flip acts for the
    echoed control.  The corrected control applies the compensating phase
    at the final step, which returns the exact initial state.
    """

    kind: str = "uncontrolled"
    echo_after_step: int = 2

    def __post_init__(self):
        if self.kind not in CONTROL_KINDS:
            raise ValueError(f"unknown control kind {self.kind!r}")
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


def _draw(params: NoiseParams, rng: np.random.Generator, count: int):
    """Fresh phase values of ``count`` sequences and the (count, steps) index into them.

    The keep decisions come first: step 1 is always fresh, and each later
    step is redrawn where its uniform draw is >= mu, so it keeps the previous
    phase with probability mu.  Then one normal per fresh phase, in row-major
    order, so a kept phase's index is the running count of the fresh mask.
    The index is built step-major, as a (steps, count) array: row k is row
    k - 1 plus the fresh mask of step k, and each sequence's offset is the
    running total of the fresh counts of the sequences before it.  It comes
    back as the transposed view, whose ``.T`` is contiguous again.
    """
    fresh = (rng.random((count, params.steps - 1)) >= params.mu).T
    index = np.empty((params.steps, count), dtype=np.intp)
    index[0] = 0
    for k in range(1, params.steps):
        np.add(index[k - 1], fresh[k - 1], out=index[k])
    totals = index[-1] + 1
    ends = np.cumsum(totals)
    index += ends - totals
    values = rng.normal(params.mean_phase, params.sigma, size=int(ends[-1]))
    if params.clip_to_hardware:
        np.clip(values, 0.0, math.pi, out=values)
    if not np.isfinite(values).all():
        # a draw beyond the float range became inf; its cosine would be NaN
        raise ValueError(f"sigma {params.sigma!r} too large to sample: phase draws overflow")
    return values, index.T


def _block_draws(params: NoiseParams, seed: int, block_index: int, count: int):
    """The draws of block ``block_index``, from its own (seed, block_index) substream."""
    return _draw(params, np.random.default_rng([seed, block_index]), count)


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
    """Sums of w and w^2 over one block, for each sign vector of the plan.

    w = prod_j e^{i s_j chi_j}, so the coherence is z = -conj(w)/2:
    ``monte_carlo_moments`` conjugates and scales the block-ordered totals
    once.  The block's e^{i chi} are evaluated once per fresh phase, as a
    cosine and a sine, and gathered into one kick per step and trajectory;
    a vector extends the product of the longest prefix it shares with an
    earlier one.  Each side's phase sum is carried along the walk next to
    the product, so the exactness rule costs one add per step walked.
    """
    params, (plan, kept), seed, block_index, count = args
    values, index = _block_draws(params, seed, block_index, count)
    index = index.T
    rotations = np.empty(values.size, dtype=complex)
    np.cos(values, out=rotations.real)
    np.sin(values, out=rotations.imag)
    kicks = rotations.take(index)
    del rotations
    phases = values.take(index)
    products = {}
    sums = []
    for signs, known, drops in plan:
        if not signs:
            sums.append((complex(count), complex(count)))
            continue
        w, plus, minus = products[signs[:known]] if known else (None, None, None)
        for k in range(known, len(signs)):
            if signs[k] > 0:
                kick = kicks[k]
                plus = phases[k] if plus is None else plus + phases[k]
            else:
                kick = kicks[k].conj()
                minus = phases[k] if minus is None else minus + phases[k]
            w = kick if w is None else w * kick
            if signs[: k + 1] in kept:
                products[signs[: k + 1]] = w, plus, minus
        for prefix in drops:
            del products[prefix]
        if plus is not None and minus is not None:
            # e^{-i 0} is exactly 1, but a kick times its conjugate may miss
            # 1 by an ulp; at mu = 1 that would leave a residue of ~1e-19.
            # Each side's phases are added in step order, so equal counts of
            # one value tie bit for bit (a signed sum in one gemv need not
            # reach 0: its order is the BLAS library's)
            w = np.where(plus == minus, 1.0, w)
        sums.append((w.sum(), np.dot(w, w)))
    return sums


def _share(params, plan, seed, n_samples, first, stride, table, stop) -> None:
    """Write the sums of blocks first, first + stride, ... into their rows of ``table``.

    Stops before its next block once ``stop`` is set, and sets it when a
    block fails, so one failing share ends the others early.
    """
    try:
        for block_index in range(first, len(table), stride):
            if stop.is_set():
                return
            count = min(BLOCK_SIZE, n_samples - block_index * BLOCK_SIZE)
            table[block_index] = _block_moments((params, plan, seed, block_index, count))
    except BaseException:
        stop.set()
        raise


def monte_carlo_moments(
    params: NoiseParams,
    sign_vectors,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> tuple[MonteCarloMoments, ...]:
    """Average the live coherence of each sign vector over n_samples noise realizations.

    Every block of phases is drawn once and reduced for all the vectors;
    the moments come back in the order of ``sign_vectors``.  Each of
    min(workers, blocks, cpu count) pool threads reduces one strided share
    of the blocks into a per-block table, and the caller only waits for
    them, then adds the table up in block order.  The table holds the sums
    of w = e^{i s.chi} and w^2; the totals are conjugated and scaled to
    those of z = -conj(w)/2 and z^2 once per call.  ``n_samples`` and
    ``workers`` must be integers >= 1 (a bool is not a count).
    """
    for name, count in (("n_samples", n_samples), ("workers", workers)):
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
    sign_vectors = tuple(tuple(signs) for signs in sign_vectors)
    for signs in sign_vectors:
        if len(signs) > params.steps:
            raise ValueError(f"sign vector {signs!r} longer than {params.steps} steps")
        if not all(s in (1, -1) for s in signs):
            raise ValueError(f"sign vector {signs!r} must hold only +1 and -1")
    plan = _reuse_plan(sign_vectors)
    blocks = -(-n_samples // BLOCK_SIZE)
    table = [None] * blocks
    workers = min(workers, blocks, os.cpu_count() or 1)
    stop = threading.Event()
    shares = [
        (params, plan, seed, n_samples, first, workers, table, stop) for first in range(workers)
    ]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(_share, *share) for share in shares]:
                future.result()
    else:
        _share(*shares[0])
    totals = [[0.0 + 0.0j, 0.0 + 0.0j] for _ in sign_vectors]
    # rows in block order, so the sums do not depend on the worker count
    for sums in table:
        for total, (w_sum, w2_sum) in zip(totals, sums):
            total[0] += w_sum
            total[1] += w2_sum
    # conjugating and scaling by a power of two are exact, so scaling the
    # totals once gives the bits of scaling every block's sums
    return tuple(
        MonteCarloMoments(
            coherence_mean=-0.5 * w_total.conjugate() / n_samples,
            coherence_square_mean=0.25 * w2_total.conjugate() / n_samples,
            n_samples=n_samples,
        )
        for w_total, w2_total in totals
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
