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
-<e^{-i sum_j s_j chi_j}>/2 for a sign vector s of +1 and -1, one sign per
step: all +1 before the flip and -1 after it.  This module knows only sign
vectors; which vector each control arm walks is decided in
:mod:`qrecover.openloop`.  ``analytic_coherence`` evaluates the coherence
in closed form and ``monte_carlo_moments`` by sampling, as the mean of the
coherence and of its square after every prefix; ``coherence_std_error``
turns one prefix's two moments into its one-sigma error.  No state is built
here: the per-trajectory states and their average are the test suite's
oracle (``trajectory_state`` and ``averaged_projector_oracle`` in
``tests/helpers.py``), which the coherence is checked against.

Reproducibility: Monte Carlo sampling is organized in fixed blocks of
``BLOCK_SIZE`` trajectories; block j draws ``steps`` phases per trajectory,
a depth the caller sets, from a fresh substream keyed by (seed, j).  One
draw per block serves every prefix of every sign vector a job asks for,
so all arms, steps and fidelities of a job share the same samples.  With
w workers, each of w pool threads runs one strided loop over the blocks
(blocks i, i + w, i + 2w, ...) and writes each block's sums into that
block's row of a table; the caller adds the rows up in block order.
Results for a given (seed, n_samples, steps) are therefore bit-identical
no matter how many workers participate.  One worker runs the same loop
without a pool.

Sampling is keep-first: a block first draws the keep decisions of every
trajectory and step, then one normal per fresh phase only, about
1 + (steps - 1)(1 - mu) of them per trajectory; kept phases index the
value they repeat.  The index is built step-major, one integer add per
step, so every later gather reads it contiguously.  A draw beyond the
float range is rejected there, before any trigonometry.

The per-block kernel (``_block_moments``) walks each sign vector once and
records the sums of every prefix.  A vector continues the walk of the
vector before it from the last step they share, always multiplying left
to right, so each vector's values are those of its one-vector call at
the same (seed, n_samples, steps).  Exactness rule: where a mixed-sign
prefix's +1 phases and its -1 phases, each side added up in step order,
have equal sums, its factor is exactly 1, as e^{-i 0} is; so at mu = 1 a
balanced vector gives the coherence -1/2 with zero error, in any
summation order of the BLAS library and for any ``n_samples``.
"""

from __future__ import annotations

import cmath
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import accumulate

import numpy as np

from .entanglement import check_count

BLOCK_SIZE = 4096

# floats within 1e9 of 0 lie at most 1.2e-7 apart, so a phase drawn there
# resolves any sigma; near 1e16 they lie 2 apart
MAX_MEAN_PHASE = 1e9


def _check_noise(mu: float, sigma: float, mean_phase: float) -> None:
    """Raise ValueError, naming the field, for noise that the process does not define."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu {mu!r} outside [0, 1]")
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ValueError(f"sigma {sigma!r} must be positive and finite")
    if not abs(mean_phase) <= MAX_MEAN_PHASE:
        # for every method, though only the draws would go wrong beyond it
        raise ValueError(f"mean_phase {mean_phase!r} outside [-1e9, 1e9]")


def _draw(noise: tuple, steps: int, rng: np.random.Generator, count: int):
    """Fresh phase values of ``count`` sequences and the (count, steps) index into them.

    ``noise`` is (mu, sigma, mean_phase, clip_to_hardware).  The keep
    decisions come first: step 1 is always fresh, and each later step is
    redrawn where its uniform draw is >= mu, so it keeps the previous phase
    with probability mu.  Then one normal per fresh phase, in row-major
    order, so a kept phase's index is the running count of the fresh mask.
    The index is built step-major, as a (steps, count) array: row k is row
    k - 1 plus the fresh mask of step k, and each sequence's offset is the
    running total of the fresh counts of the sequences before it.  It comes
    back as the transposed view, whose ``.T`` is contiguous again.
    """
    mu, sigma, mean_phase, clip_to_hardware = noise
    fresh = (rng.random((count, steps - 1)) >= mu).T
    index = np.empty((steps, count), dtype=np.intp)
    index[0] = 0
    for k in range(1, steps):
        np.add(index[k - 1], fresh[k - 1], out=index[k])
    totals = index[-1] + 1
    ends = np.cumsum(totals)
    index += ends - totals
    values = rng.normal(mean_phase, sigma, size=int(ends[-1]))
    if clip_to_hardware:
        np.clip(values, 0.0, math.pi, out=values)
    if not np.isfinite(values).all():
        # a draw beyond the float range became inf; its cosine would be NaN
        raise ValueError(f"sigma {sigma!r} too large to sample: phase draws overflow")
    return values, index.T


def _block_draws(noise: tuple, steps: int, seed: int, block_index: int, count: int):
    """The draws of block ``block_index``, from its own (seed, block_index) substream."""
    return _draw(noise, steps, np.random.default_rng([seed, block_index]), count)


def _block_moments(noise, steps, walks, seed, block_index, count):
    """Sums of w and w^2 over one block, after every prefix of each walk.

    w = prod_j e^{i s_j chi_j} over the prefix, so the coherence is
    z = -conj(w)/2: ``monte_carlo_moments`` conjugates and scales the
    block-ordered totals once, which gives the bits of scaling each block's
    sums, as conjugating and scaling by a power of two are exact.  The
    block's e^{i chi} are evaluated once per fresh phase, as a cosine and a
    sine, and gathered into one kick per step and trajectory.  A walk
    (signs, start, branch) takes the sums of the walk before it for its
    first ``start`` steps and continues that walk's product from there; it
    keeps its own at step ``branch``, where the next walk starts.  Each
    side's phase sum is carried along next to the product, so the
    exactness rule costs one add per step walked.
    """
    values, index = _block_draws(noise, steps, seed, block_index, count)
    index = index.T
    rotations = np.empty(values.size, dtype=complex)
    np.cos(values, out=rotations.real)
    np.sin(values, out=rotations.imag)
    kicks = rotations.take(index)
    del rotations
    phases = values.take(index)
    sums = [[(complex(count), complex(count))]]
    branched = None, None, None
    for signs, start, branch in walks:
        walk = sums[-1][: start + 1]
        w, plus, minus = branched if start else (None, None, None)
        for k in range(start, len(signs)):
            if k == branch:
                branched = w, plus, minus
            if signs[k] > 0:
                kick = kicks[k]
                plus = phases[k] if plus is None else plus + phases[k]
            else:
                kick = kicks[k].conj()
                minus = phases[k] if minus is None else minus + phases[k]
            w = kick if w is None else w * kick
            # e^{-i 0} is exactly 1, but a kick times its conjugate may miss
            # 1 by an ulp; at mu = 1 that would leave a residue of ~1e-19.
            # Each side's phases are added in step order, so equal counts of
            # one value tie bit for bit (a signed sum in one gemv need not
            # reach 0: its order is the BLAS library's)
            exact = w if plus is None or minus is None else np.where(plus == minus, 1.0, w)
            walk.append((exact.sum(), np.dot(exact, exact)))
        if branch == len(signs):
            branched = w, plus, minus
        sums.append(walk)
    return sums[1:]


def _share(noise, steps, walks, seed, n_samples, first, stride, table, stop) -> None:
    """Write the sums of blocks first, first + stride, ... into their rows of ``table``.

    Stops before its next block once ``stop`` is set, and sets it when a
    block fails, so one failing share ends the others early.
    """
    try:
        for block_index in range(first, len(table), stride):
            if stop.is_set():
                return
            count = min(BLOCK_SIZE, n_samples - block_index * BLOCK_SIZE)
            table[block_index] = _block_moments(noise, steps, walks, seed, block_index, count)
    except BaseException:
        stop.set()
        raise


def monte_carlo_moments(
    sign_vectors,
    mu: float,
    sigma: float,
    mean_phase: float = math.pi / 2,
    *,
    steps: int,
    n_samples: int,
    seed: int,
    workers: int = 1,
    clip_to_hardware: bool = False,
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Average the live coherence after every prefix of each sign vector over n_samples samples.

    Returns one (means, square_means) pair per vector, in the order of
    ``sign_vectors``: complex arrays of length len(signs) + 1 whose entry k
    is the mean of the coherence and of its square after k steps, laid out
    as ``analytic_coherence`` lays out its values; noise is refused by the
    same check.  Every block of phases is drawn once, ``steps`` deep, and
    walked along each vector once; ``clip_to_hardware`` clips each phase to
    [0, pi].  The blocks fall into min(workers, blocks, cpu count) strided
    shares, each reduced into a per-block table: the caller reduces the
    first share while pool threads reduce the others, then it adds the
    table up in block order.  ``steps``, ``n_samples`` and ``workers`` must
    be integers >= 1, ``seed`` one >= 0, and no vector longer than ``steps``.
    """
    _check_noise(mu, sigma, mean_phase)
    check_count("steps", steps)
    check_count("n_samples", n_samples)
    check_count("seed", seed, 0)
    check_count("workers", workers)
    # Python ints: a numpy divisor would move the totals' last bits
    steps, n_samples = int(steps), int(n_samples)
    sign_vectors = tuple(tuple(signs) for signs in sign_vectors)
    for signs in sign_vectors:
        if len(signs) > steps:
            raise ValueError(f"sign vector {signs!r} longer than {steps} steps")
        if not all(s in (1, -1) for s in signs):
            raise ValueError(f"sign vector {signs!r} must hold only +1 and -1")
    noise = mu, sigma, mean_phase, clip_to_hardware
    # a walk starts where it leaves the one before (commonprefix compares
    # sequences item by item); lowering each start to the next one's keeps
    # them non-decreasing, so a walk passes the step where the next branches
    starts = [len(os.path.commonprefix(pair)) for pair in zip(sign_vectors, sign_vectors[1:])]
    starts = list(accumulate(reversed([0, *starts]), min))[::-1]
    walks = tuple(zip(sign_vectors, starts, starts[1:] + [None]))
    blocks = -(-n_samples // BLOCK_SIZE)
    table = [None] * blocks
    workers = min(workers, blocks, os.cpu_count() or 1)
    stop = threading.Event()
    shares = [
        (noise, steps, walks, seed, n_samples, first, workers, table, stop)
        for first in range(workers)
    ]
    # with one share the pool is never given a task, so it starts no thread
    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
        futures = [pool.submit(_share, *share) for share in shares[1:]]
        _share(*shares[0])
        for future in futures:
            future.result()
    totals = [[[0.0 + 0.0j, 0.0 + 0.0j] for _ in range(len(s) + 1)] for s in sign_vectors]
    # rows in block order, so the sums do not depend on the worker count
    for sums in table:
        for walk_totals, walk in zip(totals, sums):
            for total, (w_sum, w2_sum) in zip(walk_totals, walk):
                total[0] += w_sum
                total[1] += w2_sum
    # conjugating and scaling by a power of two are exact, so scaling the
    # totals once gives the bits of scaling every block's sums; a Python
    # complex divides each part by n_samples exactly rounded, where numpy
    # multiplies by the reciprocal and can miss -1/2 by an ulp
    return tuple(
        tuple(
            np.array([scale * complex(total).conjugate() / n_samples for total in column])
            for scale, column in zip((-0.5, 0.25), zip(*walk_totals))
        )
        for walk_totals in totals
    )


def coherence_std_error(mean: complex, square_mean: complex, n_samples: int) -> float:
    """One-sigma error of |mean| along its own direction, from one prefix's
    mean coherence and mean square coherence over ``n_samples`` samples.

    The arithmetic is that of Python complex numbers, whatever the type of
    the two moments; the error is 0 at a zero mean and below two samples.
    """
    mean, square_mean = complex(mean), complex(square_mean)
    mag = abs(mean)
    if mag == 0.0 or n_samples < 2:
        return 0.0
    direction = mean / mag
    second = 0.5 * (0.25 + (square_mean * np.conj(direction) ** 2).real)
    variance = max(0.0, second - mag * mag)
    return float(math.sqrt(variance / n_samples))


def _closed_blocks(weights: dict[int, float], sigma: float) -> float:
    return sum(v * _gaussian(w * sigma) for w, v in weights.items())


def _gaussian(x: float) -> float:
    """e^{-x^2/2}, which is 0.0 in float64 from |x| = 38.7 on, long before x^2 overflows."""
    return math.exp(-0.5 * x**2) if abs(x) < 40.0 else 0.0


def analytic_coherence(
    signs, mu: float, sigma: float, mean_phase: float = math.pi / 2
) -> np.ndarray:
    """Closed-form -<e^{-i sum_j s_j chi_j}>/2 after every prefix of ``signs``.

    Returns a complex array of length len(signs) + 1 whose entry k is the
    coherence after k steps; entry 0 is the singlet's -1/2.  Exact for any
    sign vector, in O(k^2) for all k prefixes: one recursion over the
    steps writes an entry after each.  Equal phases form blocks: each
    junction keeps the block with probability mu and starts a fresh one
    otherwise, and a block of signed weight w contributes
    e^{-i w mean_phase - w^2 sigma^2 / 2}.  The block weights always sum to
    sum(signs), so the mean phase factors out.  The magnitude never exceeds
    1/2.
    """
    _check_noise(mu, sigma, mean_phase)
    values = [complex(-0.5)]
    # signed weight of the open block -> probability-weighted product of
    # the closed blocks' Gaussian factors
    weights, total = {}, 0
    for s in signs:
        if weights:
            renewed = (1.0 - mu) * closed
            weights = {w + s: mu * v for w, v in weights.items()}
            weights[s] = weights.get(s, 0.0) + renewed
        else:
            weights = {s: 1.0}
        closed = _closed_blocks(weights, sigma)
        total += s
        values.append(-0.5 * closed * cmath.exp(-1j * mean_phase * total))
    return np.array(values)
