"""Shared test oracles and random-instance generators.

Everything here is deliberately independent of the package internals: the
coherence oracle enumerates renewal patterns directly, the pure-state
concurrence uses the 2|ad - bc| determinant form, reduced matrices are
computed with raw einsum contractions, the averaged projector is built
from per-trajectory states one phase row at a time, and the closed-loop
pipeline is built gate by gate (rotate the environment, apply the
controlled flip, rotate the measurement basis, trace out or project, flip
B back) with the general eigensolver concurrence on the result.  The
states and the concurrence come from ``oracle``; the package computes the
same quantities from closed forms only.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from hypothesis import strategies as st

from qrecover.dephasing import BLOCK_SIZE, _block_draws

from oracle import (
    SIGMA_X,
    SIGMA_Z,
    DensityMatrix,
    LocalOperator,
    PureState,
    PureStateEnsemble,
    apply_local,
    apply_two_qubit,
    bell_state,
    bit_flip,
    concurrence,
    kron_state,
    maximally_mixed,
    mixture,
    partial_trace,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def grids(elements, max_size=40):
    """Nonempty lists of ``elements``: the grids of the array-form properties."""
    return st.lists(elements, min_size=1, max_size=max_size)


def with_one_bad_element(grid, index, bad):
    """``grid`` as a float array with ``bad`` inserted at ``index`` (wrapped)."""
    return np.insert(np.array(grid, dtype=float), index % (len(grid) + 1), bad)


def coherence_oracle(k, mu, sigma, mean_phase, signs):
    """-<exp(-i sum_j signs_j chi_j)>/2 by exact enumeration of keep/redraw patterns.

    Junction j is "keep" with probability mu; a kept junction merges step j
    into the previous block, whose phases are identical.  Each block of
    signed weight w contributes exp(-i w mean - w^2 sigma^2 / 2).
    """
    total = 0.0 + 0.0j
    for pattern in itertools.product((0, 1), repeat=k - 1):  # 1 = redraw
        prob = 1.0
        for bit in pattern:
            prob *= (1.0 - mu) if bit else mu
        weights = []
        current = signs[0]
        for j, bit in enumerate(pattern):
            if bit:
                weights.append(current)
                current = signs[j + 1]
            else:
                current += signs[j + 1]
        weights.append(current)
        value = 1.0 + 0.0j
        for w in weights:
            value *= np.exp(-1j * w * mean_phase - w * w * sigma * sigma / 2.0)
        total += prob * value
    return -0.5 * total


def keep_first_oracle(mu, sigma, steps, rng, count, mean_phase=math.pi / 2, clip=False):
    """(count, steps) phases of the keep-first rule, one row and step at a time.

    All keep decisions are drawn first, uniform draws < mu keeping the
    previous phase; then one normal per fresh phase, row by row, clipped to
    [0, pi] when ``clip`` is set.
    """
    redraw = rng.random((count, steps - 1)) >= mu
    fresh = rng.normal(mean_phase, sigma, size=count + int(redraw.sum()))
    if clip:
        fresh = np.clip(fresh, 0.0, math.pi)
    values = iter(fresh)
    rows = []
    for r in range(count):
        row = [next(values)]
        for k in range(1, steps):
            row.append(next(values) if redraw[r, k - 1] else row[-1])
        rows.append(row)
    assert next(values, None) is None
    return np.array(rows)


def sample_phase_matrix(mu, sigma, steps, n_samples, seed, mean_phase=math.pi / 2, clip=False):
    """(n_samples, steps) phases from the package's fixed block substreams.

    These are the phases the Monte Carlo kernel reduces, row for row, at the
    same ``steps``.
    """
    noise = mu, sigma, mean_phase, clip
    blocks = []
    for start in range(0, n_samples, BLOCK_SIZE):
        count = min(BLOCK_SIZE, n_samples - start)
        values, index = _block_draws(noise, steps, seed, start // BLOCK_SIZE, count)
        blocks.append(values.take(index))
    return np.vstack(blocks)


def trajectory_state(phases, signs):
    """Pure state of the pair after len(signs) steps of one row of phases.

    ``signs`` holds one sign per step (``oracle.arm_signs``): a bit flip on
    B acts before each step whose sign differs from the one before, the
    first compared with +1.  After an even number of flips the state is
    (|HV> - e^{i phi} |VH>)/sqrt(2), after an odd number
    (|HH> - e^{i phi} |VV>)/sqrt(2), with phi the signed phase sum
    sum_j s_j chi_j.  The empty vector (step 0, and the corrected arm's
    last step) is the exact singlet.
    """
    if len(signs) > len(phases):
        raise ValueError(f"{len(signs)} signs for {len(phases)} phases")
    phase = sum(s * chi for s, chi in zip(signs, phases))
    amps = np.zeros(4, dtype=complex)
    if signs and signs[-1] < 0:  # an odd number of flips: outer-coherence form
        amps[0] = _INV_SQRT2
        amps[3] = -np.exp(1j * phase) * _INV_SQRT2
    else:
        amps[1] = _INV_SQRT2
        amps[2] = -np.exp(1j * phase) * _INV_SQRT2
    return PureState(("A", "B"), amps)


def averaged_projector_oracle(mu, sigma, steps, signs, n_samples, seed):
    """Mean of the trajectory projectors for ``signs`` over sampled phase rows."""
    total = np.zeros((4, 4), dtype=complex)
    for row in sample_phase_matrix(mu, sigma, steps, n_samples, seed):
        total += trajectory_state(row, signs).projector().matrix
    return DensityMatrix(("A", "B"), total / n_samples)


def pure_concurrence_oracle(amplitudes):
    """Concurrence 2|ad - bc| of a normalized two-qubit pure state."""
    a, b, c, d = amplitudes
    return 2.0 * abs(a * d - b * c)


def reduced_matrix_oracle(amplitudes, n_qubits, keep_positions):
    """Partial trace of a pure-state projector via raw tensor contraction."""
    psi = np.asarray(amplitudes).reshape((2,) * n_qubits)
    rho = np.tensordot(psi, psi.conj(), axes=0)
    keep = sorted(keep_positions)
    row = list(range(n_qubits))
    col = [i + n_qubits if i in keep else i for i in range(n_qubits)]
    out = [i for i in keep] + [i + n_qubits for i in keep]
    reduced = np.einsum(rho, row + col, out)
    dim = 2 ** len(keep)
    return reduced.reshape(dim, dim)


def random_density_matrix(rng, dim=4):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / m.trace()


def random_pure_amplitudes(rng, dim=4):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim=2):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# Closed-loop pipeline, gate by gate.


def environment_rotation(p):
    """sqrt(1-p) sigma_z + sqrt(p) sigma_x on O; unitary for every p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p {p!r} outside [0, 1]")
    return LocalOperator("O", math.sqrt(1.0 - p) * SIGMA_Z + math.sqrt(p) * SIGMA_X)


def measurement_rotation(theta):
    """Rotation applied to O so that projecting onto |u>, |d> afterwards
    measures in the theta-rotated basis."""
    c, s = math.cos(theta), math.sin(theta)
    return LocalOperator("O", np.array([[c, s], [-s, c]], dtype=complex))


def controlled_bit_flip():
    """4x4 gate on (B, O): flip B when O is |d>."""
    gate = np.zeros((4, 4), dtype=complex)
    for b in (0, 1):
        for o in (0, 1):
            gate[((b ^ o) << 1) | o, (b << 1) | o] = 1.0
    return gate


def initial_state():
    return kron_state(bell_state("psi_minus"), PureState(("O",), np.array([1.0, 0.0])))


def interaction_by_gates(p):
    """Three-qubit state after the environment rotation and the controlled flip."""
    state = apply_local(initial_state(), environment_rotation(p))
    return apply_two_qubit(state, controlled_bit_flip(), ("B", "O"))


def eta_blend(bell_part, eta):
    mixed = maximally_mixed(("A", "B")).matrix
    return DensityMatrix(("A", "B"), eta * bell_part + (1.0 - eta) * mixed)


def uncontrolled_output(p, eta=1.0):
    """Pair state after tracing out the environment, and its concurrence."""
    rho_bell = partial_trace(interaction_by_gates(p).projector(), ("A", "B"))
    rho = eta_blend(rho_bell.matrix, eta)
    return rho, concurrence(rho)


def measured_ensemble(p, theta):
    """Rotate O and project onto |u>, |d>: (probability, pair state) per outcome.

    The outcomes come in the order u, d; a branch with probability <= 1e-14
    is (0.0, None).
    """
    rotated = apply_local(interaction_by_gates(p), measurement_rotation(theta))
    slices = rotated.amplitudes.reshape(4, 2)
    branches = []
    for column in (0, 1):
        vector = slices[:, column]
        probability = float(np.vdot(vector, vector).real)
        if probability <= 1e-14:
            branches.append((0.0, None))
        else:
            branches.append((probability, PureState(("A", "B"), vector / math.sqrt(probability))))
    return tuple(branches)


def corrected_ensemble(p, theta):
    """The measured branches, with B flipped back on the "down" outcome."""
    (p_up, up), (p_down, down) = measured_ensemble(p, theta)
    if down is not None:
        down = apply_local(down, bit_flip("B"))
    members = ((p_up, up), (p_down, down))
    return PureStateEnsemble(tuple(m for m in members if m[1] is not None))


def controlled_output(p, theta, eta=1.0):
    """Pair state after measurement plus conditioned correction, and its concurrence."""
    rho = eta_blend(mixture(corrected_ensemble(p, theta)).matrix, eta)
    return rho, concurrence(rho)


def table_rows(table):
    """The rows of a column table, each a mapping from column to cell.

    The ndarray columns broadcast against each other to the row grid, whose
    cells in C order are the rows; any other value is one cell on every row.
    """
    arrays = [values for values in table.values() if isinstance(values, np.ndarray)]
    grid = np.broadcast_shapes(*(array.shape for array in arrays))
    columns = {
        column: np.broadcast_to(values, grid).ravel().tolist()
        if isinstance(values, np.ndarray)
        else [values] * math.prod(grid)
        for column, values in table.items()
    }
    return [dict(zip(columns, cells)) for cells in zip(*columns.values())]
