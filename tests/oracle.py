"""State toolkit of the test oracles: qubit registers, gates, partial trace
and the general two-qubit concurrence; the sign vector of each open-loop
arm; the exact second moment of the Monte Carlo coherence; and the exact
coverage of the counts-demo error bars, which sums the package's own
estimators over a grid of Poisson outcomes.

The package computes every quantity from closed forms and builds no quantum
state.  The tests build the same states here, gate by gate, and check the
closed forms against them.

Basis convention: register labels are ordered most-significant-first, with
the polarization encoding H -> 0, V -> 1 and the path encoding u -> 0,
d -> 1.  The computational index of |x1 x2 ... xn> is
sum_i x_i * 2**(n - i), so on register (A, B) the basis order is
HH, HV, VH, VV and on (A, B, O) the last label varies fastest.

Global phases are never normalized away; compare pure states through
overlap magnitudes or projectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qrecover.counts import estimate_p_prime, estimate_theta
from qrecover.entanglement import eof_from_concurrence

ATOL_NORM = 1e-12
ATOL_HERMITIAN = 1e-12
ATOL_TRACE = 1e-12
EIGENVALUE_FLOOR = -1e-10

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_SPIN_FLIP = np.kron(SIGMA_Y, SIGMA_Y)

BELL_AMPLITUDES = {
    "psi_minus": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
    "psi_plus": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "phi_minus": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "phi_plus": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
}


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _as_register(register) -> tuple[str, ...]:
    reg = tuple(str(label) for label in register)
    if not reg:
        raise ValueError("register must contain at least one qubit label")
    if len(set(reg)) != len(reg):
        raise ValueError(f"duplicate qubit labels in register {reg}")
    return reg


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex amplitude vector over a labeled qubit register."""

    register: tuple[str, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        reg = _as_register(self.register)
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.shape != (2 ** len(reg),):
            raise ValueError(
                f"amplitude vector of length {amps.shape} does not match register {reg}"
            )
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > ATOL_NORM:
            raise ValueError(f"squared norm {norm_sq!r} is not 1")
        object.__setattr__(self, "register", reg)
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @property
    def num_qubits(self) -> int:
        return len(self.register)

    def projector(self) -> "DensityMatrix":
        return DensityMatrix(self.register, np.outer(self.amplitudes, self.amplitudes.conj()))

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        if self.register != other.register:
            raise ValueError(f"registers differ: {self.register} vs {other.register}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-one matrix over a qubit register."""

    register: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        reg = _as_register(self.register)
        m = np.ascontiguousarray(self.matrix, dtype=complex)
        dim = 2 ** len(reg)
        if m.shape != (dim, dim):
            raise ValueError(f"matrix of shape {m.shape} does not match register {reg}")
        if np.abs(m - m.conj().T).max() > ATOL_HERMITIAN:
            raise ValueError("matrix is not Hermitian")
        trace = m.trace()
        if abs(trace - 1.0) > ATOL_TRACE:
            raise ValueError(f"trace {trace!r} is not 1")
        if np.linalg.eigvalsh(m).min() < EIGENVALUE_FLOOR:
            raise ValueError("matrix has a negative eigenvalue beyond tolerance")
        object.__setattr__(self, "register", reg)
        object.__setattr__(self, "matrix", _freeze(m))


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """A 2x2 operator addressed to one labeled qubit."""

    target: str
    matrix: np.ndarray
    unitary: bool = True

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"local operator must be 2x2, got {m.shape}")
        if self.unitary and np.abs(m.conj().T @ m - np.eye(2)).max() > 1e-12:
            raise ValueError("operator flagged unitary fails U^dag U = 1")
        object.__setattr__(self, "matrix", _freeze(m))


def bit_flip(target: str) -> LocalOperator:
    return LocalOperator(target, SIGMA_X)


def bell_state(kind: str, register=("A", "B")) -> PureState:
    """One of the four Bell states on a two-qubit register.

    ``psi_minus`` is (|HV> - |VH>)/sqrt(2), ``phi_minus`` is (|HH> - |VV>)/sqrt(2),
    and the ``plus`` variants carry a + sign instead.
    """
    try:
        amps = BELL_AMPLITUDES[kind]
    except KeyError:
        raise ValueError(f"unknown Bell state {kind!r}; expected one of {sorted(BELL_AMPLITUDES)}")
    return PureState(register, amps.copy())


def maximally_mixed(register) -> DensityMatrix:
    reg = _as_register(register)
    dim = 2 ** len(reg)
    return DensityMatrix(reg, np.eye(dim, dtype=complex) / dim)


def kron_state(left: PureState, right: PureState) -> PureState:
    """Tensor product of two pure states on disjoint registers."""
    common = set(left.register) & set(right.register)
    if common:
        raise ValueError(f"registers overlap on {sorted(common)}")
    return PureState(left.register + right.register, np.kron(left.amplitudes, right.amplitudes))


def _apply_gate(state, gate: np.ndarray, targets):
    """Contract a 2^m x 2^m gate into the (2,)*n tensor of ``state`` on ``targets``.

    The gate is indexed with the first target as the most significant bit.
    Pure states are mapped through U, densities through U . U^dag: U on the
    row axes, U* on the column axes.
    """
    if not isinstance(state, (PureState, DensityMatrix)):
        raise TypeError(f"cannot apply a gate to {type(state).__name__}")
    reg = state.register
    if len(set(targets)) != len(targets):
        raise ValueError("two-qubit operator needs two distinct targets")
    for t in targets:
        if t not in reg:
            raise ValueError(f"qubit {t!r} not in register {reg}")
    m, n = len(targets), len(reg)
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (2**m, 2**m):
        raise ValueError(f"{m}-qubit operator must be {2**m}x{2**m}, got {gate.shape}")
    gate = gate.reshape((2,) * (2 * m))
    axes = [reg.index(t) for t in targets]

    def contract(tensor, g, offset):
        on = [offset + a for a in axes]
        out = np.tensordot(g, tensor, axes=(list(range(m, 2 * m)), on))
        return np.moveaxis(out, list(range(m)), on)

    if isinstance(state, PureState):
        psi = contract(state.amplitudes.reshape((2,) * n), gate, 0)
        return PureState(reg, psi.reshape(-1))
    rho = contract(state.matrix.reshape((2,) * (2 * n)), gate, 0)
    rho = contract(rho, gate.conj(), n)
    return DensityMatrix(reg, rho.reshape(2**n, 2**n))


def apply_local(state, op: LocalOperator):
    """Apply a local operator; pure states are mapped through U, densities through U . U^dag."""
    return _apply_gate(state, op.matrix, (op.target,))


def apply_two_qubit(state, matrix4: np.ndarray, targets):
    """Apply a 4x4 operator to the ordered pair ``targets``, the first the more significant bit."""
    t0, t1 = targets
    return _apply_gate(state, matrix4, (t0, t1))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix on the ``keep`` labels (original register order)."""
    keep_set = set(_as_register(keep))
    reg = rho.register
    unknown = keep_set - set(reg)
    if unknown:
        raise ValueError(f"labels {sorted(unknown)} not in register {reg}")
    if keep_set == set(reg):
        raise ValueError("keep must be a strict subset of the register")
    n = len(reg)
    keep_pos = [i for i, label in enumerate(reg) if label in keep_set]
    tensor = rho.matrix.reshape((2,) * (2 * n))
    row_idx = list(range(n))
    col_idx = [n + i if i in keep_pos else i for i in range(n)]
    out_idx = [i for i in keep_pos] + [n + i for i in keep_pos]
    reduced = np.einsum(tensor, row_idx + col_idx, out_idx)
    kept = tuple(reg[i] for i in keep_pos)
    dim = 2 ** len(kept)
    return DensityMatrix(kept, reduced.reshape(dim, dim))


def fidelity_to_pure(rho: DensityMatrix, psi: PureState) -> float:
    """<psi| rho |psi>, clamped to [0, 1]."""
    if rho.register != psi.register:
        raise ValueError(f"registers differ: {rho.register} vs {psi.register}")
    value = complex(psi.amplitudes.conj() @ rho.matrix @ psi.amplitudes)
    if abs(value.imag) > 1e-12:
        raise ValueError(f"fidelity came out non-real: {value!r}")
    return float(min(1.0, max(0.0, value.real)))


def concurrence(rho: DensityMatrix) -> float:
    """Concurrence of a two-qubit density matrix (Wootters, PRL 80, 2245, 1998).

    Takes the eigenvalues of rho (sy x sy) rho* (sy x sy) with a general
    complex eigensolver and returns max(0, l1 - l2 - l3 - l4) of the square
    roots, sorted descending.  Real parts below 1e-12 of the largest
    eigenvalue are numerically indistinguishable from zero and are clamped
    before the square root (which would otherwise amplify 1e-16-level noise
    to 1e-8).  Residual imaginary parts above 1e-8 indicate a numerical
    pathology and raise.
    """
    if rho.matrix.shape != (4, 4):
        raise ValueError(f"concurrence is defined for two qubits, got dimension {len(rho.matrix)}")
    m = rho.matrix
    flipped = _SPIN_FLIP @ m.conj() @ _SPIN_FLIP
    eigenvalues = np.linalg.eigvals(m @ flipped)
    if np.abs(eigenvalues.imag).max() > 1e-8:
        raise ArithmeticError(
            f"spin-flip spectrum has imaginary parts up to {np.abs(eigenvalues.imag).max():.3e}"
        )
    floor = 1e-12 * max(eigenvalues.real.max(), 0.0)
    real_parts = np.where(eigenvalues.real > floor, eigenvalues.real, 0.0)
    lam = np.sqrt(real_parts)
    lam[::-1].sort()
    return float(min(1.0, max(0.0, lam[0] - lam[1] - lam[2] - lam[3])))


@dataclass(frozen=True, eq=False)
class PureStateEnsemble:
    """Weighted pure states on a two-qubit register, probabilities summing to one."""

    members: tuple[tuple[float, PureState], ...]

    def __post_init__(self):
        members = tuple((float(p), state) for p, state in self.members)
        if not members:
            raise ValueError("ensemble must have at least one member")
        total = 0.0
        for p, state in members:
            if not -1e-12 <= p <= 1.0 + 1e-12:
                raise ValueError(f"probability {p!r} outside [0, 1]")
            if state.num_qubits != 2:
                raise ValueError("ensemble members must be two-qubit states")
            total += p
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "members", members)


def ensemble_average_eof(ensemble: PureStateEnsemble) -> float:
    """Probability-weighted entanglement of formation over ensemble members.

    Each member's concurrence is Wootters' pure-state form
    |psi^T (sy x sy) psi|, which is exact and needs no eigensolver.
    """
    return float(
        sum(
            p * eof_from_concurrence(abs(state.amplitudes @ _SPIN_FLIP @ state.amplitudes))
            for p, state in ensemble.members
            if p > 0.0
        )
    )


def mixture(ensemble: PureStateEnsemble) -> DensityMatrix:
    """The density matrix realized by forgetting which member occurred."""
    register = ensemble.members[0][1].register
    total = np.zeros((4, 4), dtype=complex)
    for p, state in ensemble.members:
        total += p * np.outer(state.amplitudes, state.amplitudes.conj())
    return DensityMatrix(register, total)


def coherence_square_mean_oracle(k, mu, sigma, mean_phase, signs):
    """<z^2> of the live coherence z = -exp(-i sum_j signs_j chi_j)/2, exactly.

    z^2 = exp(-2i sum_j signs_j chi_j)/4, and 2 chi is the same correlated
    process with mean 2 mean_phase and spread 2 sigma, so <z^2> is -1/2
    times the coherence at the doubled parameters.
    """
    from helpers import coherence_oracle  # helpers imports this module

    return -0.5 * coherence_oracle(k, mu, 2.0 * sigma, 2.0 * mean_phase, signs)


def arm_signs(kind, k, steps):
    """Signs with which chi_1..chi_k enter the live coherence of an open-loop
    arm after step k of ``steps``.

    The echoed arm's bit flip acts after step 2 and reverses every later
    phase (after the last step it never acts); the corrected arm is the
    exact singlet, the empty vector, at its last step.
    """
    if not 0 <= k <= steps:
        raise ValueError(f"step {k} outside 0..{steps}")
    if kind == "corrected" and k == steps:
        return ()
    flip = {"uncontrolled": steps, "corrected": steps, "echoed": 2}[kind]
    return tuple(1 if j < flip else -1 for j in range(k))


def _poisson_window(mean, sds=12.0):
    """The counts within ``sds`` standard deviations of a Poisson mean, and their pmf."""
    if mean == 0.0:
        return np.zeros(1, dtype=int), np.ones(1)
    spread = sds * math.sqrt(mean)
    k = np.arange(max(0, math.floor(mean - spread)), math.ceil(mean + spread) + 1)
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, k[-1] + 1)))))
    return k, np.exp(k * math.log(mean) - mean - log_factorial[k])


def counts_coverage_oracle(quantity, p, theta, total_pairs):
    """Exact probability that counts-demo's estimate of ``quantity`` ("theta"
    or "p_prime") lies within its stat_error of the true value.

    Each estimate depends on two independent Poisson sums only: the mode-0
    and mode-1 counts, of means N (1 - p) cos^2 theta and N (1 - p)
    sin^2 theta, for theta; the down- and up-path counts, of means N p and
    N (1 - p), for p' = p/(1 - p).  Their joint pmf is summed over 12
    standard deviations either side of each mean, with the package's own
    estimator evaluated on the whole grid at once.  An undefined estimate
    (no mode counts at all, or no up-path counts) is a miss: its cell is
    given a dummy second sum of 1 and left out of the sum.
    """
    if quantity == "theta":
        estimator, truth = estimate_theta, theta
        means = (1.0 - p) * math.cos(theta) ** 2, (1.0 - p) * math.sin(theta) ** 2
    else:
        estimator, truth = estimate_p_prime, p / (1.0 - p)
        means = p, 1.0 - p
    (k0, pmf0), (k1, pmf1) = (_poisson_window(total_pairs * mean) for mean in means)
    k0, k1 = k0[:, None], k1[None, :]
    undefined = (k0 + k1 == 0) if quantity == "theta" else (k1 == 0)
    estimate, error = estimator(k0, np.where(undefined, 1, k1))
    return float(pmf0 @ ((np.abs(estimate - truth) <= error) & ~undefined) @ pmf1)
