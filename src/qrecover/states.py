"""Quantum state and operator primitives for small labeled qubit registers.

Basis convention, shared by every module in this package: register labels
are ordered most-significant-first, with the polarization encoding
H -> 0, V -> 1 and the path encoding u -> 0, d -> 1.  The computational
index of |x1 x2 ... xn> is sum_i x_i * 2**(n - i), so on register (A, B)
the basis order is HH, HV, VH, VV and on (A, B, O) the last label varies
fastest.

Global phases are never normalized away; compare pure states through
overlap magnitudes or projectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ATOL_NORM = 1e-12
ATOL_HERMITIAN = 1e-12
ATOL_TRACE = 1e-12
EIGENVALUE_FLOOR = -1e-10

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

BELL_AMPLITUDES = {
    "psi_minus": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
    "psi_plus": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "phi_minus": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "phi_plus": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
}


class RegisterError(ValueError):
    """A qubit label or register did not match the operand it was used with."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _as_register(register) -> tuple[str, ...]:
    reg = tuple(str(label) for label in register)
    if not reg:
        raise RegisterError("register must contain at least one qubit label")
    if len(set(reg)) != len(reg):
        raise RegisterError(f"duplicate qubit labels in register {reg}")
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
            raise RegisterError(
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

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> "DensityMatrix":
        return DensityMatrix(self.register, np.outer(self.amplitudes, self.amplitudes.conj()))

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        if self.register != other.register:
            raise RegisterError(f"registers differ: {self.register} vs {other.register}")
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
            raise RegisterError(f"matrix of shape {m.shape} does not match register {reg}")
        if np.abs(m - m.conj().T).max() > ATOL_HERMITIAN:
            raise ValueError("matrix is not Hermitian")
        trace = m.trace()
        if abs(trace - 1.0) > ATOL_TRACE:
            raise ValueError(f"trace {trace!r} is not 1")
        if np.linalg.eigvalsh(m).min() < EIGENVALUE_FLOOR:
            raise ValueError("matrix has a negative eigenvalue beyond tolerance")
        object.__setattr__(self, "register", reg)
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def num_qubits(self) -> int:
        return len(self.register)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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


def phase_shift(target: str, phi: float) -> LocalOperator:
    """diag(1, e^{i phi}) on the target qubit."""
    return LocalOperator(target, np.diag([1.0, np.exp(1j * phi)]))


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
        raise RegisterError(f"registers overlap on {sorted(common)}")
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
        raise RegisterError("two-qubit operator needs two distinct targets")
    for t in targets:
        if t not in reg:
            raise RegisterError(f"qubit {t!r} not in register {reg}")
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
        raise RegisterError(f"labels {sorted(unknown)} not in register {reg}")
    if keep_set == set(reg):
        raise RegisterError("keep must be a strict subset of the register")
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
        raise RegisterError(f"registers differ: {rho.register} vs {psi.register}")
    value = complex(psi.amplitudes.conj() @ rho.matrix @ psi.amplitudes)
    if abs(value.imag) > 1e-12:
        raise ValueError(f"fidelity came out non-real: {value!r}")
    return float(min(1.0, max(0.0, value.real)))
