import numpy as np
import pytest

from qrecover.states import (
    DensityMatrix,
    LocalOperator,
    PureState,
    RegisterError,
    apply_local,
    apply_two_qubit,
    bell_state,
    bit_flip,
    fidelity_to_pure,
    kron_state,
    maximally_mixed,
    partial_trace,
    phase_shift,
)
from qrecover.entanglement import PreparationModel, werner

from helpers import (
    random_density_matrix,
    random_pure_amplitudes,
    random_unitary,
    reduced_matrix_oracle,
)

RNG = np.random.default_rng(20240811)


class TestBellStates:
    def test_psi_minus_amplitudes(self):
        state = bell_state("psi_minus")
        np.testing.assert_allclose(
            state.amplitudes, np.array([0, 1, -1, 0]) / np.sqrt(2), atol=1e-15
        )

    def test_phi_minus_amplitudes(self):
        state = bell_state("phi_minus")
        np.testing.assert_allclose(
            state.amplitudes, np.array([1, 0, 0, -1]) / np.sqrt(2), atol=1e-15
        )

    def test_all_four_are_orthonormal(self):
        kinds = ("psi_minus", "phi_minus", "psi_plus", "phi_plus")
        states = [bell_state(k) for k in kinds]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                expected = 1.0 if i == j else 0.0
                assert abs(a.overlap(b)) == pytest.approx(expected, abs=1e-12)

    def test_cross_fidelity_is_zero(self):
        rho = bell_state("psi_minus").projector()
        assert fidelity_to_pure(rho, bell_state("phi_minus")) == pytest.approx(0.0, abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown Bell state"):
            bell_state("psi_zero")


class TestValidation:
    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(("A", "B"), np.array([1.0, 1.0, 0.0, 0.0]))

    def test_length_must_match_register(self):
        with pytest.raises(RegisterError):
            PureState(("A", "B"), np.array([1.0, 0.0]))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(RegisterError):
            PureState(("A", "A"), np.array([1.0, 0, 0, 0]))

    def test_density_hermiticity_enforced(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(("A", "B"), m)

    def test_density_trace_enforced(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(("A", "B"), np.eye(4, dtype=complex) / 2)

    def test_density_positivity_enforced(self):
        m = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(("A", "B"), m)

    def test_non_unitary_flagged_operator_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            LocalOperator("B", np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_amplitudes_are_immutable(self):
        state = bell_state("psi_minus")
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0


class TestApplyLocal:
    def test_bit_flip_on_basis_state(self):
        hv = PureState(("A", "B"), np.array([0, 1.0, 0, 0]))
        flipped = apply_local(hv, bit_flip("B"))
        np.testing.assert_allclose(flipped.amplitudes, [1.0, 0, 0, 0], atol=1e-15)

    def test_bit_flip_maps_psi_minus_to_phi_minus(self):
        out = apply_local(bell_state("psi_minus"), bit_flip("B"))
        assert abs(out.overlap(bell_state("phi_minus"))) == pytest.approx(1.0, abs=1e-12)

    def test_half_turn_phase_applied_twice_is_identity(self):
        op = phase_shift("B", np.pi)
        state = PureState(("A", "B"), np.array([0.5, 0.5, 0.5, 0.5]))
        twice = apply_local(apply_local(state, op), op)
        np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-12)

    def test_unknown_target_raises(self):
        with pytest.raises(RegisterError, match="not in register"):
            apply_local(bell_state("psi_minus"), bit_flip("C"))

    def test_unitary_preserves_trace_and_spectrum(self):
        for _ in range(20):
            rho = DensityMatrix(("A", "B"), random_density_matrix(RNG))
            op = LocalOperator("A", random_unitary(RNG))
            out = apply_local(rho, op)
            assert out.matrix.trace().real == pytest.approx(1.0, abs=1e-10)
            np.testing.assert_allclose(
                np.linalg.eigvalsh(out.matrix), np.linalg.eigvalsh(rho.matrix), atol=1e-10
            )

    def test_density_conjugation_matches_matrix_formula(self):
        rho = DensityMatrix(("A", "B"), random_density_matrix(RNG))
        op = LocalOperator("B", random_unitary(RNG))
        full = np.kron(np.eye(2), op.matrix)
        np.testing.assert_allclose(
            apply_local(rho, op).matrix, full @ rho.matrix @ full.conj().T, atol=1e-12
        )


class TestEmbedding:
    def test_apply_local_equals_kron(self):
        op = LocalOperator("B", random_unitary(RNG))
        state = PureState(("A", "B"), random_pure_amplitudes(RNG))
        np.testing.assert_allclose(
            apply_local(state, op).amplitudes,
            np.kron(np.eye(2), op.matrix) @ state.amplitudes,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            apply_local(state, LocalOperator("A", op.matrix)).amplitudes,
            np.kron(op.matrix, np.eye(2)) @ state.amplitudes,
            atol=1e-12,
        )

    def test_apply_local_three_qubits(self):
        op = LocalOperator("O", random_unitary(RNG))
        state = PureState(("A", "B", "O"), random_pure_amplitudes(RNG, 8))
        np.testing.assert_allclose(
            apply_local(state, op).amplitudes,
            np.kron(np.eye(4), op.matrix) @ state.amplitudes,
            atol=1e-12,
        )

    def test_apply_two_qubit_adjacent_pair(self):
        m4 = np.kron(random_unitary(RNG), random_unitary(RNG))
        full = np.kron(np.eye(2), m4)
        state = PureState(("A", "B", "O"), random_pure_amplitudes(RNG, 8))
        np.testing.assert_allclose(
            apply_two_qubit(state, m4, ("B", "O")).amplitudes,
            full @ state.amplitudes,
            atol=1e-12,
        )

    def test_apply_two_qubit_reversed_pair(self):
        # on ("O", "B") the first target O is the more significant bit of m4
        m4 = random_unitary(RNG, 4)
        swap = np.eye(4)[[0, 2, 1, 3]]
        full = np.kron(np.eye(2), swap @ m4 @ swap)
        state = PureState(("A", "B", "O"), random_pure_amplitudes(RNG, 8))
        np.testing.assert_allclose(
            apply_two_qubit(state, m4, ("O", "B")).amplitudes,
            full @ state.amplitudes,
            atol=1e-12,
        )

    def test_apply_two_qubit_non_adjacent_pair(self):
        # (A, B, O) -> (A, O, B) is a swap of the last two qubits
        m4 = random_unitary(RNG, 4)
        swap = np.kron(np.eye(2), np.eye(4)[[0, 2, 1, 3]])
        full = swap @ np.kron(m4, np.eye(2)) @ swap
        state = PureState(("A", "B", "O"), random_pure_amplitudes(RNG, 8))
        np.testing.assert_allclose(
            apply_two_qubit(state, m4, ("A", "O")).amplitudes,
            full @ state.amplitudes,
            atol=1e-12,
        )

    def test_apply_two_qubit_to_density_matrix(self):
        m4 = random_unitary(RNG, 4)
        swap = np.kron(np.eye(2), np.eye(4)[[0, 2, 1, 3]])
        full = swap @ np.kron(m4, np.eye(2)) @ swap
        rho = DensityMatrix(("A", "B", "O"), random_density_matrix(RNG, 8))
        np.testing.assert_allclose(
            apply_two_qubit(rho, m4, ("A", "O")).matrix,
            full @ rho.matrix @ full.conj().T,
            atol=1e-12,
        )

    def test_gate_shape_and_targets_checked(self):
        state = PureState(("A", "B", "O"), random_pure_amplitudes(RNG, 8))
        with pytest.raises(RegisterError, match="distinct"):
            apply_two_qubit(state, np.eye(4), ("B", "B"))
        with pytest.raises(RegisterError, match="not in register"):
            apply_two_qubit(state, np.eye(4), ("B", "C"))
        with pytest.raises(ValueError, match="4x4"):
            apply_two_qubit(state, np.eye(2), ("A", "B"))
        with pytest.raises(TypeError):
            apply_local(np.ones(8), bit_flip("A"))

    def test_two_qubit_application_on_pure_state(self):
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
        hv = PureState(("A", "B"), np.array([0, 1.0, 0, 0]))
        out = apply_two_qubit(hv, swap, ("A", "B"))
        np.testing.assert_allclose(out.amplitudes, [0, 0, 1.0, 0], atol=1e-15)


class TestPartialTrace:
    def test_product_state_factorizes(self):
        psi = bell_state("psi_minus")
        env = PureState(("O",), np.array([1.0, 0]))
        rho = kron_state(psi, env).projector()
        reduced = partial_trace(rho, ("A", "B"))
        np.testing.assert_allclose(reduced.matrix, psi.projector().matrix, atol=1e-12)

    def test_maximally_entangled_marginal(self):
        reduced = partial_trace(bell_state("psi_minus").projector(), ("A",))
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_random_product_density_matrices(self):
        for _ in range(20):
            rho_a = random_density_matrix(RNG, 2)
            rho_b = random_density_matrix(RNG, 2)
            joint = DensityMatrix(("A", "B"), np.kron(rho_a, rho_b))
            np.testing.assert_allclose(
                partial_trace(joint, ("A",)).matrix, rho_a, atol=1e-10
            )
            np.testing.assert_allclose(
                partial_trace(joint, ("B",)).matrix, rho_b, atol=1e-10
            )

    def test_against_contraction_oracle_on_three_qubits(self):
        from helpers import random_pure_amplitudes

        amps = random_pure_amplitudes(RNG, 8)
        rho = DensityMatrix(("A", "B", "O"), np.outer(amps, amps.conj()))
        np.testing.assert_allclose(
            partial_trace(rho, ("A", "B")).matrix,
            reduced_matrix_oracle(amps, 3, (0, 1)),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            partial_trace(rho, ("B",)).matrix,
            reduced_matrix_oracle(amps, 3, (1,)),
            atol=1e-12,
        )

    def test_trace_preserved(self):
        rho = DensityMatrix(("A", "B", "O"), random_density_matrix(RNG, 8))
        reduced = partial_trace(rho, ("A", "O"))
        assert reduced.matrix.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_keep_must_be_strict_subset(self):
        rho = bell_state("psi_minus").projector()
        with pytest.raises(RegisterError):
            partial_trace(rho, ("A", "B"))
        with pytest.raises(RegisterError):
            partial_trace(rho, ("C",))


class TestFidelity:
    def test_projector_with_itself(self):
        psi = bell_state("psi_minus")
        assert fidelity_to_pure(psi.projector(), psi) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = maximally_mixed(("A", "B"))
        assert fidelity_to_pure(rho, bell_state("psi_minus")) == pytest.approx(0.25, abs=1e-12)

    def test_partially_mixed_preparation(self):
        prep = PreparationModel.from_fidelity(0.96)
        rho = werner(prep)
        assert fidelity_to_pure(rho, bell_state("psi_minus")) == pytest.approx(
            0.96, abs=1e-12
        )

    def test_register_mismatch(self):
        rho = maximally_mixed(("A", "O"))
        with pytest.raises(RegisterError):
            fidelity_to_pure(rho, bell_state("psi_minus"))
