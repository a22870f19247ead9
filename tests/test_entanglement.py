import numpy as np
import pytest

from qrecover.entanglement import (
    PreparationModel,
    PureStateEnsemble,
    XStateError,
    binary_entropy,
    concurrence,
    concurrence_with_path,
    concurrence_x_state,
    ensemble_average_eof,
    eof_from_concurrence,
    mixture,
    werner,
)
from qrecover.states import DensityMatrix, PureState, bell_state, maximally_mixed

from helpers import (
    pure_concurrence_oracle,
    random_pure_amplitudes,
    random_unitary,
    random_x_state,
)

RNG = np.random.default_rng(73)

# 2 max{0, eta/2 - (1 - eta)/4} at eta = (4 * 0.96 - 1)/3
WERNER_96_CONCURRENCE = 0.92
EOF_AT_C06 = 0.4689955935892811  # h(0.9), evaluated independently
EOF_AT_COS_QUARTER_PI = 0.6008760366928562  # h((1 + sqrt(1/2))/2)


class TestConcurrence:
    def test_singlet_is_maximal(self):
        assert concurrence(bell_state("psi_minus").projector()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_is_separable(self):
        assert concurrence(maximally_mixed(("A", "B"))) == pytest.approx(0.0, abs=1e-12)

    def test_werner_at_measured_fidelity(self):
        rho = werner(PreparationModel.from_fidelity(0.96))
        assert concurrence(rho) == pytest.approx(WERNER_96_CONCURRENCE, abs=1e-9)

    def test_matches_determinant_form_on_pure_states(self):
        for _ in range(100):
            amps = random_pure_amplitudes(RNG)
            rho = DensityMatrix(("A", "B"), np.outer(amps, amps.conj()))
            assert concurrence(rho) == pytest.approx(
                pure_concurrence_oracle(amps), abs=1e-10
            )

    def test_local_unitary_invariance(self):
        from helpers import random_density_matrix
        from qrecover.states import LocalOperator, apply_local

        for _ in range(50):
            rho = DensityMatrix(("A", "B"), random_density_matrix(RNG))
            rotated = apply_local(rho, LocalOperator("A", random_unitary(RNG)))
            rotated = apply_local(rotated, LocalOperator("B", random_unitary(RNG)))
            assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-9)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="two qubits"):
            concurrence(maximally_mixed(("A", "B", "O")))


class TestXStateShortcut:
    def test_singlet(self):
        assert concurrence_x_state(bell_state("psi_minus").projector()) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_classical_mixture(self):
        rho = DensityMatrix(("A", "B"), np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))
        assert concurrence_x_state(rho) == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_general_concurrence(self):
        rng = np.random.default_rng(1234)
        worst = 0.0
        for _ in range(1000):
            rho = DensityMatrix(("A", "B"), random_x_state(rng))
            worst = max(worst, abs(concurrence_x_state(rho) - concurrence(rho)))
        assert worst < 1e-9

    def test_non_x_input_raises(self):
        amps = random_pure_amplitudes(RNG)
        rho = DensityMatrix(("A", "B"), np.outer(amps, amps.conj()))
        with pytest.raises(XStateError):
            concurrence_x_state(rho)

    def test_path_reporting(self):
        value, path = concurrence_with_path(bell_state("psi_minus").projector())
        assert path == "x_state" and value == pytest.approx(1.0, abs=1e-12)
        amps = random_pure_amplitudes(np.random.default_rng(9))
        rho = DensityMatrix(("A", "B"), np.outer(amps, amps.conj()))
        value, path = concurrence_with_path(rho)
        assert path == "wootters"
        assert value == pytest.approx(concurrence(rho), abs=1e-12)


class TestEntanglementOfFormation:
    def test_endpoints(self):
        assert eof_from_concurrence(0.0) == 0.0
        assert eof_from_concurrence(1.0) == 1.0

    def test_intermediate_value(self):
        assert eof_from_concurrence(0.6) == pytest.approx(EOF_AT_C06, abs=1e-4)

    def test_binary_entropy_conventions(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError, match="outside"):
            eof_from_concurrence(1.1)
        with pytest.raises(ValueError, match="outside"):
            eof_from_concurrence(-0.1)
        # within the 1e-9 slack, clamped instead
        assert eof_from_concurrence(1.0 + 5e-10) == 1.0

    def test_monotone_on_fine_grid(self):
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        values = [eof_from_concurrence(c) for c in grid]
        for previous, current in zip(values, values[1:]):
            assert current >= previous - 1e-12


class TestEnsembles:
    def test_pure_singlet_ensemble(self):
        ens = PureStateEnsemble(((1.0, bell_state("psi_minus")),))
        assert ensemble_average_eof(ens) == pytest.approx(1.0, abs=1e-12)

    def test_two_bell_members_stay_maximal_for_any_weight(self):
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            ens = PureStateEnsemble(
                ((1.0 - p, bell_state("psi_minus")), (p, bell_state("phi_minus")))
            )
            assert ensemble_average_eof(ens) == pytest.approx(1.0, abs=1e-12)

    def test_rotated_pair_ensemble_value(self):
        theta = np.pi / 8
        psi = bell_state("psi_minus").amplitudes
        phi = bell_state("phi_minus").amplitudes
        up = PureState(("A", "B"), np.cos(theta) * psi + np.sin(theta) * phi)
        down = PureState(("A", "B"), -np.sin(theta) * psi + np.cos(theta) * phi)
        ens = PureStateEnsemble(((0.5, up), (0.5, down)))
        expected = eof_from_concurrence(np.cos(np.pi / 4))
        assert ensemble_average_eof(ens) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(EOF_AT_COS_QUARTER_PI, abs=1e-12)

    def test_member_concurrence_matches_determinant_oracle(self):
        rng = np.random.default_rng(31)
        for i in range(600):
            amps = random_pure_amplitudes(rng)
            if i % 3:  # near-product states, where C is small
                product = np.kron(random_pure_amplitudes(rng, 2), random_pure_amplitudes(rng, 2))
                amps = product + 10.0 ** -(3 * (i % 3)) * amps
                amps /= np.linalg.norm(amps)
            ens = PureStateEnsemble(((1.0, PureState(("A", "B"), amps)),))
            expected = eof_from_concurrence(pure_concurrence_oracle(amps))
            assert ensemble_average_eof(ens) == pytest.approx(expected, rel=0, abs=1e-12)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            PureStateEnsemble(((0.5, bell_state("psi_minus")),))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            PureStateEnsemble(())

    def test_convexity_on_random_two_member_ensembles(self):
        rng = np.random.default_rng(500)
        for _ in range(500):
            p = rng.random()
            members = (
                (p, PureState(("A", "B"), random_pure_amplitudes(rng))),
                (1.0 - p, PureState(("A", "B"), random_pure_amplitudes(rng))),
            )
            ens = PureStateEnsemble(members)
            averaged = ensemble_average_eof(ens)
            mixed = eof_from_concurrence(concurrence(mixture(ens)))
            assert averaged >= mixed - 1e-9


class TestPreparationModel:
    def test_fidelity_eta_locking(self):
        prep = PreparationModel.from_fidelity(0.96)
        assert prep.eta == pytest.approx((4 * 0.96 - 1) / 3, abs=1e-12)
        assert prep.eta == pytest.approx(0.946667, abs=1e-6)
        back = PreparationModel.from_eta(prep.eta)
        assert back.fidelity == pytest.approx(0.96, abs=1e-12)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            PreparationModel(eta=0.9, fidelity=0.9)

    @pytest.mark.parametrize("eta", [1.5, -0.2, float("nan")])
    def test_eta_range_message_matches_closed_loop(self, eta):
        from qrecover.closedloop import ClosedLoopParams

        message = rf"^eta {eta!r} outside \[0, 1\]$"
        with pytest.raises(ValueError, match=message):
            PreparationModel.from_eta(eta)
        with pytest.raises(ValueError, match=message):
            ClosedLoopParams(p=0.5, eta=eta)

    def test_werner_limits(self):
        ideal = werner(PreparationModel.ideal())
        np.testing.assert_allclose(
            ideal.matrix, bell_state("psi_minus").projector().matrix, atol=1e-12
        )
        flat = werner(PreparationModel.from_eta(0.0))
        np.testing.assert_allclose(flat.matrix, np.eye(4) / 4, atol=1e-12)
