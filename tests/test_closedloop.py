import math

import numpy as np
import pytest

from qrecover.closedloop import (
    ClosedLoopParams,
    assistance_scan,
    controlled_concurrence_closed,
    measurement_branches,
    uncontrolled_concurrence_closed,
)
from qrecover.entanglement import (
    PureStateEnsemble,
    concurrence,
    ensemble_average_eof,
    eof_from_concurrence,
)
from qrecover.states import (
    SIGMA_X,
    bell_state,
    kron_state,
    partial_trace,
    PureState,
)

from helpers import (
    controlled_bit_flip,
    controlled_output,
    corrected_ensemble,
    environment_rotation,
    interaction_by_gates,
    measured_ensemble,
    measurement_rotation,
    pure_concurrence_oracle,
    uncontrolled_output,
)

ETAS = (0.86667, 0.93333, 0.946667)  # measured-fidelity mixing weights
P_GRID = np.linspace(0.0, 1.0, 21)
THETA_GRID = np.linspace(0.0, math.pi / 2, 19)
# the oracle grid: both limits of p and theta, and the diagonal angle
BRANCH_P = (0.0, 0.3, 0.5, 1.0)
BRANCH_THETA = (0.0, 0.35, math.pi / 4, 1.1, math.pi / 2)


def interaction_closed_form(p):
    """sqrt(1-p)|psi->|u> + sqrt(p)|phi->|d>, written out."""
    up = kron_state(bell_state("psi_minus"), PureState(("O",), np.array([1.0, 0.0])))
    down = kron_state(bell_state("phi_minus"), PureState(("O",), np.array([0.0, 1.0])))
    return math.sqrt(1.0 - p) * up.amplitudes + math.sqrt(p) * down.amplitudes


def measured_oracle_eof(p, theta):
    """Average EoF of the gate-built measured ensemble."""
    members = tuple(m for m in measured_ensemble(p, theta) if m[1] is not None)
    return ensemble_average_eof(PureStateEnsemble(members))


class TestGates:
    def test_environment_rotation_is_unitary_for_all_p(self):
        for p in P_GRID:
            u = environment_rotation(float(p)).matrix
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_measurement_rotation_is_unitary(self):
        for theta in THETA_GRID:
            u = measurement_rotation(float(theta)).matrix
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_controlled_flip_is_unitary_and_flips_on_down(self):
        g = controlled_bit_flip()
        np.testing.assert_allclose(g.conj().T @ g, np.eye(4), atol=1e-15)
        # |B=0, O=1> -> |B=1, O=1>
        v = np.zeros(4)
        v[0b01] = 1.0
        np.testing.assert_allclose(g @ v, np.eye(4)[0b11], atol=1e-15)

    def test_rotation_splits_the_up_state(self):
        u = environment_rotation(0.25).matrix
        np.testing.assert_allclose(u @ [1, 0], [math.sqrt(0.75), math.sqrt(0.25)], atol=1e-12)


class TestInteraction:
    def test_constructive_equals_closed_form(self):
        for p in P_GRID:
            built = interaction_by_gates(float(p))
            np.testing.assert_allclose(
                built.amplitudes, interaction_closed_form(float(p)), atol=1e-12
            )

    def test_limits(self):
        up = PureState(("O",), np.array([1.0, 0]))
        down = PureState(("O",), np.array([0, 1.0]))
        zero = interaction_by_gates(0.0)
        assert abs(zero.overlap(kron_state(bell_state("psi_minus"), up))) == pytest.approx(
            1.0, abs=1e-12
        )
        one = interaction_by_gates(1.0)
        assert abs(one.overlap(kron_state(bell_state("phi_minus"), down))) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_balanced_point_has_no_pair_entanglement(self):
        rho = partial_trace(interaction_by_gates(0.5).projector(), ("A", "B"))
        assert concurrence(rho) == pytest.approx(0.0, abs=1e-12)

    def test_balanced_point_traces_to_equal_bell_mixture(self):
        rho = partial_trace(interaction_by_gates(0.5).projector(), ("A", "B"))
        expected = 0.5 * (
            bell_state("psi_minus").projector().matrix
            + bell_state("phi_minus").projector().matrix
        )
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)

    def test_p_out_of_range(self):
        for p in (1.2, -0.1, math.nan):
            with pytest.raises(ValueError, match="^p "):
                measurement_branches(p, 0.3)
            with pytest.raises(ValueError, match="^p "):
                assistance_scan(p)


class TestUncontrolled:
    def test_concurrence_profile(self):
        for p in np.linspace(0.0, 1.0, 101):
            _, c = uncontrolled_output(float(p))
            assert c == pytest.approx(abs(1 - 2 * p), abs=1e-10)

    def test_balanced_point_vanishes_exactly(self):
        _, c = uncontrolled_output(0.5)
        assert c == 0.0

    def test_symmetry_in_p(self):
        for p in np.linspace(0.0, 0.5, 26):
            for eta in (1.0,) + ETAS:
                _, left = uncontrolled_output(float(p), eta)
                _, right = uncontrolled_output(float(1 - p), eta)
                assert left == pytest.approx(right, abs=1e-12)

    def test_imperfect_preparation_endpoint(self):
        eta = (4 * 0.90 - 1) / 3
        _, c = uncontrolled_output(0.0, eta)
        assert c == pytest.approx((3 * eta - 1) / 2, abs=1e-10)
        assert c == pytest.approx(0.8, abs=1e-6)

    def test_closed_form_matches_construction(self):
        for p in P_GRID:
            for eta in (1.0,) + ETAS:
                _, c = uncontrolled_output(float(p), eta)
                assert c == pytest.approx(
                    uncontrolled_concurrence_closed(float(p), eta), abs=1e-10
                )


class TestMeasurement:
    def test_natural_basis_selects_the_bell_ensemble(self):
        for p in (0.2, 0.5, 0.8):
            assert measurement_branches(p, 0.0) == ((1 - p, 1.0), (p, 1.0))
            (_, up), (_, down) = measured_ensemble(p, 0.0)
            assert abs(up.overlap(bell_state("psi_minus"))) == pytest.approx(1.0, abs=1e-12)
            assert abs(down.overlap(bell_state("phi_minus"))) == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_at_general_angle(self):
        for p in (0.0, 0.3, 0.5, 1.0):
            for theta in THETA_GRID:
                (p_up, _), (p_down, _) = measurement_branches(float(p), float(theta))
                c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
                assert p_up == pytest.approx((1 - p) * c2 + p * s2, abs=1e-12)
                assert p_down == pytest.approx((1 - p) * s2 + p * c2, abs=1e-12)
                assert p_up + p_down == pytest.approx(1.0, abs=1e-10)

    def test_balanced_members_have_cos2theta_concurrence(self):
        for theta in THETA_GRID:
            for probability, c in measurement_branches(0.5, float(theta)):
                assert probability == pytest.approx(0.5, abs=1e-12)
                assert c == pytest.approx(abs(math.cos(2 * theta)), abs=1e-12)
            for _, state in measured_ensemble(0.5, float(theta)):
                value = concurrence(state.projector())
                assert value == pytest.approx(abs(math.cos(2 * theta)), abs=1e-9)

    def test_diagonal_angle_regains_nothing(self):
        for _, c in measurement_branches(0.5, math.pi / 4):
            assert c == pytest.approx(0.0, abs=1e-15)
        for _, state in measured_ensemble(0.5, math.pi / 4):
            assert concurrence(state.projector()) == pytest.approx(0.0, abs=1e-10)

    def test_mixture_reproduces_traced_state(self):
        for p in (0.0, 0.3, 0.5, 0.9):
            traced = partial_trace(interaction_by_gates(p).projector(), ("A", "B"))
            for theta in (0.0, 0.4, math.pi / 4, 1.2):
                total = np.zeros((4, 4), dtype=complex)
                for probability, state in measured_ensemble(p, theta):
                    if state is None:
                        continue
                    amps = state.amplitudes
                    total += probability * np.outer(amps, amps.conj())
                np.testing.assert_allclose(total, traced.matrix, atol=1e-12)

    def test_rotate_then_project_equals_projecting_on_rotated_kets(self):
        # the closed form projects onto the rotated kets; the oracle rotates
        # O gate by gate and projects onto |u>, |d>
        for p in BRANCH_P:
            for theta in BRANCH_THETA:
                closed = measurement_branches(p, theta)
                for (probability, c), (expected, state) in zip(
                    closed, measured_ensemble(p, theta)
                ):
                    assert probability == pytest.approx(expected, abs=1e-12)
                    if state is None:
                        assert (probability, c) == (0.0, 0.0)
                    else:
                        oracle = pure_concurrence_oracle(state.amplitudes)
                        assert c == pytest.approx(oracle, abs=1e-12)

    def test_zero_probability_branch_has_no_state(self):
        for p, theta, empty in ((0.0, 0.0, 1), (1.0, 0.0, 0), (0.0, math.pi / 2, 0)):
            branches = measurement_branches(p, theta)
            assert branches[empty] == (0.0, 0.0)
            assert measured_ensemble(p, theta)[empty] == (0.0, None)
            assert branches[1 - empty] == (1.0, 1.0)


class TestControlled:
    def test_natural_basis_fully_restores_for_any_p(self):
        for p in np.linspace(0.0, 1.0, 21):
            rho, c = controlled_output(float(p), 0.0)
            assert c == pytest.approx(1.0, abs=1e-10)
            np.testing.assert_allclose(
                rho.matrix, bell_state("psi_minus").projector().matrix, atol=1e-12
            )

    def test_output_is_the_two_bell_mixture(self):
        psi = bell_state("psi_minus").projector().matrix
        phi = bell_state("phi_minus").projector().matrix
        for p in (0.15, 0.5, 0.85):
            for theta in THETA_GRID:
                rho, _ = controlled_output(float(p), float(theta))
                target = math.cos(theta) ** 2 * psi + math.sin(theta) ** 2 * phi
                np.testing.assert_allclose(rho.matrix, target, atol=1e-12)

    def test_balanced_sweep_concurrence(self):
        for theta in np.linspace(0.0, math.pi / 2, 91):
            _, c = controlled_output(0.5, float(theta))
            assert c == pytest.approx(abs(math.cos(2 * theta)), abs=1e-10)

    def test_octant_angle_value(self):
        _, c = controlled_output(0.5, math.pi / 8)
        assert c == pytest.approx(math.cos(math.pi / 4), abs=1e-9)

    def test_imperfect_preparation_value(self):
        eta = (4 * 0.95 - 1) / 3
        _, c = controlled_output(0.5, 0.0, eta)
        assert c == pytest.approx((3 * eta - 1) / 2, abs=1e-10)
        assert c == pytest.approx(0.9, abs=1e-6)

    def test_closed_form_matches_construction(self):
        for p in (0.2, 0.5, 0.8):
            for theta in THETA_GRID:
                for eta in (1.0,) + ETAS:
                    _, c = controlled_output(float(p), float(theta), eta)
                    assert c == pytest.approx(
                        controlled_concurrence_closed(float(theta), eta), abs=1e-10
                    )

    def test_full_density_pipeline_oracle(self):
        # evolve the eta-mixed input through the gates, measure, correct, and
        # mix, entirely with dense matrices; must equal the linearity route
        from qrecover.entanglement import PreparationModel, werner

        for eta in (1.0, 0.93333):
            for p in (0.25, 0.5, 0.7):
                for theta in (0.0, 0.5, math.pi / 4):
                    rho_in = werner(PreparationModel.from_eta(eta)).matrix
                    env = np.zeros((2, 2), dtype=complex)
                    env[0, 0] = 1.0
                    rho = np.kron(rho_in, env)
                    r_env = np.kron(np.eye(4), environment_rotation(p).matrix)
                    gate = np.kron(np.eye(2), controlled_bit_flip())
                    r_meas = np.kron(np.eye(4), measurement_rotation(theta).matrix)
                    for u in (r_env, gate, r_meas):
                        rho = u @ rho @ u.conj().T
                    blocks = rho.reshape(4, 2, 4, 2)
                    flip = np.kron(np.eye(2), SIGMA_X)
                    total = blocks[:, 0, :, 0] + flip @ blocks[:, 1, :, 1] @ flip
                    expected, _ = controlled_output(p, theta, eta)
                    np.testing.assert_allclose(total, expected.matrix, atol=1e-12)


class TestEnsembles:
    def test_measured_ensemble_average_eof_natural_basis(self):
        for p in (0.0, 0.3, 0.5):
            assert measured_oracle_eof(p, 0.0) == pytest.approx(1.0, abs=1e-9)
            assert assistance_scan(p).eofs[0] == pytest.approx(1.0, abs=1e-12)

    def test_corrected_ensemble_members_collapse_at_natural_basis(self):
        ens = corrected_ensemble(0.4, 0.0)
        for _, state in ens.members:
            assert abs(state.overlap(bell_state("psi_minus"))) == pytest.approx(
                1.0, abs=1e-12
            )


class TestAssistanceScan:
    def test_balanced_point_prefers_natural_basis(self):
        scan = assistance_scan(0.5)
        assert scan.best_theta == 0.0
        assert scan.best_eof == pytest.approx(1.0, abs=1e-9)

    def test_no_interaction_keeps_everything_maximal(self):
        scan = assistance_scan(0.0)
        np.testing.assert_allclose(scan.eofs, np.ones_like(scan.eofs), atol=1e-9)

    def test_partial_weight_still_reaches_unity_at_zero(self):
        scan = assistance_scan(0.3)
        assert scan.best_theta == 0.0
        assert scan.best_eof == pytest.approx(1.0, abs=1e-9)

    def test_curve_matches_eof_of_cos2theta_at_half(self):
        for n_theta in (13, 1001):
            scan = assistance_scan(0.5, n_theta=n_theta)
            expected = [eof_from_concurrence(abs(math.cos(2 * t))) for t in scan.thetas]
            np.testing.assert_allclose(scan.eofs, expected, rtol=0, atol=1e-12)

    def test_matches_the_oracle_ensemble_eof(self):
        for p in BRANCH_P:
            scan = assistance_scan(p, n_theta=9)  # includes 0, pi/4 and pi/2
            for theta, eof in zip(scan.thetas, scan.eofs):
                assert eof == pytest.approx(measured_oracle_eof(p, float(theta)), abs=1e-12)


class TestParams:
    def test_attenuation_ratio_conversion(self):
        params = ClosedLoopParams.from_p_prime(1.0)
        assert params.p == pytest.approx(0.5, abs=1e-15)
        params = ClosedLoopParams.from_p_prime(0.25)
        assert params.p == pytest.approx(0.2, abs=1e-12)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            ClosedLoopParams.from_p_prime(-0.1)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            ClosedLoopParams(p=0.4, p_prime=1.0)

    def test_consistent_pair_accepted(self):
        params = ClosedLoopParams(p=0.5, p_prime=1.0)
        assert params.p == 0.5

    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_non_finite_theta_rejected(self, theta):
        with pytest.raises(ValueError, match="theta"):
            ClosedLoopParams(p=0.5, theta=theta)


class TestClosedFormDomain:
    @pytest.mark.parametrize(
        "args, field",
        [
            ((math.nan,), "^theta "),
            ((math.inf,), "^theta "),
            ((0.1, 1.7), "^eta "),
            ((0.1, -0.2), "^eta "),
            ((0.1, math.nan), "^eta "),
        ],
    )
    def test_controlled_rejects(self, args, field):
        with pytest.raises(ValueError, match=field):
            controlled_concurrence_closed(*args)

    @pytest.mark.parametrize(
        "args, field",
        [
            ((1.5,), "^p "),
            ((-0.1,), "^p "),
            ((math.nan,), "^p "),
            ((0.3, 1.7), "^eta "),
            ((0.3, math.nan), "^eta "),
        ],
    )
    def test_uncontrolled_rejects(self, args, field):
        with pytest.raises(ValueError, match=field):
            uncontrolled_concurrence_closed(*args)

    @pytest.mark.parametrize("n", [91, 1001])
    def test_unit_eta_is_abs_cos_2theta_bit_for_bit(self, n):
        for theta in np.linspace(0.0, math.pi / 2, n):
            theta = float(theta)
            assert controlled_concurrence_closed(theta, 1.0) == abs(math.cos(2 * theta))

    def test_domain_edges_accepted(self):
        assert uncontrolled_concurrence_closed(0.0, 0.0) == 0.0
        assert uncontrolled_concurrence_closed(1.0, 1.0) == 1.0
        assert controlled_concurrence_closed(math.pi / 2, 1.0) == 1.0
