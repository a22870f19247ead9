import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrecover import runner
from qrecover.closedloop import (
    assistance_scan,
    controlled_concurrence_closed,
    measurement_branches,
    sweep_grid,
    uncontrolled_concurrence_closed,
)
from qrecover.entanglement import eof_from_concurrence
from qrecover.runner import RunConfig

from helpers import (
    controlled_bit_flip,
    controlled_output,
    corrected_ensemble,
    environment_rotation,
    eta_blend,
    grids,
    interaction_by_gates,
    measured_ensemble,
    measurement_rotation,
    pure_concurrence_oracle,
    uncontrolled_output,
    with_one_bad_element,
)
from oracle import (
    SIGMA_X,
    PureState,
    PureStateEnsemble,
    bell_state,
    concurrence,
    ensemble_average_eof,
    kron_state,
    partial_trace,
)

DATA = Path(__file__).resolve().parent / "data"
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
        singlet = bell_state("psi_minus").projector().matrix
        for eta in (1.0, 0.93333):
            for p in (0.25, 0.5, 0.7):
                for theta in (0.0, 0.5, math.pi / 4):
                    rho_in = eta_blend(singlet, eta).matrix
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
            assert assistance_scan(p)[1][0] == pytest.approx(1.0, abs=1e-12)

    def test_corrected_ensemble_members_collapse_at_natural_basis(self):
        ens = corrected_ensemble(0.4, 0.0)
        for _, state in ens.members:
            assert abs(state.overlap(bell_state("psi_minus"))) == pytest.approx(
                1.0, abs=1e-12
            )


class TestHiddenEntanglement:
    """Local operations on the pair recover at most the average entanglement
    of the measurement branches, the traced-out pair's plus its hidden part
    (D'Arrigo et al., Ann. Phys. 350, 211, 2014)."""

    @staticmethod
    def branch_average(p, theta):
        (p_u, c_u), (p_d, c_d) = measurement_branches(p, theta)
        return p_u * eof_from_concurrence(c_u) + p_d * eof_from_concurrence(c_d)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))
    def test_neither_pair_exceeds_the_branch_average(self, p, theta):
        average = self.branch_average(p, theta)
        assert eof_from_concurrence(controlled_concurrence_closed(theta)) <= average + 1e-12
        assert eof_from_concurrence(uncontrolled_concurrence_closed(p)) <= average + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_the_natural_basis_recovers_all_of_it(self, p):
        controlled = eof_from_concurrence(controlled_concurrence_closed(0.0))
        assert abs(controlled - self.branch_average(p, 0.0)) <= 1e-12


class TestAssistanceScan:
    def test_balanced_point_prefers_natural_basis(self):
        thetas, eofs = assistance_scan(0.5)
        assert thetas[0] == 0.0
        assert eofs[0] == pytest.approx(1.0, abs=1e-9)
        assert eofs[0] >= eofs.max() - 1e-12

    def test_no_interaction_keeps_everything_maximal(self):
        _, eofs = assistance_scan(0.0)
        np.testing.assert_allclose(eofs, np.ones_like(eofs), atol=1e-9)

    def test_partial_weight_still_reaches_unity_at_zero(self):
        _, eofs = assistance_scan(0.3)
        assert eofs[0] == pytest.approx(1.0, abs=1e-9)
        assert eofs[0] >= eofs.max() - 1e-12

    @pytest.mark.parametrize("n_theta", [2, 5, 181, 1001])
    def test_the_first_angle_is_the_maximum_for_every_p(self, n_theta):
        # at theta = 0 outcome u leaves |psi-> and outcome d |phi->: both
        # Bell states, so the ensemble's EoF is 1, its largest value, and
        # the runner marks row 0 as is_best without a search
        edges = [0.0, 1.0, 5e-324, 1e-15, 1.0 - 1e-15, 1e-13, 1.0 - 1e-13]
        for p in np.concatenate([np.linspace(0.0, 1.0, 1001), edges]).tolist():
            thetas, eofs = assistance_scan(p, n_theta)
            assert thetas[0] == 0.0
            assert eofs[0] >= eofs.max() - 1e-12, p

    def test_curve_matches_eof_of_cos2theta_at_half(self):
        for n_theta in (13, 1001):
            thetas, eofs = assistance_scan(0.5, n_theta=n_theta)
            expected = [eof_from_concurrence(abs(math.cos(2 * t))) for t in thetas]
            np.testing.assert_allclose(eofs, expected, rtol=0, atol=1e-12)

    def test_matches_the_oracle_ensemble_eof(self):
        for p in BRANCH_P:
            # 9 points include 0, pi/4 and pi/2
            for theta, eof in zip(*assistance_scan(p, n_theta=9)):
                assert eof == pytest.approx(measured_oracle_eof(p, float(theta)), abs=1e-12)


class TestSweepGrid:
    @pytest.mark.parametrize("points", [2, 7, 91, 101, 1001, 1025])
    def test_every_call_builds_a_new_linspace(self, points):
        for stop in (1.0, math.pi / 2):
            expected = np.linspace(0.0, stop, points)
            grids = [sweep_grid(stop, points), sweep_grid(stop, points)]
            if stop == math.pi / 2:
                scans = (assistance_scan(0.3, np.int64(points)), assistance_scan(0.7, points))
                grids += [thetas for thetas, _ in scans]
            for index, grid in enumerate(grids):
                assert grid.flags.writeable
                assert grid.dtype == expected.dtype and grid.tobytes() == expected.tobytes()
                assert not any(np.shares_memory(grid, other) for other in grids[:index])

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_changing_a_grid_leaves_the_next_call_and_file_unchanged(self, tmp_path, fmt):
        golden = (DATA / f"assist_scan_p0.3.{fmt}").read_bytes()
        out = str(tmp_path / f"s.{fmt}")
        config = RunConfig(experiment="assist_scan", out=out, p=0.3, format=fmt)
        expected = np.linspace(0.0, math.pi / 2, 181).tobytes()
        for attempt in range(2):
            # the first job may fill the writer's texts of the angles, the second reads them
            assert runner.run(config).read_bytes() == golden, attempt
            thetas, _ = assistance_scan(0.3, 181)
            grid = sweep_grid(math.pi / 2, 181)
            thetas += 1.0
            grid[:] = -1.0
            assert sweep_grid(math.pi / 2, 181).tobytes() == expected
            assert assistance_scan(0.3, 181)[0].tobytes() == expected

    @pytest.mark.parametrize("points", [1, 0, -1, 2.0, True, None])
    def test_a_size_it_cannot_build_is_refused(self, points):
        with pytest.raises(ValueError, match=f"^points must be an integer >= 2, got {points!r}$"):
            sweep_grid(1.0, points)

    @pytest.mark.parametrize(
        "sweep, stop, points, fields",
        [
            ("p", 1.0, 101, {}),
            ("p", 1.0, 7, {"grid_points": 7}),
            ("theta", math.pi / 2, 91, {}),
            ("theta", math.pi / 2, 7, {"grid_points": 7}),
        ],
    )
    def test_both_closed_loop_sweeps_take_the_sweep_grid(self, sweep, stop, points, fields):
        config = RunConfig(experiment="closed_loop", out="x.csv", sweep=sweep, **fields)
        column = runner._closed_loop_rows(config)[sweep]
        assert column.shape == (1, points, 1) and not column.flags.writeable
        assert column.tobytes() == np.linspace(0.0, stop, points).tobytes()

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(
            st.floats(),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308]),
            st.floats(-1e-300, 1e-300),
        ),
        st.integers(2, 3000),
    )
    @example(5e-324, 3000)
    @example(-0.0, 2)
    @example(-1.0, 101)
    @example(math.pi / 2, 1001)
    def test_the_grid_is_linspace_bit_for_bit(self, stop, points):
        # an infinite or NaN stop warns alike on both sides
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.linspace(0.0, stop, points)
            grid = sweep_grid(stop, points)
        assert grid.dtype == expected.dtype and grid.tobytes() == expected.tobytes()


def resolved_p(**fields):
    return RunConfig(experiment="assist_scan", out="x.csv", **fields).resolved_p()


class TestParams:
    def test_attenuation_ratio_conversion(self):
        assert resolved_p(p_prime=1.0) == pytest.approx(0.5, abs=1e-15)
        assert resolved_p(p_prime=0.25) == pytest.approx(0.2, abs=1e-12)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            resolved_p(p_prime=-0.1)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            resolved_p(p=0.4, p_prime=1.0)

    def test_consistent_pair_accepted(self):
        assert resolved_p(p=0.5, p_prime=1.0) == 0.5

    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_non_finite_theta_rejected(self, theta):
        with pytest.raises(ValueError, match="theta"):
            resolved_p(p=0.5, theta=theta)


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


UNIT = st.floats(0.0, 1.0)
ANGLE = st.floats(-4.0, 4.0)
# The oracle's eigenvalue floor (1e-12 of the largest) drops a Bell weight w
# in (1e-12, 1e-5) and then misses by about w; keep such weights out.
ORACLE_ETA = st.one_of(st.floats(0.0, 0.999), st.just(1.0))
ORACLE_P = UNIT.filter(lambda p: not 1e-12 < min(p, 1.0 - p) < 1e-5)
ORACLE_ANGLE = ANGLE.filter(
    lambda t: not 1e-12 < min(math.cos(t) ** 2, math.sin(t) ** 2) < 1e-5
)
NOT_A_WEIGHT = st.sampled_from([math.nan, -0.25, 1.5, math.inf])
NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def named(field, bad):
    return rf"^{field} {re.escape(repr(bad))} "


def branches_by_math(p, theta):
    """The branch closed form in Python scalar arithmetic, the reference for the arrays."""
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2

    def branch(psi_weight, phi_weight):
        probability = psi_weight + phi_weight
        if probability <= 1e-14:
            return 0.0, 0.0
        return probability, abs(phi_weight - psi_weight) / probability

    return branch((1.0 - p) * c2, p * s2), branch((1.0 - p) * s2, p * c2)


def mixed_by_math(z, eta):
    return min(1.0, max(0.0, 2.0 * (eta * z - (1.0 - eta) / 4.0)))


class TestArrayClosedForms:
    """Each closed form on a grid equals its calls on the grid's Python floats, bit for bit."""

    @given(grids(UNIT), grids(UNIT, max_size=4))
    def test_uncontrolled_is_elementwise_bit_for_bit(self, ps, etas):
        table = uncontrolled_concurrence_closed(np.array(ps)[:, None], np.array(etas))
        scalars = [[uncontrolled_concurrence_closed(p, eta) for eta in etas] for p in ps]
        assert table.tolist() == scalars
        assert scalars == [[mixed_by_math(abs(1.0 - 2.0 * p) / 2.0, e) for e in etas] for p in ps]
        assert all(type(c) is float for row in scalars for c in row)

    @given(grids(ANGLE), grids(UNIT, max_size=4))
    def test_controlled_is_elementwise_bit_for_bit(self, thetas, etas):
        table = controlled_concurrence_closed(np.array(thetas)[:, None], np.array(etas))
        scalars = [[controlled_concurrence_closed(t, eta) for eta in etas] for t in thetas]
        assert table.tolist() == scalars
        assert scalars == [
            [mixed_by_math(abs(math.cos(2.0 * t)) / 2.0, e) for e in etas] for t in thetas
        ]
        assert all(type(c) is float for row in scalars for c in row)

    @given(grids(UNIT, max_size=8), grids(ANGLE, max_size=8))
    def test_branches_are_elementwise_bit_for_bit(self, ps, thetas):
        branches = measurement_branches(np.array(ps)[:, None], np.array(thetas))
        for i, p in enumerate(ps):
            for j, theta in enumerate(thetas):
                scalar = measurement_branches(p, theta)
                assert all(type(v) is float for branch in scalar for v in branch)
                assert tuple((b[0][i, j], b[1][i, j]) for b in branches) == scalar
                assert scalar == branches_by_math(p, theta)

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.77, 1.0])
    def test_branches_on_dense_grids_are_the_scalar_math_bit_for_bit(self, p):
        # about 1 in 1000 of x * x differ from x ** 2 in the last bit; these grids hold such x
        rng = np.random.default_rng(17)
        thetas = np.concatenate([np.linspace(0.0, math.pi / 2, 1001), rng.uniform(-4, 4, 2000)])
        (prob_u, c_u), (prob_d, c_d) = measurement_branches(p, thetas)
        arrays = list(zip(zip(prob_u.tolist(), c_u.tolist()), zip(prob_d.tolist(), c_d.tolist())))
        assert arrays == [branches_by_math(p, theta) for theta in thetas.tolist()]

    @given(UNIT, st.integers(2, 60))
    def test_assistance_scan_is_the_branch_average_bit_for_bit(self, p, n_theta):
        thetas, eofs = assistance_scan(p, n_theta)
        for theta, eof in zip(thetas.tolist(), eofs.tolist()):
            (prob_u, c_u), (prob_d, c_d) = measurement_branches(p, theta)
            assert eof == prob_u * eof_from_concurrence(c_u) + prob_d * eof_from_concurrence(c_d)

    @settings(max_examples=25, deadline=None)
    @given(grids(ORACLE_P, max_size=5), ORACLE_ETA)
    def test_uncontrolled_matches_the_wootters_oracle(self, ps, eta):
        for p, c in zip(ps, uncontrolled_concurrence_closed(np.array(ps), eta)):
            assert c == pytest.approx(uncontrolled_output(p, eta)[1], abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(grids(ORACLE_ANGLE, max_size=5), ORACLE_ETA)
    def test_controlled_matches_the_wootters_oracle(self, thetas, eta):
        for theta, c in zip(thetas, controlled_concurrence_closed(np.array(thetas), eta)):
            assert c == pytest.approx(controlled_output(0.3, theta, eta)[1], abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(UNIT, grids(ANGLE, max_size=5))
    def test_branches_match_the_projected_pure_states(self, p, thetas):
        (prob_u, c_u), (prob_d, c_d) = measurement_branches(p, np.array(thetas))
        for i, theta in enumerate(thetas):
            for (probability, c), (expected, state) in zip(
                ((prob_u[i], c_u[i]), (prob_d[i], c_d[i])), measured_ensemble(p, theta)
            ):
                assert probability == pytest.approx(expected, abs=1e-12)
                if state is not None:
                    assert c == pytest.approx(pure_concurrence_oracle(state.amplitudes), abs=1e-12)

    @given(grids(UNIT), st.integers(0, 40), NOT_A_WEIGHT)
    def test_one_bad_weight_is_named(self, ps, index, bad):
        values = with_one_bad_element(ps, index, bad)
        with pytest.raises(ValueError, match=named("p", bad)):
            uncontrolled_concurrence_closed(values)
        with pytest.raises(ValueError, match=named("p", bad)):
            measurement_branches(values, 0.3)
        with pytest.raises(ValueError, match=named("eta", bad)):
            uncontrolled_concurrence_closed(0.3, values)
        with pytest.raises(ValueError, match=named("eta", bad)):
            controlled_concurrence_closed(0.3, values)

    @given(grids(ANGLE), st.integers(0, 40), NOT_FINITE)
    def test_one_non_finite_angle_is_named(self, thetas, index, bad):
        values = with_one_bad_element(thetas, index, bad)
        with pytest.raises(ValueError, match=named("theta", bad) + "must be finite"):
            controlled_concurrence_closed(values)
        with pytest.raises(ValueError, match=named("theta", bad) + "must be finite"):
            measurement_branches(0.3, values)
