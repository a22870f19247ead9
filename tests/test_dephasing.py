import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrecover.dephasing import (
    BLOCK_SIZE,
    CORRECTED,
    ECHOED,
    UNCONTROLLED,
    NoiseParams,
    TrajectoryControl,
    analytic_coherence,
    monte_carlo_moments,
)
from qrecover import dephasing

from helpers import (
    averaged_projector_oracle,
    coherence_oracle,
    keep_first_oracle,
    sample_phase_matrix,
    trajectory_state,
)
from oracle import (
    DensityMatrix,
    LocalOperator,
    apply_local,
    bell_state,
    bit_flip,
    concurrence,
    maximally_mixed,
)

SIGMA = 0.6
CHIBAR = math.pi / 2


def default_params(mu, **kwargs):
    return NoiseParams(mu=mu, sigma=SIGMA, **kwargs)


def uncontrolled_coherence(k, mu, sigma, mean_phase=CHIBAR):
    return analytic_coherence(UNCONTROLLED.signs(k, 4), mu, sigma, mean_phase)


def echoed_coherence(k, mu, sigma, mean_phase=CHIBAR):
    return analytic_coherence(ECHOED.signs(k, 4), mu, sigma, mean_phase)


class TestSampling:
    def test_full_correlation_freezes_the_sequence(self):
        for row in sample_phase_matrix(default_params(1.0), 50, seed=3):
            assert len(set(row)) == 1

    def test_zero_correlation_uncorrelated_adjacent(self):
        phases = sample_phase_matrix(default_params(0.0), 100_000, seed=11)
        x = phases[:, :-1].ravel()
        y = phases[:, 1:].ravel()
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r) < 3 / math.sqrt(100_000)

    def test_sample_correlation_matches_mu(self):
        phases = sample_phase_matrix(default_params(0.7), 100_000, seed=11)
        x = phases[:, :-1].ravel()
        y = phases[:, 1:].ravel()
        r = np.corrcoef(x, y)[0, 1]
        assert r == pytest.approx(0.7, abs=0.01)

    def test_marginal_moments(self):
        phases = sample_phase_matrix(default_params(0.7), 100_000, seed=4)
        assert phases.mean() == pytest.approx(CHIBAR, abs=0.01)
        assert phases.std() == pytest.approx(SIGMA, abs=0.01)

    def test_deterministic_for_fixed_seed(self):
        a = sample_phase_matrix(default_params(0.5), 10_000, seed=9)
        b = sample_phase_matrix(default_params(0.5), 10_000, seed=9)
        assert np.array_equal(a, b)

    def test_hardware_clip(self):
        params = default_params(0.2, clip_to_hardware=True)
        phases = sample_phase_matrix(params, 20_000, seed=1)
        assert phases.min() >= 0.0 and phases.max() <= math.pi

    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("steps", [1, 4, 12])
    @pytest.mark.parametrize("clip", [False, True])
    @pytest.mark.parametrize("last", [1, 5])
    def test_blocks_follow_the_keep_first_rule(self, mu, steps, clip, last):
        # a full block, then a last block of 1 or 5 sequences
        params = NoiseParams(mu=mu, sigma=2.0, steps=steps, clip_to_hardware=clip)
        n, seed = BLOCK_SIZE + last, 21
        expected = np.vstack(
            [
                keep_first_oracle(params, np.random.default_rng([seed, j]), count)
                for j, count in enumerate((BLOCK_SIZE, last))
            ]
        )
        assert np.array_equal(sample_phase_matrix(params, n, seed), expected)

    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.7, 1.0])
    def test_a_block_draws_one_normal_per_fresh_phase(self, mu):
        params = default_params(mu, steps=5)
        count, seed, block = 1000, 8, 3
        values, index = dephasing._block_draws(params, seed, block, count)
        decisions = np.random.default_rng([seed, block]).random((count, 4))
        assert values.size == count + np.count_nonzero(decisions >= mu)
        if mu == 0.0:
            assert values.size == count * params.steps
        if mu == 1.0:
            assert values.size == count

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NoiseParams(mu=1.2, sigma=0.6)
        with pytest.raises(ValueError):
            NoiseParams(mu=0.5, sigma=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [("sigma", math.inf), ("sigma", math.nan), ("mean_phase", math.nan), ("mean_phase", -math.inf)],
    )
    def test_non_finite_noise_rejected_by_name(self, field, value):
        kwargs = {"mu": 0.5, "sigma": SIGMA, field: value}
        with pytest.raises(ValueError, match=field):
            NoiseParams(**kwargs)


class TestSigns:
    def test_arms_as_sign_vectors(self):
        assert UNCONTROLLED.signs(3, 4) == (1, 1, 1)
        assert ECHOED.signs(4, 4) == (1, 1, -1, -1)
        assert TrajectoryControl("echoed", echo_after_step=1).signs(3, 4) == (1, -1, -1)
        assert CORRECTED.signs(4, 4) == ()
        for control in (UNCONTROLLED, ECHOED, CORRECTED):
            assert control.signs(0, 4) == ()

    def test_arms_coincide_before_their_control_acts(self):
        for k in (1, 2):
            assert ECHOED.signs(k, 4) == UNCONTROLLED.signs(k, 4)
        for k in (1, 2, 3):
            assert CORRECTED.signs(k, 4) == UNCONTROLLED.signs(k, 4)

    def test_echo_after_the_last_step_never_acts(self):
        late = TrajectoryControl("echoed", echo_after_step=2)
        for steps in (1, 2):
            for k in range(steps + 1):
                assert late.signs(k, steps) == UNCONTROLLED.signs(k, steps)


class TestTrajectoryStates:
    def test_step_zero_is_the_singlet(self):
        for control in (UNCONTROLLED, CORRECTED, ECHOED):
            state = trajectory_state((0.3, 0.4, 0.5, 0.6), 0, control)
            assert abs(state.overlap(bell_state("psi_minus"))) == pytest.approx(1.0, abs=1e-12)

    def test_half_turn_sum_gives_triplet(self):
        state = trajectory_state((CHIBAR, CHIBAR, CHIBAR, CHIBAR), 2, UNCONTROLLED)
        assert abs(state.overlap(bell_state("psi_plus"))) == pytest.approx(1.0, abs=1e-12)

    def test_uncontrolled_amplitudes_carry_phase_sum(self):
        phases = (0.2, 0.5, 0.9, 1.1)
        state = trajectory_state(phases, 3, UNCONTROLLED)
        phase = sum(phases[:3])
        expected = np.array([0, 1, -np.exp(1j * phase), 0]) / math.sqrt(2)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_echoed_frozen_sequence_recovers_phi_minus(self):
        chi = 0.8123
        state = trajectory_state((chi, chi, chi, chi), 4, ECHOED)
        assert abs(state.overlap(bell_state("phi_minus"))) == pytest.approx(1.0, abs=1e-12)
        assert concurrence(state.projector()) == pytest.approx(1.0, abs=1e-12)

    def test_echoed_amplitudes_mirror_sign_flip(self):
        state = trajectory_state((0.2, 0.5, 0.9, 1.1), 4, ECHOED)
        phase = 0.2 + 0.5 - 0.9 - 1.1
        expected = np.array([1, 0, 0, -np.exp(1j * phase)]) / math.sqrt(2)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_echoed_before_pulse_equals_uncontrolled(self):
        phases = (0.2, 0.5, 0.9, 1.1)
        for k in (1, 2):
            echoed = trajectory_state(phases, k, ECHOED)
            plain = trajectory_state(phases, k, UNCONTROLLED)
            np.testing.assert_allclose(echoed.amplitudes, plain.amplitudes, atol=1e-15)

    def test_corrected_returns_exact_singlet(self):
        singlet = bell_state("psi_minus")
        for row in sample_phase_matrix(default_params(0.4), 400, seed=17):
            state = trajectory_state(row, 4, CORRECTED)
            assert abs(state.overlap(singlet)) == pytest.approx(1.0, abs=1e-12)

    def test_gate_constructed_state_matches_formula(self):
        # stepwise phase gates (phase on the first basis component of B) and a
        # mid-sequence bit flip must reproduce the closed-form trajectory state
        # up to a global phase
        for row in sample_phase_matrix(default_params(0.3), 25, seed=5):
            for control, k in ((UNCONTROLLED, 2), (UNCONTROLLED, 4), (ECHOED, 3), (ECHOED, 4)):
                state = bell_state("psi_minus")
                for j in range(k):
                    if control.kind == "echoed" and j == control.echo_after_step:
                        state = apply_local(state, bit_flip("B"))
                    gate = np.diag([np.exp(1j * row[j]), 1.0])
                    state = apply_local(state, LocalOperator("B", gate))
                formula = trajectory_state(row, k, control)
                assert abs(state.overlap(formula)) == pytest.approx(1.0, abs=1e-12)

    def test_step_range_checked(self):
        with pytest.raises(ValueError):
            trajectory_state((0.1, 0.2, 0.3, 0.4), 5, UNCONTROLLED)


class TestAnalyticCoherences:
    def test_single_step_magnitude_and_phase(self):
        value = uncontrolled_coherence(1, 0.3, SIGMA, CHIBAR)
        assert abs(value) == pytest.approx(0.5 * math.exp(-0.18), abs=1e-12)
        assert abs(value) == pytest.approx(0.4176351, abs=1e-5)
        relative = value / -0.5
        assert np.angle(relative) == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_full_correlation_magnitudes(self):
        for k in (1, 2, 3, 4):
            value = uncontrolled_coherence(k, 1.0, SIGMA)
            assert abs(value) == pytest.approx(0.5 * math.exp(-SIGMA**2 * k**2 / 2), abs=1e-12)

    def test_vanishing_noise_limit(self):
        for k in (1, 2, 3, 4):
            value = uncontrolled_coherence(k, 0.6, 1e-9, CHIBAR)
            expected = -0.5 * np.exp(-1j * k * CHIBAR)
            assert abs(value - expected) < 1e-12

    def test_echoed_full_recovery(self):
        assert echoed_coherence(4, 1.0, SIGMA) == pytest.approx(-0.5, abs=1e-15)

    def test_echoed_partial_values(self):
        assert abs(echoed_coherence(3, 1.0, SIGMA)) == pytest.approx(
            0.5 * math.exp(-SIGMA**2 / 2), abs=1e-12
        )
        assert abs(echoed_coherence(4, 0.0, SIGMA)) == pytest.approx(
            0.5 * math.exp(-2 * SIGMA**2), abs=1e-12
        )
        assert abs(echoed_coherence(4, 0.0, SIGMA)) == pytest.approx(0.2433761, abs=1e-5)

    def test_magnitude_bounded_by_half(self):
        for mu in np.linspace(0, 1, 11):
            for k in (1, 2, 3, 4):
                assert abs(uncontrolled_coherence(k, mu, SIGMA)) <= 0.5 + 1e-15
            for k in (3, 4):
                assert abs(echoed_coherence(k, mu, SIGMA)) <= 0.5 + 1e-15

    def test_against_enumeration_oracle(self):
        for mu in (0.0, 0.2, 0.37, 0.5, 0.7, 0.9, 1.0):
            for sigma in (0.3, 0.6, 1.1):
                for k in (1, 2, 3, 4):
                    oracle = coherence_oracle(k, mu, sigma, CHIBAR, [1] * k)
                    value = uncontrolled_coherence(k, mu, sigma, CHIBAR)
                    assert abs(value - oracle) < 1e-12
                for k in (3, 4):
                    oracle = coherence_oracle(k, mu, sigma, CHIBAR, [1, 1] + [-1] * (k - 2))
                    value = echoed_coherence(k, mu, sigma, CHIBAR)
                    assert abs(value - oracle) < 1e-12

    def test_step_range(self):
        with pytest.raises(ValueError, match="outside 0..4"):
            uncontrolled_coherence(5, 0.5, SIGMA)
        # before the pulse the echoed arm is the uncontrolled one, not an error
        assert echoed_coherence(2, 0.5, SIGMA) == uncontrolled_coherence(2, 0.5, SIGMA)

    @settings(max_examples=300, deadline=None)
    @given(
        signs=st.lists(st.sampled_from((1, -1)), min_size=1, max_size=8),
        mu=st.floats(0.0, 1.0),
        sigma=st.floats(0.05, 1.5),
        mean_phase=st.floats(-math.pi, math.pi),
    )
    def test_any_sign_vector_matches_the_oracle(self, signs, mu, sigma, mean_phase):
        oracle = coherence_oracle(len(signs), mu, sigma, mean_phase, signs)
        assert abs(analytic_coherence(tuple(signs), mu, sigma, mean_phase) - oracle) < 1e-12

    def test_empty_vector_is_the_singlet(self):
        assert analytic_coherence((), 0.4, SIGMA) == -0.5

    @pytest.mark.parametrize("sigma", [1e155, 1e300])
    def test_huge_sigma_dephases_without_overflow(self, sigma):
        for k in range(1, 5):
            assert analytic_coherence(UNCONTROLLED.signs(k, 4), 0.5, sigma) == 0.0
        # only the trajectories whose four phases are all equal keep the echo
        assert analytic_coherence(ECHOED.signs(4, 4), 0.5, sigma) == -0.5 * 0.5**3


class TestMonteCarlo:
    N = 100_000

    def test_noiseless_limit_keeps_full_entanglement(self):
        params = NoiseParams(mu=0.5, sigma=1e-9)
        rho = averaged_projector_oracle(params, UNCONTROLLED, 4, 2_000, seed=2)
        assert concurrence(rho) == pytest.approx(1.0, abs=1e-6)
        (moments,) = monte_carlo_moments(params, [UNCONTROLLED.signs(4, 4)], 10_000, seed=2)
        assert 2 * abs(moments.coherence_mean) == pytest.approx(1.0, abs=1e-6)

    def test_uncontrolled_matches_closed_form_magnitude(self):
        (moments,) = monte_carlo_moments(
            default_params(1.0), [UNCONTROLLED.signs(2, 4)], self.N, seed=21
        )
        assert abs(moments.coherence_mean) == pytest.approx(
            0.5 * math.exp(-2 * SIGMA**2), abs=0.01
        )

    def test_echoed_matches_closed_form(self):
        (moments,) = monte_carlo_moments(default_params(0.7), [ECHOED.signs(4, 4)], self.N, seed=22)
        assert abs(moments.coherence_mean) == pytest.approx(
            abs(echoed_coherence(4, 0.7, SIGMA)), abs=0.01
        )

    def test_complex_agreement_across_grid(self):
        tol = 5 / math.sqrt(self.N)
        for mu in (0.0, 0.2, 0.7, 1.0):
            for k in (1, 2, 3, 4):
                (moments,) = monte_carlo_moments(
                    default_params(mu), [UNCONTROLLED.signs(k, 4)], self.N, seed=100 + k
                )
                target = uncontrolled_coherence(k, mu, SIGMA)
                assert abs(moments.coherence_mean - target) < tol
            for k in (3, 4):
                (moments,) = monte_carlo_moments(
                    default_params(mu), [ECHOED.signs(k, 4)], self.N, seed=200 + k
                )
                target = echoed_coherence(k, mu, SIGMA)
                assert abs(moments.coherence_mean - target) < tol

    def test_coherence_is_the_live_element_of_the_averaged_projector(self):
        params = default_params(0.3)
        n = BLOCK_SIZE + 500
        for control, k, element in (
            (UNCONTROLLED, 3, (1, 2)),
            (ECHOED, 4, (0, 3)),
            (TrajectoryControl("echoed", echo_after_step=1), 2, (0, 3)),
            (CORRECTED, 4, (1, 2)),
        ):
            rho = averaged_projector_oracle(params, control, k, n, seed=5)
            (moments,) = monte_carlo_moments(params, [control.signs(k, 4)], n, seed=5)
            assert abs(rho.matrix[element] - moments.coherence_mean) < 1e-12

    def test_populations_fixed_by_the_control(self):
        n = 2_000
        rho = averaged_projector_oracle(default_params(0.3), UNCONTROLLED, 3, n, seed=5)
        np.testing.assert_allclose(rho.matrix.diagonal().real, [0, 0.5, 0.5, 0], atol=1e-12)
        rho = averaged_projector_oracle(default_params(0.3), ECHOED, 4, n, seed=5)
        np.testing.assert_allclose(rho.matrix.diagonal().real, [0.5, 0, 0, 0.5], atol=1e-12)
        rho = averaged_projector_oracle(default_params(0.3), CORRECTED, 4, n, seed=5)
        np.testing.assert_allclose(rho.matrix.diagonal().real, [0, 0.5, 0.5, 0], atol=1e-12)

    def test_trajectory_unitaries_are_unital(self):
        flat = maximally_mixed(("A", "B"))
        for row in sample_phase_matrix(default_params(0.5), 20, seed=8):
            state = flat
            for j, chi in enumerate(row):
                if j == 2:
                    state = apply_local(state, bit_flip("B"))
                state = apply_local(state, LocalOperator("B", np.diag([np.exp(1j * chi), 1.0])))
            np.testing.assert_allclose(state.matrix, flat.matrix, atol=1e-14)

    def test_worker_count_does_not_change_bits(self):
        params = default_params(0.7)
        vectors = [UNCONTROLLED.signs(4, 4), ECHOED.signs(4, 4), ()]
        serial = monte_carlo_moments(params, vectors, 30_000, seed=3, workers=1)
        threaded = monte_carlo_moments(params, vectors, 30_000, seed=3, workers=4)
        assert serial == threaded

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 5 * BLOCK_SIZE + 3]),
        mu=st.floats(0.0, 1.0),
        sigma=st.floats(0.05, 3.0),
        clip=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_uneven_shares_do_not_change_bits(self, n, mu, sigma, clip, seed):
        # enough cores that up to 4 threads share 1 to 6 blocks unevenly
        params = NoiseParams(mu=mu, sigma=sigma, clip_to_hardware=clip)
        vectors = [UNCONTROLLED.signs(4, 4), ECHOED.signs(3, 4), ECHOED.signs(4, 4), ()]
        with mock.patch.object(dephasing.os, "cpu_count", lambda: 8):
            serial, *threaded = (
                monte_carlo_moments(params, vectors, n, seed, workers) for workers in (1, 2, 3, 4)
            )
        for moments in threaded:
            assert moments == serial

    def test_a_failing_share_stops_the_others(self, monkeypatch):
        draw = dephasing._block_draws
        failed = threading.Event()
        drawn = []

        def failing_draws(params, seed, block_index, count):
            if block_index == 0:
                failed.set()
                raise ValueError("block 0 failed")
            # the other share starts its first block only once block 0 has failed
            failed.wait(timeout=10)
            drawn.append(block_index)
            return draw(params, seed, block_index, count)

        monkeypatch.setattr(dephasing, "_block_draws", failing_draws)
        monkeypatch.setattr(dephasing.os, "cpu_count", lambda: 2)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="block 0 failed"):
            monte_carlo_moments(
                default_params(0.7), [ECHOED.signs(4, 4)], 20 * BLOCK_SIZE, seed=3, workers=2
            )
        assert threading.active_count() == threads
        # the second share holds the ten odd blocks; it stops at its next block
        assert set(drawn) < set(range(1, 20, 2))

    @pytest.mark.parametrize("steps", [4, 6])
    @pytest.mark.parametrize("clip", [False, True])
    def test_one_pass_matches_per_vector_reduction(self, steps, clip):
        params = default_params(0.6, steps=steps, clip_to_hardware=clip)
        n, seed = 2 * BLOCK_SIZE + 300, 17
        vectors = tuple(
            dict.fromkeys(
                TrajectoryControl(kind).signs(k, steps)
                for kind in ("uncontrolled", "corrected", "echoed")
                for k in range(steps + 1)
            )
        )
        moments = monte_carlo_moments(params, vectors, n, seed)
        phases = sample_phase_matrix(params, n, seed)
        for signs, got in zip(vectors, moments):
            # one arm's reduction: block sums of z and z^2, added in block order
            z_total = z2_total = 0.0 + 0.0j
            for start in range(0, n, BLOCK_SIZE):
                block = phases[start : start + BLOCK_SIZE, : len(signs)]
                z = -0.5 * np.exp(-1j * (block @ np.asarray(signs, dtype=float)))
                z_total += z.sum()
                z2_total += (z * z).sum()
            # a product of k unit factors against one exp of the phase sum
            tolerance = 4 * max(len(signs), 1) * np.finfo(float).eps
            assert abs(got.coherence_mean - z_total / n) <= tolerance
            assert abs(got.coherence_square_mean - z2_total / n) <= tolerance

    def test_a_vector_does_not_depend_on_the_others_in_its_pass(self):
        # shared prefixes, a vector that is a prefix of an earlier one, a
        # repeat and the empty vector, against each vector reduced alone
        params = default_params(0.6, steps=6)
        vectors = [
            (1, 1, -1, -1, -1),
            (1, 1, 1),
            (1, 1),
            (),
            (1, -1),
            (1, 1, -1),
            (1, 1, 1),
            (-1, -1, 1, 1, -1, -1),
            (1, 1, 1, 1, 1, 1),
        ]
        together = monte_carlo_moments(params, vectors, 2 * BLOCK_SIZE + 300, seed=8)
        for signs, got in zip(vectors, together):
            assert monte_carlo_moments(params, [signs], 2 * BLOCK_SIZE + 300, seed=8) == (got,)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        steps=st.integers(1, 12),
        mu=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        sigma=st.floats(0.05, 3.0),
        clip=st.booleans(),
        n=st.sampled_from([1, 300, BLOCK_SIZE + 7]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_pass_gives_each_vector_its_value_alone(
        self, data, steps, mu, sigma, clip, n, seed
    ):
        # vectors that extend earlier ones (mixed prefixes among them),
        # prefixes of earlier vectors, repeats and the empty vector, in a
        # shuffled order: each must equal its pass of one vector
        signs = st.sampled_from((1, -1))
        vectors = []
        for _ in range(data.draw(st.integers(1, 8), label="vectors")):
            kind = data.draw(st.sampled_from(("new", "extend", "prefix", "repeat", "empty")))
            if kind == "new" or not vectors:
                vector = tuple(data.draw(st.lists(signs, min_size=1, max_size=steps)))
            else:
                earlier = data.draw(st.sampled_from(vectors))
                if kind == "extend":
                    more = data.draw(st.lists(signs, max_size=steps - len(earlier)))
                    vector = earlier + tuple(more)
                elif kind == "prefix":
                    vector = earlier[: data.draw(st.integers(0, len(earlier)))]
                else:
                    vector = earlier if kind == "repeat" else ()
            vectors.append(vector)
        vectors = data.draw(st.permutations(vectors), label="order")
        params = NoiseParams(mu=mu, sigma=sigma, steps=steps, clip_to_hardware=clip)
        with mock.patch.object(dephasing.os, "cpu_count", lambda: 2):
            for workers in (1, 2):
                together = monte_carlo_moments(params, vectors, n, seed, workers)
                for signs, got in zip(vectors, together):
                    alone = monte_carlo_moments(params, [signs], n, seed, workers)
                    assert alone == (got,), signs

    @pytest.mark.parametrize(
        "name, n_samples, workers",
        [
            ("workers", 100, 0),
            ("workers", 100, -1),
            ("workers", 100, 2.5),
            ("workers", 100, True),
            ("n_samples", 1e5, 1),
            ("n_samples", 0, 1),
            ("n_samples", -3, 1),
            ("n_samples", True, 1),
        ],
    )
    def test_counts_must_be_positive_integers(self, name, n_samples, workers):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            monte_carlo_moments(default_params(0.5), [(1,)], n_samples, seed=1, workers=workers)

    def test_sign_vector_longer_than_the_process_rejected(self):
        with pytest.raises(ValueError, match="longer than 4 steps"):
            monte_carlo_moments(default_params(0.5), [(1,) * 5], 100, seed=1)

    @pytest.mark.parametrize("signs", [(1, 0), (1, 2), (0.5,)])
    def test_sign_vector_entries_other_than_plus_minus_one_rejected(self, signs):
        with pytest.raises(ValueError, match=r"only \+1 and -1"):
            monte_carlo_moments(default_params(0.5), [signs], 100, seed=1)

    def test_worker_pool_is_bounded(self, monkeypatch):
        import qrecover.dephasing as dephasing

        sizes = []

        class RecordingPool(dephasing.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(dephasing, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(dephasing.os, "cpu_count", lambda: 8)
        params = default_params(0.7)
        vectors = [UNCONTROLLED.signs(4, 4)]
        monte_carlo_moments(params, vectors, 3 * BLOCK_SIZE, seed=3, workers=64)
        monkeypatch.setattr(dephasing.os, "cpu_count", lambda: 2)
        monte_carlo_moments(params, vectors, 3 * BLOCK_SIZE, seed=3, workers=64)
        monkeypatch.setattr(dephasing.os, "cpu_count", lambda: None)
        monte_carlo_moments(params, vectors, 3 * BLOCK_SIZE, seed=3, workers=64)
        assert sizes == [3, 2]

    def test_averaged_projector_is_valid_density_matrix(self):
        rho = averaged_projector_oracle(default_params(0.2), UNCONTROLLED, 4, 2_000, seed=7)
        assert isinstance(rho, DensityMatrix)

    def test_deterministic_arms_have_zero_error(self):
        params = default_params(1.0)
        for control, k in ((UNCONTROLLED, 0), (CORRECTED, 4), (ECHOED, 4)):
            (moments,) = monte_carlo_moments(params, [control.signs(k, 4)], 10_000, seed=4)
            assert moments.coherence_mean == -0.5
            assert moments.coherence_std_error() == 0.0

    @pytest.mark.parametrize("steps, flips", [(6, (3,)), (8, (2, 4, 6))])
    def test_balanced_vectors_at_full_correlation_are_exact(self, steps, flips):
        # every phase of a trajectory is equal, so the signed sum is exactly 0
        signs = tuple((-1) ** sum(k >= f for f in flips) for k in range(steps))
        assert sum(signs) == 0
        for clip in (False, True):
            params = default_params(1.0, steps=steps, clip_to_hardware=clip)
            (moments,) = monte_carlo_moments(params, [signs], 10_000, seed=4)
            assert moments.coherence_mean == -0.5
            assert moments.coherence_std_error() == 0.0

    def test_exactness_rule_does_not_depend_on_summation_order(self):
        # one gemv over the signed phases missed 0 for these: at steps 7,
        # (1, 1, 1, -1, -1, -1) gave -0.5000000000000001 at seed 7, and
        # (1,) * e + (-1,) * e first missed at e = 9
        (moments,) = monte_carlo_moments(
            NoiseParams(mu=1.0, sigma=0.6, steps=7), [(1, 1, 1, -1, -1, -1)], 1, seed=7
        )
        assert (moments.coherence_mean, moments.coherence_square_mean) == (-0.5, 0.25)
        vectors = [(1,) * e + (-1,) * e for e in range(1, 33)]
        vectors += [(1, -1, -1, 1) * k for k in range(1, 17)]
        for sigma in (0.1, 0.6, 1.3):
            params = NoiseParams(mu=1.0, sigma=sigma, steps=64)
            for signs, moments in zip(vectors, monte_carlo_moments(params, vectors, 5000, seed=3)):
                assert moments.coherence_mean == -0.5, signs
                assert moments.coherence_square_mean == 0.25, signs

    def test_coherence_error_estimate_is_calibrated(self):
        # the one-sigma estimate should match the scatter of independent runs
        params = default_params(0.7)
        values = []
        for seed in range(40):
            (m,) = monte_carlo_moments(params, [UNCONTROLLED.signs(3, 4)], 5_000, seed=seed)
            values.append(abs(m.coherence_mean))
        observed = np.std(values)
        (moments,) = monte_carlo_moments(params, [UNCONTROLLED.signs(3, 4)], 5_000, seed=0)
        predicted = moments.coherence_std_error()
        assert predicted == pytest.approx(observed, rel=0.5)
