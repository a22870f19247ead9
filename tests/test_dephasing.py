import math
import re
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrecover.dephasing import (
    BLOCK_SIZE,
    MAX_MEAN_PHASE,
    analytic_coherence,
    coherence_std_error,
    monte_carlo_moments,
)
from qrecover import dephasing
from qrecover.openloop import open_loop_series

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
    arm_signs,
    bell_state,
    bit_flip,
    coherence_square_mean_oracle,
    concurrence,
    maximally_mixed,
)

SIGMA = 0.6
CHIBAR = math.pi / 2


def uncontrolled_coherence(k, mu, sigma, mean_phase=CHIBAR):
    return analytic_coherence(arm_signs("uncontrolled", k, 4), mu, sigma, mean_phase)[-1]


def echoed_coherence(k, mu, sigma, mean_phase=CHIBAR):
    return analytic_coherence(arm_signs("echoed", k, 4), mu, sigma, mean_phase)[-1]


def final_moments(signs, mu, sigma=SIGMA, steps=4, **options):
    """The mean and the mean square coherence after the last step of
    ``signs``, walked alone in a draw ``steps`` deep, as Python complex numbers."""
    ((means, square_means),) = monte_carlo_moments([signs], mu, sigma, steps=steps, **options)
    return means.tolist()[-1], square_means.tolist()[-1]


def all_refused(field, value):
    """The messages with which each entry point refuses this noise."""
    noise = {"mu": 0.5, "sigma": SIGMA, "mean_phase": CHIBAR, field: value}
    calls = (
        lambda: analytic_coherence((1, 1, -1), **noise),
        lambda: monte_carlo_moments([(1, 1, -1)], **noise, steps=4, n_samples=10, seed=1),
        lambda: open_loop_series(fidelities=[1.0], **noise),
    )
    messages = []
    for call in calls:
        with pytest.raises(ValueError, match=field) as refused:
            call()
        messages.append(str(refused.value))
    return messages


def as_lists(walks):
    """Each walk's two moment arrays as lists, to compare whole passes with ==."""
    return [[moments.tolist() for moments in walk] for walk in walks]


class TestSampling:
    def test_full_correlation_freezes_the_sequence(self):
        for row in sample_phase_matrix(1.0, SIGMA, 4, 50, seed=3):
            assert len(set(row)) == 1

    def test_zero_correlation_uncorrelated_adjacent(self):
        phases = sample_phase_matrix(0.0, SIGMA, 4, 100_000, seed=11)
        x = phases[:, :-1].ravel()
        y = phases[:, 1:].ravel()
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r) < 3 / math.sqrt(100_000)

    def test_sample_correlation_matches_mu(self):
        phases = sample_phase_matrix(0.7, SIGMA, 4, 100_000, seed=11)
        x = phases[:, :-1].ravel()
        y = phases[:, 1:].ravel()
        r = np.corrcoef(x, y)[0, 1]
        assert r == pytest.approx(0.7, abs=0.01)

    def test_marginal_moments(self):
        phases = sample_phase_matrix(0.7, SIGMA, 4, 100_000, seed=4)
        assert phases.mean() == pytest.approx(CHIBAR, abs=0.01)
        assert phases.std() == pytest.approx(SIGMA, abs=0.01)

    def test_deterministic_for_fixed_seed(self):
        a = sample_phase_matrix(0.5, SIGMA, 4, 10_000, seed=9)
        b = sample_phase_matrix(0.5, SIGMA, 4, 10_000, seed=9)
        assert np.array_equal(a, b)

    def test_hardware_clip(self):
        phases = sample_phase_matrix(0.2, SIGMA, 4, 20_000, seed=1, clip=True)
        assert phases.min() >= 0.0 and phases.max() <= math.pi

    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("steps", [1, 4, 12])
    @pytest.mark.parametrize("clip", [False, True])
    @pytest.mark.parametrize("last", [1, 5])
    def test_blocks_follow_the_keep_first_rule(self, mu, steps, clip, last):
        # a full block, then a last block of 1 or 5 sequences
        n, seed = BLOCK_SIZE + last, 21
        expected = np.vstack(
            [
                keep_first_oracle(mu, 2.0, steps, np.random.default_rng([seed, j]), rows, clip=clip)
                for j, rows in enumerate((BLOCK_SIZE, last))
            ]
        )
        assert np.array_equal(sample_phase_matrix(mu, 2.0, steps, n, seed, clip=clip), expected)

    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.7, 1.0])
    def test_a_block_draws_one_normal_per_fresh_phase(self, mu):
        count, seed, block = 1000, 8, 3
        values, index = dephasing._block_draws((mu, SIGMA, CHIBAR, False), 5, seed, block, count)
        decisions = np.random.default_rng([seed, block]).random((count, 4))
        assert values.size == count + np.count_nonzero(decisions >= mu)
        if mu == 0.0:
            assert values.size == count * 5
        if mu == 1.0:
            assert values.size == count

    def test_mean_phase_is_bounded_for_every_method(self):
        for value in (-MAX_MEAN_PHASE, MAX_MEAN_PHASE):
            assert analytic_coherence((1,), 0.5, SIGMA, value).size == 2
            moments = monte_carlo_moments([(1,)], 0.5, SIGMA, value, steps=1, n_samples=10, seed=1)
            assert len(moments) == 1
            assert open_loop_series(0.5, SIGMA, [1.0], mean_phase=value)["step"].size == 5
        for value in (math.nextafter(MAX_MEAN_PHASE, math.inf), -1e16, 1e308):
            for message in all_refused("mean_phase", value):
                assert message == f"mean_phase {value!r} outside [-1e9, 1e9]"


class TestSigns:
    def test_arms_as_sign_vectors(self):
        assert arm_signs("uncontrolled", 3, 4) == (1, 1, 1)
        assert arm_signs("echoed", 4, 4) == (1, 1, -1, -1)
        assert arm_signs("corrected", 4, 4) == ()
        for kind in ("uncontrolled", "echoed", "corrected"):
            assert arm_signs(kind, 0, 4) == ()

    def test_arms_coincide_before_their_control_acts(self):
        for k in (1, 2):
            assert arm_signs("echoed", k, 4) == arm_signs("uncontrolled", k, 4)
        for k in (1, 2, 3):
            assert arm_signs("corrected", k, 4) == arm_signs("uncontrolled", k, 4)

    def test_echo_after_the_last_step_never_acts(self):
        for steps in (1, 2):
            for k in range(steps + 1):
                assert arm_signs("echoed", k, steps) == arm_signs("uncontrolled", k, steps)


class TestTrajectoryStates:
    def test_step_zero_is_the_singlet(self):
        for kind in ("uncontrolled", "corrected", "echoed"):
            state = trajectory_state((0.3, 0.4, 0.5, 0.6), arm_signs(kind, 0, 4))
            assert abs(state.overlap(bell_state("psi_minus"))) == pytest.approx(1.0, abs=1e-12)

    def test_half_turn_sum_gives_triplet(self):
        state = trajectory_state((CHIBAR, CHIBAR, CHIBAR, CHIBAR), (1, 1))
        assert abs(state.overlap(bell_state("psi_plus"))) == pytest.approx(1.0, abs=1e-12)

    def test_uncontrolled_amplitudes_carry_phase_sum(self):
        phases = (0.2, 0.5, 0.9, 1.1)
        state = trajectory_state(phases, (1, 1, 1))
        phase = sum(phases[:3])
        expected = np.array([0, 1, -np.exp(1j * phase), 0]) / math.sqrt(2)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_echoed_frozen_sequence_recovers_phi_minus(self):
        chi = 0.8123
        state = trajectory_state((chi, chi, chi, chi), (1, 1, -1, -1))
        assert abs(state.overlap(bell_state("phi_minus"))) == pytest.approx(1.0, abs=1e-12)
        assert concurrence(state.projector()) == pytest.approx(1.0, abs=1e-12)

    def test_echoed_amplitudes_mirror_sign_flip(self):
        state = trajectory_state((0.2, 0.5, 0.9, 1.1), (1, 1, -1, -1))
        phase = 0.2 + 0.5 - 0.9 - 1.1
        expected = np.array([1, 0, 0, -np.exp(1j * phase)]) / math.sqrt(2)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_echoed_before_pulse_equals_uncontrolled(self):
        phases = (0.2, 0.5, 0.9, 1.1)
        for k in (1, 2):
            echoed = trajectory_state(phases, arm_signs("echoed", k, 4))
            plain = trajectory_state(phases, arm_signs("uncontrolled", k, 4))
            np.testing.assert_allclose(echoed.amplitudes, plain.amplitudes, atol=1e-15)

    def test_corrected_returns_exact_singlet(self):
        singlet = bell_state("psi_minus")
        for row in sample_phase_matrix(0.4, SIGMA, 4, 400, seed=17):
            state = trajectory_state(row, arm_signs("corrected", 4, 4))
            assert abs(state.overlap(singlet)) == pytest.approx(1.0, abs=1e-12)

    def test_gate_constructed_state_matches_formula(self):
        # stepwise phase gates (phase on the first basis component of B) and a
        # bit flip where the sign turns must reproduce the closed-form
        # trajectory state up to a global phase
        for row in sample_phase_matrix(0.3, SIGMA, 4, 25, seed=5):
            for signs in (
                (1, 1), (1, 1, 1, 1), (1, 1, -1), (1, 1, -1, -1), (1, -1, -1), (1, -1, 1),
                (-1, 1, -1, -1),
            ):
                state = bell_state("psi_minus")
                for j, sign in enumerate(signs):
                    if sign != (signs[j - 1] if j else 1):
                        state = apply_local(state, bit_flip("B"))
                    gate = np.diag([np.exp(1j * row[j]), 1.0])
                    state = apply_local(state, LocalOperator("B", gate))
                formula = trajectory_state(row, signs)
                assert abs(state.overlap(formula)) == pytest.approx(1.0, abs=1e-12)

    def test_step_range_checked(self):
        with pytest.raises(ValueError):
            trajectory_state((0.1, 0.2, 0.3, 0.4), (1,) * 5)
        for k in (-1, 5):
            with pytest.raises(ValueError, match="outside 0..4"):
                arm_signs("echoed", k, 4)


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
        values = analytic_coherence(tuple(signs), mu, sigma, mean_phase)
        assert len(values) == len(signs) + 1 and values[0] == -0.5
        for k in range(1, len(signs) + 1):
            oracle = coherence_oracle(k, mu, sigma, mean_phase, signs[:k])
            assert abs(values[k] - oracle) < 1e-12, k

    def test_empty_vector_is_the_singlet(self):
        assert analytic_coherence((), 0.4, SIGMA).tolist() == [-0.5]

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("mu", 2.0, "mu 2.0 outside [0, 1]"),
            ("mu", 1.2, "mu 1.2 outside [0, 1]"),
            ("mu", math.nan, "mu nan outside [0, 1]"),
            ("sigma", math.nan, "sigma nan must be positive and finite"),
            ("sigma", math.inf, "sigma inf must be positive and finite"),
            ("sigma", 0.0, "sigma 0.0 must be positive and finite"),
            ("mean_phase", 1e308, "mean_phase 1e+308 outside [-1e9, 1e9]"),
            ("mean_phase", math.nan, "mean_phase nan outside [-1e9, 1e9]"),
            ("mean_phase", -math.inf, "mean_phase -inf outside [-1e9, 1e9]"),
        ],
    )
    def test_both_methods_and_the_series_refuse_the_same_noise(self, field, value, message):
        # (1, 1, -1) at mu 2 gave |z| = 0.72, and mean_phase 1e308 a bare
        # "math domain error"; the Monte Carlo method once trusted a record
        # to have checked the noise
        assert all_refused(field, value) == [message] * 3

    @pytest.mark.parametrize("steps", [0, True, 1.5])
    def test_the_series_refuses_a_bad_step_count(self, steps):
        message = rf"^steps must be an integer >= 1, got {re.escape(repr(steps))}$"
        with pytest.raises(ValueError, match=message):
            open_loop_series(0.5, SIGMA, [1.0], steps=steps)

    @pytest.mark.parametrize("sigma", [1e155, 1e300])
    def test_huge_sigma_dephases_without_overflow(self, sigma):
        assert analytic_coherence((1, 1, 1, 1), 0.5, sigma).tolist()[1:] == [0.0] * 4
        # only the trajectories whose four phases are all equal keep the echo
        assert analytic_coherence((1, 1, -1, -1), 0.5, sigma)[-1] == -0.5 * 0.5**3


class TestMonteCarlo:
    N = 100_000

    def test_noiseless_limit_keeps_full_entanglement(self):
        rho = averaged_projector_oracle(0.5, 1e-9, 4, (1, 1, 1, 1), 2_000, seed=2)
        assert concurrence(rho) == pytest.approx(1.0, abs=1e-6)
        mean, _ = final_moments((1, 1, 1, 1), 0.5, 1e-9, n_samples=10_000, seed=2)
        assert 2 * abs(mean) == pytest.approx(1.0, abs=1e-6)

    def test_uncontrolled_matches_closed_form_magnitude(self):
        mean, _ = final_moments((1, 1), 1.0, n_samples=self.N, seed=21)
        assert abs(mean) == pytest.approx(0.5 * math.exp(-2 * SIGMA**2), abs=0.01)

    def test_echoed_matches_closed_form(self):
        mean, _ = final_moments((1, 1, -1, -1), 0.7, n_samples=self.N, seed=22)
        assert abs(mean) == pytest.approx(abs(echoed_coherence(4, 0.7, SIGMA)), abs=0.01)

    def test_complex_agreement_across_grid(self):
        tol = 5 / math.sqrt(self.N)
        for mu in (0.0, 0.2, 0.7, 1.0):
            for k in (1, 2, 3, 4):
                mean, _ = final_moments(
                    arm_signs("uncontrolled", k, 4), mu, n_samples=self.N, seed=100 + k
                )
                target = uncontrolled_coherence(k, mu, SIGMA)
                assert abs(mean - target) < tol
            for k in (3, 4):
                mean, _ = final_moments(
                    arm_signs("echoed", k, 4), mu, n_samples=self.N, seed=200 + k
                )
                target = echoed_coherence(k, mu, SIGMA)
                assert abs(mean - target) < tol

    def test_coherence_is_the_live_element_of_the_averaged_projector(self):
        n = BLOCK_SIZE + 500
        for signs, element in (
            (arm_signs("uncontrolled", 3, 4), (1, 2)),
            (arm_signs("echoed", 4, 4), (0, 3)),
            ((1, -1), (0, 3)),  # an echo after step 1
            (arm_signs("corrected", 4, 4), (1, 2)),
        ):
            rho = averaged_projector_oracle(0.3, SIGMA, 4, signs, n, seed=5)
            mean, _ = final_moments(signs, 0.3, n_samples=n, seed=5)
            assert abs(rho.matrix[element] - mean) < 1e-12

    def test_populations_fixed_by_the_control(self):
        n = 2_000
        rho = averaged_projector_oracle(0.3, SIGMA, 4, arm_signs("uncontrolled", 3, 4), n, seed=5)
        np.testing.assert_allclose(rho.matrix.diagonal().real, [0, 0.5, 0.5, 0], atol=1e-12)
        rho = averaged_projector_oracle(0.3, SIGMA, 4, arm_signs("echoed", 4, 4), n, seed=5)
        np.testing.assert_allclose(rho.matrix.diagonal().real, [0.5, 0, 0, 0.5], atol=1e-12)
        rho = averaged_projector_oracle(0.3, SIGMA, 4, arm_signs("corrected", 4, 4), n, seed=5)
        np.testing.assert_allclose(rho.matrix.diagonal().real, [0, 0.5, 0.5, 0], atol=1e-12)

    def test_trajectory_unitaries_are_unital(self):
        flat = maximally_mixed(("A", "B"))
        for row in sample_phase_matrix(0.5, SIGMA, 4, 20, seed=8):
            state = flat
            for j, chi in enumerate(row):
                if j == 2:
                    state = apply_local(state, bit_flip("B"))
                state = apply_local(state, LocalOperator("B", np.diag([np.exp(1j * chi), 1.0])))
            np.testing.assert_allclose(state.matrix, flat.matrix, atol=1e-14)

    def test_worker_count_does_not_change_bits(self):
        vectors = [(1, 1, 1, 1), (1, 1, -1, -1), ()]
        options = {"steps": 4, "n_samples": 30_000, "seed": 3}
        serial = monte_carlo_moments(vectors, 0.7, SIGMA, workers=1, **options)
        threaded = monte_carlo_moments(vectors, 0.7, SIGMA, workers=4, **options)
        assert as_lists(serial) == as_lists(threaded)

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
        vectors = [(1, 1, 1, 1), (1, 1, -1), (1, 1, -1, -1), ()]
        options = {"steps": 4, "n_samples": n, "seed": seed, "clip_to_hardware": clip}
        with mock.patch.object(dephasing.os, "cpu_count", lambda: 8):
            serial, *threaded = (
                monte_carlo_moments(vectors, mu, sigma, workers=workers, **options)
                for workers in (1, 2, 3, 4)
            )
        for moments in threaded:
            assert as_lists(moments) == as_lists(serial)

    def test_a_failing_share_stops_the_others(self, monkeypatch):
        draw = dephasing._block_draws
        failed = threading.Event()
        drawn = []

        def failing_draws(noise, steps, seed, block_index, count):
            if block_index == 0:
                failed.set()
                raise ValueError("block 0 failed")
            # the other share starts its first block only once block 0 has failed
            failed.wait(timeout=10)
            drawn.append(block_index)
            return draw(noise, steps, seed, block_index, count)

        monkeypatch.setattr(dephasing, "_block_draws", failing_draws)
        monkeypatch.setattr(dephasing.os, "cpu_count", lambda: 2)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="block 0 failed"):
            monte_carlo_moments(
                [(1, 1, -1, -1)], 0.7, SIGMA, steps=4, n_samples=20 * BLOCK_SIZE, seed=3, workers=2
            )
        assert threading.active_count() == threads
        # the second share holds the ten odd blocks; it stops at its next block
        assert set(drawn) < set(range(1, 20, 2))

    @pytest.mark.parametrize("steps", [4, 6])
    @pytest.mark.parametrize("clip", [False, True])
    def test_one_pass_matches_per_vector_reduction(self, steps, clip):
        n, seed = 2 * BLOCK_SIZE + 300, 17
        vectors = ((1,) * steps, arm_signs("echoed", steps, steps))
        walks = monte_carlo_moments(
            vectors, 0.6, SIGMA, steps=steps, n_samples=n, seed=seed, clip_to_hardware=clip
        )
        phases = sample_phase_matrix(0.6, SIGMA, steps, n, seed, clip=clip)
        for vector, (means, square_means) in zip(vectors, walks):
            assert means.shape == square_means.shape == (len(vector) + 1,)
            assert means.dtype == square_means.dtype == np.complex128
            for k, (mean, square_mean) in enumerate(zip(means, square_means)):
                # one prefix's reduction: block sums of z and z^2, added in block order
                signs = vector[:k]
                z_total = z2_total = 0.0 + 0.0j
                for start in range(0, n, BLOCK_SIZE):
                    block = phases[start : start + BLOCK_SIZE, : len(signs)]
                    z = -0.5 * np.exp(-1j * (block @ np.asarray(signs, dtype=float)))
                    z_total += z.sum()
                    z2_total += (z * z).sum()
                # a product of k unit factors against one exp of the phase sum
                tolerance = 4 * max(len(signs), 1) * np.finfo(float).eps
                assert abs(mean - z_total / n) <= tolerance
                assert abs(square_mean - z2_total / n) <= tolerance

    def test_a_vector_does_not_depend_on_the_others_in_its_pass(self):
        # shared prefixes, a vector that is a prefix of an earlier one, a
        # repeat and the empty vector, against each vector reduced alone
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
        options = {"steps": 6, "n_samples": 2 * BLOCK_SIZE + 300, "seed": 8}
        together = as_lists(monte_carlo_moments(vectors, 0.6, SIGMA, **options))
        for signs, got in zip(vectors, together):
            alone = monte_carlo_moments([signs], 0.6, SIGMA, **options)
            assert as_lists(alone) == [got]

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
        with mock.patch.object(dephasing.os, "cpu_count", lambda: 2):
            for workers in (1, 2):
                options = dict(steps=steps, n_samples=n, seed=seed, workers=workers)
                options["clip_to_hardware"] = clip
                together = as_lists(monte_carlo_moments(vectors, mu, sigma, **options))
                for signs, got in zip(vectors, together):
                    alone = monte_carlo_moments([signs], mu, sigma, **options)
                    assert as_lists(alone) == [got], signs

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
            monte_carlo_moments(
                [(1,)], 0.5, SIGMA, steps=4, n_samples=n_samples, seed=1, workers=workers
            )

    def test_sign_vector_longer_than_the_process_rejected(self):
        with pytest.raises(ValueError, match="longer than 4 steps"):
            monte_carlo_moments([(1,) * 5], 0.5, SIGMA, steps=4, n_samples=100, seed=1)

    @pytest.mark.parametrize("signs", [(1, 0), (1, 2), (0.5,)])
    def test_sign_vector_entries_other_than_plus_minus_one_rejected(self, signs):
        with pytest.raises(ValueError, match=r"only \+1 and -1"):
            monte_carlo_moments([signs], 0.5, SIGMA, steps=4, n_samples=100, seed=1)

    def test_worker_pool_is_bounded(self, monkeypatch):
        share, caller = dephasing._share, threading.current_thread()
        shares, submitted = [], []

        def recording_share(*args):
            # (first block, share count, whether the caller runs it)
            shares[-1].append((args[5], args[6], threading.current_thread() is caller))
            share(*args)

        class RecordingPool(dephasing.ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                submitted[-1] += 1
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(dephasing, "_share", recording_share)
        monkeypatch.setattr(dephasing, "ThreadPoolExecutor", RecordingPool)
        vectors = [(1, 1, 1, 1)]
        for cores in (8, 2, None):
            monkeypatch.setattr(dephasing.os, "cpu_count", lambda: cores)
            shares.append([])
            submitted.append(0)
            monte_carlo_moments(
                vectors, 0.7, SIGMA, steps=4, n_samples=3 * BLOCK_SIZE, seed=3, workers=64
            )
        # min(workers, blocks, cores) shares; the caller runs the first, and
        # the pool is given the others, one thread each at most
        assert [sorted(calls) for calls in shares] == [
            [(0, 3, True), (1, 3, False), (2, 3, False)],
            [(0, 2, True), (1, 2, False)],
            [(0, 1, True)],
        ]
        assert submitted == [2, 1, 0]

    def test_averaged_projector_is_valid_density_matrix(self):
        rho = averaged_projector_oracle(0.2, SIGMA, 4, (1, 1, 1, 1), 2_000, seed=7)
        assert isinstance(rho, DensityMatrix)

    def test_deterministic_arms_have_zero_error(self):
        for signs in ((), arm_signs("corrected", 4, 4), arm_signs("echoed", 4, 4)):
            mean, square_mean = final_moments(signs, 1.0, n_samples=10_000, seed=4)
            assert mean == -0.5
            assert coherence_std_error(mean, square_mean, 10_000) == 0.0

    def test_balanced_vector_is_exact_at_every_sample_count(self):
        # the totals are divided by n exactly: multiplying by 1/n missed
        # -1/2 by an ulp for 20 of these (49, 98, 103, ...)
        for n in range(1, 401):
            mean, square_mean = final_moments((1, 1, -1, -1), 1.0, n_samples=n, seed=1)
            assert mean == -0.5, n
            assert coherence_std_error(mean, square_mean, n) == 0.0, n

    @pytest.mark.parametrize("steps, flips", [(6, (3,)), (8, (2, 4, 6))])
    def test_balanced_vectors_at_full_correlation_are_exact(self, steps, flips):
        # every phase of a trajectory is equal, so the signed sum is exactly 0
        signs = tuple((-1) ** sum(k >= f for f in flips) for k in range(steps))
        assert sum(signs) == 0
        for clip in (False, True):
            mean, square_mean = final_moments(
                signs, 1.0, steps=steps, n_samples=10_000, seed=4, clip_to_hardware=clip
            )
            assert mean == -0.5
            assert coherence_std_error(mean, square_mean, 10_000) == 0.0

    def test_exactness_rule_does_not_depend_on_summation_order(self):
        # one gemv over the signed phases missed 0 for these: at steps 7,
        # (1, 1, 1, -1, -1, -1) gave -0.5000000000000001 at seed 7, and
        # (1,) * e + (-1,) * e first missed at e = 9
        moments = final_moments((1, 1, 1, -1, -1, -1), 1.0, 0.6, steps=7, n_samples=1, seed=7)
        assert moments == (-0.5, 0.25)
        vectors = [(1,) * e + (-1,) * e for e in range(1, 33)]
        vectors += [(1, -1, -1, 1) * k for k in range(1, 17)]
        for sigma in (0.1, 0.6, 1.3):
            walks = monte_carlo_moments(vectors, 1.0, sigma, steps=64, n_samples=5000, seed=3)
            for signs, (means, square_means) in zip(vectors, walks):
                assert (means[-1], square_means[-1]) == (-0.5, 0.25), signs

    def test_coherence_error_estimate_is_calibrated(self):
        # the one-sigma estimate should match the scatter of independent runs
        values = []
        for seed in range(40):
            mean, _ = final_moments((1, 1, 1), 0.7, n_samples=5_000, seed=seed)
            values.append(abs(mean))
        observed = np.std(values)
        predicted = coherence_std_error(
            *final_moments((1, 1, 1), 0.7, n_samples=5_000, seed=0), 5_000
        )
        assert predicted == pytest.approx(observed, rel=0.5)

    @pytest.mark.parametrize(
        "signs, mu, sigma, seed",
        [
            ((1, 1, 1, 1), 0.7, 0.6, 51),
            ((1, 1, -1, -1), 0.3, 1.2, 52),
            ((1, -1, 1, -1, 1), 0.9, 0.4, 53),
        ],
    )
    def test_second_moment_and_error_match_the_exact_moments(self, signs, mu, sigma, seed):
        n = 400_000
        k = len(signs)
        mean, square_mean = final_moments(signs, mu, sigma, steps=k, n_samples=n, seed=seed)
        exact_square = coherence_square_mean_oracle(k, mu, sigma, CHIBAR, signs)
        # |z^2| = 1/4, so each part of z^2 has a spread of at most 1/4
        assert abs(square_mean - exact_square) <= 5 * 0.25 / math.sqrt(n)
        exact_mean = coherence_oracle(k, mu, sigma, CHIBAR, signs)
        exact_error = coherence_std_error(exact_mean, exact_square, n)
        assert coherence_std_error(mean, square_mean, n) == pytest.approx(exact_error, rel=0.02)
