import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qrecover.counts import (
    COUNT_LABELS,
    EstimationError,
    coincidence_probabilities,
    estimate_p_prime,
    estimate_theta,
    simulate_counts,
)

from helpers import grids, measured_ensemble, with_one_bad_element
from oracle import counts_coverage_oracle

DELTA_P_AT_EQUAL_HUNDREDS = 0.1  # sqrt(4 * 0.0025) for counts (100, 100, 100, 100)
DELTA_P_AT_50_50_200_200 = 0.027950849718747368
DELTA_THETA_AT_R0_800 = 0.017677669529663688  # 0.5 / sqrt(800)
DELTA_THETA_AT_R1_1600 = 0.0125  # 0.5 / sqrt(800) / sqrt(2)

COUNT = st.integers(0, 10**7)
POSITIVE_COUNT = st.integers(1, 10**7)
NOT_A_COUNT = st.sampled_from([-1.0, 2.5, math.nan, math.inf])


def path_sums(counts):
    """The down- and up-path sums of a label -> count mapping (numbers or arrays)."""
    return counts["c_hh_d"] + counts["c_vv_d"], counts["c_hv_u"] + counts["c_vh_u"]


def mode_sums(counts):
    """The mode-0 and mode-1 sums of a label -> count mapping (numbers or arrays)."""
    return counts["c_hv_0"] + counts["c_vh_0"], counts["c_hv_1"] + counts["c_vh_1"]


def poisson_resample(observed, n_resamples=100_000, seed=77):
    """The observed counts redrawn as Poisson counts, one array of resamples per label."""
    rng = np.random.default_rng(seed)
    draws = rng.poisson(lam=list(observed.values()), size=(n_resamples, len(observed)))
    return dict(zip(observed, draws.T))


def per_label_draws(probabilities, total_pairs, seed):
    """The counts drawn one label at a time, a zero mean skipped: the reference draw."""
    rng = np.random.default_rng(seed)
    draws = {}
    for label in ("c_hh_d", "c_vv_d", "c_hv_u", "c_vh_u", "c_hv_1", "c_vh_1", "c_hv_0", "c_vh_0"):
        prob = probabilities.get(label, 0.0)
        draws[label] = int(rng.poisson(prob * total_pairs)) if prob > 0.0 else 0
    return draws


def assert_elementwise(estimator, first, second):
    """The estimator on a broadcast table equals its scalar calls, bit for bit."""
    values, errors = estimator(np.array(first)[:, None], np.array(second))
    scalars = [[estimator(a, b) for b in second] for a in first]
    assert all(type(x) is float for row in scalars for pair in row for x in pair)
    assert values.tolist() == [[value for value, _ in row] for row in scalars]
    assert errors.tolist() == [[error for _, error in row] for row in scalars]


class TestSplitRatio:
    def test_zero_numerator_has_zero_error(self):
        ratio, delta = estimate_p_prime(0, 1000)
        assert ratio == 0.0
        assert delta == 0.0

    def test_equal_hundreds_fixture(self):
        ratio, delta = estimate_p_prime(200, 200)
        assert ratio == pytest.approx(1.0, abs=1e-15)
        assert delta == pytest.approx(DELTA_P_AT_EQUAL_HUNDREDS, abs=1e-12)

    def test_quarter_ratio_fixture(self):
        ratio, delta = estimate_p_prime(100, 400)
        assert ratio == pytest.approx(0.25, abs=1e-15)
        assert delta == pytest.approx(DELTA_P_AT_50_50_200_200, abs=1e-12)

    def test_bootstrap_agreement(self):
        observed = {"c_hh_d": 50, "c_vv_d": 50, "c_hv_u": 200, "c_vh_u": 200}
        _, delta = estimate_p_prime(*path_sums(observed))
        down, up = path_sums(poisson_resample(observed))
        kept = up > 0  # the resamples whose ratio is defined
        resampled = float(np.std(estimate_p_prime(down[kept], up[kept])[0]))
        assert delta == pytest.approx(resampled, rel=0.1)

    def test_zero_denominator_raises(self):
        with pytest.raises(EstimationError, match="^up-path counts sum to zero; ratio undefined$"):
            estimate_p_prime(20, 0)


class TestAngle:
    def test_zero_ratio_fixture(self):
        theta, delta = estimate_theta(800, 0)
        assert theta == 0.0
        assert delta == pytest.approx(DELTA_THETA_AT_R0_800, abs=1e-12)

    def test_unit_ratio_fixture(self):
        theta, delta = estimate_theta(800, 800)
        assert theta == pytest.approx(math.pi / 4, abs=1e-12)
        assert delta == pytest.approx(DELTA_THETA_AT_R1_1600, abs=1e-12)

    def test_scaling_counts_by_four_halves_the_error(self):
        theta_base, delta_base = estimate_theta(700, 250)
        theta_scaled, delta_scaled = estimate_theta(2800, 1000)
        assert theta_scaled == pytest.approx(theta_base, abs=1e-15)
        assert delta_scaled == pytest.approx(delta_base / 2, abs=1e-15)

    def test_angle_stays_in_first_octant_range(self):
        theta, _ = estimate_theta(2, 10000)
        assert 0.0 <= theta < math.pi / 2

    def test_bootstrap_agreement(self):
        observed = {"c_hv_1": 120, "c_vh_1": 140, "c_hv_0": 500, "c_vh_0": 480}
        _, delta = estimate_theta(*mode_sums(observed))
        mode0, mode1 = mode_sums(poisson_resample(observed))
        kept = mode0 + mode1 > 0  # the resamples whose angle is defined
        resampled = float(np.std(estimate_theta(mode0[kept], mode1[kept])[0]))
        assert delta == pytest.approx(resampled, rel=0.1)

    def test_no_mode0_counts_give_a_right_angle(self):
        theta, delta = estimate_theta(0, 20)
        assert theta == math.pi / 2
        assert delta == 0.5 / math.sqrt(20)

    def test_no_counts_in_either_mode_raise(self):
        with pytest.raises(EstimationError, match="angle undefined"):
            estimate_theta(0, 0)


class TestArrayForms:
    """Each estimator on arrays of sums equals its scalar calls, element by element, bit for bit."""

    @given(grids(COUNT, max_size=12), grids(POSITIVE_COUNT, max_size=6))
    def test_p_prime_broadcasts_bit_for_bit(self, downs, ups):
        assert_elementwise(estimate_p_prime, [0, *downs], ups)

    @given(grids(COUNT, max_size=12), grids(POSITIVE_COUNT, max_size=6))
    def test_theta_broadcasts_bit_for_bit(self, sums, positive):
        # a zero sum in either mode, against a positive one in the other
        assert_elementwise(estimate_theta, [0, *sums], positive)
        assert_elementwise(estimate_theta, positive, [0, *sums])

    @given(grids(COUNT, max_size=12), grids(COUNT, max_size=6), st.integers(0, 40))
    def test_one_undefined_element_raises(self, firsts, seconds, index):
        with_zero = with_one_bad_element(seconds, index, 0)
        with pytest.raises(EstimationError, match="ratio undefined"):
            estimate_p_prime(np.array(firsts)[:, None], with_zero)
        with pytest.raises(EstimationError, match="angle undefined"):
            estimate_theta(with_one_bad_element(firsts, index, 0)[:, None], with_zero)

    @given(
        grids(COUNT),
        st.integers(0, 40),
        NOT_A_COUNT,
        st.sampled_from(["down", "up", "mode0", "mode1"]),
    )
    def test_one_bad_count_is_named(self, sums, index, bad, name):
        estimator = estimate_p_prime if name in ("down", "up") else estimate_theta
        values = with_one_bad_element(sums, index, bad)
        arguments = (values, 1) if name in ("down", "mode0") else (1, values)
        match = rf"^{name} count {re.escape(repr(bad))} must be a nonnegative integer$"
        with pytest.raises(ValueError, match=match):
            estimator(*arguments)

    def test_counts_must_be_nonnegative_integers(self):
        with pytest.raises(ValueError, match="^down count -1 must be a nonnegative integer$"):
            estimate_p_prime(-1, 10)
        with pytest.raises(ValueError, match="^mode1 count 2.5 must be a nonnegative integer$"):
            estimate_theta(10, 2.5)
        with pytest.raises(ValueError, match="^up count nan must be a nonnegative integer$"):
            estimate_p_prime(10, np.float64(math.nan))


class TestSimulateCounts:
    def test_rejects_nonpositive_totals(self):
        with pytest.raises(ValueError):
            simulate_counts({"c_hh_d": 0.5}, 0, seed=1)

    @pytest.mark.parametrize("total_pairs", [10**30, 10**400])
    def test_overflowing_mean_names_total_pairs(self, total_pairs):
        with pytest.raises(ValueError, match=f"^total_pairs {total_pairs} too large to sample"):
            simulate_counts({"c_hh_d": 0.25}, total_pairs, seed=1)

    def test_rejects_unknown_labels_and_negative_probabilities(self):
        with pytest.raises(ValueError, match="unknown"):
            simulate_counts({"c_xx_d": 0.5}, 100, seed=1)
        with pytest.raises(ValueError, match="negative"):
            simulate_counts({"c_hh_d": -0.5}, 100, seed=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.5])
    def test_a_probability_outside_the_unit_interval_is_named(self, bad):
        # NaN drew a silent zero, and inf blamed total_pairs
        with pytest.raises(ValueError, match=rf"^probability for c_vh_1 is .*: {re.escape(repr(bad))}$"):
            simulate_counts({"c_hh_d": 0.25, "c_vh_1": bad, "c_hv_u": 0.5}, 100, seed=1)

    def test_deterministic_under_seed(self):
        probs = coincidence_probabilities(0.3, 0.4)
        a = simulate_counts(probs, 4000, seed=123)
        b = simulate_counts(probs, 4000, seed=123)
        assert a == b

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.4, 0.5, 0.9, 1.0])
    def test_one_call_draws_what_the_per_label_loop_draws(self, p):
        # zero-probability labels (p 0 or 1, theta 0 or pi/2) draw nothing
        for theta in (0.0, 1e-8, 0.3, 0.785, 1.5, math.pi / 2):
            probabilities = coincidence_probabilities(p, theta)
            for total_pairs in (1, 7, 4000, 10**6, 10**9, 10**12):
                for seed in range(3):
                    counts = simulate_counts(probabilities, total_pairs, seed)
                    assert counts == per_label_draws(probabilities, total_pairs, seed)
                    assert all(type(count) is int for count in counts.values())
                    assert sorted(counts) == sorted(probabilities) == sorted(COUNT_LABELS)

    def test_poisson_concentration(self):
        probs = {name: 0.25 for name in COUNT_LABELS[:4]}
        counts = simulate_counts(probs, 1_000_000, seed=6)
        for name in COUNT_LABELS[:4]:
            mean = 250_000
            assert abs(counts[name] - mean) < 5 * math.sqrt(mean)


class TestProtocolProbabilities:
    def test_split_group_follows_the_interaction_weights(self):
        for p in (0.0, 0.2, 0.5, 0.8):
            probs = coincidence_probabilities(p, 0.3)
            assert probs["c_hh_d"] == pytest.approx(p / 2, abs=1e-12)
            assert probs["c_vv_d"] == pytest.approx(p / 2, abs=1e-12)
            assert probs["c_hv_u"] == pytest.approx((1 - p) / 2, abs=1e-12)
            assert probs["c_vh_u"] == pytest.approx((1 - p) / 2, abs=1e-12)

    def test_angle_group_matches_the_projected_branches(self):
        for p in (0.0, 0.3, 0.5, 1.0):
            for theta in (0.0, 0.35, math.pi / 4, 1.1, math.pi / 2):
                probs = coincidence_probabilities(p, theta)
                for suffix, (probability, state) in zip("01", measured_ensemble(p, theta)):
                    weight = [0.0] * 4 if state is None else np.abs(state.amplitudes) ** 2
                    assert probs[f"c_hv_{suffix}"] == pytest.approx(
                        probability * weight[1], abs=1e-12
                    )
                    assert probs[f"c_vh_{suffix}"] == pytest.approx(
                        probability * weight[2], abs=1e-12
                    )

    def test_zero_branch_pairs_are_exactly_zero(self):
        # cos^2(pi/2) and sin^2(1e-8) are tiny but not 0; a branch of
        # probability <= 1e-14 is 0, so no Poisson draw is made for it
        at_right_angle = coincidence_probabilities(0.0, math.pi / 2)
        assert at_right_angle["c_hv_0"] == at_right_angle["c_vh_0"] == 0.0
        near_zero = coincidence_probabilities(0.0, 1e-8)
        assert near_zero["c_hv_1"] == near_zero["c_vh_1"] == 0.0
        assert near_zero["c_hv_0"] == 0.5

    def test_angle_group_ratio_is_tan_squared_for_any_p(self):
        for p in (0.2, 0.5, 0.7):
            for theta in (0.2, 0.6, 1.0):
                probs = coincidence_probabilities(p, theta)
                ratio = (probs["c_hv_1"] + probs["c_vh_1"]) / (
                    probs["c_hv_0"] + probs["c_vh_0"]
                )
                assert ratio == pytest.approx(math.tan(theta) ** 2, abs=1e-12)

    def test_round_trip_recovers_the_ratio_at_large_totals(self):
        p = 1.0 / 3.0
        target = p / (1 - p)
        probs = coincidence_probabilities(p, 0.0)
        hits = 0
        trials = 1000
        for seed in range(trials):
            counts = simulate_counts(probs, 10_000_000, seed=seed)
            ratio, delta = estimate_p_prime(*path_sums(counts))
            if abs(ratio - target) <= 3 * delta:
                hits += 1
        assert hits >= 0.99 * trials

    def test_angle_estimate_coverage_at_zero(self):
        probs = coincidence_probabilities(0.5, 0.0)
        hits = 0
        trials = 1000
        for seed in range(trials):
            counts = simulate_counts(probs, 4000, seed=seed)
            theta, delta = estimate_theta(*mode_sums(counts))
            if abs(theta) <= 3 * delta:
                hits += 1
        assert hits >= 0.99 * trials

    def test_angle_estimate_coverage_at_finite_angle(self):
        true_theta = 0.3
        probs = coincidence_probabilities(0.5, true_theta)
        hits = 0
        trials = 500
        for seed in range(trials):
            counts = simulate_counts(probs, 20_000, seed=seed)
            theta, delta = estimate_theta(*mode_sums(counts))
            if abs(theta - true_theta) <= 3 * delta:
                hits += 1
        assert hits >= 0.98 * trials


class TestCoverageOracle:
    """The exact coverage of the counts-demo error bars, against the package."""

    @pytest.mark.parametrize(
        "quantity, p, theta",
        [
            ("theta", 0.5, 0.3),
            ("theta", 0.5, 1.55),
            ("theta", 0.5, 0.01),
            ("p_prime", 0.5, 0.3),
            ("p_prime", 0.2, 0.3),
        ],
    )
    def test_oracle_matches_the_simulated_coverage(self, quantity, p, theta):
        estimator, sums, truth = (
            (estimate_theta, mode_sums, theta)
            if quantity == "theta"
            else (estimate_p_prime, path_sums, p / (1 - p))
        )
        probabilities = coincidence_probabilities(p, theta)
        trials = 400
        hits = 0
        for seed in range(trials):
            estimate, error = estimator(*sums(simulate_counts(probabilities, 4000, seed=seed)))
            hits += abs(estimate - truth) <= error
        exact = counts_coverage_oracle(quantity, p, theta, 4000)
        assert abs(hits / trials - exact) <= 3 * math.sqrt(exact * (1 - exact) / trials)

    def test_one_sigma_coverage_away_from_the_edges(self):
        # a true one-sigma error covers 68.27% of the estimates; near theta 0
        # and pi/2 first-order propagation does not, which the error bars
        # have yet to mend
        assert counts_coverage_oracle("theta", 0.5, 0.3, 4000) == pytest.approx(0.6827, abs=0.01)
        assert counts_coverage_oracle("p_prime", 0.5, 0.0, 4000) == pytest.approx(0.6827, abs=0.01)
        assert counts_coverage_oracle("theta", 0.5, 1.55, 4000) == pytest.approx(0.5115, abs=1e-4)
        assert counts_coverage_oracle("theta", 0.5, 0.01, 4000) == pytest.approx(0.8187, abs=1e-4)

    def test_undefined_estimates_are_misses(self):
        # at N = 2 and p = 1/2 the up path, and the two modes together, stay
        # empty with probability exp(-1); those cells cover nothing
        for quantity in ("theta", "p_prime"):
            assert 0.0 < counts_coverage_oracle(quantity, 0.5, 0.3, 2) <= 1.0 - math.exp(-1.0)
