import math

import numpy as np
import pytest

from qrecover.counts import (
    CoincidenceCounts,
    EstimationError,
    SPLIT_FIELDS,
    coincidence_probabilities,
    estimate_p_prime,
    estimate_theta,
    simulate_counts,
)

from helpers import measured_ensemble
from oracle import counts_coverage_oracle, p_prime_estimate_oracle, theta_estimate_oracle

DELTA_P_AT_EQUAL_HUNDREDS = 0.1  # sqrt(4 * 0.0025) for counts (100, 100, 100, 100)
DELTA_P_AT_50_50_200_200 = 0.027950849718747368
DELTA_THETA_AT_R0_800 = 0.017677669529663688  # 0.5 / sqrt(800)
DELTA_THETA_AT_R1_1600 = 0.0125  # 0.5 / sqrt(800) / sqrt(2)


def bootstrap_std(observed: dict, estimator, n_resamples=100_000, seed=77):
    """Std of an estimator under Poisson resampling of the observed counts."""
    rng = np.random.default_rng(seed)
    names = list(observed)
    draws = rng.poisson(lam=[observed[n] for n in names], size=(n_resamples, len(names)))
    values = []
    for row in draws:
        counts = CoincidenceCounts(**dict(zip(names, (int(v) for v in row))))
        try:
            values.append(estimator(counts)[0])
        except EstimationError:
            continue
    return float(np.std(values))


class TestSplitRatio:
    def test_zero_numerator_has_zero_error(self):
        ratio, delta = estimate_p_prime(
            CoincidenceCounts(c_hh_d=0, c_vv_d=0, c_hv_u=500, c_vh_u=500)
        )
        assert ratio == 0.0
        assert delta == 0.0

    def test_equal_hundreds_fixture(self):
        ratio, delta = estimate_p_prime(
            CoincidenceCounts(c_hh_d=100, c_vv_d=100, c_hv_u=100, c_vh_u=100)
        )
        assert ratio == pytest.approx(1.0, abs=1e-15)
        assert delta == pytest.approx(DELTA_P_AT_EQUAL_HUNDREDS, abs=1e-12)

    def test_quarter_ratio_fixture(self):
        ratio, delta = estimate_p_prime(
            CoincidenceCounts(c_hh_d=50, c_vv_d=50, c_hv_u=200, c_vh_u=200)
        )
        assert ratio == pytest.approx(0.25, abs=1e-15)
        assert delta == pytest.approx(DELTA_P_AT_50_50_200_200, abs=1e-12)

    def test_bootstrap_agreement(self):
        observed = {"c_hh_d": 50, "c_vv_d": 50, "c_hv_u": 200, "c_vh_u": 200}
        _, delta = estimate_p_prime(CoincidenceCounts(**observed))
        resampled = bootstrap_std(observed, estimate_p_prime)
        assert delta == pytest.approx(resampled, rel=0.1)

    def test_zero_denominator_raises(self):
        with pytest.raises(EstimationError):
            estimate_p_prime(CoincidenceCounts(c_hh_d=10, c_vv_d=10))


class TestAngle:
    def test_zero_ratio_fixture(self):
        theta, delta = estimate_theta(
            CoincidenceCounts(c_hv_1=0, c_vh_1=0, c_hv_0=400, c_vh_0=400)
        )
        assert theta == 0.0
        assert delta == pytest.approx(DELTA_THETA_AT_R0_800, abs=1e-12)

    def test_unit_ratio_fixture(self):
        theta, delta = estimate_theta(
            CoincidenceCounts(c_hv_1=400, c_vh_1=400, c_hv_0=400, c_vh_0=400)
        )
        assert theta == pytest.approx(math.pi / 4, abs=1e-12)
        assert delta == pytest.approx(DELTA_THETA_AT_R1_1600, abs=1e-12)

    def test_scaling_counts_by_four_halves_the_error(self):
        base = CoincidenceCounts(c_hv_1=100, c_vh_1=150, c_hv_0=400, c_vh_0=300)
        scaled = CoincidenceCounts(c_hv_1=400, c_vh_1=600, c_hv_0=1600, c_vh_0=1200)
        theta_base, delta_base = estimate_theta(base)
        theta_scaled, delta_scaled = estimate_theta(scaled)
        assert theta_scaled == pytest.approx(theta_base, abs=1e-15)
        assert delta_scaled == pytest.approx(delta_base / 2, abs=1e-15)

    def test_angle_stays_in_first_octant_range(self):
        theta, _ = estimate_theta(
            CoincidenceCounts(c_hv_1=5000, c_vh_1=5000, c_hv_0=1, c_vh_0=1)
        )
        assert 0.0 <= theta < math.pi / 2

    def test_bootstrap_agreement(self):
        observed = {"c_hv_1": 120, "c_vh_1": 140, "c_hv_0": 500, "c_vh_0": 480}
        _, delta = estimate_theta(CoincidenceCounts(**observed))
        resampled = bootstrap_std(observed, estimate_theta)
        assert delta == pytest.approx(resampled, rel=0.1)

    def test_no_mode0_counts_give_a_right_angle(self):
        theta, delta = estimate_theta(CoincidenceCounts(c_hv_1=10, c_vh_1=10))
        assert theta == math.pi / 2
        assert delta == 0.5 / math.sqrt(20)

    def test_no_counts_in_either_mode_raise(self):
        with pytest.raises(EstimationError, match="angle undefined"):
            estimate_theta(CoincidenceCounts(c_hh_d=10, c_hv_u=10))


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

    def test_deterministic_under_seed(self):
        probs = coincidence_probabilities(0.3, 0.4)
        a = simulate_counts(probs, 4000, seed=123)
        b = simulate_counts(probs, 4000, seed=123)
        assert a == b

    def test_poisson_concentration(self):
        probs = {name: 0.25 for name in SPLIT_FIELDS}
        counts = simulate_counts(probs, 1_000_000, seed=6)
        for name in SPLIT_FIELDS:
            mean = 250_000
            assert abs(getattr(counts, name) - mean) < 5 * math.sqrt(mean)

    def test_counts_must_be_nonnegative_integers(self):
        with pytest.raises(ValueError):
            CoincidenceCounts(c_hh_d=-1)


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
            ratio, delta = estimate_p_prime(counts)
            if abs(ratio - target) <= 3 * delta:
                hits += 1
        assert hits >= 0.99 * trials

    def test_angle_estimate_coverage_at_zero(self):
        probs = coincidence_probabilities(0.5, 0.0)
        hits = 0
        trials = 1000
        for seed in range(trials):
            counts = simulate_counts(probs, 4000, seed=seed)
            theta, delta = estimate_theta(counts)
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
            theta, delta = estimate_theta(counts)
            if abs(theta - true_theta) <= 3 * delta:
                hits += 1
        assert hits >= 0.98 * trials


class TestCoverageOracle:
    """The exact coverage of the counts-demo error bars, against the package."""

    def test_estimators_match_the_package_on_a_grid_with_zero_counts(self):
        sums = [0, 1, 2, 3, 7, 40, 401]
        for first in sums:
            for second in sums:
                # each sum split over its two labels, unevenly
                counts = CoincidenceCounts(
                    c_hv_0=first // 3, c_vh_0=first - first // 3,
                    c_hv_1=second - second // 2, c_vh_1=second // 2,
                    c_hh_d=first - first // 3, c_vv_d=first // 3,
                    c_hv_u=second // 2, c_vh_u=second - second // 2,
                )
                exact = [
                    (theta_estimate_oracle(first, second), estimate_theta, first or second),
                    (p_prime_estimate_oracle(first, second), estimate_p_prime, second),
                ]
                for (value, error), estimator, defined in exact:
                    if not defined:
                        assert np.isnan(value) and np.isnan(error)
                        with pytest.raises(EstimationError):
                            estimator(counts)
                    else:
                        assert (value, error) == pytest.approx(estimator(counts), rel=1e-12)

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
        estimator, truth = (
            (estimate_theta, theta) if quantity == "theta" else (estimate_p_prime, p / (1 - p))
        )
        probabilities = coincidence_probabilities(p, theta)
        trials = 400
        hits = 0
        for seed in range(trials):
            estimate, error = estimator(simulate_counts(probabilities, 4000, seed=seed))
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
