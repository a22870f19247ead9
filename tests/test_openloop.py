import math

import numpy as np
import pytest

from qrecover.dephasing import (
    CORRECTED,
    ECHOED,
    UNCONTROLLED,
    NoiseParams,
    TrajectoryControl,
    analytic_coherence,
)
from qrecover.entanglement import PreparationModel, eof_from_concurrence
from qrecover.openloop import open_loop_series, run_open_loop

SIGMA = 0.6
IDEAL = PreparationModel.ideal()
MEASURED = PreparationModel.from_fidelity(0.96)


def params(mu, **kwargs):
    return NoiseParams(mu=mu, sigma=SIGMA, **kwargs)


def uncontrolled(k, mu, prep=IDEAL):
    return run_open_loop(params(mu), UNCONTROLLED, prep, k).concurrence


def echoed(k, mu, prep=IDEAL):
    return run_open_loop(params(mu), ECHOED, prep, k).concurrence


def corrected(prep=IDEAL):
    return run_open_loop(params(0.5), CORRECTED, prep, 4).concurrence


class TestClosedForms:
    def test_fully_correlated_decay(self):
        for k in range(5):
            expected = math.exp(-0.18 * k * k)
            assert uncontrolled(k, 1.0) == pytest.approx(expected, abs=1e-9)

    def test_terminal_uncontrolled_value(self):
        assert uncontrolled(4, 1.0) == pytest.approx(math.exp(-2.88), abs=1e-12)
        assert uncontrolled(4, 1.0) == pytest.approx(0.05613, abs=1e-5)

    def test_initial_step_is_input_concurrence(self):
        for mu in (0.0, 0.5, 1.0):
            assert uncontrolled(0, mu) == pytest.approx(1.0, abs=1e-12)
        assert uncontrolled(0, 1.0, MEASURED) == pytest.approx(0.92, abs=1e-9)

    def test_echoed_full_recovery_curve(self):
        assert echoed(4, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert echoed(3, 1.0) == pytest.approx(math.exp(-0.18), abs=1e-9)
        for k in (3, 4):
            expected = math.exp(-0.18 * (k - 4) ** 2)
            assert echoed(k, 1.0) == pytest.approx(expected, abs=1e-9)

    def test_echoed_general_mu_equals_twice_the_coherence(self):
        for mu in (0.2, 0.7):
            expected = 2 * abs(analytic_coherence((1, 1, -1, -1), mu, SIGMA))
            assert echoed(4, mu) == pytest.approx(expected, abs=1e-12)

    def test_echoed_with_measured_fidelity(self):
        expected = 2 * max(0.0, MEASURED.eta / 2 - (1 - MEASURED.eta) / 4)
        assert echoed(4, 1.0, MEASURED) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.92, abs=1e-9)

    def test_corrected_is_exact(self):
        assert corrected() == pytest.approx(1.0, abs=1e-15)
        assert corrected(MEASURED) == pytest.approx(0.92, abs=1e-9)

    def test_monotone_decay_in_step(self):
        for mu in (0.0, 0.2, 0.5, 0.7, 1.0):
            for prep in (IDEAL, MEASURED):
                values = [uncontrolled(k, mu, prep) for k in range(5)]
                for previous, current in zip(values, values[1:]):
                    assert current <= previous + 1e-12

    def test_recovery_ordering(self):
        for mu in np.arange(0.1, 1.01, 0.1):
            assert echoed(4, float(mu)) >= uncontrolled(4, float(mu)) - 1e-12

    def test_echo_upturn_for_strong_correlations(self):
        # the k=4 echo value climbs back above k=3 once correlations are
        # strong enough; at sigma = 0.6 that happens near mu = 0.79
        for mu in (0.8, 0.9, 1.0):
            assert echoed(4, mu) >= echoed(3, mu) - 1e-12

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            uncontrolled(5, 0.5)
        with pytest.raises(ValueError):
            echoed(-1, 0.5)
        with pytest.raises(ValueError):
            uncontrolled(1, 0.5, PreparationModel.from_eta(1.5))


class TestRunOpenLoop:
    def test_analytic_uncontrolled_point(self):
        result = run_open_loop(params(0.7), UNCONTROLLED, IDEAL, 3)
        expected = 2 * abs(analytic_coherence((1, 1, 1), 0.7, SIGMA))
        assert result.concurrence == pytest.approx(expected, abs=1e-12)
        assert result.eof == pytest.approx(eof_from_concurrence(expected), abs=1e-12)

    def test_corrected_point_is_fully_recovered(self):
        result = run_open_loop(params(0.2), CORRECTED, IDEAL, 4)
        assert result.concurrence == pytest.approx(1.0, abs=1e-12)
        assert result.eof == pytest.approx(1.0, abs=1e-12)

    def test_echoed_measured_fidelity_endpoint(self):
        result = run_open_loop(params(1.0), ECHOED, MEASURED, 4)
        assert result.concurrence == pytest.approx(0.92, abs=1e-9)

    def test_monte_carlo_agrees_with_analytic(self):
        n = 100_000
        tol = 5 / math.sqrt(n)
        arms = ((UNCONTROLLED, (1, 2, 3, 4)), (ECHOED, (3, 4)), (CORRECTED, (4,)))
        for mu in (0.2, 0.7, 1.0):
            for control, ks in arms:
                for k in ks:
                    analytic = run_open_loop(params(mu), control, IDEAL, k, "analytic")
                    sampled = run_open_loop(
                        params(mu), control, IDEAL, k, "monte_carlo", n_samples=n, seed=31
                    )
                    assert abs(analytic.concurrence - sampled.concurrence) < tol

    def test_monte_carlo_with_eta_mixing(self):
        sampled = run_open_loop(
            params(1.0), UNCONTROLLED, MEASURED, 2, "monte_carlo", n_samples=50_000, seed=13
        )
        analytic = uncontrolled(2, 1.0, MEASURED)
        assert sampled.concurrence == pytest.approx(analytic, abs=0.01)
        assert sampled.stat_error is not None and 0 < sampled.stat_error < 0.01

    def test_result_internal_consistency(self):
        result = run_open_loop(params(0.5), UNCONTROLLED, MEASURED, 2)
        assert result.eof == pytest.approx(
            eof_from_concurrence(result.concurrence), abs=1e-9
        )

    def test_invalid_combinations(self):
        # an arm whose control has not acted yet carries the uncontrolled value
        assert echoed(2, 0.5) == uncontrolled(2, 0.5)
        assert run_open_loop(params(0.5), CORRECTED, IDEAL, 3).concurrence == uncontrolled(3, 0.5)
        with pytest.raises(ValueError, match="seed"):
            run_open_loop(params(0.5), UNCONTROLLED, IDEAL, 2, "monte_carlo")
        with pytest.raises(ValueError, match="method"):
            run_open_loop(params(0.5), UNCONTROLLED, IDEAL, 2, "exact")

    def test_analytic_values_refuse_clipped_phases(self):
        # the closed form assumes unclipped Gaussian phases
        clipped = params(0.7, clip_to_hardware=True)
        with pytest.raises(ValueError, match="clip_to_hardware"):
            run_open_loop(clipped, UNCONTROLLED, IDEAL, 2)
        for methods in (("analytic",), ("analytic", "monte_carlo")):
            with pytest.raises(ValueError, match="clip_to_hardware"):
                open_loop_series(clipped, [IDEAL], methods, n_samples=100, seed=1)
        sampled = open_loop_series(clipped, [IDEAL], ("monte_carlo",), n_samples=100, seed=1)
        assert len(sampled) == 3 * 5

    def test_echo_position_is_honoured(self):
        early = TrajectoryControl(kind="echoed", echo_after_step=1)
        analytic = run_open_loop(params(0.3), early, IDEAL, 4)
        assert analytic.concurrence == pytest.approx(0.46753, abs=1e-5)
        sampled = run_open_loop(
            params(0.3), early, IDEAL, 4, "monte_carlo", n_samples=100_000, seed=8
        )
        assert abs(sampled.concurrence - analytic.concurrence) < 5 * sampled.stat_error


class TestSeries:
    def test_series_shape_and_fill(self):
        series = open_loop_series(params(0.7), [IDEAL])
        assert len(series) == 15
        by_key = {(r.control_kind, r.step): r for r in series}
        for k in (0, 1, 2):
            assert by_key[("echoed", k)].concurrence == pytest.approx(
                by_key[("uncontrolled", k)].concurrence, abs=1e-15
            )
        for k in (0, 1, 2, 3):
            assert by_key[("corrected", k)].concurrence == pytest.approx(
                by_key[("uncontrolled", k)].concurrence, abs=1e-15
            )
        assert by_key[("corrected", 4)].concurrence == pytest.approx(1.0, abs=1e-12)
        assert by_key[("echoed", 4)].concurrence > by_key[("uncontrolled", 4)].concurrence

    def test_point_relabeling_keeps_arm_name(self):
        point = run_open_loop(params(0.7), ECHOED, IDEAL, 1)
        assert point.control_kind == "echoed"
        assert point.concurrence == pytest.approx(uncontrolled(1, 0.7), abs=1e-15)

    def test_any_step_count(self):
        series = open_loop_series(params(0.7, steps=6), [IDEAL])
        assert len(series) == 3 * 7
        by_key = {(r.control_kind, r.step): r.concurrence for r in series}
        assert by_key[("corrected", 6)] == pytest.approx(1.0, abs=1e-12)
        assert by_key[("echoed", 6)] > by_key[("uncontrolled", 6)]
