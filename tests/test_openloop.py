import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrecover.dephasing import (
    CONTROL_KINDS,
    NoiseParams,
    TrajectoryControl,
    analytic_coherence,
    monte_carlo_moments,
)
from qrecover.entanglement import PreparationModel, eof_from_concurrence, mixed_concurrence
from qrecover.openloop import METHODS, open_loop_series

SIGMA = 0.6
IDEAL = PreparationModel.ideal()
MEASURED = PreparationModel.from_fidelity(0.96)


def params(mu, **kwargs):
    return NoiseParams(mu=mu, sigma=SIGMA, **kwargs)


def rows(table):
    """The rows of a column table, each a mapping from column to value."""
    return [dict(zip(table, values)) for values in zip(*table.values())]


def row(table, control, k, method="analytic"):
    """The one row of ``table`` for this arm, step and method."""
    (found,) = [
        r for r in rows(table) if (r["control"], r["step"], r["method"]) == (control, k, method)
    ]
    return found


def concurrence(control, k, mu, prep=IDEAL):
    return row(open_loop_series(params(mu), [prep]), control, k)["concurrence"]


def uncontrolled(k, mu, prep=IDEAL):
    return concurrence("uncontrolled", k, mu, prep)


def echoed(k, mu, prep=IDEAL):
    return concurrence("echoed", k, mu, prep)


def corrected(prep=IDEAL):
    return concurrence("corrected", 4, 0.5, prep)


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
            TrajectoryControl(kind="uncontrolled").signs(5, 4)
        with pytest.raises(ValueError):
            TrajectoryControl(kind="echoed").signs(-1, 4)
        with pytest.raises(ValueError):
            open_loop_series(params(0.5), [PreparationModel.from_eta(1.5)])


class TestTableRows:
    def test_analytic_uncontrolled_point(self):
        result = row(open_loop_series(params(0.7), [IDEAL]), "uncontrolled", 3)
        expected = 2 * abs(analytic_coherence((1, 1, 1), 0.7, SIGMA))
        assert result["concurrence"] == pytest.approx(expected, abs=1e-12)
        assert result["eof"] == pytest.approx(eof_from_concurrence(expected), abs=1e-12)

    def test_corrected_point_is_fully_recovered(self):
        result = row(open_loop_series(params(0.2), [IDEAL]), "corrected", 4)
        assert result["concurrence"] == pytest.approx(1.0, abs=1e-12)
        assert result["eof"] == pytest.approx(1.0, abs=1e-12)

    def test_echoed_measured_fidelity_endpoint(self):
        result = row(open_loop_series(params(1.0), [MEASURED]), "echoed", 4)
        assert result["concurrence"] == pytest.approx(0.92, abs=1e-9)

    def test_monte_carlo_agrees_with_analytic(self):
        n = 100_000
        tol = 5 / math.sqrt(n)
        arms = (("uncontrolled", (1, 2, 3, 4)), ("echoed", (3, 4)), ("corrected", (4,)))
        for mu in (0.2, 0.7, 1.0):
            table = open_loop_series(params(mu), [IDEAL], METHODS, n_samples=n, seed=31)
            for control, ks in arms:
                for k in ks:
                    analytic = row(table, control, k, "analytic")
                    sampled = row(table, control, k, "monte_carlo")
                    assert abs(analytic["concurrence"] - sampled["concurrence"]) < tol

    def test_monte_carlo_with_eta_mixing(self):
        table = open_loop_series(
            params(1.0), [MEASURED], ("monte_carlo",), n_samples=50_000, seed=13
        )
        sampled = row(table, "uncontrolled", 2, "monte_carlo")
        analytic = uncontrolled(2, 1.0, MEASURED)
        assert sampled["concurrence"] == pytest.approx(analytic, abs=0.01)
        assert sampled["stat_error"] is not None and 0 < sampled["stat_error"] < 0.01

    def test_result_internal_consistency(self):
        result = row(open_loop_series(params(0.5), [MEASURED]), "uncontrolled", 2)
        assert result["eof"] == pytest.approx(
            eof_from_concurrence(result["concurrence"]), abs=1e-9
        )

    def test_invalid_combinations(self):
        # an arm whose control has not acted yet carries the uncontrolled value
        assert echoed(2, 0.5) == uncontrolled(2, 0.5)
        assert concurrence("corrected", 3, 0.5) == uncontrolled(3, 0.5)
        with pytest.raises(ValueError, match="seed"):
            open_loop_series(params(0.5), [IDEAL], ("monte_carlo",))
        with pytest.raises(ValueError, match="method"):
            open_loop_series(params(0.5), [IDEAL], ("exact",))

    @pytest.mark.parametrize("workers", [0, -1, 2.5, True])
    def test_monte_carlo_rows_refuse_a_bad_worker_count_by_name(self, workers):
        with pytest.raises(ValueError, match="workers must be an integer >= 1"):
            open_loop_series(
                params(0.5), [IDEAL], ("monte_carlo",), n_samples=100, seed=1, workers=workers
            )

    def test_analytic_values_refuse_clipped_phases(self):
        # the closed form assumes unclipped Gaussian phases
        clipped = params(0.7, clip_to_hardware=True)
        for methods in (("analytic",), ("analytic", "monte_carlo")):
            with pytest.raises(ValueError, match="clip_to_hardware"):
                open_loop_series(clipped, [IDEAL], methods, n_samples=100, seed=1)
        sampled = open_loop_series(clipped, [IDEAL], ("monte_carlo",), n_samples=100, seed=1)
        assert len(rows(sampled)) == 3 * 5

    def test_echo_position_is_honoured(self):
        signs = TrajectoryControl(kind="echoed", echo_after_step=1).signs(4, 4)
        analytic = mixed_concurrence(abs(analytic_coherence(signs, 0.3, SIGMA)), IDEAL.eta)
        assert analytic == pytest.approx(0.46753, abs=1e-5)
        (moments,) = monte_carlo_moments(params(0.3), [signs], n_samples=100_000, seed=8)
        sampled = mixed_concurrence(abs(moments.coherence_mean), IDEAL.eta)
        stat_error = 2.0 * IDEAL.eta * moments.coherence_std_error()
        assert abs(sampled - analytic) < 5 * stat_error


class TestSeries:
    def test_series_shape_and_fill(self):
        series = rows(open_loop_series(params(0.7), [IDEAL]))
        assert len(series) == 15
        by_key = {(r["control"], r["step"]): r["concurrence"] for r in series}
        for k in (0, 1, 2):
            assert by_key[("echoed", k)] == pytest.approx(by_key[("uncontrolled", k)], abs=1e-15)
        for k in (0, 1, 2, 3):
            assert by_key[("corrected", k)] == pytest.approx(
                by_key[("uncontrolled", k)], abs=1e-15
            )
        assert by_key[("corrected", 4)] == pytest.approx(1.0, abs=1e-12)
        assert by_key[("echoed", 4)] > by_key[("uncontrolled", 4)]

    def test_point_relabeling_keeps_arm_name(self):
        table = open_loop_series(params(0.7), [IDEAL])
        # the echoed arm at step 1, before its echo acts
        index = table["control"].index("echoed") + 1
        assert (table["control"][index], table["step"][index]) == ("echoed", 1)
        assert table["concurrence"][index] == pytest.approx(uncontrolled(1, 0.7), abs=1e-15)

    def test_any_step_count(self):
        series = rows(open_loop_series(params(0.7, steps=6), [IDEAL]))
        assert len(series) == 3 * 7
        by_key = {(r["control"], r["step"]): r["concurrence"] for r in series}
        assert by_key[("corrected", 6)] == pytest.approx(1.0, abs=1e-12)
        assert by_key[("echoed", 6)] > by_key[("uncontrolled", 6)]


def _as_list(values):
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


class TestTableDefinition:
    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.0, 1.0),
        st.floats(1e-3, 10.0),
        st.integers(1, 7),
        st.lists(st.floats(0.25, 1.0), min_size=1, max_size=3),
    )
    def test_table_equals_the_row_by_row_definition(self, mu, sigma, steps, fidelities):
        preps = [PreparationModel.from_fidelity(f) for f in fidelities]
        table = open_loop_series(NoiseParams(mu=mu, sigma=sigma, steps=steps), preps)
        expected = {column: [] for column in table}
        for prep in preps:
            for kind in CONTROL_KINDS:
                for k in range(steps + 1):
                    signs = TrajectoryControl(kind).signs(k, steps)
                    c = mixed_concurrence(abs(analytic_coherence(signs, mu, sigma)), prep.eta)
                    cells = (prep.fidelity, kind, "analytic", k, c, eof_from_concurrence(c), None)
                    for column, cell in zip(expected, cells):
                        expected[column].append(cell)
        assert {column: _as_list(values) for column, values in table.items()} == expected
