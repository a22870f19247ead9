import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrecover import dephasing, openloop
from qrecover.dephasing import (
    analytic_coherence,
    coherence_std_error,
    monte_carlo_moments,
)
from qrecover.entanglement import eof_from_concurrence, eta_from_fidelity, mixed_concurrence
from qrecover.openloop import CONTROL_KINDS, CONTROLS, METHODS, open_loop_series

from helpers import table_rows
from oracle import arm_signs

SIGMA = 0.6
# singlet fidelities: the ideal pair and the measured one
IDEAL = 1.0
MEASURED = 0.96


def row(table, control, k, method="analytic"):
    """The one row of ``table`` for this arm, step and method."""
    (found,) = [
        r
        for r in table_rows(table)
        if (r["control"], r["step"], r["method"]) == (control, k, method)
    ]
    return found


def concurrence(control, k, mu, fidelity=IDEAL):
    return row(open_loop_series(mu, SIGMA, [fidelity]), control, k)["concurrence"]


def uncontrolled(k, mu, fidelity=IDEAL):
    return concurrence("uncontrolled", k, mu, fidelity)


def echoed(k, mu, fidelity=IDEAL):
    return concurrence("echoed", k, mu, fidelity)


def corrected(fidelity=IDEAL):
    return concurrence("corrected", 4, 0.5, fidelity)


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
            expected = 2 * abs(analytic_coherence((1, 1, -1, -1), mu, SIGMA)[-1])
            assert echoed(4, mu) == pytest.approx(expected, abs=1e-12)

    def test_echoed_with_measured_fidelity(self):
        eta = eta_from_fidelity(MEASURED)
        expected = 2 * max(0.0, eta / 2 - (1 - eta) / 4)
        assert echoed(4, 1.0, MEASURED) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.92, abs=1e-9)

    def test_corrected_is_exact(self):
        assert corrected() == pytest.approx(1.0, abs=1e-15)
        assert corrected(MEASURED) == pytest.approx(0.92, abs=1e-9)

    def test_monotone_decay_in_step(self):
        for mu in (0.0, 0.2, 0.5, 0.7, 1.0):
            for fidelity in (IDEAL, MEASURED):
                values = [uncontrolled(k, mu, fidelity) for k in range(5)]
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

    @pytest.mark.parametrize("fidelity", [0.2, 1.5, math.nan])
    def test_domain_checks(self, fidelity):
        message = rf"^fidelity {fidelity!r} outside \[1/4, 1\]$"
        with pytest.raises(ValueError, match=message):
            open_loop_series(0.5, SIGMA, [1.0, fidelity])


class TestTableRows:
    def test_analytic_uncontrolled_point(self):
        result = row(open_loop_series(0.7, SIGMA, [IDEAL]), "uncontrolled", 3)
        expected = 2 * abs(analytic_coherence((1, 1, 1), 0.7, SIGMA)[-1])
        assert result["concurrence"] == pytest.approx(expected, abs=1e-12)
        assert result["eof"] == pytest.approx(eof_from_concurrence(expected), abs=1e-12)

    def test_corrected_point_is_fully_recovered(self):
        result = row(open_loop_series(0.2, SIGMA, [IDEAL]), "corrected", 4)
        assert result["concurrence"] == pytest.approx(1.0, abs=1e-12)
        assert result["eof"] == pytest.approx(1.0, abs=1e-12)

    def test_echoed_measured_fidelity_endpoint(self):
        result = row(open_loop_series(1.0, SIGMA, [MEASURED]), "echoed", 4)
        assert result["concurrence"] == pytest.approx(0.92, abs=1e-9)

    def test_monte_carlo_agrees_with_analytic(self):
        n = 100_000
        tol = 5 / math.sqrt(n)
        arms = (("uncontrolled", (1, 2, 3, 4)), ("echoed", (3, 4)), ("corrected", (4,)))
        for mu in (0.2, 0.7, 1.0):
            table = open_loop_series(mu, SIGMA, [IDEAL], methods=METHODS, n_samples=n, seed=31)
            for control, ks in arms:
                for k in ks:
                    analytic = row(table, control, k, "analytic")
                    sampled = row(table, control, k, "monte_carlo")
                    assert abs(analytic["concurrence"] - sampled["concurrence"]) < tol

    def test_monte_carlo_with_eta_mixing(self):
        table = open_loop_series(
            1.0, SIGMA, [MEASURED], methods=("monte_carlo",), n_samples=50_000, seed=13
        )
        sampled = row(table, "uncontrolled", 2, "monte_carlo")
        analytic = uncontrolled(2, 1.0, MEASURED)
        assert sampled["concurrence"] == pytest.approx(analytic, abs=0.01)
        assert sampled["stat_error"] is not None and 0 < sampled["stat_error"] < 0.01

    def test_result_internal_consistency(self):
        result = row(open_loop_series(0.5, SIGMA, [MEASURED]), "uncontrolled", 2)
        assert result["eof"] == pytest.approx(
            eof_from_concurrence(result["concurrence"]), abs=1e-9
        )

    def test_invalid_combinations(self):
        # an arm whose control has not acted yet carries the uncontrolled value
        assert echoed(2, 0.5) == uncontrolled(2, 0.5)
        assert concurrence("corrected", 3, 0.5) == uncontrolled(3, 0.5)
        with pytest.raises(ValueError, match="seed"):
            open_loop_series(0.5, SIGMA, [IDEAL], methods=("monte_carlo",))
        with pytest.raises(ValueError, match="method"):
            open_loop_series(0.5, SIGMA, [IDEAL], methods=("exact",))

    @pytest.mark.parametrize("workers", [0, -1, 2.5, True])
    def test_monte_carlo_rows_refuse_a_bad_worker_count_by_name(self, workers):
        with pytest.raises(ValueError, match="workers must be an integer >= 1"):
            open_loop_series(
                0.5, SIGMA, [IDEAL], methods=["monte_carlo"], n_samples=100, seed=1, workers=workers
            )

    def test_analytic_values_refuse_clipped_phases(self):
        # the closed form assumes unclipped Gaussian phases
        clipped = {"clip_to_hardware": True, "n_samples": 100, "seed": 1}
        for methods in (("analytic",), ("analytic", "monte_carlo")):
            with pytest.raises(ValueError, match="clip_to_hardware"):
                open_loop_series(0.7, SIGMA, [IDEAL], methods=methods, **clipped)
        sampled = open_loop_series(0.7, SIGMA, [IDEAL], methods=("monte_carlo",), **clipped)
        assert len(table_rows(sampled)) == 3 * 5

    def test_echo_position_is_honoured(self):
        signs = (1, -1, -1, -1)  # an echo after step 1
        analytic = mixed_concurrence(abs(analytic_coherence(signs, 0.3, SIGMA)[-1]), 1.0)
        assert analytic == pytest.approx(0.46753, abs=1e-5)
        ((means, square_means),) = monte_carlo_moments(
            [signs], 0.3, SIGMA, steps=4, n_samples=100_000, seed=8
        )
        sampled = mixed_concurrence(abs(means[-1]), 1.0)
        stat_error = 2.0 * coherence_std_error(means[-1], square_means[-1], 100_000)
        assert abs(sampled - analytic) < 5 * stat_error


class TestSeries:
    def test_series_shape_and_fill(self):
        series = table_rows(open_loop_series(0.7, SIGMA, [IDEAL]))
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
        table = open_loop_series(0.7, SIGMA, [IDEAL])
        # the echoed arm at step 1, before its echo acts
        arm = CONTROL_KINDS.index("echoed")
        assert (table["control"][arm, 0], table["step"][1]) == ("echoed", 1)
        assert table["concurrence"][0, 0, arm, 1] == pytest.approx(uncontrolled(1, 0.7), abs=1e-15)

    def test_columns_lie_on_the_grid_of_fidelity_method_arm_and_step(self):
        fidelities = [IDEAL, MEASURED, 0.8]
        table = open_loop_series(
            0.7, SIGMA, fidelities, steps=3, methods=METHODS, n_samples=100, seed=2
        )
        shapes = {column: values.shape for column, values in table.items()}
        assert shapes == {
            "fidelity": (3, 1, 1, 1),
            "control": (3, 1),
            "method": (2, 1, 1),
            "step": (4,),
            "concurrence": (3, 2, 3, 4),
            "eof": (3, 2, 3, 4),
            "stat_error": (3, 2, 3, 4),
        }
        assert table["fidelity"].ravel().tolist() == [1.0, 0.96, 0.8]
        assert table["method"].ravel().tolist() == list(METHODS)
        assert table["step"].tolist() == [0, 1, 2, 3]
        # every table shares the one read-only arm column
        assert table["control"] is CONTROLS and not CONTROLS.flags.writeable
        assert CONTROLS.ravel().tolist() == list(CONTROL_KINDS)
        assert table["stat_error"].dtype == object
        assert set(table["stat_error"][:, 0].ravel()) == {None}
        assert all(type(error) is float for error in table["stat_error"][:, 1].ravel())

    @pytest.mark.parametrize("steps", [1, 2, 3, 5])
    def test_each_method_walks_the_two_arms_once(self, monkeypatch, steps):
        walked = []

        def recording(sign_vectors, *args, **kwargs):
            walked.append((tuple(sign_vectors), kwargs["steps"]))
            return monte_carlo_moments(sign_vectors, *args, **kwargs)

        monkeypatch.setattr(openloop, "monte_carlo_moments", recording)
        open_loop_series(
            0.7, SIGMA, [IDEAL, MEASURED], steps=steps, methods=METHODS, n_samples=100, seed=1
        )
        assert walked == [(((1,) * steps, arm_signs("echoed", steps, steps)), steps)]
        # the echo after step 2 never acts at steps 1 and 2
        assert (-1 in walked[0][0][1]) == (steps > 2)

    def test_closed_form_calls_grow_linearly_in_the_steps(self, monkeypatch):
        # one recursion per arm, with an entry after each step; restarting
        # it at every prefix made about 4.2k calls at steps 64
        closed_blocks, calls = dephasing._closed_blocks, []

        def counting(*args):
            calls.append(args)
            return closed_blocks(*args)

        monkeypatch.setattr(dephasing, "_closed_blocks", counting)
        steps = 64
        open_loop_series(0.7, SIGMA, [IDEAL], steps=steps)
        assert 0 < len(calls) <= 4 * steps

    def test_any_step_count(self):
        series = table_rows(open_loop_series(0.7, SIGMA, [IDEAL], steps=6))
        assert len(series) == 3 * 7
        by_key = {(r["control"], r["step"]): r["concurrence"] for r in series}
        assert by_key[("corrected", 6)] == pytest.approx(1.0, abs=1e-12)
        assert by_key[("echoed", 6)] > by_key[("uncontrolled", 6)]


class TestHiddenEntanglement:
    @settings(max_examples=60, deadline=None)
    @given(
        mu=st.floats(0.0, 1.0),
        sigma=st.floats(1e-3, 10.0),
        steps=st.integers(1, 7),
        fidelity=st.floats(0.25, 1.0),
        seed=st.integers(0, 2**32),
    )
    def test_no_arm_exceeds_the_trajectory_average(self, mu, sigma, steps, fidelity, seed):
        # every trajectory is a local-unitary image of the prepared state, so
        # each carries EoF((3 eta - 1)/2), and local control recovers no more
        # (D'Arrigo et al., Ann. Phys. 350, 211, 2014)
        eta = eta_from_fidelity(fidelity)
        table = open_loop_series(
            mu, sigma, [fidelity], steps=steps, methods=METHODS, n_samples=500, seed=seed
        )
        average = eof_from_concurrence(max(0.0, (3.0 * eta - 1.0) / 2.0))
        assert (table["eof"] <= average + 1e-12).all()
        # the correction restores all of it at the last step, by either method
        corrected = table["eof"][0, :, CONTROL_KINDS.index("corrected"), -1]
        assert (abs(corrected - average) <= 1e-12).all()


class TestTableDefinition:
    @pytest.mark.parametrize("methods", [("analytic",), ("monte_carlo",), METHODS])
    @settings(max_examples=40, deadline=None)
    @given(
        mu=st.floats(0.0, 1.0),
        sigma=st.floats(1e-3, 10.0),
        steps=st.integers(1, 7),
        fidelities=st.lists(st.floats(0.25, 1.0), min_size=1, max_size=3),
        n_samples=st.integers(1, 5000),
        seed=st.integers(0, 2**32),
    )
    def test_table_equals_the_row_by_row_definition(
        self, methods, mu, sigma, steps, fidelities, n_samples, seed
    ):
        sampling = {"n_samples": n_samples, "seed": seed}
        table = open_loop_series(mu, sigma, fidelities, steps=steps, methods=methods, **sampling)
        expected = []
        for fidelity in fidelities:
            eta = eta_from_fidelity(fidelity)
            for method in methods:
                for kind in CONTROL_KINDS:
                    for k in range(steps + 1):
                        signs = arm_signs(kind, k, steps)
                        # each row's sign vector walked alone, to its last step
                        if method == "analytic":
                            coherence, error = analytic_coherence(signs, mu, sigma)[-1], None
                        else:
                            ((means, square_means),) = monte_carlo_moments(
                                [signs], mu, sigma, steps=steps, **sampling
                            )
                            coherence = means.tolist()[-1]
                            error = 2.0 * eta * coherence_std_error(
                                coherence, square_means[-1], n_samples
                            )
                        c = mixed_concurrence(abs(coherence), eta)
                        expected.append(
                            {
                                "fidelity": fidelity,
                                "method": method,
                                "control": kind,
                                "step": k,
                                "concurrence": c,
                                "eof": eof_from_concurrence(c),
                                "stat_error": error,
                            }
                        )
        assert table_rows(table) == expected
