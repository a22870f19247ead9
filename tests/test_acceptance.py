"""Acceptance suite: one test per shipping criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import functools
import math
import time

import numpy as np

from qrecover.cli import main
from qrecover.closedloop import (
    assistance_scan,
    controlled_concurrence_closed,
    uncontrolled_concurrence_closed,
)
from qrecover.counts import estimate_p_prime, estimate_theta
from qrecover.dephasing import analytic_coherence, monte_carlo_moments
from qrecover.entanglement import eof_from_concurrence, mixed_concurrence
from qrecover.openloop import open_loop_series

from helpers import (
    controlled_output,
    random_pure_amplitudes,
    sample_phase_matrix,
    table_rows,
    trajectory_state,
    uncontrolled_output,
)
from oracle import (
    DensityMatrix,
    PureState,
    PureStateEnsemble,
    arm_signs,
    bell_state,
    concurrence,
    ensemble_average_eof,
    fidelity_to_pure,
    mixture,
)

SIGMA = 0.6


def report(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            print(f"[PASS] criterion {number}: {description}")

        return wrapper

    return decorate


@report(1, "eta-mixed closed form agrees with general concurrence on 1000 states, < 1e-9, < 5 s")
def test_criterion_1_wootters_agreement():
    # eta times a dephased Bell pair (coherence z on the inner or the outer
    # pair of the X pattern) plus (1 - eta)/4 times the identity
    rng = np.random.default_rng(1234)
    started = time.monotonic()
    worst = 0.0
    for i in range(1000):
        eta, z = rng.random(), 0.5 * rng.random() * np.exp(2j * np.pi * rng.random())
        pair = (1, 2) if i % 2 else (0, 3)
        bell = np.zeros((4, 4), dtype=complex)
        bell[pair, pair] = 0.5
        bell[pair], bell[pair[::-1]] = z, np.conj(z)
        rho = DensityMatrix(("A", "B"), eta * bell + (1.0 - eta) * np.eye(4) / 4)
        worst = max(worst, abs(mixed_concurrence(abs(z), eta) - concurrence(rho)))
    elapsed = time.monotonic() - started
    assert worst < 1e-9, f"max discrepancy {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.1f} s"


@report(2, "fully correlated noise: Gaussian decay and echo recovery curves, < 1e-9")
def test_criterion_2_full_correlation_curves():
    table = open_loop_series(1.0, SIGMA, [1.0])
    value = {(row["control"], row["step"]): row["concurrence"] for row in table_rows(table)}
    for k in range(5):
        expected = math.exp(-0.18 * k * k)
        assert abs(value["uncontrolled", k] - expected) < 1e-9, f"uncontrolled k={k}"
    for k in (3, 4):
        expected = math.exp(-0.18 * (k - 4) ** 2)
        assert abs(value["echoed", k] - expected) < 1e-9, f"echoed k={k}"


@report(3, "Monte Carlo coherences match closed forms within 0.01 at N=1e5, < 60 s")
def test_criterion_3_monte_carlo_vs_closed_forms():
    n = 100_000
    started = time.monotonic()
    for mu in (0.2, 0.7, 1.0):
        for k in (1, 2, 3, 4):
            signs = arm_signs("uncontrolled", k, 4)
            ((means, _),) = monte_carlo_moments(
                [signs], mu, SIGMA, steps=4, n_samples=n, seed=300 + k
            )
            target = analytic_coherence(signs, mu, SIGMA)[-1]
            gap = abs(abs(means[-1]) - abs(target))
            assert gap < 0.01, f"uncontrolled mu={mu} k={k}: {gap:.4f}"
        for k in (3, 4):
            signs = arm_signs("echoed", k, 4)
            ((means, _),) = monte_carlo_moments(
                [signs], mu, SIGMA, steps=4, n_samples=n, seed=400 + k
            )
            target = analytic_coherence(signs, mu, SIGMA)[-1]
            gap = abs(abs(means[-1]) - abs(target))
            assert gap < 0.01, f"echoed mu={mu} k={k}: {gap:.4f}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


@report(4, "corrected trajectories return the exact initial state, fidelity 1 < 1e-12")
def test_criterion_4_corrected_is_exact_per_trajectory():
    singlet = bell_state("psi_minus")
    for mu in (0.2, 0.7, 1.0):
        for row in sample_phase_matrix(mu, SIGMA, 4, 4000, seed=42):
            state = trajectory_state(row, arm_signs("corrected", 4, 4))
            fidelity = fidelity_to_pure(state.projector(), singlet)
            assert abs(fidelity - 1.0) < 1e-12


@report(5, "closed-loop uncontrolled concurrence equals |1-2p| on the p grid, < 1e-10")
def test_criterion_5_closed_loop_uncontrolled():
    for p in np.linspace(0.0, 1.0, 101):
        _, c = uncontrolled_output(float(p), 1.0)
        assert abs(c - abs(1.0 - 2.0 * p)) < 1e-10, f"p={p}"
    _, c_half = uncontrolled_output(0.5, 1.0)
    assert c_half == 0.0


@report(6, "closed-loop controlled output: full recovery at theta=0 and |cos 2 theta| sweep")
def test_criterion_6_closed_loop_controlled():
    for p in np.linspace(0.0, 1.0, 101):
        _, c = controlled_output(float(p), 0.0, 1.0)
        assert abs(c - 1.0) < 1e-10, f"theta=0, p={p}"
    psi = bell_state("psi_minus").projector().matrix
    phi = bell_state("phi_minus").projector().matrix
    for theta in np.linspace(0.0, math.pi / 2, 91):
        rho, c = controlled_output(0.5, float(theta), 1.0)
        assert abs(c - abs(math.cos(2.0 * theta))) < 1e-10, f"theta={theta}"
        target = math.cos(theta) ** 2 * psi + math.sin(theta) ** 2 * phi
        assert np.abs(rho.matrix - target).max() < 1e-12, f"state at theta={theta}"


@report(7, "imperfect-preparation closed forms match gate-built outputs, < 1e-10")
def test_criterion_7_imperfect_preparation():
    for eta in (0.86667, 0.93333, 0.946667):
        for p in np.linspace(0.0, 1.0, 41):
            _, c = uncontrolled_output(float(p), eta)
            closed = uncontrolled_concurrence_closed(float(p), eta)
            assert abs(c - closed) < 1e-10, f"uncontrolled eta={eta} p={p}"
        for theta in np.linspace(0.0, math.pi / 2, 31):
            _, c = controlled_output(0.5, float(theta), eta)
            closed = controlled_concurrence_closed(float(theta), eta)
            assert abs(c - closed) < 1e-10, f"controlled eta={eta} theta={theta}"


@report(8, "ensemble-average entanglement dominates the mixture value (convexity)")
def test_criterion_8_convexity():
    rng = np.random.default_rng(500)
    for _ in range(500):
        weight = rng.random()
        ensemble = PureStateEnsemble(
            (
                (weight, PureState(("A", "B"), random_pure_amplitudes(rng))),
                (1.0 - weight, PureState(("A", "B"), random_pure_amplitudes(rng))),
            )
        )
        averaged = ensemble_average_eof(ensemble)
        mixed = eof_from_concurrence(concurrence(mixture(ensemble)))
        assert averaged >= mixed - 1e-9


@report(9, "assistance scan: natural basis is optimal at p=1/2; diagonal angle recovers nothing")
def test_criterion_9_assistance():
    thetas, eofs = assistance_scan(0.5)
    assert thetas[0] == 0.0
    assert abs(eofs[0] - 1.0) < 1e-9
    assert eofs[0] >= eofs.max() - 1e-12
    _, c = controlled_output(0.5, math.pi / 4, 1.0)
    assert abs(c) < 1e-10


@report(10, "count-statistics error formulas: hand fixtures < 1e-12, bootstrap within 10%")
def test_criterion_10_error_propagation():
    ratio, delta = estimate_p_prime(0, 1000)
    assert ratio == 0.0 and delta == 0.0
    ratio, delta = estimate_p_prime(200, 200)
    assert abs(ratio - 1.0) < 1e-12 and abs(delta - 0.1) < 1e-12
    theta, delta = estimate_theta(800, 0)
    assert theta == 0.0 and abs(delta - 0.5 / math.sqrt(800)) < 1e-12
    theta, delta = estimate_theta(800, 800)
    assert abs(theta - math.pi / 4) < 1e-12 and abs(delta - 0.0125) < 1e-12

    rng = np.random.default_rng(77)
    observed = {"c_hh_d": 50, "c_vv_d": 50, "c_hv_u": 200, "c_vh_u": 200}
    _, predicted = estimate_p_prime(100, 400)
    draws = rng.poisson(lam=list(observed.values()), size=(100_000, len(observed)))
    down, up = draws[:, 0] + draws[:, 1], draws[:, 2] + draws[:, 3]
    resampled = float(np.std(estimate_p_prime(down[up > 0], up[up > 0])[0]))
    assert abs(predicted - resampled) / resampled < 0.10

    observed = {"c_hv_1": 120, "c_vh_1": 140, "c_hv_0": 500, "c_vh_0": 480}
    _, predicted = estimate_theta(980, 260)
    draws = rng.poisson(lam=list(observed.values()), size=(100_000, len(observed)))
    mode1, mode0 = draws[:, 0] + draws[:, 1], draws[:, 2] + draws[:, 3]
    resampled = float(np.std(estimate_theta(mode0[mode0 > 0], mode1[mode0 > 0])[0]))
    assert abs(predicted - resampled) / resampled < 0.10


@report(11, "fixed seed gives byte-identical output files for 1 and 8 workers")
def test_criterion_11_determinism(tmp_path):
    args = [
        "open-loop",
        "--mu", "0.7",
        "--method", "both",
        "--n-samples", "20000",
        "--seed", "2024",
        "--fidelity", "1.0", "0.96",
    ]
    out1 = tmp_path / "workers1.csv"
    out8 = tmp_path / "workers8.csv"
    assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
    assert main(args + ["--workers", "8", "--out", str(out8)]) == 0
    assert out1.read_bytes() == out8.read_bytes()
    rerun = tmp_path / "workers1_again.csv"
    assert main(args + ["--workers", "1", "--out", str(rerun)]) == 0
    assert rerun.read_bytes() == out1.read_bytes()
