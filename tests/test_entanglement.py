import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrecover.closedloop import assistance_scan
from qrecover.counts import coincidence_probabilities, simulate_counts
from qrecover.dephasing import monte_carlo_moments
from qrecover.entanglement import (
    binary_entropy,
    eof_from_concurrence,
    eta_from_fidelity,
    mixed_concurrence,
)
from qrecover.openloop import open_loop_series

from helpers import (
    eta_blend,
    grids,
    pure_concurrence_oracle,
    reduced_matrix_oracle,
    random_density_matrix,
    random_pure_amplitudes,
    random_unitary,
    with_one_bad_element,
)
from oracle import (
    DensityMatrix,
    LocalOperator,
    PureState,
    PureStateEnsemble,
    apply_local,
    bell_state,
    concurrence,
    ensemble_average_eof,
    maximally_mixed,
    mixture,
)

RNG = np.random.default_rng(73)

# 2 max{0, eta/2 - (1 - eta)/4} at eta = (4 * 0.96 - 1)/3
WERNER_96_CONCURRENCE = 0.92
EOF_AT_C06 = 0.4689955935892811  # h(0.9), evaluated independently
EOF_AT_COS_QUARTER_PI = 0.6008760366928562  # h((1 + sqrt(1/2))/2)


class TestConcurrence:
    def test_singlet_is_maximal(self):
        assert concurrence(bell_state("psi_minus").projector()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_is_separable(self):
        assert concurrence(maximally_mixed(("A", "B"))) == pytest.approx(0.0, abs=1e-12)

    def test_werner_at_measured_fidelity(self):
        singlet = bell_state("psi_minus").projector().matrix
        rho = eta_blend(singlet, eta_from_fidelity(0.96))
        assert concurrence(rho) == pytest.approx(WERNER_96_CONCURRENCE, abs=1e-9)

    def test_matches_determinant_form_on_pure_states(self):
        for _ in range(100):
            amps = random_pure_amplitudes(RNG)
            rho = DensityMatrix(("A", "B"), np.outer(amps, amps.conj()))
            assert concurrence(rho) == pytest.approx(
                pure_concurrence_oracle(amps), abs=1e-10
            )

    def test_local_unitary_invariance(self):
        for _ in range(50):
            rho = DensityMatrix(("A", "B"), random_density_matrix(RNG))
            rotated = apply_local(rho, LocalOperator("A", random_unitary(RNG)))
            rotated = apply_local(rotated, LocalOperator("B", random_unitary(RNG)))
            assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-9)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="two qubits"):
            concurrence(maximally_mixed(("A", "B", "O")))


class TestEntanglementOfFormation:
    def test_endpoints(self):
        assert eof_from_concurrence(0.0) == 0.0
        assert eof_from_concurrence(1.0) == 1.0

    def test_intermediate_value(self):
        assert eof_from_concurrence(0.6) == pytest.approx(EOF_AT_C06, abs=1e-4)

    def test_binary_entropy_conventions(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError, match="outside"):
            eof_from_concurrence(1.1)
        with pytest.raises(ValueError, match="outside"):
            eof_from_concurrence(-0.1)
        # within the 1e-9 slack, clamped instead
        assert eof_from_concurrence(1.0 + 5e-10) == 1.0

    def test_monotone_on_fine_grid(self):
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        values = [eof_from_concurrence(c) for c in grid]
        for previous, current in zip(values, values[1:]):
            assert current >= previous - 1e-12


class TestEnsembles:
    def test_pure_singlet_ensemble(self):
        ens = PureStateEnsemble(((1.0, bell_state("psi_minus")),))
        assert ensemble_average_eof(ens) == pytest.approx(1.0, abs=1e-12)

    def test_two_bell_members_stay_maximal_for_any_weight(self):
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            ens = PureStateEnsemble(
                ((1.0 - p, bell_state("psi_minus")), (p, bell_state("phi_minus")))
            )
            assert ensemble_average_eof(ens) == pytest.approx(1.0, abs=1e-12)

    def test_rotated_pair_ensemble_value(self):
        theta = np.pi / 8
        psi = bell_state("psi_minus").amplitudes
        phi = bell_state("phi_minus").amplitudes
        up = PureState(("A", "B"), np.cos(theta) * psi + np.sin(theta) * phi)
        down = PureState(("A", "B"), -np.sin(theta) * psi + np.cos(theta) * phi)
        ens = PureStateEnsemble(((0.5, up), (0.5, down)))
        expected = eof_from_concurrence(np.cos(np.pi / 4))
        assert ensemble_average_eof(ens) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(EOF_AT_COS_QUARTER_PI, abs=1e-12)

    def test_member_concurrence_matches_determinant_oracle(self):
        rng = np.random.default_rng(31)
        for i in range(600):
            amps = random_pure_amplitudes(rng)
            if i % 3:  # near-product states, where C is small
                product = np.kron(random_pure_amplitudes(rng, 2), random_pure_amplitudes(rng, 2))
                amps = product + 10.0 ** -(3 * (i % 3)) * amps
                amps /= np.linalg.norm(amps)
            ens = PureStateEnsemble(((1.0, PureState(("A", "B"), amps)),))
            expected = eof_from_concurrence(pure_concurrence_oracle(amps))
            assert ensemble_average_eof(ens) == pytest.approx(expected, rel=0, abs=1e-12)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            PureStateEnsemble(((0.5, bell_state("psi_minus")),))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            PureStateEnsemble(())

    def test_convexity_on_random_two_member_ensembles(self):
        rng = np.random.default_rng(500)
        for _ in range(500):
            p = rng.random()
            members = (
                (p, PureState(("A", "B"), random_pure_amplitudes(rng))),
                (1.0 - p, PureState(("A", "B"), random_pure_amplitudes(rng))),
            )
            ens = PureStateEnsemble(members)
            averaged = ensemble_average_eof(ens)
            mixed = eof_from_concurrence(concurrence(mixture(ens)))
            assert averaged >= mixed - 1e-9


class TestEtaFromFidelity:
    def test_fidelity_eta_locking(self):
        eta = eta_from_fidelity(0.96)
        assert type(eta) is float
        assert eta == pytest.approx((4 * 0.96 - 1) / 3, abs=1e-12)
        assert eta == pytest.approx(0.946667, abs=1e-6)
        # the singlet fidelity of the eta-mixed pair is (1 + 3 eta)/4
        assert (1 + 3 * eta) / 4 == pytest.approx(0.96, abs=1e-12)

    def test_an_array_gives_each_element_its_eta(self):
        fidelities = np.array([[1.0], [0.96], [0.25]])
        etas = eta_from_fidelity(fidelities)
        assert etas.shape == (3, 1)
        assert etas.ravel().tolist() == [eta_from_fidelity(f) for f in (1.0, 0.96, 0.25)]
        assert etas.ravel().tolist() == [(4.0 * f - 1.0) / 3.0 for f in (1.0, 0.96, 0.25)]

    @pytest.mark.parametrize("eta", [1.5, -0.2, float("nan")])
    def test_eta_range_message_matches_closed_loop(self, eta):
        from qrecover.closedloop import uncontrolled_concurrence_closed

        message = rf"^eta {eta!r} outside \[0, 1\]$"
        with pytest.raises(ValueError, match=message):
            uncontrolled_concurrence_closed(0.5, eta)

    @pytest.mark.parametrize("fidelity", [0.2, 1.5, float("nan")])
    def test_out_of_range_fidelity_is_named(self, fidelity):
        message = rf"^fidelity {fidelity!r} outside \[1/4, 1\]$"
        for given in (fidelity, np.float64(fidelity), np.array([1.0, fidelity])):
            with pytest.raises(ValueError, match=message):
                eta_from_fidelity(given)

    def test_werner_limits(self):
        singlet = bell_state("psi_minus").projector().matrix
        ideal = eta_blend(singlet, eta_from_fidelity(1.0))
        np.testing.assert_allclose(ideal.matrix, singlet, atol=1e-12)
        flat = eta_blend(singlet, eta_from_fidelity(0.25))
        np.testing.assert_allclose(flat.matrix, np.eye(4) / 4, atol=1e-12)


UNIT = st.floats(0.0, 1.0)
COHERENCE = st.floats(0.0, 0.5)
# singlet weights away from (0.999, 1), where the oracle's eigenvalue floor
# (1e-12 of the largest) clips the spin-flip spectrum and misses by ~1e-6
ORACLE_ETA = st.one_of(st.floats(0.0, 0.999), st.just(1.0))


class TestArrayForms:
    """Each closed form on an array equals its scalar calls, element by element, bit for bit."""

    @given(grids(st.floats(-1e-9, 1.0 + 1e-9)))
    def test_eof_is_elementwise_bit_for_bit(self, cs):
        scalars = [eof_from_concurrence(c) for c in cs]
        assert all(type(value) is float for value in scalars)
        assert eof_from_concurrence(np.array(cs)).tolist() == scalars

    @given(grids(st.floats(-0.5, 1.5)))
    def test_binary_entropy_is_elementwise_bit_for_bit(self, xs):
        assert binary_entropy(np.array(xs)).tolist() == [binary_entropy(x) for x in xs]

    @given(grids(COHERENCE, max_size=12), grids(UNIT, max_size=6))
    def test_mixed_concurrence_broadcasts_bit_for_bit(self, zs, etas):
        table = mixed_concurrence(np.array(zs)[:, None], np.array(etas))
        assert table.tolist() == [[mixed_concurrence(z, eta) for eta in etas] for z in zs]
        assert all(type(mixed_concurrence(z, etas[0])) is float for z in zs)

    @settings(max_examples=30, deadline=None)
    @given(grids(UNIT, max_size=6))
    def test_eof_is_the_entropy_of_the_reduced_pure_state(self, cs):
        # cos(a)|01> + sin(a)|10> with sin(2a) = c has concurrence c
        for c, eof in zip(cs, eof_from_concurrence(np.array(cs))):
            half = math.asin(c) / 2
            amplitudes = np.array([0.0, math.cos(half), math.sin(half), 0.0])
            assert pure_concurrence_oracle(amplitudes) == pytest.approx(c, abs=1e-12)
            weights = np.linalg.eigvalsh(reduced_matrix_oracle(amplitudes, 2, (0,)))
            entropy = -sum(w * math.log2(w) for w in weights if w > 0.0)
            assert eof == pytest.approx(entropy, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(grids(COHERENCE, max_size=6), ORACLE_ETA)
    def test_mixed_concurrence_matches_the_wootters_oracle(self, zs, eta):
        for z, c in zip(zs, mixed_concurrence(np.array(zs), eta)):
            bell = np.zeros((4, 4))
            bell[(1, 2), (1, 2)] = 0.5
            bell[1, 2] = bell[2, 1] = z
            rho = DensityMatrix(("A", "B"), eta * bell + (1.0 - eta) * np.eye(4) / 4)
            assert c == pytest.approx(concurrence(rho), abs=1e-12)

    @given(grids(UNIT), st.integers(0, 40), st.sampled_from([math.nan, -0.5, 1.5, math.inf]))
    def test_one_bad_concurrence_is_named(self, cs, index, bad):
        with pytest.raises(ValueError, match=rf"^concurrence {re.escape(repr(bad))} outside"):
            eof_from_concurrence(with_one_bad_element(cs, index, bad))


def _steps(value):
    open_loop_series(0.5, 0.6, [1.0], steps=value)


def _moments_steps(value):
    monte_carlo_moments([], 0.5, 0.6, steps=value, n_samples=100, seed=1)


def _total_pairs(value):
    simulate_counts(coincidence_probabilities(0.4, 0.3), value, seed=1)


def _n_theta(value):
    assistance_scan(0.3, value)


def _n_samples(value):
    monte_carlo_moments([(1,)], 0.5, 0.6, steps=1, n_samples=value, seed=1)


def _workers(value):
    monte_carlo_moments([(1,)], 0.5, 0.6, steps=1, n_samples=100, seed=1, workers=value)


def _moments_seed(value):
    monte_carlo_moments([(1,)], 0.5, 0.6, steps=1, n_samples=100, seed=value)


def _counts_seed(value):
    simulate_counts(coincidence_probabilities(0.4, 0.3), 100, seed=value)


class TestCountRule:
    """Every count the library takes is an integer, not a bool, of at least its least value."""

    @pytest.mark.parametrize(
        "call, name, low, value",
        [
            # steps: inf raised OverflowError, NaN numpy's unnamed error,
            # and True passed as 1
            (_steps, "steps", 1, math.inf),
            (_steps, "steps", 1, math.nan),
            (_steps, "steps", 1, True),
            (_steps, "steps", 1, 4.0),
            (_steps, "steps", 1, 0),
            (_moments_steps, "steps", 1, 0),
            (_moments_steps, "steps", 1, True),
            (_moments_steps, "steps", 1, 1.5),
            # total_pairs: the same three, and True drew 2 counts
            (_total_pairs, "total_pairs", 1, math.inf),
            (_total_pairs, "total_pairs", 1, math.nan),
            (_total_pairs, "total_pairs", 1, True),
            (_total_pairs, "total_pairs", 1, 100.0),
            (_total_pairs, "total_pairs", 1, 0),
            # n_theta: 2.5 and 3.0 raised TypeError from linspace
            (_n_theta, "n_theta", 2, 2.5),
            (_n_theta, "n_theta", 2, 3.0),
            (_n_theta, "n_theta", 2, 1),
            (_n_theta, "n_theta", 2, True),
            (_n_samples, "n_samples", 1, 1e5),
            (_workers, "workers", 1, 2.5),
            # seed: -1 raised numpy's unnamed "expected non-negative
            # integer", True passed as seed 1 and 1.5 raised TypeError; None
            # raised TypeError in the moments and drew unseeded counts
            (_moments_seed, "seed", 0, -1),
            (_moments_seed, "seed", 0, True),
            (_moments_seed, "seed", 0, 1.5),
            (_moments_seed, "seed", 0, None),
            (_counts_seed, "seed", 0, -1),
            (_counts_seed, "seed", 0, True),
            (_counts_seed, "seed", 0, 1.5),
            (_counts_seed, "seed", 0, None),
        ],
    )
    def test_a_bad_count_is_named(self, call, name, low, value):
        message = rf"^{name} must be an integer >= {low}, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            call(value)

    def test_a_numpy_integer_is_a_count(self):
        table = open_loop_series(0.5, 0.6, [1.0], steps=np.int64(3))
        assert table["step"].tolist() == [0, 1, 2, 3]
        ((means, _),) = monte_carlo_moments(
            [(1,)], 0.5, 0.6, steps=np.int64(2), n_samples=10, seed=np.int64(3)
        )
        assert means.size == 2
        # an np.int64 n_samples divided the totals in numpy's complex
        # arithmetic, which moved 11 of these 20 moments by an ulp
        vectors = [(1, 1, -1, -1), (1, 1, 1, 1)]
        by_int, by_numpy = (
            [[part.tolist() for part in walk] for walk in monte_carlo_moments(
                vectors, 0.7, 0.6, steps=4, n_samples=n, seed=3
            )]
            for n in (5000, np.int64(5000))
        )
        assert by_int == by_numpy
        thetas, _ = assistance_scan(0.3, np.int64(3))
        assert thetas.size == 3
        assert sum(simulate_counts(coincidence_probabilities(0.4, 0.3), np.int64(50), 1).values())
