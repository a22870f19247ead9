"""Bit-for-bit regression of both coherence methods at every prefix of a fixed grid.

``tests/data/coherence_prefixes.json`` holds, for each case, the
``float.hex`` of every prefix's Monte Carlo mean and square mean (real,
imaginary) and of its closed-form coherence.  The file was written when
each prefix was reduced as a sign vector of its own; one walk per vector
must give the same bits.  It was rewritten once since, when the Monte
Carlo totals came to be divided by n_samples exactly (0.7.0): 468 of its
3150 values moved, each by one ulp, and no closed-form value.  The grid
takes in clipped and unclipped draws, a partial last block, one and two
workers, vectors that share prefixes in either order, and steps 1 and 2,
where the echo never acts.  Rewrite the file with
``python tests/test_coherence_prefixes.py`` (run with the package
importable) only for a change that must move its bits, and say why.
The same cases check every prefix's ``coherence_std_error`` against the
0.8.0 formula, written out here.
"""

import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from qrecover import dephasing
from qrecover.dephasing import (
    BLOCK_SIZE,
    analytic_coherence,
    coherence_std_error,
    monte_carlo_moments,
)

DATA = Path(__file__).resolve().parent / "data" / "coherence_prefixes.json"

WALKS = {
    # the open-loop arms at steps 1 and 2: the echo after step 2 never acts
    "steps1": (1, [(1,), (1,)]),
    "steps2": (2, [(1, 1), (1, 1)]),
    # the open-loop arms at steps 5, in both orders
    "arms": (5, [(1,) * 5, (1, 1, -1, -1, -1)]),
    "arms_reversed": (5, [(1, 1, -1, -1, -1), (1,) * 5]),
    # an extension, a fork, the empty vector, a prefix of an earlier vector
    # and a repeat
    "mixed": (
        6,
        [(1, 1, -1), (1, 1, -1, 1, 1), (1, -1), (), (-1, -1, 1, 1, -1, -1), (1, 1, -1, 1), (1, -1)],
    ),
}
NOISE = [(0.0, 0.6), (0.3, 0.6), (0.7, 0.6), (1.0, 0.6), (0.3, 2.0)]
N_SAMPLES = BLOCK_SIZE + 300  # a full block and a partial one
SEED = 12


def _hex(value: complex) -> list[str]:
    return [float(value.real).hex(), float(value.imag).hex()]


def _cases():
    for walk, (steps, vectors) in WALKS.items():
        for mu, sigma in NOISE:
            for clip in (False, True):
                yield walk, steps, vectors, mu, sigma, clip


def _key(walk, mu, sigma, clip) -> str:
    return f"{walk} mu={mu} sigma={sigma} clip={clip}"


def prefix_values(steps, vectors, mu, sigma, clip, workers=1) -> dict:
    """Every prefix's Monte Carlo moments and (unclipped only) closed form, as hex."""
    options = {"steps": steps, "n_samples": N_SAMPLES, "seed": SEED, "workers": workers}
    options["clip_to_hardware"] = clip
    with mock.patch.object(dephasing.os, "cpu_count", lambda: 2):
        walks = monte_carlo_moments(vectors, mu, sigma, **options)
    values = {
        "monte_carlo": [
            [_hex(z) + _hex(z2) for z, z2 in zip(means, square_means)]
            for means, square_means in walks
        ]
    }
    if not clip:
        values["analytic"] = [
            [_hex(z) for z in analytic_coherence(signs, mu, sigma)] for signs in vectors
        ]
    return values


@pytest.fixture(scope="module")
def committed():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("walk, steps, vectors, mu, sigma, clip", list(_cases()))
def test_every_prefix_keeps_its_bits(committed, walk, steps, vectors, mu, sigma, clip, workers):
    got = prefix_values(steps, vectors, mu, sigma, clip, workers)
    assert got == committed[_key(walk, mu, sigma, clip)]


def reference_std_error(mean: complex, square_mean: complex, n_samples: int) -> float:
    """The error as the 0.8.0 moment record's method computed it, step by step."""
    mag = abs(mean)
    if mag == 0.0 or n_samples < 2:
        return 0.0
    direction = mean / mag
    second = 0.5 * (0.25 + (square_mean * np.conj(direction) ** 2).real)
    variance = max(0.0, second - mag * mag)
    return float(math.sqrt(variance / n_samples))


def assert_errors_match_the_reference(walks, n_samples):
    """Every prefix's error, from Python complex moments and from the array
    elements, against the reference, by the bits of its float."""
    for means, square_means in walks:
        for mean, square_mean, z, z2 in zip(
            means.tolist(), square_means.tolist(), means, square_means
        ):
            expected = reference_std_error(mean, square_mean, n_samples).hex()
            assert coherence_std_error(mean, square_mean, n_samples).hex() == expected
            assert coherence_std_error(z, z2, n_samples).hex() == expected


class TestErrorReference:
    @pytest.mark.parametrize("walk, steps, vectors, mu, sigma, clip", list(_cases()))
    def test_every_prefix_error_is_the_reference(self, walk, steps, vectors, mu, sigma, clip):
        options = {"steps": steps, "n_samples": N_SAMPLES, "seed": SEED, "clip_to_hardware": clip}
        walks = monte_carlo_moments(vectors, mu, sigma, **options)
        assert_errors_match_the_reference(walks, N_SAMPLES)

    @pytest.mark.parametrize("n_samples", [1, 2])
    @pytest.mark.parametrize("mu, sigma", NOISE + [(0.5, 1e-9), (0.9, 0.05)])
    def test_one_and_two_samples_give_the_reference(self, n_samples, mu, sigma):
        # at two samples the variance is near zero, where a vectorised
        # form of the formula moved the printed error
        vectors = [(1,) * 6, (1, 1, -1, -1, -1, -1), (1, -1, 1, -1, 1, -1)]
        for seed in range(20):
            walks = monte_carlo_moments(
                vectors, mu, sigma, steps=6, n_samples=n_samples, seed=seed
            )
            assert_errors_match_the_reference(walks, n_samples)

    @pytest.mark.parametrize("mean", [0j, complex(-0.0, 0.0), complex(0.0, -0.0)])
    @pytest.mark.parametrize("n_samples", [1, 2, 10**6])
    def test_a_zero_mean_has_zero_error(self, mean, n_samples):
        for square_mean in (0.25, -0.25, 0.1j):
            assert coherence_std_error(mean, square_mean, n_samples) == 0.0
            assert reference_std_error(mean, square_mean, n_samples) == 0.0


if __name__ == "__main__":
    table = {
        _key(walk, mu, sigma, clip): prefix_values(steps, vectors, mu, sigma, clip)
        for walk, steps, vectors, mu, sigma, clip in _cases()
    }
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in table.items()]
    DATA.write_text("{\n" + ",\n".join(lines) + "\n}\n")
