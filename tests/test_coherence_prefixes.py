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
"""

import json
from pathlib import Path
from unittest import mock

import pytest

from qrecover import dephasing
from qrecover.dephasing import BLOCK_SIZE, NoiseParams, analytic_coherence, monte_carlo_moments

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
    params = NoiseParams(mu=mu, sigma=sigma, steps=steps, clip_to_hardware=clip)
    with mock.patch.object(dephasing.os, "cpu_count", lambda: 2):
        walks = monte_carlo_moments(params, vectors, N_SAMPLES, SEED, workers)
    values = {
        "monte_carlo": [
            [_hex(m.coherence_mean) + _hex(m.coherence_square_mean) for m in walk]
            for walk in walks
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


if __name__ == "__main__":
    table = {
        _key(walk, mu, sigma, clip): prefix_values(steps, vectors, mu, sigma, clip)
        for walk, steps, vectors, mu, sigma, clip in _cases()
    }
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in table.items()]
    DATA.write_text("{\n" + ",\n".join(lines) + "\n}\n")
