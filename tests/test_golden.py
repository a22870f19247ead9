"""Byte-for-byte regression of small CLI outputs against committed files.

Each file under ``tests/data/`` was written by the CLI with the arguments
below.  A change that moves any byte of them must say which cells moved and
why, and rewrite the files with ``python tests/test_golden.py`` (run with
the package importable).
"""

from pathlib import Path

import pytest

from qrecover.cli import main
from qrecover.runner import FORMATS

DATA = Path(__file__).resolve().parent / "data"

GOLDEN_RUNS = {
    "assist_scan_p0.3": ["assist-scan", "--p", "0.3", "--grid-points", "181"],
    "assist_scan_p0.77": ["assist-scan", "--p", "0.77", "--grid-points", "181"],
    "counts_demo_p0.4_theta0.3_seed1": ["counts-demo", "--p", "0.4", "--theta", "0.3", "--seed", "1"],
    "counts_demo_p0.4_theta0.3_seed2": ["counts-demo", "--p", "0.4", "--theta", "0.3", "--seed", "2"],
    "counts_demo_p0.5_theta1.5_seed1": ["counts-demo", "--p", "0.5", "--theta", "1.5", "--seed", "1"],
    "counts_demo_p0.5_theta1.5_seed2": ["counts-demo", "--p", "0.5", "--theta", "1.5", "--seed", "2"],
    "assist_scan_p0": ["assist-scan", "--p", "0", "--grid-points", "181"],
    "assist_scan_p1": ["assist-scan", "--p", "1", "--grid-points", "181"],
    "assist_scan_p0.3_grid5": ["assist-scan", "--p", "0.3", "--grid-points", "5"],
    "closed_loop_theta_91": ["closed-loop", "--sweep", "theta", "--grid-points", "91"],
    "closed_loop_theta_p0.2_91": [
        "closed-loop", "--sweep", "theta", "--p", "0.2", "--fidelity", "1.0", "0.93",
        "--grid-points", "91",
    ],
    # the exact-zero cell at theta = pi/4 and the rows at F = 0.999999
    "closed_loop_p_theta_pi4_101": [
        "closed-loop", "--sweep", "p", "--theta", "0.7853981633974483",
        "--fidelity", "1.0", "0.9", "0.999999", "--grid-points", "101",
    ],
    "open_loop_both_mu0.7_seed1": [
        "open-loop", "--mu", "0.7", "--fidelity", "1.0", "0.96",
        "--method", "both", "--n-samples", "5000", "--seed", "1",
    ],
    # three fidelities, two methods and two steps: a swapped or misshaped axis shows
    "open_loop_both_mu0.7_steps1_f3_seed3": [
        "open-loop", "--mu", "0.7", "--steps", "1", "--method", "both",
        "--fidelity", "1.0", "0.9", "0.8", "--n-samples", "5000", "--seed", "3",
    ],
    "open_loop_mc_clipped_mu0.7_seed1": [
        "open-loop", "--mu", "0.7", "--sigma", "1.2", "--method", "monte_carlo",
        "--clip-to-hardware", "--n-samples", "5000", "--seed", "1",
    ],
}
GOLDEN_RUNS.update(
    {
        f"open_loop_mu{mu}_steps{steps}": [
            "open-loop", "--mu", mu, "--steps", steps, "--fidelity", "1.0", "0.96",
        ]
        for mu in ("0.3", "0.7", "1.0")
        for steps in ("4", "7")
    }
)


def write_golden(name: str, fmt: str, directory: Path) -> Path:
    out = directory / f"{name}.{fmt}"
    assert main(GOLDEN_RUNS[name] + ["--format", fmt, "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_output_bytes_match_the_committed_file(tmp_path, name, fmt):
    written = write_golden(name, fmt, tmp_path)
    assert written.read_bytes() == (DATA / written.name).read_bytes()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name in GOLDEN_RUNS:
        for fmt in FORMATS:
            write_golden(name, fmt, DATA)
