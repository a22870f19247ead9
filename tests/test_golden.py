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
    "closed_loop_theta_91": ["closed-loop", "--sweep", "theta", "--grid-points", "91"],
}


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
