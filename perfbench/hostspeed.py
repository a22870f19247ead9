"""Host speed, measured with a fixed reference loop.

The benchmark's host is a few cores of a shared machine whose speed drifts
by a quarter or more over seconds to minutes, as neighbours come and go.
Pure-Python work of a fixed size took 21 ms in one window and 34 ms in the
next.  That drift swamps the changes the benchmark is meant to resolve, so
each pass is timed between two runs of a reference loop, and the end-to-end
times are rescaled to the speed the host had when the reference constant
below was taken.

The loop imports nothing from ``qrecover``, so no change to the program can
change it.  It mixes the three kinds of work the workloads do, about a
third of its time each: interpreter work (argparse, csv and json, as each
CLI call does), numpy calls on 4x4 matrices (the closed-loop gate pipeline)
and numpy passes over long arrays (Monte Carlo sampling and reduction).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import statistics
import time

import numpy as np

# Median time of one reference_loop() call on a 2-core Intel Xeon VM
# (Python 3.11, numpy 2, OpenBLAS), so rescaled times read as seconds on
# that host at its usual speed.
REFERENCE_S = 0.032
REPEATS = 5

_PHASES = np.linspace(0.0, 6.0, 200_000)
_GATE = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _parse_and_write() -> int:
    """Build a small argparse CLI, parse one command line, write csv and json."""
    parser = argparse.ArgumentParser(prog="reference")
    verbs = parser.add_subparsers(dest="verb", required=True)
    for verb in ("open-loop", "closed-loop", "assist-scan", "counts-demo"):
        sub = verbs.add_parser(verb)
        for flag in ("--mu", "--sigma", "--p", "--theta", "--fidelity"):
            sub.add_argument(flag, type=float, nargs="+")
        sub.add_argument("--format", choices=("csv", "jsonl"))
    args = parser.parse_args(
        ["closed-loop", "--p", "0.3", "--fidelity", "1.0", "0.9", "--format", "csv"]
    )
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    for i in range(40):
        writer.writerow([i, repr(i * args.fidelity[1]), args.format])
        buffer.write(json.dumps({"i": i, "p": args.p[0] * i}))
    return len(buffer.getvalue())


def reference_loop() -> float:
    """A fixed amount of interpreter, small-matrix and long-array work."""
    total = float(sum(_parse_and_write() for _ in range(8)))
    rho = np.full((4, 4), 0.25, dtype=complex)
    for _ in range(1_200):
        rho = _GATE @ rho @ _GATE.conj().T
        total += float(np.trace(rho).real)
    for _ in range(3):
        total += float(np.cos(_PHASES).sum() + np.exp(-_PHASES).sum())
    return total


def host_factor() -> float:
    """How slow the host is now relative to the reference: 1.0 at its usual speed.

    The median over a few loops keeps a single interrupt out of it.
    """
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / REFERENCE_S
