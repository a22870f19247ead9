"""Command-line front end for the sweep runner.

Verbs: ``open-loop``, ``closed-loop``, ``assist-scan``, ``counts-demo``.
Every parameter can also come from a declarative config file (JSON or YAML)
passed with ``--config``; flags given on the command line override file
values.  Exit status is 0 on success and 2 on any precondition failure,
with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import yaml

from .runner import RunConfig, run

_VERB_TO_EXPERIMENT = {
    "open-loop": "open_loop",
    "closed-loop": "closed_loop",
    "assist-scan": "assist_scan",
    "counts-demo": "counts_demo",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrecover",
        description=(
            "Entanglement-recovery simulator: echo control under correlated "
            "dephasing, and measurement-conditioned correction with a qubit "
            "environment."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=str, default=None, help="JSON or YAML config file")
        p.add_argument("--out", type=str, default=None, help="output data file path")
        p.add_argument("--format", choices=("csv", "jsonl"), default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)

    p_open = sub.add_parser("open-loop", help="step-resolved entanglement under dephasing")
    add_common(p_open)
    p_open.add_argument("--mu", type=float, default=None, help="adjacent-phase correlation")
    p_open.add_argument("--sigma", type=float, default=None, help="phase spread, radians")
    p_open.add_argument("--mean-phase", type=float, default=None, help="mean phase, radians")
    p_open.add_argument("--steps", type=int, default=None)
    p_open.add_argument("--fidelity", type=float, nargs="+", default=None)
    p_open.add_argument("--method", choices=("analytic", "monte_carlo", "both"), default=None)
    p_open.add_argument("--n-samples", type=int, default=None)
    p_open.add_argument(
        "--clip-to-hardware",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="clamp phases into [0, pi] like half-wave retarders",
    )

    p_closed = sub.add_parser("closed-loop", help="feedback-experiment sweeps")
    add_common(p_closed)
    p_closed.add_argument("--sweep", choices=("p", "theta"), default=None)
    p_closed.add_argument("--p", type=float, default=None)
    p_closed.add_argument("--p-prime", type=float, default=None, help="attenuation ratio p/(1-p)")
    p_closed.add_argument("--theta", type=float, default=None, help="measurement angle, radians")
    p_closed.add_argument("--grid-points", type=int, default=None)
    p_closed.add_argument("--fidelity", type=float, nargs="+", default=None)

    p_assist = sub.add_parser("assist-scan", help="average entanglement vs measurement angle")
    add_common(p_assist)
    p_assist.add_argument("--p", type=float, default=None)
    p_assist.add_argument("--p-prime", type=float, default=None)
    p_assist.add_argument("--grid-points", type=int, default=None)

    p_counts = sub.add_parser("counts-demo", help="coincidence-count error-bar rehearsal")
    add_common(p_counts)
    p_counts.add_argument("--p", type=float, default=None)
    p_counts.add_argument("--p-prime", type=float, default=None)
    p_counts.add_argument("--theta", type=float, default=None)
    p_counts.add_argument(
        "--total-pairs",
        type=int,
        default=None,
        help="pairs per setting (default 4000; illustrative, not a measured value)",
    )

    return parser


def load_config_file(path: str) -> dict:
    text = Path(path).read_text()
    if path.endswith(".json"):
        data = json.loads(text)
    else:
        data = yaml.safe_load(text)
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a mapping")
    return data


def config_from_args(args: argparse.Namespace) -> RunConfig:
    merged = {}
    if args.config:
        file_values = load_config_file(args.config)
        unknown = set(file_values) - set(RunConfig.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        merged.update(file_values)
    provided = {
        key: value
        for key, value in vars(args).items()
        if key not in ("verb", "config") and value is not None
    }
    merged.update(provided)
    merged["experiment"] = _VERB_TO_EXPERIMENT[args.verb]
    if merged.get("out") is None:
        raise ValueError("an output path is required (--out or config 'out')")
    if isinstance(merged.get("fidelity"), (int, float)):
        merged["fidelity"] = (merged["fidelity"],)
    allowed = set(RunConfig.__dataclass_fields__)
    merged = {key: value for key, value in merged.items() if key in allowed}
    return RunConfig(**merged)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        path = run(config)
    except (ValueError, OSError) as exc:
        print(f"qrecover: error: {exc}", file=sys.stderr)
        return 2
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
