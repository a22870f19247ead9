"""Command-line front end for the sweep runner.

Verbs: ``open-loop``, ``closed-loop``, ``assist-scan``, ``counts-demo``.
Every parameter can also come from a declarative config file (JSON or YAML)
passed with ``--config``; flags given on the command line override file
values; PyYAML is imported only when a YAML config is read.  Exit status
is 0 on success and 2 on any precondition failure, with a diagnostic on
stderr.

``main`` may be called in-process any number of times (sweep scripts, the
tests); every call after the first parses with the parser the first one
built, since parsing does not change it.  ``build_parser`` still returns a
fresh parser on each call.  When the first argument names a verb, ``main``
parses the rest with that verb's own subparser, which is what the full
parser would hand them to; any other argv, or one that leaves an argument
over, goes through the full parser, so its usage line and errors are
unchanged.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

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
    p_open.add_argument(
        "--mean-phase", type=float, default=None, help="mean phase, radians, at most 1e9 in magnitude"
    )
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

    # each verb's subparser, for main to parse a verb's arguments with directly
    parser.verb_parsers = sub.choices
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def load_config_file(path: str) -> dict:
    if path.endswith(".json"):
        parse, malformed = json.loads, json.JSONDecodeError
    else:
        import yaml

        parse, malformed = yaml.safe_load, yaml.YAMLError
    try:
        data = parse(Path(path).read_text())
    except malformed as exc:
        raise ValueError(f"config file {path}: {exc}") from exc
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
    return RunConfig(**merged)


def _parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The namespace the full parser gives for ``argv``, from the verb's subparser if it can."""
    parser = _shared_parser()
    argv = sys.argv[1:] if argv is None else argv
    verb_parser = parser.verb_parsers.get(argv[0]) if argv else None
    if verb_parser is not None:
        args, extra = verb_parser.parse_known_args(argv[1:], argparse.Namespace(verb=argv[0]))
        if not extra:
            return args
    # the full parser names the left-over arguments under its own usage line
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
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
