"""Command-line front end for the sweep runner.

Verbs: ``open-loop``, ``closed-loop``, ``assist-scan``, ``counts-demo``,
each the experiment of its name with ``-`` for ``_``.  A verb takes one
flag per field of its ``runner.PARAMETERS`` entry, plus ``--config``: a
declarative config file (JSON or YAML) whose keys are those same fields.
Flags given on the command line override file values, and a file key the
verb does not read is refused; PyYAML is imported only when a YAML config
is read.  Exit status is 0 on success and 2 on any precondition failure,
or when the job's arrays cannot be allocated, with a diagnostic on stderr.

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
import numbers
import re
import sys
from pathlib import Path

from .runner import _FIELD_TYPES, CHOICES, PARAMETERS, RunConfig, run

_HELP = {
    "open_loop": "step-resolved entanglement under dephasing",
    "closed_loop": "feedback-experiment sweeps",
    "assist_scan": "average entanglement vs measurement angle",
    "counts_demo": "coincidence-count error-bar rehearsal",
    "config": "JSON or YAML config file",
    "out": "output data file path",
    "mu": "adjacent-phase correlation",
    "sigma": "phase spread, radians",
    "mean_phase": "mean phase, radians, at most 1e9 in magnitude",
    "clip_to_hardware": "clamp phases into [0, pi] like half-wave retarders",
    "p_prime": "attenuation ratio p/(1-p)",
    "theta": "measurement angle, radians",
    "total_pairs": "pairs per setting (default 4000; illustrative, not a measured value)",
}

# the add_argument options of each flag, from the field's type and choices
_KIND_OPTIONS = {
    str: {"type": str},
    numbers.Integral: {"type": int},
    numbers.Real: {"type": float},
    bool: {"action": argparse.BooleanOptionalAction},
}
_OPTIONS = {
    **{name: _KIND_OPTIONS[kind] for _, kind, names in _FIELD_TYPES for name in names},
    **{name: {"type": str, "choices": choices} for name, choices in CHOICES.items()},
    "config": {"type": str},
    "fidelity": {"type": float, "nargs": "+"},
}
# an argument that argparse takes for a value, not a flag, though it starts
# with "-": a negative number in decimal or exponent notation, or -inf or
# -nan (argparse's own pattern has no exponent); no qrecover flag looks like one
_NEGATIVE_NUMBER = re.compile(
    r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|-(inf|infinity|nan)$", re.IGNORECASE
)


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
    for experiment, names in PARAMETERS.items():
        verb = sub.add_parser(experiment.replace("_", "-"), help=_HELP[experiment])
        for name in ("config", *names):
            flag = "--" + name.replace("_", "-")
            verb.add_argument(flag, default=None, help=_HELP.get(name), **_OPTIONS[name])
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = _NEGATIVE_NUMBER
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
    except (malformed, UnicodeDecodeError) as exc:
        raise ValueError(f"config file {path}: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a mapping")
    return data


def config_from_args(args: argparse.Namespace) -> RunConfig:
    experiment = args.verb.replace("-", "_")
    merged = {}
    if args.config:
        file_values = load_config_file(args.config)
        unknown = set(file_values) - set(PARAMETERS[experiment])
        if unknown:
            # a YAML key need not be a str
            raise ValueError(f"unknown config keys {sorted(unknown, key=str)} for {args.verb}")
        merged.update(file_values)
    provided = {
        key: value
        for key, value in vars(args).items()
        if key not in ("verb", "config") and value is not None
    }
    merged.update(provided)
    merged["experiment"] = experiment
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
    except (ValueError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message
        print(f"qrecover: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
