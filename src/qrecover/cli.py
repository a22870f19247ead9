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
tests).  It reads a verb followed by exact flags with plain values straight
from ``_FLAGS``, a table of each verb's flags made at import from the data
``build_parser`` reads, with the same type functions and choices, and gives
the namespace the full parser would.  Any other argv (``-h``, an
abbreviated flag, ``--flag=value``, ``--``, an unknown flag, a stray
argument, or a value that is missing, does not convert or is not one of
the choices) goes to a parser ``build_parser`` makes for that call, so
its help, usage lines, errors and exit codes are argparse's.  No state is
kept from one call to the next.
"""

from __future__ import annotations

import argparse
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
    return parser


def _verb_flags(names: tuple[str, ...]) -> dict:
    """Each exact flag of a verb with the fields ``names``, as ``build_parser``
    adds them: flag -> (dest, type function, choices, nargs).  nargs is 0 for
    a switch, which stores True, or False from its ``--no-`` form, 1 for a
    flag with one value and "+" for a list."""
    flags = {}
    for name in ("config", *names):
        flag, options = "--" + name.replace("_", "-"), _OPTIONS[name]
        if "action" in options:
            flags[flag] = flags["--no-" + flag[2:]] = (name, None, None, 0)
        else:
            flags[flag] = (name, options["type"], options.get("choices"), options.get("nargs", 1))
    return flags


_FLAGS = {
    experiment.replace("_", "-"): _verb_flags(names) for experiment, names in PARAMETERS.items()
}


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


def _table_parse(argv: list[str]) -> argparse.Namespace | None:
    """The full parser's namespace for a verb followed by exact flags with
    plain values, read from ``_FLAGS``; None for any other argv.

    A value is a token that argparse takes for one: it does not start with
    "-", unless it is a negative number (``_NEGATIVE_NUMBER``).  Each value
    is converted by the flag's type function and must be one of its choices.
    The namespace holds the verb, then every field of the verb in flag
    order, None where no flag gave it, as the full parser's does.
    """
    flags = _FLAGS.get(argv[0]) if argv else None
    if flags is None:
        return None
    values = {dest: None for dest, *_ in flags.values()}
    index, count = 1, len(argv)
    while index < count:
        entry = flags.get(argv[index])
        if entry is None:
            return None
        dest, kind, choices, nargs = entry
        if nargs == 0:
            values[dest] = not argv[index].startswith("--no-")
            index += 1
            continue
        start = index = index + 1
        while (
            index < count
            and (nargs == "+" or index == start)
            and (not argv[index].startswith("-") or _NEGATIVE_NUMBER.match(argv[index]))
        ):
            index += 1
        if index == start:
            return None
        try:
            given = [kind(token) for token in argv[start:index]]
        except (TypeError, ValueError):
            return None
        if choices is not None and not all(value in choices for value in given):
            return None
        values[dest] = given if nargs == "+" else given[0]
    return argparse.Namespace(verb=argv[0], **values)


def _parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The namespace the full parser gives for ``argv``, from the flag table if it can."""
    argv = sys.argv[1:] if argv is None else argv
    args = _table_parse(argv)
    # the full parser answers every other argv: help, usage lines and errors
    return args if args is not None else build_parser().parse_args(argv)


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
