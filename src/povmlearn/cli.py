"""Command-line entry point.

Subcommands:

* ``run``          simulate one scenario and emit per-trial rows
* ``sweep``        run a grid of parameter values with disjoint RNG streams
* ``oracle-check`` property battery for the minimum-error oracle
* ``selftest``     full library invariant battery

The run and sweep flags are the fields of ExperimentConfig, one flag per
field, then the two output flags ``--format`` and ``--out``; argparse
converts every value.  A ``--config`` file's
``key = value`` lines are parsed as the flags of the same names, ahead of
the explicit flags, which therefore win.  A negative value works after
its flag in both spellings, ``--alpha -1e-3`` and ``--alpha=-1e-3``.

Exit codes: 0 success (including recoverable per-trial statuses), 2 for
usage and configuration errors (any ContractViolation), 1 for I/O
failures.  Any other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from dataclasses import fields
from pathlib import Path

from povmlearn.errors import ContractViolation
from povmlearn.experiment import (
    FORMATS,
    SCENARIOS,
    SWEEP_KEYS,
    ExperimentConfig,
    emit_results,
    run_experiment,
    summarize,
    sweep,
)

_METAVARS = {float: "V", int: "N"}


def _flag(name: str) -> str:
    """The run/sweep flag of an ExperimentConfig field."""
    return "--" + name.replace("_", "-")


def _float_list(text: str) -> list[float]:
    """A comma-separated list of floats.  A bad or empty list raises
    ValueError, which argparse reports as a usage error."""
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"empty value list {text!r}")
    return values


# argparse names the type by its __name__ in a usage error.
_float_list.__name__ = "float list"

# The flags of the ExperimentConfig fields and the two output flags, which
# are also the keys a config file may set.
_FIELD_FLAGS = frozenset(_flag(f.name) for f in fields(ExperimentConfig)) | {"--format", "--out"}

# The int flags of the two batteries, with their defaults.
_BATTERY_FLAGS = {
    "oracle-check": {"--instances": 10_000, "--seed": 12345},
    "selftest": {"--seed": 12345},
}

# Each subcommand's flags that take a value: all but -h/--help.
_VALUE_FLAGS = {
    "run": _FIELD_FLAGS | {"--config"},
    "sweep": _FIELD_FLAGS | {"--config"},
    **{command: frozenset(flags) for command, flags in _BATTERY_FLAGS.items()},
}

# A token argparse may take for a flag although it is a negative value:
# its negative-number pattern misses -1e-3, -0.9,0.9 and the infinities and
# NaNs float() reads (-inf, -Infinity, -nan), alone or first in a list.
_NEGATIVE_VALUE = re.compile(r"-(?:[0-9.]|(?:inf|infinity|nan)(?:,|$))", re.IGNORECASE)


def _add_common_options(parser: argparse.ArgumentParser, sweep_mode: bool) -> None:
    """--config, then one flag per ExperimentConfig field, converted by the
    type of the field's default (under sweep a SWEEP_KEYS field takes a
    comma-separated list), then --format and --out."""
    parser.add_argument("--config", type=Path, metavar="FILE",
                        help="key=value file with defaults; explicit flags win")
    for f in fields(ExperimentConfig):
        if f.name == "scenario":
            options = {"choices": SCENARIOS}
        elif sweep_mode and f.name in SWEEP_KEYS:
            options = {"type": _float_list, "metavar": "V[,V...]",
                       "help": f"{f.name} value or comma-separated list to sweep"}
        else:
            options = {"type": type(f.default), "metavar": _METAVARS[type(f.default)]}
        parser.add_argument(_flag(f.name), dest=f.name, **options)
    parser.add_argument("--format", dest="fmt", choices=FORMATS, default="csv")
    parser.add_argument("--out", type=Path, metavar="FILE", help="output path (default: stdout)")


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI's argument parser and the parser of each subcommand, by
    name, built on the first call and shared by every later one: parsing
    leaves no state in them, so main calls reuse them."""
    parser = argparse.ArgumentParser(
        prog="povmlearn",
        description="Learn a two-outcome qubit discrimination measurement "
                    "from unlabeled ensembles and score it against the "
                    "minimum-error bound.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    _add_common_options(p_run, sweep_mode=False)

    p_sweep = sub.add_parser("sweep", help="simulate a parameter grid")
    _add_common_options(p_sweep, sweep_mode=True)

    sub.add_parser("oracle-check", help="verify the minimum-error oracle")
    sub.add_parser("selftest", help="run the library invariant battery")
    for command, flags in _BATTERY_FLAGS.items():
        for flag, default in flags.items():
            sub.choices[command].add_argument(flag, type=int, default=default, metavar="N")

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process."""
    return _parsers()[0]


def _parse_config_file(path: Path) -> list[str]:
    """A flat ``key = value`` file as ``--key=value`` tokens, one per line;
    blank lines and ``#`` comments are ignored.  A key is the name of a
    run/sweep flag, with ``-`` and ``_`` interchangeable."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from exc
    tokens: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ContractViolation(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        flag = _flag(key)
        if flag not in _FIELD_FLAGS:
            raise ContractViolation(f"{path}:{lineno}: unknown config key {key!r}")
        tokens.append(f"{flag}={value}")
    return tokens


def _join_negative_values(tokens: list[str], value_flags: frozenset[str]) -> list[str]:
    """The tokens with each negative value (one that starts with '-' and a
    digit or '.', or a negative inf, infinity or nan in any case) joined to
    the value flag right before it, as --flag=value."""
    joined: list[str] = []
    for token in tokens:
        if joined and joined[-1] in value_flags and _NEGATIVE_VALUE.match(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _parse(argv: list[str]) -> argparse.Namespace:
    """What build_parser().parse_args(argv) gives, with a subcommand's
    flags read by that subcommand's parser alone.

    When argv starts with a subcommand, the top-level pass only sets
    command, hands every later token to the subcommand's parser and
    reports what that left over.  Here the subcommand's parser reads them
    into a namespace that already holds command, and the top-level parser
    reports the leftovers, so the namespace, messages and exit codes are
    the same.  Negative values are first joined to their flags, which
    argparse would otherwise report as missing.  Any other argv (no
    command, an unknown one, a top-level -h) goes through the full
    parser."""
    parser, commands = _parsers()
    command = argv[0] if argv else None
    if command not in commands:
        return parser.parse_args(argv)
    tokens = _join_negative_values(argv[1:], _VALUE_FLAGS[command])
    args, extras = commands[command].parse_known_args(tokens, argparse.Namespace(command=command))
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    return args


def _config_and_grid(args: argparse.Namespace) -> tuple[ExperimentConfig, dict[str, list[float]]]:
    """The config of the fields set in the namespace, and the grid of those
    given more than one value.  A list's first value goes into the config."""
    kwargs: dict = {}
    grid: dict[str, list[float]] = {}
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name)
        if isinstance(value, list):
            if len(value) > 1:
                grid[f.name] = value
            value = value[0]
        if value is not None:
            kwargs[f.name] = value
    return ExperimentConfig(**kwargs), grid


def _fmt_opt(value, spec: str) -> str:
    return "n/a" if value is None else format(value, spec)


def _emit_and_summarize(columns: dict[str, list], args: argparse.Namespace) -> None:
    emit_results(columns, args.fmt, args.out)
    summary = summarize(columns)
    statuses = ", ".join(f"{k}={v}" for k, v in sorted(summary["statuses"].items()))
    lines = [
        f"trials: {summary['trials']} ({statuses})",
        f"pooled empirical success: {_fmt_opt(summary['pooled_success'], '.6f')}"
        f" (mean analytic {_fmt_opt(summary['mean_analytic'], '.6f')})",
        f"max |z|: {_fmt_opt(summary['max_abs_z'], '.3f')}",
        f"qubits used: {summary['qubits_used']}",
    ]
    # Keep machine-readable rows separable from the human summary: the
    # summary goes to stderr whenever the rows went to stdout.
    stream = sys.stderr if args.out is None else sys.stdout
    if args.out is not None:
        lines.insert(0, f"wrote {args.out}")
    print("\n".join(lines), file=stream)


def _cmd_run(args: argparse.Namespace) -> int:
    config, _ = _config_and_grid(args)
    _emit_and_summarize(run_experiment(config), args)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config, grid = _config_and_grid(args)
    _emit_and_summarize(sweep(config, grid), args)
    return 0


def _cmd_battery(args: argparse.Namespace) -> int:
    """oracle-check runs the oracle battery; selftest runs it on 2000
    instances, then the invariant battery."""
    # Imported here, so that a run or sweep process never loads the batteries.
    from povmlearn import selfcheck

    if args.command == "oracle-check":
        outcomes = selfcheck.oracle_battery(args.instances, args.seed)
    else:
        outcomes = selfcheck.oracle_battery(2000, args.seed) + selfcheck.invariant_battery(args.seed)
    text, passed = selfcheck.render(outcomes)
    sys.stdout.write(text)
    return 0 if passed else 2


_HANDLERS = {"run": _cmd_run, "sweep": _cmd_sweep, "oracle-check": _cmd_battery, "selftest": _cmd_battery}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            args = _parse(argv)
            if getattr(args, "config", None) is not None:
                # argv[0] is the subcommand.  The file's flags go ahead of
                # the explicit ones, which win: argparse keeps the last value.
                args = _parse([args.command, *_parse_config_file(args.config), *argv[1:]])
        except SystemExit as exc:
            return int(exc.code or 0)
        return _HANDLERS[args.command](args)
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
