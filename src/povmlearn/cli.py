"""Command-line entry point.

Subcommands:

* ``run``          simulate one scenario and emit per-trial rows
* ``sweep``        run a grid of parameter values with disjoint RNG streams
* ``oracle-check`` property battery for the minimum-error oracle
* ``selftest``     full library invariant battery

The run and sweep flags are the fields of ExperimentConfig, one flag per
field, then the two output flags ``--format`` and ``--out``; one table
defines every subcommand's flags.  An argv of exact flags and their values
is read from that table, and argparse reads any other, so it alone writes
help and usage errors.  A ``--config`` file's
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
from collections.abc import Callable
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple

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


class _Flag(NamedTuple):
    """A value flag: its namespace attribute, the function that converts
    its value, the values it allows (None: any), its default, and its help
    text's metavar and line."""

    dest: str
    type: Callable[[str], object]
    choices: tuple[str, ...] | None = None
    default: object = None
    metavar: str | None = None
    help: str | None = None


def _trial_flags(sweep_mode: bool) -> dict[str, _Flag]:
    """--config, then one flag per ExperimentConfig field, converted by the
    type of the field's default (under sweep a SWEEP_KEYS field takes a
    comma-separated list), then --format and --out."""
    table = {"--config": _Flag("config", Path, metavar="FILE",
                               help="key=value file with defaults; explicit flags win")}
    for f in fields(ExperimentConfig):
        if f.name == "scenario":
            spec = _Flag(f.name, str, choices=SCENARIOS)
        elif sweep_mode and f.name in SWEEP_KEYS:
            spec = _Flag(f.name, _float_list, metavar="V[,V...]",
                         help=f"{f.name} value or comma-separated list to sweep")
        else:
            spec = _Flag(f.name, type(f.default), metavar=_METAVARS[type(f.default)])
        table[_flag(f.name)] = spec
    table["--format"] = _Flag("fmt", str, choices=FORMATS, default="csv")
    table["--out"] = _Flag("out", Path, metavar="FILE", help="output path (default: stdout)")
    return table


_SEED = _Flag("seed", int, default=12345, metavar="N")

# Each subcommand's help line and its flags that take a value: every flag
# but -h/--help, each defined here once.
_COMMANDS = {
    "run": ("simulate one scenario", _trial_flags(sweep_mode=False)),
    "sweep": ("simulate a parameter grid", _trial_flags(sweep_mode=True)),
    "oracle-check": ("verify the minimum-error oracle",
                     {"--instances": _Flag("instances", int, default=10_000, metavar="N"), "--seed": _SEED}),
    "selftest": ("run the library invariant battery", {"--seed": _SEED}),
}
_FLAGS = {command: flags for command, (_, flags) in _COMMANDS.items()}
_VALUE_FLAGS = {command: frozenset(flags) for command, flags in _FLAGS.items()}

# The namespace of each subcommand given no flags.
_DEFAULTS = {command: {"command": command, **{spec.dest: spec.default for spec in flags.values()}}
             for command, flags in _FLAGS.items()}

# The flags of the ExperimentConfig fields and the two output flags, which
# are also the keys a config file may set.
_FIELD_FLAGS = _VALUE_FLAGS["run"] - {"--config"}

# A token argparse may take for a flag although it is a negative value:
# its negative-number pattern misses -1e-3, -0.9,0.9 and the infinities and
# NaNs float() reads (-inf, -Infinity, -nan), alone or first in a list.
_NEGATIVE_VALUE = re.compile(r"-(?:[0-9.]|(?:inf|infinity|nan)(?:,|$))", re.IGNORECASE)


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
    for command, (help_line, flags) in _COMMANDS.items():
        p_command = sub.add_parser(command, help=help_line)
        for flag, spec in flags.items():
            p_command.add_argument(flag, **spec._asdict())
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process."""
    return _parsers()[0]


def _parse_config_file(path: Path) -> list[str]:
    """A flat ``key = value`` UTF-8 file as ``--key=value`` tokens, one per
    line; blank lines and comments, from a ``#`` that starts a line or
    follows whitespace, are ignored.  A key is the name of a run/sweep flag,
    with ``-`` and ``_`` interchangeable."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        # ValueError: text that is not UTF-8, or a NUL in the path.
        raise OSError(f"cannot read config file {path}: {exc}") from exc
    tokens: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ContractViolation(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        flag = _flag(key)
        if flag not in _FIELD_FLAGS:
            raise ContractViolation(f"{path}:{lineno}: unknown config key {key!r}")
        if "\0" in value:
            # No path or number holds one; open() would refuse it as a bug.
            raise ContractViolation(f"{path}:{lineno}: NUL byte in the value of {key!r}")
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


def _read_plain(command: str, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives for a subcommand's tokens when each is
    an exact value flag of it with its value, as ``--flag value`` or
    ``--flag=value``; otherwise None.  A separate value that starts with
    '-' is read only where the join would make it the flag's: a negative
    value.  Each value is converted by its flag's type and checked against
    its choices, and a value either refuses is None too."""
    flags = _FLAGS[command]
    values = dict(_DEFAULTS[command])
    tokens = iter(tokens)
    for token in tokens:
        flag, eq, value = token.partition("=")
        spec = flags.get(flag)
        if spec is None:
            return None
        if not eq:
            value = next(tokens, None)
            if value is None or (value[:1] == "-" and not _NEGATIVE_VALUE.match(value)):
                return None
        try:
            value = spec.type(value)
        except ValueError:
            return None
        if spec.choices is not None and value not in spec.choices:
            return None
        values[spec.dest] = value
    return argparse.Namespace(**values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """What build_parser().parse_args(argv) gives, with negative values
    first joined to their flags, which argparse would otherwise report as
    missing.  A subcommand's plain argv, its value flags and their values
    alone, is read by _read_plain; argparse reads any other (help, an
    abbreviation, an unknown flag or command, a bad value) and so writes
    every help text and usage error."""
    command = argv[0] if argv else None
    if command not in _FLAGS:
        return build_parser().parse_args(argv)
    args = _read_plain(command, argv[1:])
    if args is None:
        args = build_parser().parse_args([command, *_join_negative_values(argv[1:], _VALUE_FLAGS[command])])
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
                # the explicit ones, which win: a repeated flag keeps its
                # last value.
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
