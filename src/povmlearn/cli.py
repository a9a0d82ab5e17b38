"""Command-line entry point.

Subcommands:

* ``run``          simulate one scenario and emit per-trial rows
* ``sweep``        run a grid of parameter values with disjoint RNG streams
* ``oracle-check`` property battery for the minimum-error oracle
* ``selftest``     full library invariant battery

Exit codes: 0 success (including recoverable per-trial statuses), 2 for
configuration errors (any DiscriminationError), 1 for I/O failures.  Any
other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields
from pathlib import Path

from povmlearn import selfcheck
from povmlearn.errors import ContractViolation, DiscriminationError
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

_FLOAT_KEYS = ("alpha", "beta", "eta0", "theta", "nz", "phi0")
_INT_KEYS = ("shots_learn", "shots_holdout", "trials", "seed")


def _add_common_options(parser: argparse.ArgumentParser, sweep_mode: bool) -> None:
    parser.add_argument("--config", type=Path, default=None, metavar="FILE",
                        help="key=value file with defaults; explicit flags win")
    parser.add_argument("--scenario", choices=SCENARIOS, default=None)
    for key in _FLOAT_KEYS:
        flag = "--" + key.replace("_", "-")
        if sweep_mode and key in SWEEP_KEYS:
            parser.add_argument(flag, type=str, default=None, metavar="V[,V...]",
                                help=f"{key} value or comma-separated list to sweep")
        else:
            parser.add_argument(flag, type=float, default=None, metavar="V")
    for key in _INT_KEYS:
        parser.add_argument("--" + key.replace("_", "-"), type=int, default=None, metavar="N")
    parser.add_argument("--format", dest="fmt", choices=FORMATS, default=None)
    parser.add_argument("--out", type=Path, default=None, metavar="FILE",
                        help="output path (default: stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and shared by every
    later one: parsing leaves no state in it, so main calls reuse it."""
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

    p_oracle = sub.add_parser("oracle-check", help="verify the minimum-error oracle")
    p_oracle.add_argument("--instances", type=int, default=10_000, metavar="N")
    p_oracle.add_argument("--seed", type=int, default=12345, metavar="N")

    p_self = sub.add_parser("selftest", help="run the library invariant battery")
    p_self.add_argument("--seed", type=int, default=12345, metavar="N")

    return parser


def _parse_config_file(path: Path) -> dict[str, str]:
    """Flat ``key = value`` file; blank lines and ``#`` comments ignored."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from exc
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ContractViolation(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        raw[key.replace("-", "_")] = value
    return raw


def _coerce(key: str, value: str, sweep_mode: bool):
    if key in ("scenario", "fmt", "format"):
        return value
    if key == "out":
        return Path(value)
    if key in _INT_KEYS:
        convert = int
    elif key in _FLOAT_KEYS:
        if sweep_mode and key in SWEEP_KEYS:
            return value  # may be a comma-separated list; resolved later
        convert = float
    else:
        raise ContractViolation(f"unknown config key {key!r}")
    try:
        return convert(value)
    except ValueError as exc:
        raise ContractViolation(f"invalid value for {key}: {value!r}") from exc


def _float_list(key: str, text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ContractViolation(f"invalid value for {key}: {text!r}") from exc
    if not values:
        raise ContractViolation(f"empty value list for {key}")
    return values


def _gather_kwargs(args: argparse.Namespace, sweep_mode: bool) -> tuple[dict, dict]:
    """Merge config-file values with explicit flags (flags win).

    Returns ``(scalar_kwargs, grid)``; ``grid`` is empty outside sweep mode
    and holds only keys given more than one value.
    """
    file_kwargs: dict = {}
    if args.config is not None:
        for key, raw_value in _parse_config_file(args.config).items():
            if key == "format":
                key = "fmt"
            file_kwargs[key] = _coerce(key, raw_value, sweep_mode)

    cli_kwargs: dict = {}
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            cli_kwargs[f.name] = value

    merged = {**file_kwargs, **cli_kwargs}
    grid: dict[str, list[float]] = {}
    if sweep_mode:
        for key in SWEEP_KEYS:
            value = merged.get(key)
            if isinstance(value, str):
                values = _float_list(key, value)
                merged[key] = values[0]
                if len(values) > 1:
                    grid[key] = values
    return merged, grid


def _fmt_opt(value, spec: str) -> str:
    return "n/a" if value is None else format(value, spec)


def _emit_and_summarize(rows, config: ExperimentConfig) -> None:
    emit_results(rows, config.fmt, config.out)
    summary = summarize(rows)
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
    stream = sys.stderr if config.out is None else sys.stdout
    if config.out is not None:
        lines.insert(0, f"wrote {config.out}")
    print("\n".join(lines), file=stream)


def _cmd_run(args: argparse.Namespace) -> int:
    kwargs, _ = _gather_kwargs(args, sweep_mode=False)
    config = ExperimentConfig(**kwargs)
    rows = run_experiment(config)
    _emit_and_summarize(rows, config)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    kwargs, grid = _gather_kwargs(args, sweep_mode=True)
    config = ExperimentConfig(**kwargs)
    rows = sweep(config, grid)
    _emit_and_summarize(rows, config)
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    text, passed = selfcheck.render(selfcheck.oracle_battery(args.instances, args.seed))
    sys.stdout.write(text)
    return 0 if passed else 2


def _cmd_selftest(args: argparse.Namespace) -> int:
    outcomes = selfcheck.oracle_battery(2000, args.seed) + selfcheck.invariant_battery(args.seed)
    text, passed = selfcheck.render(outcomes)
    sys.stdout.write(text)
    return 0 if passed else 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "oracle-check": _cmd_oracle_check,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except DiscriminationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
