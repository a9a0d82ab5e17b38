"""The benchmark's workloads: the argv lists it passes to ``povmlearn.cli.main``.

Every workload is a closed loop of repetitions.  Repetition ``k`` of a
workload is a fixed list of invocations whose CLI seeds derive from the
workload seed and ``k``, so the same seed always yields the same inputs.
README.md gives the reason for each workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("run-deep", "sweep-wide", "oracle-check")

# Budgets are the CLI defaults, spelled out so a change of default does not
# silently change the benchmark.
SHOTS_LEARN = 100_000
SHOTS_HOLDOUT = 10_000

# run-deep cells: (scenario, extra argv).  equal-prior-xz runs at the CLI
# defaults alpha = pi/3, beta = pi/6, which the row checker reads back.
RUN_DEEP_CELLS = (
    ("equal-prior-xz", ()),
    ("unequal-prior-xz", ("--eta0", "0.6", "--theta", "1.2")),
    ("const-z", ("--eta0", "0.6", "--theta", "1.2", "--nz", "0.4")),
)

# Pauli axes (or angle settings) measured while learning, per scenario.
LEARN_AXES = {"equal-prior-xz": 2, "unequal-prior-xz": 2, "const-z": 3}


@dataclass(frozen=True)
class Sizes:
    """Work per invocation; the defaults are the benchmark's, tests shrink them."""

    run_trials: int = 100
    sweep_points: tuple[int, int, int, int] = (5, 5, 2, 2)  # eta0, theta, nz, alpha
    oracle_instances: int = 500


@dataclass(frozen=True)
class Invocation:
    """One call of ``cli.main`` and what its output must contain."""

    argv: tuple[str, ...]
    command: str
    scenario: str | None = None
    rows: int = 0
    instances: int = 0
    fmt: str = "csv"
    out: Path | None = None

    @property
    def ops(self) -> int:
        """Rows for the trial commands, instances for oracle-check."""
        return self.instances if self.command == "oracle-check" else self.rows


def cli_seed(seed: int, k: int) -> int:
    """CLI seed of repetition k; distinct repetitions get distinct streams."""
    return (seed * 1_000_003 + k) % (2**31)


def _points(lo: float, hi: float, count: int) -> list[float]:
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _csv_list(values: list[float]) -> str:
    return ",".join(repr(float(v)) for v in values)


def sweep_grid(points: tuple[int, int, int, int]) -> dict[str, list[float]]:
    """const-z grid over each field's documented domain, edges included.

    eta0 and nz have open domains (0, 1) and (-1, 1), so their edges are
    0.05/0.95 and -0.9/0.9; theta spans the closed [0, pi]; alpha takes
    directions a third of a turn apart.  With an odd count of eta0 points
    the grid holds eta0 = 0.5 with theta = pi, where the ensemble vector
    vanishes and the row reports degenerate_ensemble.
    """
    n_eta0, n_theta, n_nz, n_alpha = points
    return {
        "eta0": _points(0.05, 0.95, n_eta0),
        "theta": _points(0.0, math.pi, n_theta),
        "nz": _points(-0.9, 0.9, n_nz),
        "alpha": [2.0 * math.pi * i / 3.0 for i in range(n_alpha)],
    }


def repetition(workload: str, seed: int, k: int, out_dir: Path, sizes: Sizes = Sizes()) -> list[Invocation]:
    """The invocations of repetition k of a workload."""
    s = str(cli_seed(seed, k))
    budgets = ("--shots-learn", str(SHOTS_LEARN), "--shots-holdout", str(SHOTS_HOLDOUT))
    if workload == "run-deep":
        trials = str(sizes.run_trials)
        return [
            Invocation(
                argv=("run", "--scenario", scenario, *extra, *budgets, "--trials", trials, "--seed", s,
                      "--format", "csv", "--out", str(out_dir / f"{scenario}.csv")),
                command="run",
                scenario=scenario,
                rows=sizes.run_trials,
                out=out_dir / f"{scenario}.csv",
            )
            for scenario, extra in RUN_DEEP_CELLS
        ]
    if workload == "sweep-wide":
        grid = sweep_grid(sizes.sweep_points)
        cells = math.prod(len(v) for v in grid.values())
        out = out_dir / "sweep.json"
        # Lists that start with a negative number need the --key=value form:
        # argparse reads "--nz -0.9,..." as a missing argument.
        argv = ("sweep", "--scenario", "const-z", *(f"--{key}={_csv_list(v)}" for key, v in grid.items()),
                *budgets, "--trials", "1", "--seed", s, "--format", "json", "--out", str(out))
        return [Invocation(argv=argv, command="sweep", scenario="const-z", rows=cells, fmt="json", out=out)]
    if workload == "oracle-check":
        n = sizes.oracle_instances
        return [Invocation(argv=("oracle-check", "--instances", str(n), "--seed", s),
                           command="oracle-check", instances=n)]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
