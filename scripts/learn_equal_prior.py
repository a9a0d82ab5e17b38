#!/usr/bin/env python3
"""Walk the equal-prior pipeline end to end on one ensemble.

Builds the engine's one-trial equal-prior-xz ExperimentConfig from the
flags, runs it and prints row 0: its status, alpha_hat beside the true
alpha, phi* = alpha_hat/2 + pi/4 mod pi beside its target (alpha printed on
[0, 2*pi), as alpha_hat is), the qubits consumed while learning,
the measurement axis, the holdout success and the closed-form optimum
with the row's z-score; n/a where the row's status leaves a cell empty.
ExperimentConfig.validate refuses a bad value before any draw: exit 2
with one line such as `error: beta must lie in [0, pi/2], got 2.0`.
"""

import argparse
import math

from povmlearn.bloch import wrap_angle
from povmlearn.errors import ContractViolation
from povmlearn.experiment import ExperimentConfig, run_experiment


def cell(value, spec=".6f"):
    """A row's cell as printed: n/a where the row leaves it empty."""
    return "n/a" if value is None else format(value, spec)


def setting(alpha):
    """The optimal setting alpha/2 + pi/4 mod pi of an orientation alpha."""
    return (alpha / 2.0 + math.pi / 4.0) % math.pi


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=math.pi / 3, help="orientation of the state pair (rad)")
    parser.add_argument("--beta", type=float, default=math.pi / 6, help="half-angle between the states (rad)")
    parser.add_argument("--phi0", type=float, default=0.0, help="first measurement setting (rad)")
    parser.add_argument("--shots-learn", type=int, default=1_000_000, help="qubits per measurement setting")
    parser.add_argument("--shots-holdout", type=int, default=100_000, help="held-out qubits to classify")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    try:
        columns = run_experiment(ExperimentConfig(scenario="equal-prior-xz", trials=1, **vars(args)))
    except ContractViolation as exc:
        parser.exit(2, f"error: {exc}\n")
    row = {name: column[0] for name, column in columns.items()}

    print(f"status: {row['status']}")
    if row["status"] == "weak_signal":
        print("weak signal: both readings lie within the 3/sqrt(N) noise floor, so the row reports no estimate")
    alpha, alpha_hat = wrap_angle(args.alpha), row["alpha_hat"]
    print(f"alpha_hat = {cell(alpha_hat)}  (true {alpha:.6f})")
    print(f"phi_star  = {cell(None if alpha_hat is None else setting(alpha_hat))}  (target {setting(alpha):.6f})")
    print(f"qubits consumed while learning: {row['shots_learn']}")
    print(f"measurement axis: ({', '.join(cell(row[k], '+.6f') for k in ('axis_x', 'axis_y', 'axis_z'))})")
    print(f"holdout success: {cell(row['success_emp'])} over {row['shots_holdout']} qubits")
    print(f"closed-form optimum: {cell(row['success_analytic'])}  (z = {cell(row['z_score'], '+.6f')})")


if __name__ == "__main__":
    main()
