#!/usr/bin/env python3
"""Sweep the unequal-prior scenario and compare against the closed form.

For each (prior, separation) cell the trial draws one of the two valid
state-pair decompositions at random, learns the measurement axis from
the ensemble average alone, and classifies held-out qubits.  The pooled
success per cell is printed next to 1/2 + eta0 eta1 sin(theta)/|n|.
"""

import argparse
import math

from povmlearn.decomposition import ensemble_vector, success_prob
from povmlearn.experiment import ExperimentConfig, sweep


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eta0", type=float, nargs="+", default=[0.5, 0.6, 0.7],
                        help="prior of state 0, one value per sweep column")
    parser.add_argument("--theta", type=float, nargs="+",
                        default=[math.pi / 6, math.pi / 2, 2 * math.pi / 3],
                        help="separation angles (rad), one per sweep row")
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--shots-learn", type=int, default=50_000)
    parser.add_argument("--shots-holdout", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    base = ExperimentConfig(
        scenario="unequal-prior-xz",
        trials=args.trials,
        shots_learn=args.shots_learn,
        shots_holdout=args.shots_holdout,
        seed=args.seed,
    )
    rows = sweep(base, {"eta0": args.eta0, "theta": args.theta})

    print(f"{'eta0':>6} {'theta':>8} {'closed form':>12} {'pooled emp':>11} "
          f"{'pull':>7} {'ok':>5}")
    for eta0 in args.eta0:
        for theta in args.theta:
            cell = [r for r in rows if r.eta0 == eta0 and r.theta_true == theta]
            scored = [r for r in cell if r.success_emp is not None]
            correct = sum(r.holdout_correct for r in scored)
            total = sum(r.shots_holdout for r in scored)
            _, q = ensemble_vector(eta0, theta, 0.0)
            target = success_prob(eta0, 1 - eta0, theta, q)
            pooled = correct / total if total else float("nan")
            sigma = math.sqrt(target * (1 - target) / total) if total else float("nan")
            pull = (pooled - target) / sigma if total else float("nan")
            print(f"{eta0:>6.2f} {theta:>8.4f} {target:>12.6f} {pooled:>11.6f} "
                  f"{pull:>+7.2f} {len(scored):>4}/{len(cell)}")


if __name__ == "__main__":
    main()
