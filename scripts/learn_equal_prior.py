#!/usr/bin/env python3
"""Walk the equal-prior pipeline end to end on one ensemble.

Measures the detector-count difference at two interferometer settings,
inverts it for the orientation angle, builds the optimal measurement
axis, and scores it on held-out qubits against the closed-form optimum
(1 + sin(beta)) / 2.
"""

import argparse
import math

from povmlearn.ensemble import RngStream
from povmlearn.equal_prior import learn_equal_prior, povm_axis_from_phi, weak_signal_threshold
from povmlearn.evaluate import classify_holdout, score
from povmlearn.experiment import equal_prior_ensemble


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=math.pi / 3,
                        help="orientation of the state pair (rad)")
    parser.add_argument("--beta", type=float, default=math.pi / 6,
                        help="half-angle between the states (rad)")
    parser.add_argument("--phi0", type=float, default=0.0,
                        help="first measurement setting (rad)")
    parser.add_argument("--shots", type=int, default=1_000_000,
                        help="qubits per measurement setting")
    parser.add_argument("--holdout", type=int, default=100_000,
                        help="held-out qubits to classify")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    spec = equal_prior_ensemble(args.alpha, args.beta)
    gens = (RngStream(args.seed, 0).generator(), RngStream(args.seed, 1).generator())
    est = learn_equal_prior(spec, args.phi0, args.shots, gens)

    target_phi = (args.alpha / 2.0 + math.pi / 4.0) % math.pi
    print(f"measured differences: delta({args.phi0:.4f}) = {est.delta0:+.6f}, "
          f"delta({args.phi0 + math.pi / 4:.4f}) = {est.delta1:+.6f}")
    if est.weak:
        print(f"weak signal: both readings lie within the 3/sqrt(N) noise floor "
              f"{weak_signal_threshold(args.shots):.4f}, so alpha_hat below is noise")
    print(f"alpha_hat = {est.alpha_hat:.6f}  (true {args.alpha:.6f})")
    print(f"phi_star  = {est.phi_star:.6f}  (target {target_phi:.6f})")
    print(f"qubits consumed while learning: {est.shots_used}")

    axis = povm_axis_from_phi(est.phi_star)
    print(f"measurement axis: ({axis[0]:+.6f}, {axis[1]:+.6f}, {axis[2]:+.6f})")

    analytic = 0.5 * (1.0 + math.sin(args.beta))
    correct = classify_holdout(spec, axis, args.holdout, RngStream(args.seed, 2).generator())
    report = score(correct, args.holdout, analytic)
    print(f"holdout success: {report.empirical_success:.6f} over {args.holdout} qubits")
    print(f"closed-form optimum: {analytic:.6f}  (z = {report.z_score:+.2f})")


if __name__ == "__main__":
    main()
