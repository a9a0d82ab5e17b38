#!/usr/bin/env python3
"""Walk the equal-prior pipeline end to end on one ensemble.

Measures the detector-count difference at two interferometer settings a
quarter turn apart (learn_axis on the x-z frame of the two settings),
inverts it for the orientation angle, takes the optimal measurement axis
perpendicular to the estimate, and scores it on held-out qubits against
the closed-form optimum (1 + sin(beta)) / 2.
"""

import argparse
import math

from povmlearn.bloch import check_domain, reduce_angle
from povmlearn.decomposition import equal_prior_cell, learn_axis, two_fold_spec
from povmlearn.ensemble import RngStream
from povmlearn.equal_prior import povm_axis_from_phi, solve_alpha, weak_readings, weak_signal_threshold
from povmlearn.errors import ContractViolation
from povmlearn.evaluate import classify_holdout, score


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
    # A bad value is a usage error, reported before any draw.
    try:
        for name in ("alpha", "beta", "phi0", "seed", "shots"):
            check_domain(name, getattr(args, name))
        check_domain("shots", args.holdout, "holdout")
    except ContractViolation as exc:
        parser.exit(2, f"error: {exc}\n")

    # Whole turns come off alpha before its half is taken for the target,
    # and the reduced angle is the one reported.
    alpha = reduce_angle(args.alpha)
    spec = two_fold_spec(*equal_prior_cell(alpha, args.beta))
    gens = (RngStream(args.seed, 0).generator(), RngStream(args.seed, 1).generator())
    # Whole turns come off phi0 before the quarter turn is added, which a
    # huge phi0 would lose to rounding.
    phi0 = reduce_angle(args.phi0)
    frame = (povm_axis_from_phi(phi0), povm_axis_from_phi(phi0 + math.pi / 4))
    perp, _, (delta0, delta1) = learn_axis(spec, frame, args.shots, gens)
    alpha_hat = solve_alpha(delta0, delta1, phi0)
    phi_star = math.fmod(alpha_hat / 2.0 + math.pi / 4.0, math.pi)

    target_phi = (alpha / 2.0 + math.pi / 4.0) % math.pi
    print(f"measured differences: delta({phi0:.4f}) = {delta0:+.6f}, "
          f"delta({phi0 + math.pi / 4:.4f}) = {delta1:+.6f}")
    threshold = weak_signal_threshold(args.shots)
    if weak_readings(delta0, delta1, threshold):
        print(f"weak signal: both readings lie within the 3/sqrt(N) noise floor "
              f"{threshold:.4f}, so alpha_hat below is noise")
    print(f"alpha_hat = {alpha_hat:.6f}  (true {alpha:.6f})")
    print(f"phi_star  = {phi_star:.6f}  (target {target_phi:.6f})")
    print(f"qubits consumed while learning: {2 * args.shots}")

    # The perpendicular of the estimate, turned to the orientation of phi_star.
    axis = 0.0 - perp
    print(f"measurement axis: ({axis[0]:+.6f}, {axis[1]:+.6f}, {axis[2]:+.6f})")

    analytic = 0.5 * (1.0 + math.sin(args.beta))
    correct = classify_holdout(spec, axis, args.holdout, RngStream(args.seed, 2).generator())
    success, z = score(correct, args.holdout, analytic)
    print(f"holdout success: {success:.6f} over {args.holdout} qubits")
    print(f"closed-form optimum: {analytic:.6f}  (z = {z:+.2f})")


if __name__ == "__main__":
    main()
