"""Measurement-angle learner for two equally likely pure x-z plane states.

The candidate POVM is a projector pair parameterized by an angle phi: the
+1 outcome projects onto cos(phi)|0> + sin(phi)|1>, whose Bloch vector is
(sin 2 phi, 0, cos 2 phi).  Write the two hidden states at state angles
alpha +- beta from +z.  On the 50/50 ensemble the detector-count difference
is

    Delta(phi) = p_plus - p_minus = cos(alpha - 2 phi) * cos(beta),

so two settings a quarter turn apart read off cos and sin of the same
argument, and the two-argument arctangent recovers alpha with its quadrant
intact (a scalar ratio tan(alpha - 2 phi0) would lose the sign information).
The minimum-error setting phi* = alpha/2 + pi/4 makes both detectors fire
equally often; beta is never needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from povmlearn.bloch import bloch_from_state_angle, every_row, first_row, wrap_angle
from povmlearn.ensemble import EnsembleSpec, role_generators
from povmlearn.errors import ContractViolation, InvalidPriors


def weak_signal_threshold(shots: int) -> float:
    """Three-sigma noise floor for a detector difference at this budget."""
    return 3.0 / math.sqrt(shots)


@dataclass(frozen=True)
class EqualPriorEstimate:
    """Learned orientation angle and optimal measurement setting, one per
    row for a batch; `weak` marks the rows whose readings sit at or below
    the noise floor, whose angles are then meaningless."""

    alpha_hat: float | np.ndarray
    phi_star: float | np.ndarray
    delta0: float | np.ndarray
    delta1: float | np.ndarray
    shots_used: int
    weak: bool | np.ndarray


def delta_analytic(alpha, beta, phi):
    """Noise-free detector difference cos(alpha - 2 phi) * cos(beta); one
    per row for arrays of angles."""
    return np.cos(alpha - 2.0 * phi) * np.cos(beta)


def povm_axis_from_phi(phi) -> np.ndarray:
    """Bloch axis (sin 2 phi, 0, cos 2 phi) of the +1 projector at setting
    phi; one axis per row for an array of settings."""
    return bloch_from_state_angle(np.multiply(2.0, phi))


def weak_readings(delta0, delta1, tau_weak: float):
    """Whether both detector differences sit at or below tau_weak in
    magnitude, where the quadrant of alpha is unresolvable; one flag per
    row for arrays of readings."""
    return np.maximum(np.abs(delta0), np.abs(delta1)) <= tau_weak


def solve_alpha(delta0, delta1, phi0):
    """Invert two quarter-turn-separated detector differences to alpha.

    delta0 is the reading at phi0 and delta1 at phi0 + pi/4; these are
    proportional to cos and sin of (alpha - 2 phi0) with a common positive
    factor, so alpha = 2 phi0 + atan2(delta1, delta0), wrapped to [0, 2 pi).
    Every pair of readings gets an angle, one per row for rows of readings;
    the angle of a weak pair (weak_readings) is noise, and the caller masks
    it.
    """
    return wrap_angle(2.0 * phi0 + np.arctan2(delta1, delta0))


def learn_equal_prior(
    spec: EnsembleSpec,
    phi0,
    shots_per_setting: int,
    rng,
) -> EqualPriorEstimate:
    """Measure at phi0 and phi0 + pi/4, then invert to the optimal setting.

    Requires a 50/50 x-z plane ensemble and consumes 2 * shots_per_setting
    qubits per row.  `rng` may be one generator or a pair, one entry per
    setting (each a generator or a per-draw triple).  The returned
    phi_star = alpha_hat/2 + pi/4 is reported modulo pi; the projector pair
    is invariant under phi -> phi + pi.  `weak` marks the readings at or
    below the noise floor weak_signal_threshold(shots_per_setting), one
    flag per row for a batch.
    """
    if spec.plane.kind != "xz":
        raise ContractViolation("the angle learner requires an x-z plane ensemble")
    ok = np.abs(spec.eta0 - 0.5) <= 1e-12
    if not every_row(ok):
        bad = first_row(np.logical_not(ok), spec.eta0)
        raise InvalidPriors(f"the angle learner requires equal priors, got eta0 = {bad}")
    g0, g1 = role_generators(rng, 2)
    delta0 = spec.expectation(povm_axis_from_phi(phi0), shots_per_setting, g0)
    delta1 = spec.expectation(povm_axis_from_phi(phi0 + 0.25 * math.pi), shots_per_setting, g1)
    alpha_hat = solve_alpha(delta0, delta1, phi0)
    return EqualPriorEstimate(
        alpha_hat=alpha_hat,
        phi_star=np.fmod(0.5 * alpha_hat + 0.25 * math.pi, math.pi),
        delta0=delta0,
        delta1=delta1,
        shots_used=2 * shots_per_setting,
        weak=weak_readings(delta0, delta1, weak_signal_threshold(shots_per_setting)),
    )
