"""Settings and readings of the angle learner for two equally likely x-z states.

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

The two settings' axes e0 = povm_axis_from_phi(phi0) and
e1 = povm_axis_from_phi(phi0 + pi/4) are an orthonormal x-z frame turned by
phi0, and Delta_k = e_k . n reads the ensemble vector n in it.  So the
learning itself is decomposition.learn_axis on that frame: the estimate
Delta0 e0 + Delta1 e1 has state angle alpha_hat, and its in-plane
perpendicular, negated, is the axis of phi*.  This module keeps the
closed form, the frame's axes, the inversion to alpha_hat and the
noise-floor test.
"""

from __future__ import annotations

import math

import numpy as np

from povmlearn.bloch import bloch_from_state_angle, wrap_angle


def weak_signal_threshold(shots: int) -> float:
    """Three-sigma noise floor for a detector difference at this budget."""
    return 3.0 / math.sqrt(shots)


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
