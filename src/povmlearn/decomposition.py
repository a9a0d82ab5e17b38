"""Two-branch decomposition of a two-state qubit ensemble with known priors.

Both pure states lie in a declared Plane: the x-z plane through the
origin, or the slice z = nz they share.  Every function works in plane
coordinates u of the ensemble Bloch vector n and scales by the squared
slice radius rho^2 = 1 - nz^2.  On the x-z plane rho^2 is exactly 1.0, so
the scaling is exact and the x-z arithmetic is that of the unscaled
formulas bit for bit; a slice at nz = 0 is the x-z plane with its second
axis relabeled.

Every function takes the prior eta0 alone and works out eta1 = 1 - eta0.
With unequal priors the ensemble Bloch vector n no longer determines the
two pure states.  The separation angle theta follows from |u|/rho alone,
but there are exactly two unit-vector pairs reproducing n: branch A puts
state 1 at in-plane angle -theta from state 0, branch B at +theta, mirror
images of each other about n.  No measurement distinguishes the branches,
so the operational targets are the branch-averaged mixtures m0 (state 0 of
branch A averaged with state 1 of branch B) and m1 (the complement).  These
straddle n symmetrically with equal purity, and the in-plane axis
perpendicular to n, which fires both detectors equally often, is the
minimum-error measurement for that pair.

Each closed form reads one vector, Helstrom's w = eta0 psi0 - eta1 psi1
(eta0 rho0 - eta1 rho1 = ((eta0 - eta1) I + w.sigma)/2).  Its in-plane
parts along n_hat and along the perpendicular n_hat_perp are w_par =
(eta0 - eta1) rho^2/|u| and w_perp = +-2 eta0 eta1 sin(theta) rho^2/|u|,
signed by the branch, from one kernel, _helstrom_vector.  Its readers:
decompose gives the pair (n + w)/(2 eta0) and (n - w)/(2 eta1),
mixture_targets the targets n +- |w_perp| n_hat_perp, and success_prob
the axis rule's success (1 + |w_perp|)/2.  helstrom, the oracle, builds
its operator from density matrices instead.

The forward map sits beside its inverse: two_fold_spec builds the hidden
pair of a two-fold cell (eta0, theta, direction, case) from its angles,
equal_prior_cell maps the 50/50 pair at state angles alpha +- beta to its
cell, and decompose recovers the pair from the cell's ensemble vector.

That 50/50 pair is the first case, read at two settings.  The +1 outcome
at setting phi projects onto cos(phi)|0> + sin(phi)|1>, of Bloch axis
(sin 2 phi, 0, cos 2 phi) (povm_axis_from_phi), and the detector-count
difference on the ensemble is

    Delta(phi) = p_plus - p_minus = cos(alpha - 2 phi) * cos(beta)

(delta_analytic).  Settings phi0 and phi0 + pi/4 read cos and sin of one
argument, so the two-argument arctangent recovers alpha with its quadrant
(solve_alpha), which a ratio tan(alpha - 2 phi0) would lose.  Their axes
are an x-z frame turned by phi0 with Delta_k = e_k . n, so the learning is
learn_axis on that frame: the estimate has state angle alpha_hat, and its
perpendicular, negated, is the axis of the minimum-error setting
phi* = alpha/2 + pi/4, which fires both detectors equally often; beta is
never needed.
"""

from __future__ import annotations

import math

import numpy as np

from povmlearn.bloch import (
    EPS_DEGENERATE,
    EPS_PHYS,
    Plane,
    any_row,
    bloch_from_state_angle,
    check_domain,
    check_unit,
    every_row,
    first_row,
    perp_in_plane,
    prob_plus_unchecked,
    real_vectors,
    reduce_angle,
    wrap_angle,
)
from povmlearn.ensemble import EnsembleSpec
from povmlearn.errors import ContractViolation

# Shot noise may drive an estimated separation cosine off [-1, 1]: cos_theta
# clamps it within this slack and is NaN beyond (the engine's status
# cos_theta_out_of_range).  Only _cell_frame raises, past radius*(1 + slack).
EPS_CLAMP = 0.02

_PLANE_XZ = Plane.xz()


def _check_cell(eta0, theta=None) -> None:
    """Check eta0, then theta unless it is None (check_domain), every row."""
    check_domain("eta0", eta0)
    if theta is not None:
        check_domain("theta", theta)


def _check_case(case):
    """The sign of a branch, +1 for A and -1 for B; one per row for rows of
    branch names."""
    case = np.asarray(case)
    b = case == "B"
    ok = b | (case == "A")
    if not every_row(ok):
        raise ContractViolation(
            f"decomposition branch must be 'A' or 'B', got {first_row(np.logical_not(ok), case).tolist()!r}"
        )
    return np.where(b, -1.0, 1.0)[()]


def ensemble_vector(eta0, theta, direction, plane: Plane = _PLANE_XZ) -> tuple[np.ndarray, float | np.ndarray]:
    """Ensemble Bloch vector n of priors (eta0, 1 - eta0) and separation
    theta, pointing along `direction` in plane coordinates, and its in-plane
    norm |u| = rho sqrt(eta0^2 + eta1^2 + 2 eta0 eta1 cos(theta)), the
    relation cos_theta inverts, written as rho sqrt((eta0 - eta1)^2 +
    4 eta0 eta1 cos^2(theta/2)), which does not cancel near theta = pi with
    eta0 near 1/2.  The direction is taken less its whole turns
    (reduce_angle), as two_fold_spec takes it.  Any argument (and the
    plane's nz) may hold one value per row, giving one vector and norm per
    row."""
    eta1 = 1.0 - eta0
    half, gap = np.cos(0.5 * theta), eta0 - eta1
    q = np.sqrt(gap * gap + 4.0 * eta0 * eta1 * half * half)
    r = np.sqrt(plane.radius_sq) * q
    direction = reduce_angle(direction)
    return plane.embed(r * np.cos(direction), r * np.sin(direction)), r


def two_fold_spec(eta0, theta, direction, case, plane: Plane = _PLANE_XZ) -> EnsembleSpec:
    """Hidden spec of the two-fold cell (eta0, theta, direction) in branch
    `case`, built forward from its angles (decompose inverts it): state 0
    at in-plane angle direction + s phi and state 1 at direction + s (phi -
    theta), s = +1 for branch A and -1 for B, phi = atan2(eta1 sin theta,
    eta0 + eta1 cos theta) with the sum written (eta0 - eta1) + 2 eta1
    cos^2(theta/2), which does not cancel near theta = pi.  The direction
    is reduced (reduce_angle) before the offsets are added, which a huge
    angle would lose.  One value of each argument (and of the plane's nz)
    per row gives a batch; a degenerate cell keeps its true pair."""
    check_domain("direction", direction)
    _check_cell(eta0, theta)
    eta1, sgn, rho = 1.0 - eta0, _check_case(case), np.sqrt(plane.radius_sq)
    half = np.cos(0.5 * theta)
    phi = np.arctan2(eta1 * np.sin(theta), (eta0 - eta1) + 2.0 * eta1 * half * half)
    direction = reduce_angle(direction)
    a0, a1 = direction + sgn * phi, direction + sgn * (phi - theta)
    psi0, psi1 = (plane.embed(rho * np.cos(a), rho * np.sin(a)) for a in (a0, a1))
    return EnsembleSpec(eta0, psi0, psi1, plane)


def equal_prior_cell(alpha, beta):
    """The two-fold cell (eta0, theta, direction, case) of the 50/50 pair at
    state angles alpha +- beta from +z, one per row for arrays of angles:
    theta = 2 beta, direction pi/2 - alpha, with alpha reduced first
    (reduce_angle), and branch B, whose state 0 is at alpha + beta.  Its
    spec is two_fold_spec(*equal_prior_cell(alpha, beta))."""
    return np.full(np.broadcast(alpha, beta).shape, 0.5)[()], 2.0 * beta, 0.5 * math.pi - reduce_angle(alpha), "B"


def povm_axis_from_phi(phi) -> np.ndarray:
    """Bloch axis (sin 2 phi, 0, cos 2 phi) of the +1 projector at setting
    phi; one axis per row for an array of settings."""
    return bloch_from_state_angle(np.multiply(2.0, phi))


def delta_analytic(alpha, beta, phi):
    """Noise-free detector difference cos(alpha - 2 phi) * cos(beta); one
    per row for arrays of angles."""
    return np.cos(alpha - 2.0 * phi) * np.cos(beta)


def solve_alpha(delta0, delta1, phi0):
    """Invert two quarter-turn-separated detector differences to alpha.

    delta0 is the reading at phi0 and delta1 at phi0 + pi/4; these are
    proportional to cos and sin of (alpha - 2 phi0) with a common positive
    factor, so alpha = 2 phi0 + atan2(delta1, delta0), wrapped to [0, 2 pi).
    Every pair of readings gets an angle, one per row for rows of readings;
    the angle of a pair within the noise floor is noise, and the engine
    marks its row weak_signal and reports no angle.
    """
    return wrap_angle(2.0 * phi0 + np.arctan2(delta1, delta0))


def cos_theta(n_norm, eta0, tol: float = EPS_PHYS, plane: Plane = _PLANE_XZ):
    """Separation cosine between the two pure states, from the in-plane norm
    |u| of the ensemble vector and the prior eta0 (eta1 = 1 - eta0).

    |u|^2 = rho^2 (eta0^2 + eta1^2 + 2 eta0 eta1 cos(theta)), inverted for
    cos(theta).  Pass tol=EPS_CLAMP for shot-noise estimates of |u|.  Rows
    of norms (with priors and plane per row or shared) give one cosine per
    row; a cosine off [-1, 1] by more than tol is NaN.
    """
    _check_cell(eta0)
    # Rescale by the slice radius before squaring and write the inversion
    # as 1 + (r^2 - 1)/(2 eta0 eta1), which equals the direct one because
    # the priors sum to 1: a coincident ensemble (|u| equal to the radius)
    # then yields exactly 1.0 with no rounding residue.
    r = n_norm / np.sqrt(plane.radius_sq)
    c = 1.0 + (r * r - 1.0) / (2.0 * eta0 * (1.0 - eta0))
    return np.where(np.abs(c) > 1.0 + tol, np.nan, np.clip(c, -1.0, 1.0))[()]


def _helstrom_vector(eta0, theta, norm, plane: Plane):
    """The parts (w_par, w_perp) of branch A's Helstrom vector along n_hat and
    n_hat_perp from n's in-plane norm |u|, NaN if too short (B negates w_perp).
    w_perp is twice a product: 0.5 + 0.5 w_perp is 0.5 plus it exactly."""
    eta1 = 1.0 - eta0
    norm = np.where(norm > EPS_DEGENERATE, norm, np.nan)
    return (eta0 - eta1) * plane.radius_sq / norm, 2.0 * (eta0 * eta1 * np.sin(theta) * plane.radius_sq / norm)


def _cell_frame(n, theta, eta0, plane: Plane, case=None):
    """The kernel at an ensemble vector n in the plane, its in-plane norm at
    most the slice radius (up to the shot-noise slack): columns u1, u2 of n's
    plane coordinates, p1, p2 of n_hat_perp (perp_in_plane; n_hat is (p2,
    -p1)), w_par, and w_perp signed by branch `case` (A's if None)."""
    _check_cell(eta0, theta)
    sgn = None if case is None else _check_case(case)
    n = plane.check(n, "ensemble vector")
    u, p = plane.coords(n), plane.coords(perp_in_plane(n, plane))
    u1, u2, p1, p2 = u[..., 0], u[..., 1], p[..., 0], p[..., 1]
    # |u| = u . n_hat, 0.0 in a row perp_in_plane finds too short.
    r, radius = u1 * p2 - u2 * p1, np.sqrt(plane.radius_sq)
    over = r > radius * (1.0 + EPS_CLAMP)
    if any_row(over):
        r, radius = first_row(over, r), first_row(over, radius)
        raise ContractViolation(f"in-plane norm {r:.6g} exceeds the slice radius {radius:.6g}")
    w_par, w_perp = _helstrom_vector(eta0, theta, r, plane)
    return u1, u2, p1, p2, w_par, w_perp if sgn is None else sgn * w_perp


def decompose(n, theta, eta0, case, plane: Plane = _PLANE_XZ) -> tuple[np.ndarray, np.ndarray]:
    """Recover the pure-state pair (n0, n1) = ((n + w)/(2 eta0), (n - w)/(2 eta1))
    of one branch from (n, theta, eta0), w the branch's Helstrom vector: the
    unit vectors in the plane with n = eta0 n0 + eta1 n1 (eta1 = 1 - eta0),
    n1 at in-plane angle -theta (branch A) or +theta (branch B) from n0, for
    |u| consistent with (theta, eta0).  Every argument may hold one value per
    row (n one vector per row, case one branch name per row); an n with no
    in-plane direction gets NaN states."""
    u1, u2, p1, p2, w_par, w_perp = _cell_frame(n, theta, eta0, plane, case)
    w1, w2 = w_par * p2 + w_perp * p1, w_perp * p2 - w_par * p1
    h0, h1 = 2.0 * eta0, 2.0 * (1.0 - eta0)
    return plane.embed((u1 + w1) / h0, (u2 + w2) / h0), plane.embed((u1 - w1) / h1, (u2 - w2) / h1)


def mixture_targets(n, theta, eta0, plane: Plane = _PLANE_XZ) -> tuple[np.ndarray, np.ndarray]:
    """Branch-averaged mixtures (m0, m1) = n +- w_perp n_hat_perp, the pair
    the measurement actually discriminates.  Every argument may hold one
    value per row; an n with no in-plane direction gets NaN targets."""
    u1, u2, p1, p2, _, w_perp = _cell_frame(n, theta, eta0, plane)
    s1, s2 = w_perp * p1, w_perp * p2
    return plane.embed(u1 + s1, u2 + s2), plane.embed(u1 - s1, u2 - s2)


def success_prob(eta0, theta, n_norm, plane: Plane = _PLANE_XZ):
    """Optimal success probability (1 + w_perp)/2 = 1/2 + eta0 eta1 sin(theta)
    rho^2/|u| of the axis rule, from the prior eta0 (eta1 = 1 - eta0) and
    the in-plane norm |u| of the ensemble vector.  Every argument may hold
    one value per row; a |u| too small for a target gets NaN."""
    _check_cell(eta0, theta)
    ps = 0.5 + 0.5 * _helstrom_vector(eta0, theta, n_norm, plane)[1]
    over = ps > 1.0 + EPS_PHYS
    if any_row(over):
        p = float(first_row(over, ps))
        raise ContractViolation(f"inconsistent inputs: success probability {p!r} exceeds 1 by {p - 1.0:.3g}")
    return np.minimum(ps, 1.0)[()]


def learn_axis(spec: EnsembleSpec, axes, shots_per_axis: int, generators) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read the ensemble along the k ordered unit axes e_k of a measurement
    frame (a k x 3 array) and return the in-plane unit axis perpendicular
    to the estimate (the setting on which both detectors fire equally, with
    zero z component on a slice), the estimate sum_k Delta_k e_k and the
    readings Delta_k, one per axis on the last axis.

    Each member is unlabeled, in the mixture state, so the +1 count of
    shots_per_axis members along e_k is one Binomial(shots, (1 + e_k.n)/2)
    with n = spec.mixture, drawn by the k-th of `generators` (one per axis)
    as one array over a batch's rows, and Delta_k = (2 count - shots)/shots.
    On the frame of pauli_axes the estimate's coordinates are the readings.

    The two-fold scenarios read the frame of pauli_axes; the equal-prior
    scenario reads the x-z frame of its two settings, turned by phi0
    (povm_axis_from_phi).  A batch gets one axis per row; an
    estimate with no in-plane direction gets the zero vector.
    """
    frame = real_vectors(axes, "measurement frame")
    if frame.ndim != 2 or frame.shape[1] != 3 or not len(frame):
        raise ContractViolation(f"measurement frame must hold one 3-vector per axis, got shape {frame.shape}")
    frame = check_unit(frame, "measurement axis")
    check_domain("shots", shots_per_axis)
    shots = int(shots_per_axis)
    generators = list(generators)
    if len(generators) != len(frame):
        raise ContractViolation(f"expected {len(frame)} generators, one per axis, got {len(generators)}")
    # Every axis's +1 probability in one pass: one per row of a batch.
    n = spec.mixture
    prob = prob_plus_unchecked(frame.reshape(len(frame), *(1,) * (n.ndim - 1), 3), n)
    readings = [(2 * g.binomial(shots, p) - shots) / shots for g, p in zip(generators, prob)]
    n_hat = sum(np.multiply.outer(d, e) for d, e in zip(readings, frame))
    return perp_in_plane(n_hat, spec.plane), n_hat, np.stack(readings, axis=-1)
