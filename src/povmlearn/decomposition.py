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

The forward map sits beside its inverse: two_fold_spec builds the hidden
pair of a two-fold cell (eta0, theta, direction, case) from its angles,
equal_prior_cell maps the 50/50 pair at state angles alpha +- beta to its
cell, and decompose recovers the pair from the cell's ensemble vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from povmlearn.bloch import (
    EPS_DEGENERATE,
    EPS_PHYS,
    Plane,
    any_row,
    check_domain,
    check_unit,
    every_row,
    first_row,
    perp_in_plane,
    prob_plus_unchecked,
    reduce_angle,
    self_dot,
)
from povmlearn.ensemble import EnsembleSpec
from povmlearn.errors import ContractViolation

# Estimated separation cosines may be driven off [-1, 1] by shot noise;
# values within this slack are clamped, anything beyond is an error.
EPS_CLAMP = 0.02

_PLANE_XZ = Plane.xz()


@dataclass(frozen=True)
class DecompositionPair:
    """The two pure states of one decomposition branch, one pair per row
    for a batch."""

    n0: np.ndarray
    n1: np.ndarray


@dataclass(frozen=True)
class MixtureTargets:
    """Branch-averaged mixtures the measurement actually discriminates, one
    pair per row for a batch."""

    m0: np.ndarray
    m1: np.ndarray


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


def _slice_coords(n, plane: Plane):
    """Plane coordinates (u1, u2) of an ensemble vector n and |u|^2
    (self_dot): numbers for one vector, one column per coordinate for rows.

    n must lie in the plane, with an in-plane norm no larger than the slice
    radius (up to the shot-noise slack).  An n too short to define a
    direction (or holding NaN), alone or as a row, gets |u|^2 = NaN, and so
    NaN in every value derived from it.
    """
    n = np.asarray(n, dtype=float)
    ok = plane.on_plane(n)
    if not every_row(ok):
        bad = first_row(np.logical_not(ok), n)
        raise ContractViolation(f"ensemble vector {bad} does not lie in the {plane.kind} plane")
    u = plane.coords(n)
    uu = self_dot(u)
    r, radius = np.sqrt(uu), np.sqrt(plane.radius_sq)
    over = r > radius * (1.0 + EPS_CLAMP)
    if any_row(over):
        r, radius = first_row(over, r), first_row(over, radius)
        raise ContractViolation(f"in-plane norm {r:.6g} exceeds the slice radius {radius:.6g}")
    return u[..., 0], u[..., 1], np.where(r > EPS_DEGENERATE, uu, np.nan)


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
    half = np.cos(0.5 * theta)
    q = np.sqrt((eta0 - eta1) * (eta0 - eta1) + 4.0 * eta0 * eta1 * half * half)
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


def decompose(n, theta, eta0, case, plane: Plane = _PLANE_XZ) -> DecompositionPair:
    """Recover the pure-state pair of one branch from (n, theta, eta0).

    Solving n = eta0*n0 + eta1*n1 (eta1 = 1 - eta0) with n1 rotated by
    -theta (branch A) or +theta (branch B) from n0 inverts to a
    rotation-scaling of u for each state.  For inputs with |u| consistent
    with (theta, eta0) the outputs are unit vectors in the plane recombining
    to n under the priors.  Every argument may hold one value per row (n one
    vector per row, case one branch name per row); an n with no in-plane
    direction gets NaN states.
    """
    _check_cell(eta0, theta)
    eta1 = 1.0 - eta0
    sgn = _check_case(case)
    u0, u1, uu = _slice_coords(n, plane)
    prefactor = plane.radius_sq / uu
    ct, st = np.cos(theta), np.sin(theta)
    a0, sb1 = eta0 + eta1 * ct, sgn * (eta1 * st)
    a1, sb0 = eta1 + eta0 * ct, sgn * (eta0 * st)
    return DecompositionPair(
        n0=plane.embed(prefactor * (a0 * u0 - sb1 * u1), prefactor * (sb1 * u0 + a0 * u1)),
        n1=plane.embed(prefactor * (a1 * u0 + sb0 * u1), prefactor * (-sb0 * u0 + a1 * u1)),
    )


def mixture_targets(n, theta, eta0, plane: Plane = _PLANE_XZ) -> MixtureTargets:
    """Branch-averaged mixtures m0, m1 = n +- (2 eta0 eta1 sin(theta) rho^2/|u|) n_perp.

    n_perp = (-u2, u1)/|u| is the in-plane perpendicular, so the offset is
    written componentwise over |u|^2; eta1 = 1 - eta0.  Every argument may
    hold one value per row; an n with no in-plane direction gets NaN
    targets.
    """
    _check_cell(eta0, theta)
    u0, u1, uu = _slice_coords(n, plane)
    shift = 2.0 * eta0 * (1.0 - eta0) * np.sin(theta) * plane.radius_sq
    return MixtureTargets(
        m0=plane.embed((u0 * uu - shift * u1) / uu, (shift * u0 + u1 * uu) / uu),
        m1=plane.embed((u0 * uu + shift * u1) / uu, (-shift * u0 + u1 * uu) / uu),
    )


def success_prob(eta0, theta, n_norm, plane: Plane = _PLANE_XZ):
    """Optimal success probability 1/2 + eta0 eta1 sin(theta) rho^2/|u| of the
    axis rule, from the prior eta0 (eta1 = 1 - eta0) and the in-plane norm |u|
    of the ensemble vector.  Every argument may hold one value per row; a
    |u| too small for a target gets NaN."""
    _check_cell(eta0, theta)
    n_norm = np.where(n_norm > EPS_DEGENERATE, n_norm, np.nan)
    ps = 0.5 + eta0 * (1.0 - eta0) * np.sin(theta) * plane.radius_sq / n_norm
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
    (equal_prior.povm_axis_from_phi).  A batch gets one axis per row; an
    estimate with no in-plane direction gets the zero vector.
    """
    frame = np.asarray(axes, dtype=float)
    if frame.ndim != 2 or frame.shape[1] != 3 or not len(frame):
        raise ContractViolation(f"measurement frame must hold one 3-vector per axis, got shape {frame.shape}")
    frame = check_unit(frame, "measurement axis")
    shots = int(shots_per_axis)
    check_domain("shots", shots)
    generators = list(generators)
    if len(generators) != len(frame):
        raise ContractViolation(f"expected {len(frame)} generators, one per axis, got {len(generators)}")
    # Every axis's +1 probability in one pass: one per row of a batch.
    n = spec.mixture
    prob = prob_plus_unchecked(frame.reshape(len(frame), *(1,) * (n.ndim - 1), 3), n)
    readings = [(2 * g.binomial(shots, p) - shots) / shots for g, p in zip(generators, prob)]
    n_hat = sum(np.multiply.outer(d, e) for d, e in zip(readings, frame))
    return perp_in_plane(n_hat, spec.plane), n_hat, np.stack(readings, axis=-1)
