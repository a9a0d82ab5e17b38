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
    every_row,
    first_row,
    perp_in_plane,
    reduce_angle,
    self_dot,
)
from povmlearn.ensemble import EnsembleSpec, estimate_pauli
from povmlearn.errors import ContractViolation, InvalidPriors

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


def _embed(plane: Plane, *pairs) -> np.ndarray:
    """The 3-vectors with in-plane coordinates (first, second) of each
    pair, stacked in pair order: one vector per pair of numbers, one per row
    per pair of columns.  The coordinates are written straight into the
    zeroed vectors, as Plane.embed places them, and a slice's offset after
    them."""
    out = np.zeros((len(pairs), *np.shape(pairs[0][0]), 3))
    u = plane.coords(out)
    for k, (first, second) in enumerate(pairs):
        u[k, ..., 0], u[k, ..., 1] = first, second
    if plane.kind == "constz":
        out[..., 2] = plane.nz
    return out


def _check_priors(eta0) -> None:
    """Priors (eta0, 1 - eta0) interior, in every row for arrays of eta0."""
    ok = (0.0 < eta0) & (eta0 < 1.0)
    if not every_row(ok):
        raise InvalidPriors(f"priors must be interior, got eta0 = {first_row(np.logical_not(ok), eta0)}")


def _check_theta(theta) -> None:
    """Separation angles in [0, pi], in every row for arrays of angles."""
    ok = (-1e-12 <= theta) & (theta <= math.pi + 1e-12)
    if not every_row(ok):
        raise ContractViolation(f"separation angle must lie in [0, pi], got {first_row(np.logical_not(ok), theta)}")


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
    return plane.embed(np.stack((r * np.cos(direction), r * np.sin(direction)), axis=-1)), r


def cos_theta(n_norm, eta0, tol: float = EPS_PHYS, plane: Plane = _PLANE_XZ):
    """Separation cosine between the two pure states, from the in-plane norm
    |u| of the ensemble vector and the prior eta0 (eta1 = 1 - eta0).

    |u|^2 = rho^2 (eta0^2 + eta1^2 + 2 eta0 eta1 cos(theta)), inverted for
    cos(theta).  Pass tol=EPS_CLAMP for shot-noise estimates of |u|.  Rows
    of norms (with priors and plane per row or shared) give one cosine per
    row; a cosine off [-1, 1] by more than tol is NaN.
    """
    _check_priors(eta0)
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
    _check_priors(eta0)
    _check_theta(theta)
    eta1 = 1.0 - eta0
    sgn = _check_case(case)
    u0, u1, uu = _slice_coords(n, plane)
    prefactor = plane.radius_sq / uu
    ct, st = np.cos(theta), np.sin(theta)
    a0, sb1 = eta0 + eta1 * ct, sgn * (eta1 * st)
    a1, sb0 = eta1 + eta0 * ct, sgn * (eta0 * st)
    n0, n1 = _embed(
        plane,
        (prefactor * (a0 * u0 - sb1 * u1), prefactor * (sb1 * u0 + a0 * u1)),
        (prefactor * (a1 * u0 + sb0 * u1), prefactor * (-sb0 * u0 + a1 * u1)),
    )
    return DecompositionPair(n0=n0, n1=n1)


def mixture_targets(n, theta, eta0, plane: Plane = _PLANE_XZ) -> MixtureTargets:
    """Branch-averaged mixtures m0, m1 = n +- (2 eta0 eta1 sin(theta) rho^2/|u|) n_perp.

    n_perp = (-u2, u1)/|u| is the in-plane perpendicular, so the offset is
    written componentwise over |u|^2; eta1 = 1 - eta0.  Every argument may
    hold one value per row; an n with no in-plane direction gets NaN
    targets.
    """
    _check_priors(eta0)
    _check_theta(theta)
    u0, u1, uu = _slice_coords(n, plane)
    shift = 2.0 * eta0 * (1.0 - eta0) * np.sin(theta) * plane.radius_sq
    m0, m1 = _embed(
        plane,
        ((u0 * uu - shift * u1) / uu, (shift * u0 + u1 * uu) / uu),
        ((u0 * uu + shift * u1) / uu, (-shift * u0 + u1 * uu) / uu),
    )
    return MixtureTargets(m0=m0, m1=m1)


def success_prob(eta0, theta, n_norm, plane: Plane = _PLANE_XZ):
    """Optimal success probability 1/2 + eta0 eta1 sin(theta) rho^2/|u| of the
    axis rule, from the prior eta0 (eta1 = 1 - eta0) and the in-plane norm |u|
    of the ensemble vector.  Every argument may hold one value per row; a
    |u| too small for a target gets NaN."""
    _check_priors(eta0)
    _check_theta(theta)
    n_norm = np.where(n_norm > EPS_DEGENERATE, n_norm, np.nan)
    ps = 0.5 + eta0 * (1.0 - eta0) * np.sin(theta) * plane.radius_sq / n_norm
    over = ps > 1.0 + EPS_PHYS
    if any_row(over):
        p = float(first_row(over, ps))
        raise ContractViolation(f"inconsistent inputs: success probability {p!r} exceeds 1 by {p - 1.0:.3g}")
    return np.minimum(ps, 1.0)[()]


def learn_axis(spec: EnsembleSpec, axes, shots_per_axis: int, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read the ensemble along the ordered axes of a measurement frame
    (estimate_pauli) and return the in-plane unit axis perpendicular to the
    estimate (the setting on which both detectors fire equally, with zero z
    component on a slice), the estimate and the readings.

    The two-fold scenarios read the frame of pauli_axes; the equal-prior
    scenario reads the x-z frame of its two settings, turned by phi0
    (equal_prior.povm_axis_from_phi).  A batch gets one axis per row; an
    estimate with no in-plane direction gets the zero vector.
    """
    n_hat, readings = estimate_pauli(spec, axes, shots_per_axis, rng)
    return perp_in_plane(n_hat, spec.plane), n_hat, readings
