"""Two-branch decomposition of a two-state qubit ensemble with known priors.

Both pure states lie in a declared Plane: the x-z plane through the
origin, or the slice z = nz they share.  Every function works in plane
coordinates u of the ensemble Bloch vector n and scales by the squared
slice radius rho^2 = 1 - nz^2.  On the x-z plane rho^2 is exactly 1.0, so
the scaling is exact and the x-z arithmetic is that of the unscaled
formulas bit for bit; a slice at nz = 0 is the x-z plane with its second
axis relabeled.

With unequal priors (eta0, eta1) the ensemble Bloch vector n no longer
determines the two pure states.  The separation angle theta follows from
|u|/rho alone, but there are exactly two unit-vector pairs reproducing n:
branch A puts state 1 at in-plane angle -theta from state 0, branch B at
+theta, mirror images of each other about n.  No measurement
distinguishes the branches, so the operational targets are the
branch-averaged mixtures m0 (state 0 of branch A averaged with state 1 of
branch B) and m1 (the complement).  These straddle n symmetrically with
equal purity, and the in-plane axis perpendicular to n, which fires both
detectors equally often, is the minimum-error measurement for that pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from povmlearn.bloch import EPS_DEGENERATE, EPS_PHYS, Plane, every_row, perp_in_plane
from povmlearn.ensemble import EnsembleSpec, estimate_pauli
from povmlearn.errors import (
    ContractViolation,
    CosThetaOutOfRange,
    DegenerateEnsemble,
    InvalidPriors,
)

# Estimated separation cosines may be driven off [-1, 1] by shot noise;
# values within this slack are clamped, anything beyond is an error.
EPS_CLAMP = 0.02

_PLANE_XZ = Plane.xz()


@dataclass(frozen=True)
class DecompositionPair:
    """The two pure states of one decomposition branch."""

    n0: np.ndarray
    n1: np.ndarray
    case: str


@dataclass(frozen=True)
class MixtureTargets:
    """Branch-averaged mixtures the measurement actually discriminates."""

    m0: np.ndarray
    m1: np.ndarray
    theta: float


def _check_priors(eta0, eta1) -> None:
    """Priors interior and summing to 1, in every row for arrays of priors."""
    ok = (abs(eta0 + eta1 - 1.0) <= 1e-12) & (0.0 < eta0) & (eta0 < 1.0)
    if not every_row(ok):
        raise InvalidPriors(f"priors must be interior and sum to 1, got ({eta0}, {eta1})")


def _check_theta(theta: float) -> None:
    if not (-1e-12 <= theta <= math.pi + 1e-12):
        raise ContractViolation(f"separation angle must lie in [0, pi], got {theta}")


def _check_case(case: str) -> float:
    if case == "A":
        return 1.0
    if case == "B":
        return -1.0
    raise ContractViolation(f"decomposition branch must be 'A' or 'B', got {case!r}")


def _slice_coords(n, plane: Plane) -> tuple[np.ndarray, float]:
    """Plane coordinates u of an ensemble vector n and |u|^2.

    n must lie in the plane, with an in-plane norm no larger than the slice
    radius (up to the shot-noise slack) and large enough to define a
    direction.
    """
    n = np.asarray(n, dtype=float)
    if not plane.contains(n):
        raise ContractViolation(f"ensemble vector {n} does not lie in the {plane.kind} plane")
    u = plane.coords(n)
    uu = float(u @ u)
    r, radius = math.sqrt(uu), math.sqrt(plane.radius_sq)
    if r > radius * (1.0 + EPS_CLAMP):
        raise ContractViolation(f"in-plane norm {r:.6g} exceeds the slice radius {radius:.6g}")
    if r <= EPS_DEGENERATE:
        raise DegenerateEnsemble(f"in-plane norm {r:.3g} is too small to decompose")
    return u, uu


def ensemble_vector(
    eta0: float, theta: float, direction: float, plane: Plane = _PLANE_XZ
) -> tuple[np.ndarray, float]:
    """Ensemble Bloch vector n of priors (eta0, 1 - eta0) and separation
    theta, pointing along `direction` in plane coordinates, and its in-plane
    norm |u| = rho sqrt(eta0^2 + eta1^2 + 2 eta0 eta1 cos(theta)), the
    relation cos_theta inverts."""
    eta1 = 1.0 - eta0
    q = math.sqrt(eta0 * eta0 + eta1 * eta1 + 2.0 * eta0 * eta1 * math.cos(theta))
    r = math.sqrt(plane.radius_sq) * q
    return plane.embed(np.array([r * math.cos(direction), r * math.sin(direction)])), r


def cos_theta(n_norm, eta0, eta1, tol: float = EPS_PHYS, plane: Plane = _PLANE_XZ):
    """Separation cosine between the two pure states, from the in-plane norm
    |u| of the ensemble vector and the priors.

    |u|^2 = rho^2 (eta0^2 + eta1^2 + 2 eta0 eta1 cos(theta)), inverted for
    cos(theta).  Pass tol=EPS_CLAMP for shot-noise estimates of |u|.  A
    single norm out of range raises CosThetaOutOfRange; rows of norms (with
    priors and plane per row or shared) give one cosine per row, NaN where
    it is out of range.
    """
    _check_priors(eta0, eta1)
    # Rescale by the slice radius before squaring and write the inversion
    # as 1 + (r^2 - 1)/(2 eta0 eta1), which equals the direct one because
    # the priors sum to 1: a coincident ensemble (|u| equal to the radius)
    # then yields exactly 1.0 with no rounding residue.
    r = n_norm / np.sqrt(plane.radius_sq)
    c = 1.0 + (r * r - 1.0) / (2.0 * eta0 * eta1)
    out = np.abs(c) > 1.0 + tol
    if np.ndim(c) == 0 and out:
        raise CosThetaOutOfRange(f"separation cosine {c:.6g} outside [-1, 1] beyond tolerance {tol:g}")
    return np.where(out, np.nan, np.clip(c, -1.0, 1.0))[()]


def decompose(
    n, theta: float, eta0: float, eta1: float, case: str, plane: Plane = _PLANE_XZ
) -> DecompositionPair:
    """Recover the pure-state pair of one branch from (n, theta, priors).

    Solving n = eta0*n0 + eta1*n1 with n1 rotated by -theta (branch A) or
    +theta (branch B) from n0 inverts to a rotation-scaling of u for each
    state.  For inputs with |u| consistent with (theta, eta0, eta1) the
    outputs are unit vectors in the plane recombining to n under the priors.
    """
    _check_priors(eta0, eta1)
    _check_theta(theta)
    sgn = _check_case(case)
    u, uu = _slice_coords(n, plane)
    prefactor = plane.radius_sq / uu
    ct, st = math.cos(theta), math.sin(theta)
    a0, b1 = eta0 + eta1 * ct, eta1 * st
    a1, b0 = eta1 + eta0 * ct, eta0 * st
    rows = [
        [a0 * u[0] - sgn * b1 * u[1], sgn * b1 * u[0] + a0 * u[1]],
        [a1 * u[0] + sgn * b0 * u[1], -sgn * b0 * u[0] + a1 * u[1]],
    ]
    n0, n1 = plane.embed(prefactor * np.array(rows))
    return DecompositionPair(n0=n0, n1=n1, case=case)


def mixture_targets(
    n, theta: float, eta0: float, eta1: float, plane: Plane = _PLANE_XZ
) -> MixtureTargets:
    """Branch-averaged mixtures m0, m1 = n +- (2 eta0 eta1 sin(theta) rho^2/|u|) n_perp.

    n_perp = (-u2, u1)/|u| is the in-plane perpendicular, so the offset is
    written componentwise over |u|^2.
    """
    _check_priors(eta0, eta1)
    _check_theta(theta)
    u, uu = _slice_coords(n, plane)
    shift = 2.0 * eta0 * eta1 * math.sin(theta) * plane.radius_sq
    rows = [
        [(u[0] * uu - shift * u[1]) / uu, (shift * u[0] + u[1] * uu) / uu],
        [(u[0] * uu + shift * u[1]) / uu, (-shift * u[0] + u[1] * uu) / uu],
    ]
    m0, m1 = plane.embed(np.array(rows))
    return MixtureTargets(m0=m0, m1=m1, theta=theta)


def success_prob(
    eta0: float, eta1: float, theta: float, n_norm: float, plane: Plane = _PLANE_XZ
) -> float:
    """Optimal success probability 1/2 + eta0 eta1 sin(theta) rho^2/|u| of the
    axis rule, from the in-plane norm |u| of the ensemble vector."""
    _check_priors(eta0, eta1)
    _check_theta(theta)
    n_norm = float(n_norm)
    if n_norm <= EPS_DEGENERATE:
        raise DegenerateEnsemble(f"|u| = {n_norm:.3g} is too small for a success target")
    ps = 0.5 + eta0 * eta1 * math.sin(theta) * plane.radius_sq / n_norm
    if ps > 1.0 + EPS_PHYS:
        raise ContractViolation(
            f"inconsistent inputs: success probability {ps:.6g} exceeds 1"
        )
    return min(ps, 1.0)


def learn_axis(spec: EnsembleSpec, shots_per_axis: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Estimate the ensemble Bloch vector (estimate_pauli) and return the
    in-plane unit axis perpendicular to it (the setting on which both
    detectors fire equally, with zero z component on a slice), together with
    the estimate.  A batch gets one axis per row, the zero vector on a row
    whose estimate has no in-plane direction; a single ensemble raises
    DegenerateEnsemble there."""
    n_hat = estimate_pauli(spec, shots_per_axis, rng)
    return perp_in_plane(n_hat, spec.plane), n_hat
