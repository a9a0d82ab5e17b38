"""Bloch-vector geometry for qubit states and projective measurements.

A qubit density matrix rho is represented throughout by its Bloch vector,
the real 3-vector n with rho = (I + n.sigma)/2; pure states have |n| = 1.
A two-outcome projective measurement is described by a unit axis s, with
outcome probabilities (1 +- s.n)/2 on a state n.

Two plane constraints appear: vectors confined to the x-z plane, and
vectors sharing a fixed z component (an x-y slice of the sphere).  One
angle convention is used everywhere: in-plane angles are measured
counterclockwise from the first plane axis, so a vector at in-plane angle
`a` has plane coordinates (cos a, sin a).  State angles measured from +z
convert at the boundary via a_from_x = pi/2 - gamma_from_z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from povmlearn.errors import ContractViolation, DegenerateEnsemble

# Tolerance for analytic unit-norm and plane-membership checks.
EPS_PHYS = 1e-9
# Below this in-plane norm a perpendicular direction is meaningless.
EPS_DEGENERATE = 1e-6

# Read-only: measurement batches hand these arrays out as their axes.
UNIT_X = np.array([1.0, 0.0, 0.0])
UNIT_Y = np.array([0.0, 1.0, 0.0])
UNIT_Z = np.array([0.0, 0.0, 1.0])
for _unit in (UNIT_X, UNIT_Y, UNIT_Z):
    _unit.flags.writeable = False
del _unit

_TAU = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    r = math.fmod(float(a), _TAU)
    if r < 0.0:
        r += _TAU
    if r >= _TAU:
        r -= _TAU
    return r


def angle_dist(a: float, b: float, period: float = _TAU) -> float:
    """Minimal circular distance between two angles of the given period."""
    d = math.fmod(abs(float(a) - float(b)), period)
    return min(d, period - d)


def norm(v) -> float:
    """Euclidean norm, computed as np.linalg.norm does for a real vector
    (sqrt of the self dot product), so the value is bit-identical."""
    v = np.asarray(v, dtype=float).ravel()
    return math.sqrt(v.dot(v))


def check_unit(v, what: str = "vector", tol: float = EPS_PHYS) -> np.ndarray:
    """Return v as an array after verifying |v| = 1 within tol."""
    v = np.asarray(v, dtype=float)
    if abs(norm(v) - 1.0) > tol:
        raise ContractViolation(f"{what} must be unit length, got |v| = {norm(v):.9g}")
    return v


@dataclass(frozen=True)
class Plane:
    """Constraint plane for Bloch vectors.

    kind "xz" is the x-z plane through the origin (plane axes x then z);
    kind "constz" is the slice z = nz (plane axes x then y).
    """

    kind: str
    nz: float = 0.0

    @classmethod
    def xz(cls) -> "Plane":
        return cls("xz", 0.0)

    @classmethod
    def const_z(cls, nz: float) -> "Plane":
        nz = float(nz)
        if not -1.0 < nz < 1.0:
            raise ContractViolation(f"constant-z plane needs |nz| < 1, got {nz}")
        return cls("constz", nz)

    @property
    def radius_sq(self) -> float:
        """Squared radius 1 - nz^2 of the plane's cut through the Bloch sphere;
        exactly 1.0 for the x-z plane."""
        return 1.0 - self.nz * self.nz

    def coords(self, v) -> np.ndarray:
        """Project v onto plane coordinates (first axis, second axis)."""
        v = np.asarray(v, dtype=float)
        if self.kind == "xz":
            return np.array([v[0], v[2]])
        return np.array([v[0], v[1]])

    def embed(self, u, with_offset: bool = True) -> np.ndarray:
        """Map plane coordinates back to a 3-vector.

        For a constant-z plane the offset component is the plane's nz when
        with_offset is set, else zero (directions such as measurement axes
        live in the parallel plane through the origin).
        """
        u = np.asarray(u, dtype=float)
        if self.kind == "xz":
            return np.array([u[0], 0.0, u[1]])
        off = self.nz if with_offset else 0.0
        return np.array([u[0], u[1], off])

    def contains(self, v, tol: float = EPS_PHYS) -> bool:
        v = np.asarray(v, dtype=float)
        if self.kind == "xz":
            return abs(v[1]) <= tol
        return abs(v[2] - self.nz) <= tol


def bloch_from_state_angle(gamma: float) -> np.ndarray:
    """Bloch vector (sin g, 0, cos g) of the pure state cos(g/2)|0> + sin(g/2)|1>."""
    g = float(gamma)
    return np.array([math.sin(g), 0.0, math.cos(g)])


def prob_plus(s, n, tol: float = EPS_PHYS) -> float:
    """Probability of the +1 outcome when measuring unit axis s on state n."""
    s = check_unit(s, "measurement axis", tol)
    n = np.asarray(n, dtype=float)
    r = norm(n)
    if r > 1.0 + tol:
        raise ContractViolation(f"Bloch vector must satisfy |n| <= 1, got {r:.9g}")
    return prob_plus_unchecked(s, n)


def prob_plus_unchecked(s: np.ndarray, n: np.ndarray) -> float:
    """prob_plus for a float unit axis and a Bloch vector already validated."""
    p = 0.5 + 0.5 * float(s.dot(n))
    # Clip roundoff overshoot only; the complement 0.5 - 0.5*d clips symmetrically.
    return min(max(p, 0.0), 1.0)


def rotate_in_plane(v, plane: Plane, angle: float) -> np.ndarray:
    """Rotate an in-plane vector counterclockwise by `angle` within its plane."""
    v = np.asarray(v, dtype=float)
    if not plane.contains(v):
        raise ContractViolation(f"vector {v} does not lie in the {plane.kind} plane")
    u = plane.coords(v)
    c, s = math.cos(angle), math.sin(angle)
    ru = np.array([c * u[0] - s * u[1], s * u[0] + c * u[1]])
    return plane.embed(ru, with_offset=True)


def perp_in_plane(n, plane: Plane) -> np.ndarray:
    """Unit vector perpendicular to the in-plane part of n, within the plane.

    The +90 degree rotation convention is fixed: plane coordinates
    (u1, u2) map to (-u2, u1), normalized.  For a constant-z plane the
    result has zero z component (it is a direction, not a state).
    """
    u = plane.coords(np.asarray(n, dtype=float))
    r = float(np.hypot(u[0], u[1]))
    if r <= EPS_DEGENERATE:
        raise DegenerateEnsemble(
            f"in-plane norm {r:.3g} too small to define a perpendicular direction"
        )
    return plane.embed(np.array([-u[1] / r, u[0] / r]), with_offset=False)


def plane_angle(v, plane: Plane) -> float:
    """In-plane direction angle of v, counterclockwise from the first plane axis."""
    u = plane.coords(np.asarray(v, dtype=float))
    return wrap_angle(math.atan2(u[1], u[0]))
