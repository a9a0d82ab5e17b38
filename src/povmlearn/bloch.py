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

from povmlearn.errors import ContractViolation

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


def reduce_angle(a):
    """An angle, or an array of angles, less its whole turns of 2*pi where it
    is more than a turn from 0: the exact remainder np.fmod, with the sign of
    the angle.  An angle within a turn, +-2*pi included, comes back as given.
    Reduce before adding an offset to an angle: a huge angle would lose the
    offset to rounding."""
    return np.where(np.abs(a) > _TAU, np.fmod(a, _TAU), a)[()]


def wrap_angle(a):
    """Reduce an angle, or an array of angles, to [0, 2*pi)."""
    r = np.fmod(a, _TAU)
    r = np.where(r < 0.0, r + _TAU, r)
    # [()] unwraps the 0-d result of a single angle into a numpy float.
    return np.where(r >= _TAU, r - _TAU, r)[()]


def angle_dist(a, b):
    """Minimal circular distance between two angles, or between the angles
    of each row for arrays of angles."""
    d = np.fmod(np.abs(np.subtract(a, b)), _TAU)
    return np.minimum(d, _TAU - d)[()]


def row_norm(v):
    """Euclidean norm of a vector, or of each row of an array of vectors,
    from np.vecdot, which takes every row's dot product as it takes a
    single vector's, so a row's norm is bit for bit that row's norm alone."""
    v = np.asarray(v, dtype=float)
    return np.sqrt(np.vecdot(v, v))


# The ufunc reductions below are np.all and np.any without their Python
# dispatch layer, which costs more than the reduction on a run's masks; a
# single flag is read as it is, since even the ufunc costs more than that.
_FLAG = (bool, np.bool_)


def every_row(mask) -> bool:
    """Whether a boolean mask (a flag, or one per row) holds on every row."""
    return bool(mask) if isinstance(mask, _FLAG) else bool(np.logical_and.reduce(mask, axis=None))


def any_row(mask) -> bool:
    """Whether a boolean mask (a flag, or one per row) holds on some row."""
    return bool(mask) if isinstance(mask, _FLAG) else bool(np.logical_or.reduce(mask, axis=None))


def first_row(mask, value):
    """value in the first row where a boolean mask holds, for the message of
    a failed check: value holds one entry per row of the mask, or one entry
    shared by all rows, and a single flag gives value as it is."""
    return value[np.argmax(mask)] if np.ndim(mask) and np.ndim(value) else value


def check_unit(v, what: str = "vector") -> np.ndarray:
    """Return v as a float array of 3-vectors (real_vectors, shaped) after
    verifying |v| = 1 within EPS_PHYS; a 2-D v holds one vector per row,
    and every row is checked."""
    v = real_vectors(v, what, shaped=True)
    r = row_norm(v)
    ok = abs(r - 1.0) <= EPS_PHYS
    if not every_row(ok):
        raise ContractViolation(f"{what} must be unit length, got |v| = {first_row(np.logical_not(ok), r):.9g}")
    return v


# The number rule: the types of an integer, and of a real number (an
# integer or a float).  A bool is neither, though Python's bool is an int.
INTEGERS = (int, np.integer)
REALS = (int, float, np.integer, np.floating)


def shown(value) -> str:
    """A refused value as a message writes it: a number as str writes it,
    anything else by its repr, and a value too long to write (an int of
    thousands of digits) by its type in angle brackets."""
    try:
        return str(value) if isinstance(value, REALS) else repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to write>"


def real_vectors(v, what: str, shaped: bool = False) -> np.ndarray:
    """v as a float array, once its array holds integers or floats and, if
    shaped, has a last axis of length 3; else (text, a ragged list, None,
    bools, and if shaped a number or a vector of another length) refuse v
    whole, shown.  A caller whose own message names the shape checks it
    itself, unshaped."""
    try:
        a = np.asarray(v)
    except ValueError:
        a = None
    if a is None or a.dtype.kind not in "iuf" or shaped and (a.ndim == 0 or a.shape[-1] != 3):
        raise ContractViolation(f"{what} must hold real 3-vectors, got {shown(v)}")
    return np.asarray(a, dtype=float)


def _integer_in(low, high=math.inf):
    """The test of an integer domain [low, high), which takes one integer of
    any size.  Anything else, an array included, fails."""

    def test(v):
        return not isinstance(v, bool) and isinstance(v, INTEGERS) and low <= v < high

    return test


def _real(test):
    """The test of a real domain: one flag per row of a number or an array
    of numbers.  A Python int is tested as the double that holds it.  A
    value that is not numeric (a bool, a string, a ragged list, an int too
    large for a double) fails whole."""

    def checked(v):
        if isinstance(v, bool):
            return False
        try:
            if isinstance(v, int):
                v = float(v)
            elif not isinstance(v, REALS):
                v = np.asarray(v)
                if v.dtype.kind not in "iuf":
                    return False
        except (OverflowError, ValueError):
            return False
        return test(v)

    return checked


_FINITE = (_real(np.isfinite), "be finite")
# The one domain of each named parameter, which every entry that takes it
# checks (check_domain): a test giving one flag per row, and its text.
# numpy's binomial draws take a shot budget as a signed 64-bit integer.
_DOMAINS = {
    "alpha": _FINITE,
    "phi0": _FINITE,
    "direction": _FINITE,
    "eta0": (_real(lambda v: (0.0 < v) & (v < 1.0)), "lie in (0, 1)"),
    "prior": (_real(lambda v: (0.0 <= v) & (v <= 1.0)), "lie in [0, 1]"),
    "beta": (_real(lambda v: (0.0 <= v) & (v <= math.pi / 2 + 1e-12)), "lie in [0, pi/2]"),
    "theta": (_real(lambda v: (0.0 <= v) & (v <= math.pi + 1e-12)), "lie in [0, pi]"),
    "nz": (_real(lambda v: (-1.0 < v) & (v < 1.0)), "lie in (-1, 1)"),
    "seed": (_integer_in(0), "be a nonnegative integer"),
    "shots": (_integer_in(1, 2**63), "be an integer in [1, 2**63)"),
    "trials": (_integer_in(1), "be a positive integer"),
    "instances": (_integer_in(1), "be a positive integer"),
    "stream_id": (_integer_in(0, 2**64), "be an integer in [0, 2**64)"),
}


def check_domain(name: str, value, label: str | None = None) -> None:
    """Refuse a value of the named parameter outside its domain: one number,
    or for a real parameter an array with one value per row, whose message
    names the first bad value (shown).  A value that fails whole, such as a
    string or an array given for an integer, is shown whole.  The message
    calls the parameter label, name by default."""
    test, domain = _DOMAINS[name]
    ok = test(value)
    if not every_row(ok):
        raise ContractViolation(f"{label or name} must {domain}, got {shown(first_row(np.logical_not(ok), value))}")


# Per plane kind: the slice of a 3-vector's last axis that holds its plane
# coordinates (first axis, second axis), and the index of the offset axis.
_PLANE_SLOTS = {"xz": (np.s_[..., ::2], 1), "constz": (np.s_[..., :2], 2)}


@dataclass(frozen=True, eq=False)
class Plane:
    """Constraint plane for Bloch vectors.

    kind "xz" is the x-z plane through the origin (plane axes x then z);
    kind "constz" is the slice z = nz (plane axes x then y).  Plane.const_z
    stores nz as a read-only array: 0-d for one slice, or 1-D with one nz
    per row for batches whose rows lie in different slices, whose methods
    then take one vector per row.  Any vector argument may hold one vector
    per row on its last axis.  Planes compare and hash by identity.
    """

    kind: str
    nz: float | np.ndarray = 0.0

    @classmethod
    def xz(cls) -> "Plane":
        return cls("xz", 0.0)

    @classmethod
    def const_z(cls, nz) -> "Plane":
        check_domain("nz", nz)
        nz = np.array(nz, dtype=float)
        nz.flags.writeable = False
        return cls("constz", nz)

    @property
    def radius_sq(self):
        """Squared radius 1 - nz^2 of the plane's cut through the Bloch sphere;
        exactly 1.0 for the x-z plane."""
        return 1.0 - self.nz * self.nz

    def coords(self, v) -> np.ndarray:
        """Plane coordinates (first axis, second axis) of v, as a view of v."""
        return np.asarray(v, dtype=float)[_PLANE_SLOTS[self.kind][0]]

    def embed(self, first, second) -> np.ndarray:
        """The 3-vectors in the plane with plane coordinates (first, second):
        one vector for two numbers, one per row for two columns.  The
        coordinates are written straight into new vectors, then nz (0.0 on
        the x-z plane) as the offset component, so every slot is written."""
        out = np.empty((*np.broadcast(first, second).shape, 3))
        u = self.coords(out)
        u[..., 0], u[..., 1] = first, second
        out[..., _PLANE_SLOTS[self.kind][1]] = self.nz
        return out

    def on_plane(self, v):
        """Whether v lies in the plane, its offset within EPS_PHYS of nz: a flag per vector (row)."""
        return abs(np.asarray(v, dtype=float)[..., _PLANE_SLOTS[self.kind][1]] - self.nz) <= EPS_PHYS

    def check(self, v, what: str) -> np.ndarray:
        """Return v as a float array of 3-vectors (real_vectors, shaped) once
        it lies in the plane (on_plane); else refuse its first row off it."""
        v = real_vectors(v, what, shaped=True)
        ok = self.on_plane(v)
        if not every_row(ok):
            raise ContractViolation(f"{what} {first_row(np.logical_not(ok), v)} does not lie in the {self.kind} plane")
        return v


def bloch_from_state_angle(gamma) -> np.ndarray:
    """Bloch vector (sin g, 0, cos g) of the pure state cos(g/2)|0> + sin(g/2)|1>;
    an array of angles gives one vector per row."""
    g = np.asarray(gamma, dtype=float)
    return np.stack((np.sin(g), np.zeros_like(g), np.cos(g)), axis=-1)


def prob_plus_unchecked(s: np.ndarray, n: np.ndarray):
    """Probability (1 + s.n)/2 of the +1 outcome along a float unit axis s on
    a Bloch vector n already validated; with rows on either side, one
    probability per row, each row's s.n from np.vecdot as that row alone
    takes it.  Roundoff overshoot is clipped; the complement 0.5 - 0.5*d
    clips symmetrically."""
    return np.minimum(np.maximum(0.5 + 0.5 * np.vecdot(s, n), 0.0), 1.0)


def perp_in_plane(n, plane: Plane) -> np.ndarray:
    """Unit vector perpendicular to the in-plane part of n, within the plane.

    The +90 degree rotation convention is fixed: plane coordinates
    (u1, u2) map to (-u2, u1), normalized.  For a constant-z plane the
    result has zero z component (it is a direction, not a state).  An n
    whose in-plane part is too short to define a direction (in-plane norm
    at most EPS_DEGENERATE) gets the zero vector, alone or as a row.
    """
    u = plane.coords(n)
    u1, u2 = u[..., 0], u[..., 1]
    r = np.hypot(u1, u2)
    keep = r > EPS_DEGENERATE
    # A short row divides by 1.0, not by its norm, which may be 0.0; its
    # quotient is then dropped.
    r = np.where(keep, r, 1.0)
    out = np.zeros(u.shape[:-1] + (3,))
    w = plane.coords(out)
    w[..., 0] = np.where(keep, -u2 / r, -0.0)
    w[..., 1] = np.where(keep, u1 / r, 0.0)
    return out


def plane_angle(v, plane: Plane):
    """In-plane direction angle of v, counterclockwise from the first plane
    axis; one angle per row for rows of vectors."""
    u = plane.coords(v)
    return wrap_angle(np.arctan2(u[..., 1], u[..., 0]))
