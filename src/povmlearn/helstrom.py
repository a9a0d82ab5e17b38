"""Minimum-error measurement for two qubit states, from density matrices.

Helstrom's oracle (Quantum Detection and Estimation Theory, 1976): states
rho0, rho1 with priors eta0, eta1 = 1 - eta0 are told apart best by the
projector onto the positive part of Gamma = eta0 rho0 - eta1 rho1, which
succeeds with probability (1 + ||Gamma||_1)/2, the trace norm being the sum
of |lambda| over Gamma's eigenvalues.  helstrom builds Gamma as a complex
2x2 matrix, from density matrices rho = [[1 + z, x - iy], [x + iy, 1 - z]]/2
written entry by entry, independently of the Bloch-vector formulas the
learners and the closed form use, and diagonalizes it in closed form from
its entries: a Hermitian [[a, b], [conj(b), d]] has eigenvalues m +- r,
with m = (a + d)/2, h = (a - d)/2 and r = hypot(h, |b|), and the projector
onto the larger one is (Gamma - (m - r) I)/(2r) = (I + (Re b, -Im b,
h).sigma/r)/2.  No step iterates, and each is elementwise.  A pair whose
Gamma has no eigenvalue gap, such as two equal states at equal priors, has
no optimal axis: it gets the zero axis and keeps its success.
"""

from __future__ import annotations

import numpy as np

from povmlearn.bloch import EPS_DEGENERATE, check_domain, real_vectors
from povmlearn.errors import ContractViolation


def _density_matrix(n) -> np.ndarray:
    """rho = (I + n.sigma)/2 = [[1 + z, x - iy], [x + iy, 1 - z]]/2 of a Bloch
    vector n = (x, y, z), as a complex 2x2 matrix written entry by entry;
    rows of vectors give one matrix per row, each built elementwise as that
    vector alone."""
    n = np.asarray(n, dtype=float)
    x, y, z = n[..., 0], n[..., 1], n[..., 2]
    rho = np.empty(n.shape[:-1] + (2, 2), dtype=complex)
    # A real value fills an entry's real part and zeroes its imaginary part.
    # 0.0 - writes no -0.0 at y = 0, so an x-z vector gives the bits of the
    # sum of Pauli products.
    rho[..., 0, 0] = 0.5 * (1.0 + z)
    rho[..., 1, 1] = 0.5 * (1.0 - z)
    rho[..., 0, 1] = rho[..., 1, 0] = 0.5 * x
    rho.imag[..., 1, 0] = 0.5 * y
    rho.imag[..., 0, 1] = 0.0 - rho.imag[..., 1, 0]
    return rho


def helstrom(m0, m1, eta0=0.5):
    """Minimum-error discrimination of the states with Bloch vectors m0 and
    m1, at priors eta0 and 1 - eta0: (success, axis), where axis is the
    Bloch vector of the projector onto Gamma's eigenvector of larger
    eigenvalue, the one detector 0 points along.  m0 and m1 have one
    shape: with rows of vectors (and eta0 one number or one per row) both
    results come back one per row, from the closed-form spectrum of each
    row's Gamma, elementwise; each row has the bits of its pair alone.

    A pair whose two eigenvalues of Gamma lie within the degeneracy
    tolerance (gap 2r at most EPS_DEGENERATE) has no optimal axis and gets
    the zero axis, alone or as a row; its success is still the trace-norm
    value, 1/2 where Gamma = 0.  A NaN pair gets NaN success and the zero
    axis.  A prior outside [0, 1] is refused (the domain table's prior), and
    so is a pair that is not two arrays of real 3-vectors of one shape.
    """
    check_domain("prior", eta0)
    m0, m1 = real_vectors(m0, "m0", shaped=True), real_vectors(m1, "m1", shaped=True)
    if m0.shape != m1.shape:
        raise ContractViolation(f"m0 and m1 must have one shape, got {m0.shape} and {m1.shape}")
    eta0 = np.asarray(eta0, dtype=float)[..., None, None]
    # One call over the stacked pair costs less than one call per state.
    rho0, rho1 = _density_matrix(np.array((m0, m1)))
    gamma = eta0 * rho0 - (1.0 - eta0) * rho1
    a, d, b = gamma[..., 0, 0].real, gamma[..., 1, 1].real, gamma[..., 0, 1]
    mid, half = 0.5 * (a + d), 0.5 * (a - d)
    r = np.hypot(half, np.abs(b))
    keep = 2.0 * r > EPS_DEGENERATE
    axis = np.empty(r.shape + (3,))
    axis[..., 0], axis[..., 1], axis[..., 2] = b.real, -b.imag, half
    # A degenerate or NaN row divides by 1.0, not by its r, which may be
    # 0.0, and then gets the zero axis.
    axis /= np.where(keep, r, 1.0)[..., None]
    axis[~keep] = 0.0
    return 0.5 * (1.0 + np.abs(mid - r) + np.abs(mid + r)), axis
