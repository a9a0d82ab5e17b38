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
h).sigma/r)/2.  No step iterates, and each is elementwise.
success_equal_priors keeps the Bloch form for the engine.
"""

from __future__ import annotations

import numpy as np

from povmlearn.bloch import EPS_DEGENERATE, any_row, first_row, row_norm
from povmlearn.errors import DegenerateEnsemble


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
    eigenvalue, the one detector 0 points along.  With rows of vectors (and
    eta0 one number or one per row) both come back one per row, from the
    closed-form spectrum of each row's Gamma, elementwise; each row has the
    bits of its pair alone.

    A pair whose two eigenvalues of Gamma lie within the degeneracy
    tolerance has no optimal axis and raises DegenerateEnsemble; a batch
    names its first such row, with the message that row raises alone.
    """
    eta0 = np.asarray(eta0, dtype=float)[..., None, None]
    gamma = eta0 * _density_matrix(m0) - (1.0 - eta0) * _density_matrix(m1)
    a, d, b = gamma[..., 0, 0].real, gamma[..., 1, 1].real, gamma[..., 0, 1]
    mid, half = 0.5 * (a + d), 0.5 * (a - d)
    r = np.hypot(half, np.abs(b))
    gap = 2.0 * r
    bad = gap <= EPS_DEGENERATE
    if any_row(bad):
        raise DegenerateEnsemble(f"states are indistinguishable: eigenvalue gap of Gamma = {first_row(bad, gap):.3g}")
    axis = np.stack((b.real, -b.imag, half), axis=-1) / r[..., None]
    return 0.5 * (1.0 + np.abs(mid - r) + np.abs(mid + r)), axis


def success_equal_priors(m0, m1):
    """Best achievable success probability 1/2 + |m0 - m1|/4 for a 50/50
    mixture of m0 and m1, in Bloch form: the success of helstrom(m0, m1),
    and the same formula for pairs helstrom refuses as degenerate.  One per
    row for rows of vectors, each bit for bit the value of its pair alone
    (row_norm)."""
    diff = np.asarray(m0, dtype=float) - np.asarray(m1, dtype=float)
    return 0.5 + 0.5 * (0.5 * row_norm(diff))
