"""Minimum-error measurement for two equiprobable qubit states, in Bloch form.

For qubits the optimal two-outcome POVM is projective and diagonalizes the
difference of the two density matrices.  With Bloch vectors m0, m1 that
difference is (m0 - m1).sigma / 2, so the detector-0 projector points along
the unit vector (m0 - m1)/|m0 - m1| and the achievable success probability
is 1/2 + |m0 - m1|/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from povmlearn.bloch import EPS_DEGENERATE, row_norm
from povmlearn.errors import DegenerateEnsemble


@dataclass(frozen=True)
class HelstromResult:
    """Optimal projector axis and success probability."""

    p0_axis: np.ndarray
    success: float


def helstrom(m0, m1) -> HelstromResult:
    """Optimal equal-prior discrimination of Bloch vectors m0 and m1.

    Indistinguishable inputs (|m0 - m1| below the degeneracy tolerance)
    have no optimal axis and raise DegenerateEnsemble.
    """
    m0 = np.asarray(m0, dtype=float)
    m1 = np.asarray(m1, dtype=float)
    diff = m0 - m1
    dist = math.sqrt(diff.dot(diff))
    if dist <= EPS_DEGENERATE:
        raise DegenerateEnsemble(f"states are indistinguishable: |m0 - m1| = {dist:.3g}")
    return HelstromResult(p0_axis=diff / dist, success=0.5 + 0.5 * (0.5 * dist))


def success_equal_priors(m0, m1):
    """Best achievable success probability 1/2 + |m0 - m1|/4 for a 50/50
    mixture of m0 and m1: the success of helstrom(m0, m1), and the same
    formula for pairs helstrom refuses as degenerate.  One per row for rows
    of vectors, each bit for bit the value of its pair alone (row_norm)."""
    diff = np.asarray(m0, dtype=float) - np.asarray(m1, dtype=float)
    return 0.5 + 0.5 * (0.5 * row_norm(diff))

