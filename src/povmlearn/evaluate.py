"""Holdout classification with a learned axis, scored against hidden labels.

The physical task is clustering: a learner fixes a measurement axis, each
held-out qubit is measured once, and the +1 outcome predicts label 0 by the
sign convention of the axis.  Which cluster deserves which name is not
observable, so the report scores the orientation-maximized success (the
larger of the convention's success and its complement) and its z-score
against the folded target.

Every function takes one classification or a batch of rows, one per row;
a single classification gives numpy scalars, by the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from povmlearn.ensemble import EnsembleSpec
from povmlearn.errors import ContractViolation

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts indexed as counts[..., true_label, predicted_label], one 2x2
    matrix per row for a batch."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim not in (2, 3) or counts.shape[-2:] != (2, 2) or counts.size == 0 or counts.min() < 0:
            raise ContractViolation(f"confusion matrix must be 2x2 nonnegative, got {counts}")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self):
        return self.counts.sum(axis=(-2, -1))

    @property
    def correct(self):
        return self.counts[..., 0, 0] + self.counts[..., 1, 1]


@dataclass(frozen=True)
class EvalReport:
    """Holdout score: the orientation-maximized empirical success and its
    z-score."""

    empirical_success: float | np.ndarray
    z_score: float | np.ndarray


def classify_holdout(spec: EnsembleSpec, axis, n_holdout: int, rng) -> ConfusionMatrix:
    """Measure n_holdout fresh qubits along a unit axis (EnsembleSpec.sample,
    one axis per row for a batch) and tabulate (hidden label, predicted
    label) counts; +1 outcomes predict label 0."""
    k0, c0_plus, c1_plus = spec.sample(axis, n_holdout, rng, what="classification axis")
    k1 = int(n_holdout) - k0
    counts = np.stack((c0_plus, k0 - c0_plus, c1_plus, k1 - c1_plus), axis=-1)
    return ConfusionMatrix(counts.reshape(counts.shape[:-1] + (2, 2)))


def folded_success(p: float, n: int) -> tuple[float, float]:
    """Mean and standard deviation of the orientation-maximized success
    max(X, 1 - X) when X, the raw success over n qubits, is normal with
    mean p and variance p(1 - p)/n.

    With Y = X - 1/2 ~ N(delta, sigma^2) and delta = p - 1/2, max(X, 1 - X)
    = 1/2 + |Y|, whose folded-normal mean is
    E|Y| = sigma sqrt(2/pi) exp(-delta^2/(2 sigma^2)) + delta erf(delta/(sigma sqrt 2))
    and variance delta^2 + sigma^2 - (E|Y|)^2.  A zero-variance target
    (p = 0 or 1) has sd 0.
    """
    delta = p - 0.5
    var = p * (1.0 - p) / n
    if var <= 0.0:
        return 0.5 + abs(delta), 0.0
    sigma = math.sqrt(var)
    a = delta / sigma
    mean_abs = sigma * _SQRT_2_OVER_PI * math.exp(-0.5 * a * a) + delta * math.erf(a / math.sqrt(2.0))
    return 0.5 + mean_abs, math.sqrt(max(delta * delta + var - mean_abs * mean_abs, 0.0))


def score(confusion: ConfusionMatrix, analytic_ps) -> EvalReport:
    """Score a confusion matrix against an analytic success target (one per
    row for a batch).

    The orientation-maximized empirical success is folded at 1/2, so the
    z-score compares it with the mean and sd of the folded normal around the
    target (folded_success), which are computed once per distinct (target,
    holdout size).  A zero-variance target (analytic 0 or 1) yields z = 0 by
    convention.
    """
    total = confusion.total
    if (total < 1).any():
        raise ContractViolation("cannot score an empty confusion matrix")
    analytic = np.asarray(analytic_ps, dtype=float)
    if np.isnan(analytic).any():
        raise ContractViolation("analytic success target must be a number")
    raw = confusion.correct / total
    empirical = np.maximum(raw, 1.0 - raw)
    # Group the rows by (target, holdout size), held exactly as the real and
    # imaginary parts of one complex key.
    keys, row_key = np.unique(np.broadcast_to(analytic, raw.shape) + 1j * total, return_inverse=True)
    moments = np.array([folded_success(k.real, int(k.imag)) for k in keys.tolist()])
    mean, sd = moments.T[:, row_key.reshape(raw.shape)]
    # [()] unwraps the 0-d results of a single classification.
    z = np.divide(empirical - mean, sd, out=np.zeros_like(empirical), where=sd > 0.0)[()]
    return EvalReport(empirical_success=empirical, z_score=z)
