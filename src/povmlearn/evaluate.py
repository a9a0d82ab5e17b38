"""Holdout classification with a learned axis, scored against hidden labels.

The physical task is clustering: a learner fixes a measurement axis, each
held-out qubit is measured once, and the +1 outcome predicts label 0 by the
sign convention of the axis.  Which cluster deserves which name is not
observable, so the report carries both the raw convention success and the
orientation-maximized success with an explicit swap flag; silently
relabeling would hide sign bugs in a learner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from povmlearn.ensemble import EnsembleSpec
from povmlearn.errors import ContractViolation


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts indexed as counts[true_label][predicted_label]."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (2, 2) or counts.min() < 0:
            raise ContractViolation(f"confusion matrix must be 2x2 nonnegative, got {counts}")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def correct(self) -> int:
        return int(self.counts[0, 0] + self.counts[1, 1])

    def swap_predictions(self) -> "ConfusionMatrix":
        return ConfusionMatrix(self.counts[:, ::-1].copy())


@dataclass(frozen=True)
class EvalReport:
    """Holdout score: empirical success is orientation-maximized, the raw
    convention value and the swap flag record how it was reached."""

    confusion: ConfusionMatrix
    empirical_success: float
    analytic_success: float
    z_score: float
    success_raw: float
    swapped: bool


def classify_holdout(
    spec: EnsembleSpec, axis, n_holdout: int, rng: np.random.Generator
) -> ConfusionMatrix:
    """Measure n_holdout fresh qubits along a unit axis (EnsembleSpec.sample)
    and tabulate (hidden label, predicted label) counts; +1 outcomes predict
    label 0."""
    k0, c0_plus, c1_plus = spec.sample(axis, n_holdout, rng, what="classification axis")
    k1 = int(n_holdout) - k0
    return ConfusionMatrix(np.array([[c0_plus, k0 - c0_plus], [c1_plus, k1 - c1_plus]]))


def score(confusion: ConfusionMatrix, analytic_ps: float) -> EvalReport:
    """Score a confusion matrix against an analytic success target.

    The z-score compares the orientation-maximized empirical success to the
    target under its binomial standard deviation; a zero-variance target
    (analytic 0 or 1) yields z = 0 by convention.
    """
    total = confusion.total
    if total < 1:
        raise ContractViolation("cannot score an empty confusion matrix")
    analytic_ps = float(analytic_ps)
    if math.isnan(analytic_ps):
        raise ContractViolation("analytic success target must be a number")
    raw = confusion.correct / total
    swapped = (1.0 - raw) > raw
    empirical = max(raw, 1.0 - raw)
    var = analytic_ps * (1.0 - analytic_ps) / total
    z = 0.0 if var <= 0.0 else (empirical - analytic_ps) / math.sqrt(var)
    return EvalReport(
        confusion=confusion,
        empirical_success=empirical,
        analytic_success=analytic_ps,
        z_score=z,
        success_raw=raw,
        swapped=swapped,
    )
