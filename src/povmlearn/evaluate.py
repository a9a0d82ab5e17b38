"""Holdout classification with a learned axis, scored against hidden labels.

The physical task is clustering: a learner fixes a measurement axis, each
held-out qubit is measured once, and the +1 outcome predicts label 0 by the
sign convention of the axis.  Which cluster deserves which name is not
observable, so the report scores the orientation-maximized success (the
larger of the convention's success and its complement) and its z-score
against the folded target.

The score needs only how many held-out qubits were classified correctly.
Each is correct independently with one probability (correct_prob), so
classify_holdout draws that count as one binomial per row, from one
generator: the holdout stream of stream layout v4.  No label split or
per-label count is drawn.

Every function takes one classification or a batch of rows, one per row;
a single classification gives numpy scalars, by the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from povmlearn.bloch import any_row, check_domain, check_unit, every_row, first_row, prob_plus_unchecked
from povmlearn.ensemble import EnsembleSpec
from povmlearn.errors import ContractViolation

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class EvalReport:
    """Holdout score: the orientation-maximized empirical success and its
    z-score."""

    empirical_success: float | np.ndarray
    z_score: float | np.ndarray


def correct_prob(spec: EnsembleSpec, axis: np.ndarray):
    """Probability that one fresh labelled member, measured along a unit
    axis, is classified correctly (+1 predicts label 0), one per row for a
    batch:

        eta0 (1 + a.psi0)/2 + eta1 (1 - a.psi1)/2 = (1 + a.(eta0 psi0 - eta1 psi1))/2.

    The axis is not checked (classify_holdout checks it)."""
    eta0 = np.asarray(spec.eta0)[..., None]
    return prob_plus_unchecked(axis, eta0 * spec.psi0 - (1.0 - eta0) * spec.psi1)


def classify_holdout(spec: EnsembleSpec, axis, n_holdout: int, rng: np.random.Generator):
    """Measure n_holdout fresh labelled qubits along a unit axis (one axis
    per row for a batch, or one shared by every row) and return how many
    were classified correctly, one count per row.

    Every qubit is correct independently with probability correct_prob, so
    the count is one draw of Binomial(n_holdout, correct_prob): exactly the
    distribution of drawing the hidden label and then the outcome qubit by
    qubit, from one binomial call on the single generator `rng`.  A shared
    axis is checked once and broadcast over the rows.
    """
    axis = np.asarray(axis, dtype=float)
    if axis.shape != spec.psi0.shape and axis.shape != (3,):
        raise ContractViolation(f"classification axis must be one 3-vector or one per row, got shape {axis.shape}")
    axis = check_unit(axis, "classification axis")
    shots = int(n_holdout)
    check_domain("shots", shots)
    return rng.binomial(shots, correct_prob(spec, axis))


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


def score(correct, n, analytic_ps) -> EvalReport:
    """Score `correct` of n classified qubits (a count, or one per row of a
    batch) against an analytic success target (one per row for a batch).

    The orientation-maximized empirical success is folded at 1/2, so the
    z-score compares it with the mean and sd of the folded normal around the
    target (folded_success), which are computed once per distinct target.
    A zero-variance target (analytic 0 or 1) yields z = 0 by convention.
    """
    n = int(n)
    if n < 1:
        raise ContractViolation(f"cannot score an empty holdout, got n = {n}")
    correct = np.asarray(correct)
    ok = (0 <= correct) & (correct <= n)
    if not every_row(ok):
        raise ContractViolation(f"correct counts must lie in [0, {n}], got {first_row(np.logical_not(ok), correct)}")
    analytic = np.asarray(analytic_ps, dtype=float)
    if any_row(np.isnan(analytic)):
        raise ContractViolation("analytic success target must be a number")
    raw = correct / n
    empirical = np.maximum(raw, 1.0 - raw)
    # Each target's moments, looked up by its place among the distinct ones.
    keys = np.unique(analytic)
    moments = np.array([folded_success(p, n) for p in keys.tolist()])
    mean, sd = moments.T[:, np.searchsorted(keys, analytic)]
    # [()] unwraps the 0-d results of a single classification.
    z = np.divide(empirical - mean, sd, out=np.zeros_like(empirical), where=sd > 0.0)[()]
    return EvalReport(empirical_success=empirical, z_score=z)
