"""Holdout classification and scoring conventions."""

import math

import numpy as np
import pytest

from povmlearn.bloch import Plane, bloch_from_state_angle, perp_in_plane
from povmlearn.ensemble import EnsembleSpec, RngStream, ensemble_bloch
from povmlearn.errors import ContractViolation
from povmlearn.evaluate import ConfusionMatrix, classify_holdout, score
from povmlearn.helstrom import helstrom


def equal_spec(beta=math.pi / 2, alpha=0.9):
    return EnsembleSpec(
        0.5,
        0.5,
        bloch_from_state_angle(alpha + beta),
        bloch_from_state_angle(alpha - beta),
        Plane.xz(),
    )


class TestConfusionMatrix:
    def test_shape_and_sign_enforced(self):
        with pytest.raises(ContractViolation):
            ConfusionMatrix(np.array([[1, 2, 3], [4, 5, 6]]))
        with pytest.raises(ContractViolation):
            ConfusionMatrix(np.array([[1, -2], [3, 4]]))

    def test_totals(self):
        cm = ConfusionMatrix(np.array([[40, 10], [5, 45]]))
        assert cm.total == 100
        assert cm.correct == 85

    def test_swap(self):
        cm = ConfusionMatrix(np.array([[40, 10], [5, 45]])).swap_predictions()
        assert cm.correct == 15


class TestClassifyHoldout:
    def test_perfect_discrimination(self):
        # Orthogonal states measured along one of them classify perfectly.
        spec = equal_spec(beta=math.pi / 2)
        cm = classify_holdout(spec, spec.psi0, 2000, RngStream(0).generator())
        assert cm.correct == cm.total == 2000

    def test_identical_states_are_chance_level(self):
        spec = equal_spec(beta=0.0)
        axis = perp_in_plane(ensemble_bloch(spec), Plane.xz())
        cm = classify_holdout(spec, axis, 100_000, RngStream(1).generator())
        assert abs(cm.correct / cm.total - 0.5) <= 5 * math.sqrt(0.25 / cm.total)

    def test_reference_instance(self):
        # Equal priors, separation pi/2: the oracle axis yields about 0.8536
        # under the plus-outcome-means-state-0 convention (not 1 - 0.8536,
        # which would indicate a flipped orientation).
        spec = equal_spec(beta=math.pi / 4)
        axis = helstrom(0.5 * spec.psi0, 0.5 * spec.psi1).p0_axis
        cm = classify_holdout(spec, axis, 100_000, RngStream(2).generator())
        p = 0.8535533905932737
        assert abs(cm.correct / cm.total - p) <= 5 * math.sqrt(p * (1 - p) / cm.total)

    def test_total_equals_budget(self):
        cm = classify_holdout(equal_spec(), [0, 0, 1], 777, RngStream(3).generator())
        assert cm.total == 777

    def test_determinism(self):
        a = classify_holdout(equal_spec(), [0, 0, 1], 500, RngStream(4, 9).generator())
        b = classify_holdout(equal_spec(), [0, 0, 1], 500, RngStream(4, 9).generator())
        assert np.array_equal(a.counts, b.counts)

    def test_nonunit_axis_rejected(self):
        with pytest.raises(ContractViolation, match="classification axis"):
            classify_holdout(equal_spec(), [0.5, 0, 0], 10, RngStream(0).generator())

    def test_counts_are_the_ensemble_sample(self):
        spec = equal_spec(beta=0.4)
        k0, c0_plus, c1_plus = spec.sample([0, 0, 1], 500, RngStream(4, 9).generator())
        cm = classify_holdout(spec, [0, 0, 1], 500, RngStream(4, 9).generator())
        assert cm.counts.tolist() == [[c0_plus, k0 - c0_plus], [c1_plus, 500 - k0 - c1_plus]]

    def test_empty_holdout_rejected(self):
        with pytest.raises(ContractViolation):
            classify_holdout(equal_spec(), [0, 0, 1], 0, RngStream(0).generator())


class TestScore:
    def test_zero_variance_convention(self):
        report = score(ConfusionMatrix(np.array([[50, 0], [0, 50]])), 1.0)
        assert report.empirical_success == 1.0
        assert report.z_score == 0.0

    def test_within_one_sigma(self):
        cm = ConfusionMatrix(np.array([[37460, 12540], [12460, 37540]]))
        report = score(cm, 0.75)
        assert abs(report.z_score) <= 1.0

    def test_swap_flag_on_anti_diagonal(self):
        report = score(ConfusionMatrix(np.array([[0, 50], [50, 0]])), 1.0)
        assert report.swapped
        assert report.empirical_success == 1.0
        assert report.success_raw == 0.0

    def test_orientation_invariance(self):
        # Flipping the axis sign swaps predicted labels; the report of the
        # swapped matrix must agree in empirical success and z-score.
        cm = ConfusionMatrix(np.array([[40, 10], [5, 45]]))
        a = score(cm, 0.8)
        b = score(cm.swap_predictions(), 0.8)
        assert a.empirical_success == b.empirical_success
        assert a.z_score == b.z_score
        assert a.swapped != b.swapped

    def test_nan_target_rejected(self):
        with pytest.raises(ContractViolation):
            score(ConfusionMatrix(np.array([[1, 0], [0, 1]])), float("nan"))

    def test_z_score_magnitude(self):
        # 60% empirical against a 50% target over 100 draws is exactly 2 sigma.
        cm = ConfusionMatrix(np.array([[30, 20], [20, 30]]))
        report = score(cm, 0.5)
        assert report.z_score == pytest.approx(2.0, abs=1e-12)
