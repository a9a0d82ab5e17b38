"""Holdout classification and scoring conventions."""

import math

import numpy as np
import pytest

from povmlearn.bloch import Plane, bloch_from_state_angle, perp_in_plane
from povmlearn.ensemble import EnsembleSpec, RngStream
from povmlearn.errors import ContractViolation
from povmlearn.evaluate import ConfusionMatrix, classify_holdout, folded_success, score
from povmlearn.helstrom import helstrom


def equal_spec(beta=math.pi / 2, alpha=0.9):
    return EnsembleSpec(
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
        # Swapping the predicted labels (the columns) swaps correct and wrong.
        cm = ConfusionMatrix(np.array([[40, 10], [5, 45]])[:, ::-1])
        assert cm.correct == 15

    def test_rows(self):
        cm = ConfusionMatrix(np.array([[[40, 10], [5, 45]], [[1, 2], [3, 4]]]))
        assert cm.total.tolist() == [100, 10]
        assert cm.correct.tolist() == [85, 5]
        with pytest.raises(ContractViolation):
            ConfusionMatrix(np.zeros((0, 2, 2)))


class TestClassifyHoldout:
    def test_perfect_discrimination(self):
        # Orthogonal states measured along one of them classify perfectly.
        spec = equal_spec(beta=math.pi / 2)
        cm = classify_holdout(spec, spec.psi0, 2000, RngStream(0).generator())
        assert cm.correct == cm.total == 2000

    def test_identical_states_are_chance_level(self):
        spec = equal_spec(beta=0.0)
        axis = perp_in_plane(spec.psi0, Plane.xz())
        cm = classify_holdout(spec, axis, 100_000, RngStream(1).generator())
        assert abs(cm.correct / cm.total - 0.5) <= 5 * math.sqrt(0.25 / cm.total)

    def test_reference_instance(self):
        # Equal priors, separation pi/2: the oracle axis yields about 0.8536
        # under the plus-outcome-means-state-0 convention (not 1 - 0.8536,
        # which would indicate a flipped orientation).
        spec = equal_spec(beta=math.pi / 4)
        _, axis = helstrom(spec.psi0, spec.psi1, spec.eta0)
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

    def test_anti_diagonal_is_full_success(self):
        report = score(ConfusionMatrix(np.array([[0, 50], [50, 0]])), 1.0)
        assert report.empirical_success == 1.0

    def test_orientation_invariance(self):
        # Flipping the axis sign swaps predicted labels; the report of the
        # swapped matrix must agree in empirical success and z-score.
        cm = ConfusionMatrix(np.array([[40, 10], [5, 45]]))
        a = score(cm, 0.8)
        b = score(ConfusionMatrix(cm.counts[:, ::-1]), 0.8)
        assert a.empirical_success == b.empirical_success
        assert a.z_score == b.z_score

    def test_nan_target_rejected(self):
        with pytest.raises(ContractViolation):
            score(ConfusionMatrix(np.array([[1, 0], [0, 1]])), float("nan"))

    def test_z_score_magnitude(self):
        # 60% empirical against a 50% target over 100 draws: the folded
        # success max(X, 1 - X) at p = 1/2 is 1/2 + a half-normal of scale
        # sigma = 0.05, with mean sigma sqrt(2/pi) and sd sigma sqrt(1 - 2/pi).
        cm = ConfusionMatrix(np.array([[30, 20], [20, 30]]))
        report = score(cm, 0.5)
        expected = (0.1 - 0.05 * math.sqrt(2 / math.pi)) / (0.05 * math.sqrt(1 - 2 / math.pi))
        assert report.z_score == pytest.approx(expected, abs=1e-12)


class TestFoldedSuccess:
    def test_half_normal_at_chance(self):
        mean, sd = folded_success(0.5, 100)
        assert mean == pytest.approx(0.5 + 0.05 * math.sqrt(2 / math.pi), abs=1e-15)
        assert sd == pytest.approx(0.05 * math.sqrt(1 - 2 / math.pi), abs=1e-15)

    def test_far_from_chance_is_the_unfolded_normal(self):
        mean, sd = folded_success(0.75, 10_000)
        assert mean == 0.75
        assert sd == pytest.approx(math.sqrt(0.75 * 0.25 / 10_000), rel=1e-9)

    def test_matches_a_numerical_fold(self):
        # Against the folded normal's moments integrated on a fine grid.
        for p, n in [(0.5, 400), (0.505, 10_000), (0.52, 1000), (0.3, 50)]:
            sigma = math.sqrt(p * (1 - p) / n)
            x = np.linspace(p - 12 * sigma, p + 12 * sigma, 200_001)
            w = np.exp(-0.5 * ((x - p) / sigma) ** 2)
            w /= w.sum()
            folded = np.maximum(x, 1 - x)
            mean = float((w * folded).sum())
            sd = math.sqrt(float((w * (folded - mean) ** 2).sum()))
            got = folded_success(p, n)
            assert got[0] == pytest.approx(mean, abs=1e-9)
            assert got[1] == pytest.approx(sd, rel=1e-6)

    def test_zero_variance(self):
        assert folded_success(1.0, 10) == (1.0, 0.0)
        assert folded_success(0.0, 10) == (1.0, 0.0)


class TestScoreRows:
    def test_rows_match_one_at_a_time(self):
        counts = np.array([[[30, 20], [20, 30]], [[40, 10], [5, 45]], [[0, 50], [50, 0]], [[37, 13], [12, 38]]])
        targets = [0.5, 0.8, 1.0, 0.8]
        rows = score(ConfusionMatrix(counts), targets)
        for k, (c, p) in enumerate(zip(counts, targets)):
            one = score(ConfusionMatrix(c), p)
            assert rows.empirical_success[k] == one.empirical_success
            assert rows.z_score[k] == one.z_score

    def test_classify_rows(self):
        spec = equal_spec(beta=0.4)
        rows = EnsembleSpec(np.full(3, 0.5), np.tile(spec.psi0, (3, 1)), np.tile(spec.psi1, (3, 1)),
                            Plane.xz())
        axes = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        cm = classify_holdout(rows, axes, 500, RngStream(4, 9).generator())
        assert cm.counts.shape == (3, 2, 2)
        assert cm.total.tolist() == [500] * 3
