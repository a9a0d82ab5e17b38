"""Holdout classification and scoring conventions."""

import math

import numpy as np
import pytest

from povmlearn.bloch import Plane, bloch_from_state_angle, perp_in_plane
from povmlearn.decomposition import ensemble_vector, two_fold_spec
from povmlearn.ensemble import EnsembleSpec, RngStream
from povmlearn.errors import ContractViolation
from povmlearn.evaluate import classify_holdout, correct_prob, folded_success, score
from povmlearn.experiment import two_fold_cell
from povmlearn.helstrom import helstrom


def equal_spec(beta=math.pi / 2, alpha=0.9):
    return EnsembleSpec(
        0.5,
        bloch_from_state_angle(alpha + beta),
        bloch_from_state_angle(alpha - beta),
        Plane.xz(),
    )


class BinomialRecorder:
    """Stands in for the holdout generator and records each binomial's
    (n, p)."""

    def __init__(self, gen):
        self.gen, self.draws = gen, []

    def binomial(self, n, p):
        self.draws.append((n, p))
        return self.gen.binomial(n, p)


def reference_prob(spec, axis):
    """eta0 (1 + a.psi0)/2 + eta1 (1 - a.psi1)/2 in Python floats: the
    label-0 members answer +1 and the label-1 members -1."""
    a = [float(x) for x in axis]
    d0, d1 = (sum(x * y for x, y in zip(a, psi.tolist())) for psi in (spec.psi0, spec.psi1))
    return spec.eta0 * (1 + d0) / 2 + (1 - spec.eta0) * (1 - d1) / 2


class TestClassifyHoldout:
    def test_perfect_discrimination(self):
        # Orthogonal states measured along one of them classify perfectly.
        spec = equal_spec(beta=math.pi / 2)
        assert classify_holdout(spec, spec.psi0, 2000, RngStream(0).generator()) == 2000

    def test_identical_states_are_chance_level(self):
        spec = equal_spec(beta=0.0)
        axis = perp_in_plane(spec.psi0, Plane.xz())
        correct = classify_holdout(spec, axis, 100_000, RngStream(1).generator())
        assert abs(correct / 100_000 - 0.5) <= 5 * math.sqrt(0.25 / 100_000)

    def test_reference_instance(self):
        # Equal priors, separation pi/2: the oracle axis yields about 0.8536
        # under the plus-outcome-means-state-0 convention (not 1 - 0.8536,
        # which would indicate a flipped orientation).
        spec = equal_spec(beta=math.pi / 4)
        _, axis = helstrom(spec.psi0, spec.psi1, spec.eta0)
        correct = classify_holdout(spec, axis, 100_000, RngStream(2).generator())
        p = 0.8535533905932737
        assert abs(correct / 100_000 - p) <= 5 * math.sqrt(p * (1 - p) / 100_000)

    def test_count_lies_within_budget(self):
        correct = classify_holdout(equal_spec(), [0, 0, 1], 777, RngStream(3).generator())
        assert 0 <= correct <= 777

    def test_determinism(self):
        a = classify_holdout(equal_spec(), [0, 0, 1], 500, RngStream(4, 9).generator())
        b = classify_holdout(equal_spec(), [0, 0, 1], 500, RngStream(4, 9).generator())
        assert a == b

    def test_nonunit_axis_rejected(self):
        with pytest.raises(ContractViolation, match="classification axis"):
            classify_holdout(equal_spec(), [0.5, 0, 0], 10, RngStream(0).generator())

    def test_batch_takes_one_axis_per_row(self):
        # A batch's axis is one 3-vector per row of its spec; one 3-vector
        # for a two-row spec is refused.
        spec = equal_spec()
        rows = EnsembleSpec(np.full(2, 0.5), np.tile(spec.psi0, (2, 1)), np.tile(spec.psi1, (2, 1)), Plane.xz())
        with pytest.raises(ContractViolation, match=r"^classification axis must be one 3-vector per row of the spec, "
                                                    r"got shape \(3,\)$"):
            classify_holdout(rows, [0.0, 0.0, 1.0], 10, RngStream(0).generator())

    def test_count_is_one_binomial_of_the_correct_prob(self):
        # One binomial call of the whole budget, at the labelled two-term
        # probability, on the one generator.
        spec = equal_spec(beta=0.4)
        axis = bloch_from_state_angle(0.3)
        gen = BinomialRecorder(RngStream(4, 9).generator())
        correct = classify_holdout(spec, axis, 500, gen)
        [(n, p)] = gen.draws
        assert n == 500
        assert p == pytest.approx(reference_prob(spec, axis), abs=1e-15)
        assert correct == RngStream(4, 9).generator().binomial(500, p)

    def test_empty_holdout_rejected(self):
        with pytest.raises(ContractViolation):
            classify_holdout(equal_spec(), [0, 0, 1], 0, RngStream(0).generator())


class TestCorrectProb:
    """correct_prob, the probability behind every holdout count."""

    @pytest.mark.parametrize("plane_kind", ["xz", "constz"])
    @pytest.mark.parametrize("case", ["A", "B"])
    def test_folded_prob_at_the_exact_axis_is_the_closed_form(self, plane_kind, case):
        # Along the exact perpendicular of the ensemble vector, the folded
        # probability max(p, 1 - p) is the closed-form optimum success_prob,
        # in either branch of the decomposition.
        rng = np.random.default_rng(5)
        rows = 1000
        eta0 = rng.uniform(0.05, 0.95, rows)
        theta = rng.uniform(0.05, math.pi - 0.05, rows)
        alpha = rng.uniform(0.0, 2 * math.pi, rows)
        plane = Plane.const_z(rng.uniform(-0.9, 0.9, rows)) if plane_kind == "constz" else Plane.xz()
        (n, _), (analytic, _) = ensemble_vector(eta0, theta, alpha, plane), two_fold_cell(eta0, theta, alpha, plane)
        reached = ~np.isnan(analytic)
        assert reached.sum() >= 990
        spec = two_fold_spec(eta0, theta, alpha, np.full(rows, case), plane)
        p = correct_prob(spec, perp_in_plane(n, plane))
        assert np.max(np.abs(np.maximum(p, 1.0 - p) - analytic)[reached]) <= 1e-12

    def test_matches_the_two_term_reference(self):
        spec = EnsembleSpec(0.3, [math.sqrt(0.84), 0, 0.4], [0, math.sqrt(0.84), 0.4], Plane.const_z(0.4))
        for axis in ([0.6, -0.8, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]):
            assert correct_prob(spec, np.array(axis)) == pytest.approx(reference_prob(spec, axis), abs=1e-15)

    def test_count_has_the_binomial_mean_and_variance(self):
        # Over 10^5 rows at one spec and one axis, the correct count's
        # sample mean and variance lie within 5 Monte Carlo standard errors
        # of n p and n p (1 - p), with p the labelled two-term probability.
        pair = equal_spec(beta=0.4)
        spec = EnsembleSpec(0.7, pair.psi0, pair.psi1, Plane.xz())
        axis = bloch_from_state_angle(2.2)
        shots, rows = 50, 100_000
        many = EnsembleSpec(np.full(rows, 0.7), np.tile(spec.psi0, (rows, 1)), np.tile(spec.psi1, (rows, 1)),
                            Plane.xz())
        counts = classify_holdout(many, np.broadcast_to(axis, many.psi0.shape), shots, RngStream(31).generator())
        assert counts.shape == (rows,)
        p = reference_prob(spec, axis)
        mean, var = shots * p, shots * p * (1 - p)
        kurtosis_excess = (1 - 6 * p * (1 - p)) / var
        assert abs(counts.mean() - mean) <= 5 * math.sqrt(var / rows)
        assert abs(counts.var(ddof=1) - var) <= 5 * var * math.sqrt((2 + kurtosis_excess) / rows)


class TestScore:
    def test_zero_variance_convention(self):
        success, z = score(100, 100, 1.0)
        assert success == 1.0
        assert z == 0.0

    def test_within_one_sigma(self):
        _, z = score(75_000, 100_000, 0.75)
        assert abs(z) <= 1.0

    def test_none_correct_is_full_success(self):
        success, _ = score(0, 100, 1.0)
        assert success == 1.0

    def test_orientation_invariance(self):
        # Flipping the axis sign turns every correct qubit into a wrong one;
        # the report of the complement must agree in empirical success and
        # z-score.
        assert score(85, 100, 0.8) == score(15, 100, 0.8)

    def test_nan_target_rejected(self):
        with pytest.raises(ContractViolation):
            score(2, 2, float("nan"))

    def test_counts_outside_the_holdout_rejected(self):
        with pytest.raises(ContractViolation, match=r"^shots must be an integer in \[1, 2\*\*63\), got 0$"):
            score(0, 0, 0.8)
        with pytest.raises(ContractViolation, match=r"\[0, 100\], got 101"):
            score(101, 100, 0.8)
        # A batch names its first bad row.
        with pytest.raises(ContractViolation, match=r"got -3"):
            score(np.array([50, -3, 200]), 100, 0.8)

    def test_z_score_magnitude(self):
        # 60% empirical against a 50% target over 100 draws: the folded
        # success max(X, 1 - X) at p = 1/2 is 1/2 + a half-normal of scale
        # sigma = 0.05, with mean sigma sqrt(2/pi) and sd sigma sqrt(1 - 2/pi).
        _, z = score(60, 100, 0.5)
        expected = (0.1 - 0.05 * math.sqrt(2 / math.pi)) / (0.05 * math.sqrt(1 - 2 / math.pi))
        assert z == pytest.approx(expected, abs=1e-12)


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
        correct = np.array([60, 85, 100, 75, 85])
        targets = [0.5, 0.8, 1.0, 0.8, 0.8]
        success, z = score(correct, 100, targets)
        for k, (c, p) in enumerate(zip(correct, targets)):
            one_success, one_z = score(c, 100, p)
            assert success[k] == one_success
            assert z[k] == one_z
        # A target shared by every row scores as the same target per row.
        shared, per_row = score(correct, 100, 0.8), score(correct, 100, [0.8] * 5)
        assert shared[0].tolist() == per_row[0].tolist()
        assert shared[1].tolist() == per_row[1].tolist()

    def test_classify_rows(self):
        # A batch draws one count per row along its row's axis, in row
        # order, so its leading rows are a shorter batch.
        spec = equal_spec(beta=0.4)

        def rows(count):
            return EnsembleSpec(np.full(count, 0.5), np.tile(spec.psi0, (count, 1)),
                                np.tile(spec.psi1, (count, 1)), Plane.xz())

        axes = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        long = classify_holdout(rows(3), axes, 500, RngStream(4, 9).generator())
        assert long.shape == (3,)
        assert np.all((0 <= long) & (long <= 500))
        assert classify_holdout(rows(2), axes[:2], 500, RngStream(4, 9).generator()).tolist() == long[:2].tolist()
