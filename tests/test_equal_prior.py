"""Angle learner for 50/50 ensembles: detector differences and inversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmlearn.bloch import Plane, bloch_from_state_angle, perp_in_plane
from povmlearn.ensemble import EnsembleSpec, RngStream
from povmlearn.equal_prior import (
    delta_analytic,
    learn_equal_prior,
    povm_axis_from_phi,
    solve_alpha,
    weak_signal_threshold,
)
from povmlearn.errors import ContractViolation, InvalidPriors, WeakSignal
from povmlearn.experiment import equal_prior_ensemble

from helpers import circ_diff

SQRT3_OVER_4 = 0.4330127018922193  # cos(pi/3) * cos(pi/6)


class TestDeltaAnalytic:
    def test_aligned(self):
        assert delta_analytic(0.0, 0.0, 0.0) == 1.0

    def test_vanishes_at_optimum(self):
        for alpha in np.linspace(0.0, 2 * math.pi, 23):
            for beta in (0.1, 0.7, 1.3):
                assert abs(delta_analytic(alpha, beta, 0.5 * alpha + math.pi / 4)) <= 1e-12

    def test_quarter_setting(self):
        value = delta_analytic(math.pi / 2, math.pi / 6, math.pi / 4)
        assert value == pytest.approx(math.cos(math.pi / 6), abs=1e-12)

    def test_reference_instance(self):
        assert delta_analytic(math.pi / 3, math.pi / 6, 0.0) == pytest.approx(
            SQRT3_OVER_4, abs=1e-12
        )

    def test_rows_match_one_at_a_time(self):
        rng = np.random.default_rng(21)
        alpha, beta, phi = rng.uniform([0.0, 0.0, -5.0], [2 * math.pi, math.pi / 2, 5.0], size=(200, 3)).T
        rows = delta_analytic(alpha, beta, phi)
        assert rows.shape == (200,)
        for k in range(200):
            one = delta_analytic(float(alpha[k]), float(beta[k]), float(phi[k]))
            assert rows[k].tobytes() == np.float64(one).tobytes()
        # A shared setting broadcasts against rows of angles.
        assert delta_analytic(alpha, beta, 0.3).tolist() == [
            delta_analytic(float(x), float(y), 0.3) for x, y in zip(alpha, beta)
        ]


class TestPovmAxis:
    def test_zero(self):
        assert np.allclose(povm_axis_from_phi(0.0), [0, 0, 1], atol=1e-15)

    def test_quarter(self):
        assert np.allclose(povm_axis_from_phi(math.pi / 4), [1, 0, 0], atol=1e-12)

    def test_half(self):
        assert np.allclose(povm_axis_from_phi(math.pi / 2), [0, 0, -1], atol=1e-12)


class TestSolveAlpha:
    def test_reference_ratio(self):
        # Forward-evaluated differences at alpha = pi/3, beta = pi/6 must
        # invert back through the two-argument arctangent.
        alpha = solve_alpha(SQRT3_OVER_4, 0.75, 0.0)
        assert circ_diff(alpha, math.pi / 3) <= 1e-12

    def test_zero_tangent_branch(self):
        assert solve_alpha(0.5, 0.0, 0.0) == 0.0

    def test_opposite_branch(self):
        # A negative cosine reading with a zero sine reading is alpha = pi,
        # which a plain scalar arctangent of the ratio cannot distinguish
        # from alpha = 0.
        assert solve_alpha(-0.3, 0.0, 0.0) == pytest.approx(math.pi, abs=1e-12)

    def test_all_quadrants(self):
        for alpha in (0.3, 1.8, 3.5, 5.6):
            d0 = delta_analytic(alpha, 0.4, 0.25)
            d1 = delta_analytic(alpha, 0.4, 0.25 + math.pi / 4)
            assert circ_diff(solve_alpha(d0, d1, 0.25), alpha) <= 1e-12

    def test_weak_signal(self):
        with pytest.raises(WeakSignal):
            solve_alpha(1e-4, -2e-4, 0.0, tau_weak=3e-3)

    @given(
        st.floats(0.0, 2 * math.pi - 1e-9),
        st.floats(0.0, 1.4),
        st.floats(0.0, math.pi),
    )
    @settings(max_examples=300)
    def test_inversion_property(self, alpha, beta, phi0):
        d0 = delta_analytic(alpha, beta, phi0)
        d1 = delta_analytic(alpha, beta, phi0 + math.pi / 4)
        assert circ_diff(solve_alpha(d0, d1, phi0), alpha) <= 1e-9


def estimate_delta(spec, phi, shots, rng):
    """Empirical detector difference at setting phi."""
    return spec.expectation(povm_axis_from_phi(phi), shots, rng)


class TestEstimateDelta:
    def test_orthogonal_states_give_zero_expectation(self):
        spec = equal_prior_ensemble(0.9, math.pi / 2)
        d = estimate_delta(spec, 0.7, 100_000, RngStream(3).generator())
        assert abs(d) <= 5 / math.sqrt(100_000)

    def test_reference_value(self):
        spec = equal_prior_ensemble(math.pi / 3, math.pi / 6)
        d = estimate_delta(spec, 0.0, 1_000_000, RngStream(4).generator())
        assert d == pytest.approx(SQRT3_OVER_4, abs=5e-3)

    def test_matches_closed_form_on_grid(self):
        rng = RngStream(5).generator()
        for alpha, beta, phi in [(0.4, 0.3, 0.1), (2.8, 0.9, 1.2), (5.1, 0.2, 0.6)]:
            spec = equal_prior_ensemble(alpha, beta)
            d = estimate_delta(spec, phi, 200_000, rng)
            assert d == pytest.approx(delta_analytic(alpha, beta, phi), abs=0.012)


class TestLearnEqualPrior:
    def gens(self, seed):
        return (RngStream(seed, 0).generator(), RngStream(seed, 1).generator())

    def test_reference_instance(self):
        spec = equal_prior_ensemble(math.pi / 3, math.pi / 6)
        est = learn_equal_prior(spec, 0.0, 1_000_000, self.gens(0))
        assert abs(est.phi_star - 1.3089969389957472) <= 0.01
        assert circ_diff(est.alpha_hat, math.pi / 3) <= 0.02
        assert est.shots_used == 2_000_000

    def test_consistency_at_large_budget(self):
        for seed, alpha in [(1, 0.5), (2, 2.4), (3, 4.0)]:
            spec = equal_prior_ensemble(alpha, 0.5)
            est = learn_equal_prior(spec, 0.3, 10_000_000, self.gens(seed))
            assert circ_diff(est.alpha_hat, alpha) <= 3e-3

    def test_invariant_phi_star_construction(self):
        spec = equal_prior_ensemble(1.0, 0.4)
        est = learn_equal_prior(spec, 0.2, 50_000, self.gens(7))
        expected = math.fmod(0.5 * est.alpha_hat + math.pi / 4, math.pi)
        assert est.phi_star == pytest.approx(expected, abs=1e-15)

    def test_learned_axis_is_ensemble_perpendicular(self):
        spec = equal_prior_ensemble(2.2, 0.6)
        est = learn_equal_prior(spec, 0.1, 5_000_000, self.gens(8))
        axis = povm_axis_from_phi(est.phi_star)
        perp = perp_in_plane(0.5 * (spec.psi0 + spec.psi1), Plane.xz())
        assert min(np.linalg.norm(axis - perp), np.linalg.norm(axis + perp)) <= 5e-3

    def test_weak_signal_near_orthogonal_states(self):
        spec = equal_prior_ensemble(1.0, 1.45)
        with pytest.raises(WeakSignal):
            learn_equal_prior(spec, 0.0, 400, self.gens(9))

    def test_requires_equal_priors(self):
        spec = EnsembleSpec(
            0.6, bloch_from_state_angle(0.3), bloch_from_state_angle(1.0), Plane.xz()
        )
        with pytest.raises(InvalidPriors):
            learn_equal_prior(spec, 0.0, 100, self.gens(10))

    def test_requires_xz_plane(self):
        plane = Plane.const_z(0.0)
        spec = EnsembleSpec(0.5, [1, 0, 0], [0, 1, 0], plane)
        with pytest.raises(ContractViolation):
            learn_equal_prior(spec, 0.0, 100, self.gens(11))


class TestLearnRows:
    """A batch of ensembles learns one setting per row, as each ensemble
    alone would, and marks weak rows instead of raising."""

    def rows(self, alphas, beta):
        specs = [equal_prior_ensemble(a, beta) for a in alphas]
        half = np.full(len(specs), 0.5)
        return EnsembleSpec(half, [s.psi0 for s in specs], [s.psi1 for s in specs], Plane.xz())

    def test_batch_of_one_matches_single(self):
        one = learn_equal_prior(equal_prior_ensemble(2.2, 0.6), 0.1, 20_000, TestLearnEqualPrior().gens(4))
        rows = learn_equal_prior(self.rows([2.2], 0.6), 0.1, 20_000, TestLearnEqualPrior().gens(4))
        assert (rows.delta0[0], rows.delta1[0]) == (one.delta0, one.delta1)
        assert rows.alpha_hat[0] == pytest.approx(one.alpha_hat, abs=1e-15)
        assert rows.phi_star[0] == pytest.approx(one.phi_star, abs=1e-15)
        assert not rows.weak[0] and rows.shots_used == one.shots_used

    def test_rows_learn_their_own_angle_and_mark_weak_rows(self):
        alphas = [0.5, 2.4, 4.0, 5.9]
        est = learn_equal_prior(self.rows(alphas, 0.5), 0.3, 1_000_000, TestLearnEqualPrior().gens(5))
        assert all(circ_diff(a, b) <= 1e-2 for a, b in zip(est.alpha_hat.tolist(), alphas))
        assert not est.weak.any()
        weak = learn_equal_prior(self.rows([1.0] * 20, 1.45), 0.0, 400, TestLearnEqualPrior().gens(9))
        assert weak.weak.any()
        assert np.all(weak.weak == (np.maximum(np.abs(weak.delta0), np.abs(weak.delta1)) <= 3.0 / 20.0))


class TestWeakSignalThreshold:
    def test_scales_inversely_with_root_shots(self):
        assert weak_signal_threshold(900) == pytest.approx(0.1, abs=1e-15)
