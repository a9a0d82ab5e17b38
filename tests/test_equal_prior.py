"""Angle learning for 50/50 ensembles: detector differences, inversion, and
learn_axis on the x-z frame of two settings a quarter turn apart."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmlearn.bloch import Plane, perp_in_plane
from povmlearn.ensemble import EnsembleSpec, RngStream
from povmlearn.decomposition import (
    delta_analytic,
    equal_prior_cell,
    learn_axis,
    povm_axis_from_phi,
    solve_alpha,
    two_fold_spec,
)

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

    def test_weak_readings_still_get_an_angle(self):
        # The angle of readings inside the noise floor is noise; the engine
        # marks their row weak_signal and reports no angle.
        assert solve_alpha(1e-4, -2e-4, 0.0) == 2.0 * math.pi + math.atan2(-2e-4, 1e-4)

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
    """Empirical detector difference at setting phi: learn_axis's reading
    on the one-axis frame of that setting."""
    return learn_axis(spec, [povm_axis_from_phi(phi)], shots, [rng])[2][0]


class TestEstimateDelta:
    def test_orthogonal_states_give_zero_expectation(self):
        spec = two_fold_spec(*equal_prior_cell(0.9, math.pi / 2))
        d = estimate_delta(spec, 0.7, 100_000, RngStream(3).generator())
        assert abs(d) <= 5 / math.sqrt(100_000)

    def test_reference_value(self):
        spec = two_fold_spec(*equal_prior_cell(math.pi / 3, math.pi / 6))
        d = estimate_delta(spec, 0.0, 1_000_000, RngStream(4).generator())
        assert d == pytest.approx(SQRT3_OVER_4, abs=5e-3)

    def test_matches_closed_form_on_grid(self):
        rng = RngStream(5).generator()
        for alpha, beta, phi in [(0.4, 0.3, 0.1), (2.8, 0.9, 1.2), (5.1, 0.2, 0.6)]:
            spec = two_fold_spec(*equal_prior_cell(alpha, beta))
            d = estimate_delta(spec, phi, 200_000, rng)
            assert d == pytest.approx(delta_analytic(alpha, beta, phi), abs=0.012)


def learn(spec, phi0, shots, seed):
    """The engine's equal-prior learning: learn_axis on the x-z frame of the
    settings phi0 and phi0 + pi/4, its perpendicular turned to the phi*
    orientation.  Returns (axis, delta0, delta1, qubits used)."""
    frame = (povm_axis_from_phi(phi0), povm_axis_from_phi(phi0 + math.pi / 4))
    gens = (RngStream(seed, 0).generator(), RngStream(seed, 1).generator())
    axis, _, readings = learn_axis(spec, frame, shots, gens)
    return 0.0 - axis, readings[..., 0], readings[..., 1], readings.shape[-1] * shots


def phi_star(delta0, delta1, phi0):
    """The optimal setting alpha_hat/2 + pi/4, modulo pi."""
    return np.fmod(0.5 * solve_alpha(delta0, delta1, phi0) + 0.25 * math.pi, math.pi)


class TestLearnEqualPrior:
    """The engine's equal-prior learning, learn_axis on the turned frame."""

    def test_reference_instance(self):
        spec = two_fold_spec(*equal_prior_cell(math.pi / 3, math.pi / 6))
        _, d0, d1, used = learn(spec, 0.0, 1_000_000, 0)
        assert abs(phi_star(d0, d1, 0.0) - 1.3089969389957472) <= 0.01
        assert circ_diff(solve_alpha(d0, d1, 0.0), math.pi / 3) <= 0.02
        assert used == 2_000_000

    def test_consistency_at_large_budget(self):
        for seed, alpha in [(1, 0.5), (2, 2.4), (3, 4.0)]:
            _, d0, d1, _ = learn(two_fold_spec(*equal_prior_cell(alpha, 0.5)), 0.3, 10_000_000, seed)
            assert circ_diff(solve_alpha(d0, d1, 0.3), alpha) <= 3e-3

    def test_invariant_phi_star_construction(self):
        # The negated perpendicular of the frame's estimate is the axis of
        # the setting phi* = alpha_hat/2 + pi/4, to the rounding of the
        # angle arithmetic (1.2e-15 at worst over 300 random instances).
        for seed, alpha, beta, phi0 in [(7, 1.0, 0.4, 0.2), (8, 5.5, 1.2, -0.9), (9, 3.0, 0.1, 2.5)]:
            axis, d0, d1, _ = learn(two_fold_spec(*equal_prior_cell(alpha, beta)), phi0, 50_000, seed)
            assert np.abs(axis - povm_axis_from_phi(phi_star(d0, d1, phi0))).max() <= 1e-14

    def test_learned_axis_is_ensemble_perpendicular(self):
        spec = two_fold_spec(*equal_prior_cell(2.2, 0.6))
        axis, _, _, _ = learn(spec, 0.1, 5_000_000, 8)
        perp = perp_in_plane(0.5 * (spec.psi0 + spec.psi1), Plane.xz())
        assert min(np.linalg.norm(axis - perp), np.linalg.norm(axis + perp)) <= 5e-3

    def test_weak_signal_near_orthogonal_states(self):
        # The readings sit within the noise floor, and still get an angle.
        _, d0, d1, _ = learn(two_fold_spec(*equal_prior_cell(1.0, 1.45)), 0.0, 400, 9)
        assert 0.0 <= solve_alpha(d0, d1, 0.0) < 2.0 * math.pi


class TestLearnRows:
    """A batch of ensembles learns one axis per row, as each ensemble alone
    would."""

    def rows(self, alphas, beta):
        specs = [two_fold_spec(*equal_prior_cell(a, beta)) for a in alphas]
        half = np.full(len(specs), 0.5)
        return EnsembleSpec(half, [s.psi0 for s in specs], [s.psi1 for s in specs], Plane.xz())

    def test_batch_of_one_matches_single(self):
        # A weak ensemble gives its row's noise axis too.
        for alpha, beta, shots, seed in [(2.2, 0.6, 20_000, 4), (1.0, 1.45, 400, 9)]:
            *one, used_one = learn(two_fold_spec(*equal_prior_cell(alpha, beta)), 0.1, shots, seed)
            *rows, used = learn(self.rows([alpha], beta), 0.1, shots, seed)
            for row, single in zip(rows, one):
                assert row[0].tobytes() == np.asarray(single).tobytes()
            assert used == used_one

    def test_rows_learn_their_own_angle(self):
        alphas = [0.5, 2.4, 4.0, 5.9]
        _, d0, d1, _ = learn(self.rows(alphas, 0.5), 0.3, 1_000_000, 5)
        assert all(circ_diff(a, b) <= 1e-2 for a, b in zip(solve_alpha(d0, d1, 0.3).tolist(), alphas))
