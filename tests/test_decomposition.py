"""Two-branch decomposition, mixture targets, and the axis success formula."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmlearn.bloch import Plane, perp_in_plane, plane_angle, row_norm
from povmlearn.decomposition import (
    cos_theta,
    decompose,
    ensemble_vector,
    learn_axis,
    mixture_targets,
    success_prob,
    two_fold_spec,
)
from povmlearn.ensemble import EnsembleSpec, pauli_axes
from povmlearn.errors import ContractViolation

from helpers import circ_diff, frame_generators

INV_SQRT2 = 0.7071067811865476

consistent_instances = st.tuples(
    st.floats(0.05, 0.95),          # eta0
    st.floats(0.05, math.pi - 0.05),  # theta
    st.floats(0.0, 2 * math.pi),    # direction of n
)


def make_n(eta0, theta, direction):
    # |n|^2 = (eta0 - eta1)^2 + 4 eta0 eta1 cos^2(theta/2), which keeps its
    # precision near theta = pi and eta0 = 1/2.
    eta1 = 1.0 - eta0
    half = math.cos(0.5 * theta)
    q = math.sqrt((eta0 - eta1) * (eta0 - eta1) + 4.0 * eta0 * eta1 * half * half)
    return np.array([q * math.cos(direction), 0.0, q * math.sin(direction)]), q


class TestCosTheta:
    def test_identical_states(self):
        assert cos_theta(1.0, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_right_angle(self):
        assert cos_theta(1.0 / math.sqrt(2), 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_states(self):
        assert cos_theta(0.0, 0.5) == pytest.approx(-1.0, abs=1e-12)

    def test_clamps_small_overshoot(self):
        # |n| = 1.004 puts the raw cosine at 1.016, inside the 0.02 window.
        assert cos_theta(1.004, 0.5, tol=0.02) == 1.0

    def test_large_overshoot_is_nan(self):
        assert math.isnan(cos_theta(1.2, 0.5, tol=0.02))

    def test_rejects_bad_priors(self):
        with pytest.raises(ContractViolation, match=r"^eta0 must lie in \(0, 1\), got 0.0$"):
            cos_theta(0.5, 0.0)

    @given(consistent_instances)
    @settings(max_examples=300)
    def test_inverts_the_norm_relation(self, inst):
        eta0, theta, direction = inst
        n, q = make_n(eta0, theta, direction)
        assert abs(cos_theta(q, eta0) - math.cos(theta)) <= 1e-9
        n_lib, q_lib = ensemble_vector(eta0, theta, direction)
        assert np.array_equal(n_lib, n) and q_lib == q


class TestDecompose:
    def test_reference_case_a(self):
        n0, n1 = decompose([INV_SQRT2, 0, 0], math.pi / 2, 0.5, "A")
        assert np.allclose(n0, [INV_SQRT2, 0, INV_SQRT2], atol=1e-12)
        assert np.allclose(n1, [INV_SQRT2, 0, -INV_SQRT2], atol=1e-12)

    def test_reference_case_b_swaps_at_equal_priors(self):
        n0, n1 = decompose([INV_SQRT2, 0, 0], math.pi / 2, 0.5, "B")
        assert np.allclose(n0, [INV_SQRT2, 0, -INV_SQRT2], atol=1e-12)
        assert np.allclose(n1, [INV_SQRT2, 0, INV_SQRT2], atol=1e-12)

    def test_coincident_states(self):
        # theta = 0 forces |n| = 1: the mixture of two equal unit vectors.
        n = np.array([0.6, 0.0, 0.8])
        for case in ("A", "B"):
            n0, n1 = decompose(n, 0.0, 0.6, case)
            assert np.allclose(n0, n, atol=1e-12)
            assert np.allclose(n1, n, atol=1e-12)

    def test_degenerate_vector_gives_nan_states(self):
        n0, n1 = decompose([0.0, 0.0, 0.0], 1.0, 0.5, "A")
        assert np.isnan(n0[::2]).all() and np.isnan(n1[::2]).all()

    def test_bad_case_rejected(self):
        with pytest.raises(ContractViolation):
            decompose([0.5, 0, 0], 1.0, 0.5, "C")

    def test_bad_case_rows_name_the_first(self):
        # The message is the one the first failing row raises alone.
        n = np.tile([0.5, 0.0, 0.0], (4, 1))
        with pytest.raises(ContractViolation) as alone:
            decompose(n[2], 1.0, 0.5, "C")
        with pytest.raises(ContractViolation) as rows:
            decompose(n, 1.0, 0.5, ["A", "B", "C", "D"])
        assert str(rows.value) == str(alone.value) == "decomposition branch must be 'A' or 'B', got 'C'"

    def test_theta_domain_enforced(self):
        with pytest.raises(ContractViolation):
            decompose([0.5, 0, 0], -0.2, 0.5, "A")

    @given(consistent_instances, st.sampled_from(["A", "B"]))
    @settings(max_examples=300)
    def test_round_trip_unit_and_angle(self, inst, case):
        eta0, theta, direction = inst
        eta1 = 1.0 - eta0
        n, _ = make_n(eta0, theta, direction)
        n0, n1 = decompose(n, theta, eta0, case)
        assert row_norm(eta0 * n0 + eta1 * n1 - n) <= 1e-11
        assert abs(row_norm(n0) - 1.0) <= 1e-11
        assert abs(row_norm(n1) - 1.0) <= 1e-11
        plane = Plane.xz()
        gap = circ_diff(plane_angle(n0, plane), plane_angle(n1, plane))
        assert abs(gap - theta) <= 1e-9

    def test_branches_mirror_about_n(self):
        n, _ = make_n(0.7, 1.1, 0.4)
        a0, a1 = decompose(n, 1.1, 0.7, "A")
        b0, b1 = decompose(n, 1.1, 0.7, "B")
        plane = Plane.xz()
        mid = plane_angle(n, plane)
        assert circ_diff(plane_angle(a0, plane) - mid, mid - plane_angle(b0, plane)) <= 1e-9

    def test_ambiguity_collapse_profile(self):
        n, _ = make_n(0.5, 1.2, 0.4)
        gaps = []
        for delta in (0.0, 0.01, 0.05, 0.1):
            a0, a1 = decompose(n, 1.2, 0.5 + delta, "A")
            b0, b1 = decompose(n, 1.2, 0.5 + delta, "B")
            gaps.append(row_norm(a0 - b1))
        assert gaps[0] <= 1e-12
        assert gaps == sorted(gaps)
        assert gaps[1] > 1e-4


class TestMixtureTargets:
    def test_reference_instance(self):
        m0, m1 = mixture_targets([INV_SQRT2, 0, 0], math.pi / 2, 0.5)
        assert np.allclose(m0, [INV_SQRT2, 0, INV_SQRT2], atol=1e-12)
        assert np.allclose(m1, [INV_SQRT2, 0, -INV_SQRT2], atol=1e-12)

    def test_coincident_states(self):
        n = np.array([0.4, 0.0, 0.2])
        m0, m1 = mixture_targets(n, 0.0, 0.6)
        assert np.allclose(m0, n, atol=1e-15)
        assert np.allclose(m1, n, atol=1e-15)

    def test_equal_priors_yield_pure_targets(self):
        n, _ = make_n(0.5, 0.9, 1.3)
        m0, m1 = mixture_targets(n, 0.9, 0.5)
        n0, n1 = decompose(n, 0.9, 0.5, "A")
        assert row_norm(m0 - n0) <= 1e-12
        assert row_norm(m1 - n1) <= 1e-12

    @given(consistent_instances)
    @settings(max_examples=300)
    def test_equal_purity_and_midpoint(self, inst):
        eta0, theta, direction = inst
        n, _ = make_n(eta0, theta, direction)
        m0, m1 = mixture_targets(n, theta, eta0)
        assert abs(row_norm(m0) - row_norm(m1)) <= 1e-12
        assert row_norm(0.5 * (m0 + m1) - n) <= 1e-12

    def test_targets_average_the_branches(self):
        eta0, theta = 0.65, 1.3
        eta1 = 1.0 - eta0
        n, _ = make_n(eta0, theta, 0.8)
        a, b = (two_fold_spec(eta0, theta, 0.8, case) for case in ("A", "B"))
        m0, m1 = mixture_targets(n, theta, eta0)
        assert row_norm(m0 - (eta0 * a.psi0 + eta1 * b.psi1)) <= 1e-12
        assert row_norm(m1 - (eta1 * a.psi1 + eta0 * b.psi0)) <= 1e-12

    @given(consistent_instances, st.one_of(st.just(None), st.floats(-0.9, 0.9)))
    @settings(max_examples=300)
    def test_closed_form_equals_branch_average_on_both_planes(self, inst, nz):
        # The library builds m0, m1 from the closed form only; the branch
        # average (A.n0 with B.n1, A.n1 with B.n0) is the definition, its
        # pairs built forward from their angles.
        eta0, theta, direction = inst
        eta1 = 1.0 - eta0
        plane = Plane.xz() if nz is None else Plane.const_z(nz)
        _, q = make_n(eta0, theta, direction)
        r = math.sqrt(plane.radius_sq) * q
        n = plane.embed(r * math.cos(direction), r * math.sin(direction))
        a, b = (two_fold_spec(eta0, theta, direction, case, plane) for case in ("A", "B"))
        m0, m1 = mixture_targets(n, theta, eta0, plane)
        assert row_norm(m0 - (eta0 * a.psi0 + eta1 * b.psi1)) <= 1e-12
        assert row_norm(m1 - (eta1 * a.psi1 + eta0 * b.psi0)) <= 1e-12


class TestSuccessProb:
    def test_reference_equal_priors(self):
        assert success_prob(0.5, math.pi / 2, 1 / math.sqrt(2)) == pytest.approx(
            0.8535533905932737, abs=1e-12
        )

    def test_independent_two_state_bound(self):
        # Cross-check against the closed-form minimum-error bound for two
        # pure states with overlap cos(theta/2) at equal priors.
        for theta in (0.3, 1.0, 2.0):
            q = math.sqrt(0.5 + 0.5 * math.cos(theta))
            bound = 0.5 * (1.0 + math.sqrt(1.0 - math.cos(theta / 2) ** 2))
            assert success_prob(0.5, theta, q) == pytest.approx(bound, abs=1e-12)

    def test_indistinguishable_mixtures(self):
        assert success_prob(0.5, 0.0, 1.0) == 0.5

    def test_reference_unequal_priors(self):
        assert success_prob(0.7, math.pi / 2, math.sqrt(0.58)) == pytest.approx(
            0.7757435090054174, abs=1e-12
        )

    def test_degenerate_is_nan(self):
        assert math.isnan(success_prob(0.5, math.pi, 0.0))

    def test_inconsistent_inputs_rejected(self):
        with pytest.raises(ContractViolation):
            success_prob(0.5, math.pi / 2, 0.01)

    def test_small_overshoot_shows_value_and_excess(self):
        # 0.5 + 0.25/|u| = 1 + 1e-8: six significant digits would print 1.
        with pytest.raises(ContractViolation) as err:
            success_prob(0.5, math.pi / 2, 0.25 / (0.5 + 1e-8))
        value = 0.5 + 0.25 / (0.25 / (0.5 + 1e-8))
        assert str(err.value) == (
            f"inconsistent inputs: success probability {value!r} exceeds 1 by {value - 1.0:.3g}"
        )
        assert repr(value).startswith("1.00000001") and f"{value - 1.0:.3g}" == "1e-08"

    @given(consistent_instances)
    @settings(max_examples=300)
    def test_matches_oracle_on_targets(self, inst):
        eta0, theta, direction = inst
        n, q = make_n(eta0, theta, direction)
        m0, m1 = mixture_targets(n, theta, eta0)
        # The oracle bound at equal priors, 1/2 + |m0 - m1|/4 in Bloch form.
        assert abs(success_prob(eta0, theta, q) - (0.5 + 0.25 * row_norm(m0 - m1))) <= 1e-12

    def test_equal_priors_maximize_success_at_fixed_theta(self):
        for theta in (0.5, 1.2, 2.4):
            values = []
            for eta0 in np.linspace(0.05, 0.95, 19):
                eta1 = 1.0 - eta0
                q = math.sqrt(eta0**2 + eta1**2 + 2 * eta0 * eta1 * math.cos(theta))
                values.append(success_prob(eta0, theta, q))
            assert np.argmax(values) == 9  # the midpoint eta0 = 0.5


class TestLearnAxisEqualCounts:
    def test_single_state_directions(self):
        # A single-state ensemble pins one Pauli component exactly; the
        # other still carries coin-flip noise, so allow a few sigma of it.
        spec = EnsembleSpec(1.0, [1, 0, 0], [1, 0, 0], Plane.xz())
        axis, _, _ = learn_axis(spec, pauli_axes(spec.plane), 100_000, frame_generators(0, 2))
        assert np.allclose(axis, [0, 0, 1], atol=0.02)
        spec = EnsembleSpec(1.0, [0, 0, 1], [0, 0, 1], Plane.xz())
        axis, _, _ = learn_axis(spec, pauli_axes(spec.plane), 100_000, frame_generators(0, 2))
        assert np.allclose(axis, [-1, 0, 0], atol=0.02)

    def test_orthogonal_to_estimate_by_construction(self):
        n, _ = make_n(0.6, 1.0, 0.7)
        n0, n1 = decompose(n, 1.0, 0.6, "A")
        spec = EnsembleSpec(0.6, n0, n1, Plane.xz())
        axis, n_hat, _ = learn_axis(spec, pauli_axes(spec.plane), 100_000, frame_generators(1, 2))
        assert abs(row_norm(axis) - 1.0) <= 1e-12
        assert abs(axis[1]) == 0.0
        assert abs(float(np.dot(axis, n_hat))) <= 1e-12

    def test_angular_accuracy_at_large_budget(self):
        n, _ = make_n(0.6, 1.2, 0.54)
        n0, n1 = decompose(n, 1.2, 0.6, "A")
        spec = EnsembleSpec(0.6, n0, n1, Plane.xz())
        target = perp_in_plane(n, Plane.xz())
        hits = 0
        for seed in range(50):
            axis, _, _ = learn_axis(spec, pauli_axes(spec.plane), 1_000_000, frame_generators(seed, 2, first=3))
            err = min(row_norm(axis - target), row_norm(axis + target))
            if err <= 0.01:
                hits += 1
        assert hits >= 49


def stack_then_embed(plane, first, second):
    """Plane.embed's reference: the two coordinates stacked on a last axis,
    copied through the plane's coordinate view into zeroed vectors, then a
    slice's nz."""
    u = np.stack((first, second), axis=-1)
    out = np.zeros(u.shape[:-1] + (3,))
    plane.coords(out)[...] = u
    if plane.kind == "constz":
        out[..., 2] = plane.nz
    return out


class TestEmbed:
    @pytest.mark.parametrize(
        "plane",
        [Plane.xz(), Plane.const_z(-0.45), Plane.const_z(np.linspace(-0.9, 0.9, 40))],
        ids=["xz", "constz", "nz-per-row"],
    )
    def test_equals_stack_then_embed_bit_for_bit(self, plane):
        rng = np.random.default_rng(9)
        first, second = rng.uniform(-0.5, 0.5, size=(2, 40))
        # +-0 and NaN coordinates, as a degenerate row carries.
        first[:4], second[:4] = [0.0, -0.0, np.nan, -0.0], [-0.0, 0.0, np.nan, np.nan]
        out = plane.embed(first, second)
        assert out.shape == (40, 3)
        assert out.tobytes() == stack_then_embed(plane, first, second).tobytes()
        if np.ndim(plane.nz) == 0:
            # Two numbers give one vector, the bits of its row in the columns.
            for k in (0, 1, 3, 7):
                one = plane.embed(first[k], second[k])
                assert one.shape == (3,)
                assert one.tobytes() == stack_then_embed(plane, first[k], second[k]).tobytes() == out[k].tobytes()
