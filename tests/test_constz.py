"""Constant-z slice: the shared decomposition functions on Plane.const_z(nz).

The slice has no functions of its own; these cases run decomposition.py
with a plane argument and compare the nz = 0 slice against the x-z plane.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmlearn.bloch import Plane, row_norm
from povmlearn.decomposition import (
    cos_theta,
    decompose,
    ensemble_vector,
    learn_axis,
    mixture_targets,
    success_prob,
)
from povmlearn.ensemble import EnsembleSpec, pauli_axes
from povmlearn.errors import ContractViolation
from povmlearn.helstrom import success_equal_priors

from helpers import frame_generators

slice_instances = st.tuples(
    st.floats(0.05, 0.95),            # eta0
    st.floats(0.05, math.pi - 0.05),  # theta
    st.floats(0.0, 2 * math.pi),      # direction of the in-plane part
    st.floats(-0.9, 0.9),             # nz
)


def make_n(eta0, theta, direction, nz):
    """Slice plane, ensemble vector (in-plane part plus nz along z), and |r|."""
    eta1 = 1.0 - eta0
    half = math.cos(0.5 * theta)
    q = math.sqrt((eta0 - eta1) * (eta0 - eta1) + 4.0 * eta0 * eta1 * half * half)
    r_norm = math.sqrt(1.0 - nz * nz) * q
    n = np.array([r_norm * math.cos(direction), r_norm * math.sin(direction), nz])
    return Plane.const_z(nz), n, r_norm


class TestConstZFrame:
    def test_radius(self):
        assert Plane.const_z(0.6).radius_sq == pytest.approx(0.64, abs=1e-12)

    def test_from_bloch(self):
        plane = Plane.const_z(0.5)
        assert plane.on_plane([0.1, 0.2, 0.5])
        assert np.allclose(plane.coords([0.1, 0.2, 0.5]), [0.1, 0.2], atol=1e-15)

    def test_rejects_out_of_plane_r(self):
        with pytest.raises(ContractViolation):
            decompose([0.1, 0.2, 0.3], 1.0, 0.5, "A", Plane.const_z(0.5))
        with pytest.raises(ContractViolation):
            mixture_targets([0.1, 0.2, 0.3], 1.0, 0.5, Plane.const_z(0.5))

    def test_rejects_r_beyond_slice_radius(self):
        with pytest.raises(ContractViolation):
            decompose([0.9, 0.0, 0.8], 1.0, 0.5, "A", Plane.const_z(0.8))
        with pytest.raises(ContractViolation):
            mixture_targets([0.9, 0.0, 0.8], 1.0, 0.5, Plane.const_z(0.8))

    def test_rejects_bad_offset(self):
        with pytest.raises(ContractViolation):
            Plane.const_z(1.0)


class TestCosThetaZ:
    def test_reference_right_angle(self):
        value = cos_theta(0.8 / math.sqrt(2), 0.5, plane=Plane.const_z(0.6))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_coincident_states_give_exactly_one(self):
        # With both states equal, |r| is the full slice radius and the
        # separation cosine must be exactly 1; the variant of this formula
        # without the factor 2 in the denominator would return 2 here.
        for nz in (0.0, 0.3, -0.7):
            for eta0 in (0.5, 0.6, 0.8):
                r_norm = math.sqrt(1.0 - nz * nz)
                value = cos_theta(r_norm, eta0, plane=Plane.const_z(nz))
                assert value == 1.0
                assert value != 2.0

    def test_reduces_to_plane_formula_at_zero_offset(self):
        # Norms above |eta0 - eta1| = 0.4 are reachable for both priors.
        for r_norm in (0.45, 0.62, 0.95):
            for eta0 in (0.5, 0.7):
                assert cos_theta(r_norm, eta0, plane=Plane.const_z(0.0)) == cos_theta(
                    r_norm, eta0, plane=Plane.xz()
                )

    def test_out_of_range_is_nan(self):
        assert math.isnan(cos_theta(0.99, 0.5, plane=Plane.const_z(0.6)))

    @given(slice_instances)
    @settings(max_examples=300)
    def test_inverts_the_norm_relation(self, inst):
        eta0, theta, direction, nz = inst
        plane, n, r_norm = make_n(eta0, theta, direction, nz)
        assert abs(cos_theta(r_norm, eta0, plane=plane) - math.cos(theta)) <= 1e-8
        n_lib, r_lib = ensemble_vector(eta0, theta, direction, plane)
        assert np.array_equal(n_lib, n) and r_lib == r_norm


class TestDecomposeConstZ:
    @given(slice_instances, st.sampled_from(["A", "B"]))
    @settings(max_examples=300)
    def test_round_trip_and_unit(self, inst, case):
        eta0, theta, direction, nz = inst
        eta1 = 1.0 - eta0
        plane, n, _ = make_n(eta0, theta, direction, nz)
        pair = decompose(n, theta, eta0, case, plane)
        assert row_norm(eta0 * pair.n0 + eta1 * pair.n1 - n) <= 1e-11
        assert abs(row_norm(pair.n0) - 1.0) <= 1e-11
        assert abs(row_norm(pair.n1) - 1.0) <= 1e-11
        assert pair.n0[2] == pytest.approx(nz, abs=1e-12)
        assert pair.n1[2] == pytest.approx(nz, abs=1e-12)

    def test_coincident_states(self):
        pair = decompose([0.8, 0.0, 0.6], 0.0, 0.7, "A", Plane.const_z(0.6))
        assert np.allclose(pair.n0, [0.8, 0.0, 0.6], atol=1e-12)
        assert np.allclose(pair.n1, [0.8, 0.0, 0.6], atol=1e-12)

    def test_zero_offset_matches_plane_decomposition_bitwise(self):
        for eta0, theta, direction in [(0.6, 1.0, 0.3), (0.8, 2.2, 4.1), (0.5, 0.4, 5.9)]:
            plane, m, _ = make_n(eta0, theta, direction, 0.0)
            n = np.array([m[0], 0.0, m[1]])
            for case in ("A", "B"):
                flat = decompose(n, theta, eta0, case, Plane.xz())
                sliced = decompose(m, theta, eta0, case, plane)
                assert sliced.n0[0] == flat.n0[0] and sliced.n0[1] == flat.n0[2]
                assert sliced.n1[0] == flat.n1[0] and sliced.n1[1] == flat.n1[2]
                assert sliced.n0[2] == 0.0 and sliced.n1[2] == 0.0

    def test_degenerate_gives_nan_states_on_the_slice(self):
        pair = decompose([0.0, 0.0, 0.5], 1.0, 0.5, "A", Plane.const_z(0.5))
        for state in (pair.n0, pair.n1):
            assert np.isnan(state[:2]).all() and state[2] == 0.5


class TestMixtureTargetsConstZ:
    def test_coincident_states(self):
        # theta = 0 forces |r| to sit at the slice radius.
        radius = math.sqrt(1.0 - 0.3 * 0.3)
        direction = np.array([0.5, 0.2, 0.0]) / row_norm(np.array([0.5, 0.2, 0.0]))
        full = radius * direction + np.array([0.0, 0.0, 0.3])
        t = mixture_targets(full, 0.0, 0.6, Plane.const_z(0.3))
        assert row_norm(t.m0 - full) <= 1e-12
        assert row_norm(t.m1 - full) <= 1e-12

    def test_zero_offset_matches_plane_targets(self):
        plane, m, _ = make_n(0.65, 1.1, 0.9, 0.0)
        n = np.array([m[0], 0.0, m[1]])
        flat = mixture_targets(n, 1.1, 0.65, Plane.xz())
        sliced = mixture_targets(m, 1.1, 0.65, plane)
        assert sliced.m0[0] == flat.m0[0] and sliced.m0[1] == flat.m0[2]
        assert sliced.m1[0] == flat.m1[0] and sliced.m1[1] == flat.m1[2]
        assert sliced.m0[2] == 0.0 and sliced.m1[2] == 0.0

    def test_equal_priors_yield_branch_state(self):
        plane, n, _ = make_n(0.5, 0.8, 0.2, 0.4)
        t = mixture_targets(n, 0.8, 0.5, plane)
        pair = decompose(n, 0.8, 0.5, "A", plane)
        assert row_norm(t.m0 - pair.n0) <= 1e-12

    @given(slice_instances)
    @settings(max_examples=200)
    def test_equal_purity_and_common_offset(self, inst):
        eta0, theta, direction, nz = inst
        plane, n, _ = make_n(eta0, theta, direction, nz)
        t = mixture_targets(n, theta, eta0, plane)
        assert abs(row_norm(t.m0) - row_norm(t.m1)) <= 1e-12
        assert t.m0[2] == pytest.approx(nz, abs=1e-12)
        assert t.m1[2] == pytest.approx(nz, abs=1e-12)


class TestSuccessProbConstZ:
    @given(slice_instances)
    @settings(max_examples=200)
    def test_matches_oracle_on_slice_targets(self, inst):
        eta0, theta, direction, nz = inst
        plane, n, r_norm = make_n(eta0, theta, direction, nz)
        t = mixture_targets(n, theta, eta0, plane)
        ours = success_prob(eta0, theta, r_norm, plane)
        assert abs(ours - success_equal_priors(t.m0, t.m1)) <= 1e-12

    def test_zero_offset_reduction(self):
        assert success_prob(0.6, 1.0, 0.55, Plane.const_z(0.0)) == success_prob(
            0.6, 1.0, 0.55, Plane.xz()
        )

    def test_degenerate_is_nan(self):
        assert math.isnan(success_prob(0.5, 1.0, 0.0, Plane.const_z(0.3)))


class TestLearnAxisConstZ:
    def test_cardinal_directions(self):
        # r along +x maps to the +y axis, r along +y to the -x axis, by the
        # +90 degree rotation convention; tight at a large shot budget.
        r = math.sqrt(1 - 0.36)
        spec = EnsembleSpec(1.0, [r, 0, 0.6], [r, 0, 0.6], Plane.const_z(0.6))
        axis, _, _ = learn_axis(spec, pauli_axes(spec.plane), 100_000, frame_generators(0, 3))
        assert np.allclose(axis, [0, 1, 0], atol=0.02)
        spec = EnsembleSpec(1.0, [0, r, 0.6], [0, r, 0.6], Plane.const_z(0.6))
        axis, _, _ = learn_axis(spec, pauli_axes(spec.plane), 100_000, frame_generators(0, 3))
        assert np.allclose(axis, [-1, 0, 0], atol=0.02)

    def test_axis_properties(self):
        plane, n, _ = make_n(0.6, 1.0, 0.7, 0.4)
        pair = decompose(n, 1.0, 0.6, "A", plane)
        spec = EnsembleSpec(0.6, pair.n0, pair.n1, plane)
        axis, n_hat, _ = learn_axis(spec, pauli_axes(spec.plane), 100_000, frame_generators(5, 3))
        assert axis[2] == 0.0
        assert abs(row_norm(axis) - 1.0) <= 1e-12
        # The slice learner measures z as a third axis and keeps the reading.
        assert abs(n_hat[2] - 0.4) <= 5.0 / math.sqrt(100_000)
