"""Geometry layer: angle handling, plane constraints, probabilities, perps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmlearn.bloch import (
    EPS_DEGENERATE,
    UNIT_X,
    UNIT_Y,
    UNIT_Z,
    Plane,
    angle_dist,
    bloch_from_state_angle,
    check_unit,
    norm,
    perp_in_plane,
    plane_angle,
    prob_plus,
    rotate_in_plane,
    wrap_angle,
)
from povmlearn.ensemble import EnsembleSpec, estimate_pauli
from povmlearn.errors import ContractViolation, DegenerateEnsemble

from helpers import circ_diff

angles = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
components = st.one_of(st.just(0.0), st.floats(1e-8, 1e2), st.floats(-1e2, -1e-8))


class TestStateAngle:
    def test_north_pole(self):
        assert np.allclose(bloch_from_state_angle(0.0), [0.0, 0.0, 1.0], atol=1e-15)

    def test_south_pole(self):
        assert np.allclose(bloch_from_state_angle(math.pi), [0.0, 0.0, -1.0], atol=1e-15)

    def test_equator(self):
        assert np.allclose(bloch_from_state_angle(math.pi / 2), [1.0, 0.0, 0.0], atol=1e-15)

    @given(angles)
    def test_unit_norm(self, g):
        assert abs(norm(bloch_from_state_angle(g)) - 1.0) <= 1e-12


class TestProbPlus:
    def test_eigenstate(self):
        assert prob_plus([0, 0, 1], [0, 0, 1]) == 1.0

    def test_orthogonal_directions(self):
        assert prob_plus([0, 0, 1], [1, 0, 0]) == 0.5

    def test_oblique(self):
        assert prob_plus([0, 1, 0], [0, 0.6, 0.6]) == pytest.approx(0.8, abs=1e-12)

    def test_nonunit_axis_rejected(self):
        with pytest.raises(ContractViolation):
            prob_plus([0, 0, 0.5], [0, 0, 1])

    def test_unphysical_state_rejected(self):
        with pytest.raises(ContractViolation):
            prob_plus([0, 0, 1], [0, 0, 1.5])

    def test_exact_complement_on_geometric_inputs(self):
        # The +1 and -1 outcome probabilities must sum to 1 exactly for
        # geometry produced the way the library produces it.
        rng = np.random.default_rng(4242)
        for _ in range(2000):
            a = rng.uniform(0.0, 2 * math.pi)
            s = np.array([math.cos(a), 0.0, math.sin(a)])
            r = rng.uniform(0.0, 1.0)
            b = rng.uniform(0.0, 2 * math.pi)
            n = np.array([r * math.cos(b), 0.0, r * math.sin(b)])
            assert prob_plus(s, n) + prob_plus(-s, n) == 1.0


class TestWrapAngle:
    @given(angles)
    def test_range_and_identity(self, a):
        w = wrap_angle(a)
        assert 0.0 <= w < 2.0 * math.pi
        assert circ_diff(w, a) <= 1e-9

    def test_negative(self):
        assert wrap_angle(-math.pi / 2) == pytest.approx(1.5 * math.pi, abs=1e-12)

    def test_angle_dist_symmetry(self):
        assert angle_dist(0.1, 2 * math.pi - 0.1) == pytest.approx(0.2, abs=1e-12)


class TestPlane:
    def test_xz_membership(self):
        plane = Plane.xz()
        assert plane.contains([0.3, 0.0, -0.7])
        assert not plane.contains([0.3, 0.1, -0.7])

    def test_constz_membership(self):
        plane = Plane.const_z(0.25)
        assert plane.contains([0.3, 0.4, 0.25])
        assert not plane.contains([0.3, 0.4, 0.0])

    def test_constz_offset_bounds(self):
        with pytest.raises(ContractViolation):
            Plane.const_z(1.0)

    def test_coords_embed_round_trip(self):
        plane = Plane.const_z(-0.4)
        v = np.array([0.1, -0.2, -0.4])
        assert np.allclose(plane.embed(plane.coords(v)), v, atol=1e-15)

    def test_embed_direction_has_no_offset(self):
        plane = Plane.const_z(0.5)
        assert plane.embed([1.0, 0.0], with_offset=False)[2] == 0.0


class TestRotateInPlane:
    def test_quarter_turn(self):
        out = rotate_in_plane([1, 0, 0], Plane.xz(), math.pi / 2)
        assert np.allclose(out, [0, 0, 1], atol=1e-15)

    def test_quarter_turn_continued(self):
        out = rotate_in_plane([0, 0, 1], Plane.xz(), math.pi / 2)
        assert np.allclose(out, [-1, 0, 0], atol=1e-15)

    def test_identity(self):
        out = rotate_in_plane([0.8, 0, 0.6], Plane.xz(), 0.0)
        assert np.allclose(out, [0.8, 0, 0.6], atol=1e-15)

    def test_out_of_plane_rejected(self):
        with pytest.raises(ContractViolation):
            rotate_in_plane([0.1, 0.5, 0.2], Plane.xz(), 0.3)

    @given(angles, angles, st.floats(0.05, 1.0))
    @settings(max_examples=200)
    def test_composes_additively_and_preserves_norm(self, a, b, r):
        plane = Plane.xz()
        v = np.array([r, 0.0, 0.0])
        once = rotate_in_plane(rotate_in_plane(v, plane, a), plane, b)
        both = rotate_in_plane(v, plane, a + b)
        assert norm(once - both) <= 1e-12 * max(1.0, abs(a) + abs(b))
        assert abs(norm(once) - r) <= 1e-12


class TestPerpInPlane:
    def test_x_axis(self):
        assert np.allclose(perp_in_plane([1, 0, 0], Plane.xz()), [0, 0, 1], atol=1e-15)

    def test_z_direction(self):
        assert np.allclose(perp_in_plane([0, 0, 0.5], Plane.xz()), [-1, 0, 0], atol=1e-15)

    def test_constz_convention(self):
        assert np.allclose(perp_in_plane([0.3, 0, 0.6], Plane.const_z(0.6)), [0, 1, 0], atol=1e-15)

    def test_degenerate(self):
        with pytest.raises(DegenerateEnsemble):
            perp_in_plane([0.0, 0.0, 0.9], Plane.const_z(0.9))
        with pytest.raises(DegenerateEnsemble):
            perp_in_plane([EPS_DEGENERATE / 2, 0.0, 0.0], Plane.xz())

    @given(angles, st.floats(0.01, 1.0))
    @settings(max_examples=200)
    def test_orthogonal_and_unit(self, a, r):
        plane = Plane.xz()
        v = np.array([r * math.cos(a), 0.0, r * math.sin(a)])
        p = perp_in_plane(v, plane)
        assert abs(float(np.dot(p, v))) <= 1e-12
        assert abs(norm(p) - 1.0) <= 1e-12

    def test_plus_ninety_orientation(self):
        # The perpendicular is always the +90 degree rotation of the
        # normalized in-plane part, never the -90 one.
        plane = Plane.xz()
        for a in np.linspace(0.0, 2 * math.pi, 37):
            v = np.array([math.cos(a), 0.0, math.sin(a)])
            expected = rotate_in_plane(v, plane, math.pi / 2)
            assert norm(perp_in_plane(v, plane) - expected) <= 1e-12


class TestPlaneAngle:
    @given(angles, st.floats(0.01, 1.0))
    @settings(max_examples=200)
    def test_round_trip(self, a, r):
        plane = Plane.xz()
        v = np.array([r * math.cos(a), 0.0, r * math.sin(a)])
        assert circ_diff(plane_angle(v, plane), a) <= 1e-9


class TestCheckUnit:
    def test_accepts_unit(self):
        check_unit([1.0, 0.0, 0.0])

    def test_rejects_nonunit(self):
        with pytest.raises(ContractViolation):
            check_unit([1.0, 1.0, 0.0])


class TestNorm:
    @given(st.lists(components, min_size=2, max_size=3))
    @settings(max_examples=200)
    def test_bit_identical_to_numpy(self, v):
        # norm feeds cos_theta and so the cos_theta_out_of_range status:
        # it must equal numpy's value exactly, not merely to rounding.
        assert norm(v) == float(np.linalg.norm(np.array(v)))


class TestUnitVectors:
    def test_read_only_through_measured_batches(self):
        # Every Pauli batch carries one of the module's unit vectors as its
        # axis; a write through it must not rewrite the axis for the process.
        spec = EnsembleSpec(0.5, 0.5, [0, 0, 1], [1, 0, 0], Plane.xz())
        est = estimate_pauli(spec, 10, np.random.default_rng(0))
        assert est.batches[0].axis is UNIT_X
        with pytest.raises(ValueError):
            est.batches[0].axis[0] = 2.0
        assert UNIT_X.tolist() == [1.0, 0.0, 0.0]
        for unit in (UNIT_X, UNIT_Y, UNIT_Z):
            assert not unit.flags.writeable
