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
    prob_plus_unchecked,
    rotate_in_plane,
    wrap_angle,
)
from povmlearn.ensemble import EnsembleSpec, pauli_axes
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


def prob_plus(s, n):
    return prob_plus_unchecked(np.asarray(s, dtype=float), np.asarray(n, dtype=float))


class TestProbPlus:
    """The +1 probability; the checks on its inputs live where the axis and
    the state enter: EnsembleSpec.sample and the EnsembleSpec constructor."""

    def test_eigenstate(self):
        assert prob_plus([0, 0, 1], [0, 0, 1]) == 1.0

    def test_orthogonal_directions(self):
        assert prob_plus([0, 0, 1], [1, 0, 0]) == 0.5

    def test_oblique(self):
        assert prob_plus([0, 1, 0], [0, 0.6, 0.6]) == pytest.approx(0.8, abs=1e-12)

    def test_nonunit_axis_rejected(self):
        spec = EnsembleSpec(0.5, [0, 0, 1], [0, 0, 1], Plane.xz())
        with pytest.raises(ContractViolation, match="unit length"):
            spec.sample([0, 0, 0.5], 10, np.random.default_rng(0))

    def test_unphysical_state_rejected(self):
        with pytest.raises(ContractViolation, match="pure"):
            EnsembleSpec(0.5, [0, 0, 1.5], [0, 0, 1], Plane.xz())

    def test_exact_complement_on_geometric_inputs(self):
        # The +1 and -1 outcome probabilities must sum to 1 exactly for
        # geometry produced the way the library produces it, one pair at a
        # time and row by row.
        rng = np.random.default_rng(4242)
        axes, states = [], []
        for _ in range(2000):
            a = rng.uniform(0.0, 2 * math.pi)
            s = np.array([math.cos(a), 0.0, math.sin(a)])
            r = rng.uniform(0.0, 1.0)
            b = rng.uniform(0.0, 2 * math.pi)
            n = np.array([r * math.cos(b), 0.0, r * math.sin(b)])
            assert prob_plus(s, n) + prob_plus(-s, n) == 1.0
            axes.append(s)
            states.append(n)
        axes, states = np.array(axes), np.array(states)
        assert np.all(prob_plus(axes, states) + prob_plus(-axes, states) == 1.0)


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
        # Every Pauli measurement is made along one of the module's unit
        # vectors; a write through it must not rewrite the axis for the process.
        for plane in (Plane.xz(), Plane.const_z(0.3)):
            axes = pauli_axes(plane)
            assert axes[0] is UNIT_X
            with pytest.raises(ValueError):
                axes[0][0] = 2.0
        assert UNIT_X.tolist() == [1.0, 0.0, 0.0]
        for unit in (UNIT_X, UNIT_Y, UNIT_Z):
            assert not unit.flags.writeable


class TestRows:
    """The geometry functions take one vector per row; each row gets what a
    call on that vector alone gives."""

    def vectors(self, plane, count=50, seed=8):
        rng = np.random.default_rng(seed)
        radius = math.sqrt(plane.radius_sq)
        u = rng.uniform(-radius, radius, size=(count, 2)) / math.sqrt(2.0)
        u[3] = 0.0  # a row with no in-plane direction
        return plane.embed(u)

    @pytest.mark.parametrize("plane", [Plane.xz(), Plane.const_z(0.35)], ids=["xz", "constz"])
    def test_perp_and_angle_match_one_at_a_time(self, plane):
        v = self.vectors(plane)
        perp, angle = perp_in_plane(v, plane), plane_angle(v, plane)
        for k, row in enumerate(v):
            if k == 3:
                with pytest.raises(DegenerateEnsemble):
                    perp_in_plane(row, plane)
                assert not perp[k].any()
                continue
            assert perp[k].tolist() == perp_in_plane(row, plane).tolist()
            assert angle[k] == pytest.approx(plane_angle(row, plane), abs=1e-15)

    def test_plane_with_one_offset_per_row(self):
        nz = np.array([-0.5, 0.0, 0.7])
        plane = Plane.const_z(nz)
        u = np.array([[0.1, 0.2], [0.3, -0.4], [0.0, 0.5]])
        v = plane.embed(u)
        assert v[:, 2].tolist() == nz.tolist()
        assert plane.coords(v).tolist() == u.tolist()
        assert plane.contains(v)
        assert not plane.contains(v[::-1])
        assert plane.embed(u, with_offset=False)[:, 2].tolist() == [0.0, 0.0, 0.0]
        assert plane.radius_sq.tolist() == (1.0 - nz * nz).tolist()
        with pytest.raises(ContractViolation):
            Plane.const_z(np.array([0.2, 1.0]))

    def test_check_unit_checks_every_row(self):
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert check_unit(rows) is not None
        for bad in ([0.0, 0.5, 0.0], [math.nan, 0.0, 0.0]):
            with pytest.raises(ContractViolation, match="probe"):
                check_unit(np.vstack([rows, bad]), "probe")
        with pytest.raises(ContractViolation):
            check_unit([math.nan, 0.0, 0.0])

    def test_wrap_angle_and_state_angle_match_one_at_a_time(self):
        a = np.linspace(-20.0, 20.0, 81)
        assert wrap_angle(a).tolist() == [wrap_angle(x) for x in a.tolist()]
        rows = bloch_from_state_angle(a)
        for g, row in zip(a.tolist(), rows):
            assert row.tolist() == pytest.approx(bloch_from_state_angle(g).tolist(), abs=1e-15)
