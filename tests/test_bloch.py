"""Geometry layer: angle handling, plane constraints, probabilities, perps."""

import math
import re

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
    any_row,
    bloch_from_state_angle,
    check_unit,
    every_row,
    first_row,
    perp_in_plane,
    plane_angle,
    prob_plus_unchecked,
    reduce_angle,
    row_norm,
    wrap_angle,
)
from povmlearn.decomposition import ensemble_vector, learn_axis, mixture_targets
from povmlearn.ensemble import EnsembleSpec, pauli_axes
from povmlearn.errors import ContractViolation

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
        assert abs(row_norm(bloch_from_state_angle(g)) - 1.0) <= 1e-12


def prob_plus(s, n):
    return prob_plus_unchecked(np.asarray(s, dtype=float), np.asarray(n, dtype=float))


class TestProbPlus:
    """The +1 probability; the checks on its inputs live where the axis and
    the state enter: learn_axis and classify_holdout, and the EnsembleSpec
    constructor."""

    def test_eigenstate(self):
        assert prob_plus([0, 0, 1], [0, 0, 1]) == 1.0

    def test_orthogonal_directions(self):
        assert prob_plus([0, 0, 1], [1, 0, 0]) == 0.5

    def test_oblique(self):
        assert prob_plus([0, 1, 0], [0, 0.6, 0.6]) == pytest.approx(0.8, abs=1e-12)

    def test_nonunit_axis_rejected(self):
        spec = EnsembleSpec(0.5, [0, 0, 1], [0, 0, 1], Plane.xz())
        with pytest.raises(ContractViolation, match="unit length"):
            learn_axis(spec, [[0, 0, 0.5]], 10, [np.random.default_rng(0)])

    def test_unphysical_state_rejected(self):
        with pytest.raises(ContractViolation, match="unit length"):
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
    def test_reduce_keeps_an_angle_within_a_turn(self):
        a = np.array([0.0, -0.0, 1e-300, -3.0, 6.28, -2 * math.pi, 2 * math.pi])
        assert reduce_angle(a).tobytes() == a.tobytes()
        assert reduce_angle(-3.0) == -3.0 and reduce_angle(2 * math.pi) == 2 * math.pi

    def test_reduce_takes_whole_turns_off_a_larger_angle(self):
        a = np.array([1e17, -1e16, 1e300, -1e308, math.nextafter(2 * math.pi, 7.0), 7.0])
        r = reduce_angle(a)
        assert r.tobytes() == np.fmod(a, 2 * math.pi).tobytes()
        assert np.all(np.abs(r) < 2 * math.pi) and np.array_equal(np.signbit(r), np.signbit(a))
        assert reduce_angle(1e17) == math.fmod(1e17, 2 * math.pi)

    @given(angles)
    def test_range_and_identity(self, a):
        w = wrap_angle(a)
        assert 0.0 <= w < 2.0 * math.pi
        assert circ_diff(w, a) <= 1e-9

    def test_negative(self):
        assert wrap_angle(-math.pi / 2) == pytest.approx(1.5 * math.pi, abs=1e-12)

    def test_angle_dist_symmetry(self):
        assert angle_dist(0.1, 2 * math.pi - 0.1) == pytest.approx(0.2, abs=1e-12)

    def test_angle_dist_rows(self):
        a = np.array([0.1, 3.0, -7.0, 12.5])
        b = np.array([2 * math.pi - 0.1, 0.0, 7.0, -0.5])
        rows = angle_dist(a, b)
        assert rows.shape == (4,)
        assert rows.tolist() == [angle_dist(x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert all(0.0 <= d <= math.pi for d in rows)


class TestPlane:
    def test_xz_membership(self):
        plane = Plane.xz()
        assert plane.on_plane([0.3, 0.0, -0.7])
        assert not plane.on_plane([0.3, 0.1, -0.7])

    def test_constz_membership(self):
        plane = Plane.const_z(0.25)
        assert plane.on_plane([0.3, 0.4, 0.25])
        assert not plane.on_plane([0.3, 0.4, 0.0])

    def test_constz_offset_bounds(self):
        with pytest.raises(ContractViolation):
            Plane.const_z(1.0)

    def test_coords_embed_round_trip(self):
        plane = Plane.const_z(-0.4)
        v = np.array([0.1, -0.2, -0.4])
        assert np.allclose(plane.embed(*plane.coords(v)), v, atol=1e-15)


def where_divide_perp(n, plane):
    """perp_in_plane as a where=-divide of the reversed coordinates into a
    view of the zeroed output, then a sign flip: the reference of the
    column-by-column kernel."""
    u = plane.coords(n)
    r = np.hypot(u[..., :1], u[..., 1:])
    out = np.zeros(u.shape[:-1] + (3,))
    w = plane.coords(out)
    np.divide(u[..., ::-1], r, out=w, where=r > EPS_DEGENERATE)
    w[..., 0] *= -1.0
    return out


def perp_inputs(plane, seed=4):
    """Rows in the plane: random ones, then short rows (zero, each sign of
    zero, at and below the degeneracy tolerance, NaN) and one just above."""
    rng = np.random.default_rng(seed)
    radius = np.sqrt(plane.radius_sq)
    u = rng.uniform(-1.0, 1.0, size=(60, 2)) * (radius / math.sqrt(2.0))[..., None]
    above = math.nextafter(EPS_DEGENERATE, 1.0)
    u[:10] = [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [EPS_DEGENERATE, 0.0], [-0.0, -EPS_DEGENERATE],
              [EPS_DEGENERATE / 2, -0.0], [np.nan, 0.5], [above, -0.0], [-0.0, -above]]
    return plane.embed(*u.T)


class TestPerpInPlane:
    @pytest.mark.parametrize(
        "plane",
        [Plane.xz(), Plane.const_z(0.6), Plane.const_z(np.linspace(-0.9, 0.9, 60))],
        ids=["xz", "constz", "nz-per-row"],
    )
    def test_equals_the_where_divide_bit_for_bit(self, plane):
        v = perp_inputs(plane)
        perp = perp_in_plane(v, plane)
        assert perp.tobytes() == where_divide_perp(v, plane).tobytes()
        # The short rows keep the zero vector, with -0.0 first.
        assert not perp[:8].any() and np.signbit(perp[:8, 0]).all()
        for k, row in enumerate(v):
            one = plane if np.ndim(plane.nz) == 0 else Plane.const_z(plane.nz[k])
            assert perp_in_plane(row, one).tobytes() == where_divide_perp(row, one).tobytes() == perp[k].tobytes()

    def test_x_axis(self):
        assert np.allclose(perp_in_plane([1, 0, 0], Plane.xz()), [0, 0, 1], atol=1e-15)

    def test_z_direction(self):
        assert np.allclose(perp_in_plane([0, 0, 0.5], Plane.xz()), [-1, 0, 0], atol=1e-15)

    def test_constz_convention(self):
        assert np.allclose(perp_in_plane([0.3, 0, 0.6], Plane.const_z(0.6)), [0, 1, 0], atol=1e-15)

    def test_degenerate_gives_the_zero_vector(self):
        assert not perp_in_plane([0.0, 0.0, 0.9], Plane.const_z(0.9)).any()
        assert not perp_in_plane([EPS_DEGENERATE / 2, 0.0, 0.0], Plane.xz()).any()

    def test_degenerate_edge_for_one_vector(self):
        # One vector gets the zero vector at in-plane norm <= EPS_DEGENERATE
        # and a unit direction just above it.
        assert not perp_in_plane([0.0, 0.0, EPS_DEGENERATE], Plane.xz()).any()
        above = math.nextafter(EPS_DEGENERATE, 1.0)
        assert perp_in_plane([0.0, 0.0, above], Plane.xz()).tolist() == [-1.0, 0.0, 0.0]

    @given(angles, st.floats(0.01, 1.0))
    @settings(max_examples=200)
    def test_orthogonal_and_unit(self, a, r):
        plane = Plane.xz()
        v = np.array([r * math.cos(a), 0.0, r * math.sin(a)])
        p = perp_in_plane(v, plane)
        assert abs(float(np.dot(p, v))) <= 1e-12
        assert abs(row_norm(p) - 1.0) <= 1e-12

    def test_plus_ninety_orientation(self):
        # The perpendicular is always the +90 degree rotation of the
        # normalized in-plane part, never the -90 one.
        plane = Plane.xz()
        for a in np.linspace(0.0, 2 * math.pi, 37):
            v = np.array([math.cos(a), 0.0, math.sin(a)])
            expected = np.array([-math.sin(a), 0.0, math.cos(a)])
            assert row_norm(perp_in_plane(v, plane) - expected) <= 1e-12


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
        # row_norm gives the batteries their purities and state gaps, which
        # they compare with the closed form: it must equal numpy's value
        # exactly, not merely to rounding.
        assert row_norm(v) == float(np.linalg.norm(np.array(v)))

    def test_rows_equal_their_single_vector_calls_bit_for_bit(self):
        # np.vecdot takes each row's dot product as it takes one vector's, so
        # a batch and a loop over its rows give the same bits.
        rng = np.random.default_rng(3)
        v = rng.normal(size=(2000, 3)) * rng.uniform(1e-3, 1e3, size=(2000, 1))
        s = v / np.linalg.norm(v, axis=1)[:, None]
        n = rng.normal(size=(2000, 3)) / 2.0
        norms, probs = row_norm(v), prob_plus_unchecked(s, n)
        assert norms.shape == probs.shape == (2000,)
        assert norms.tobytes() == np.array([row_norm(row) for row in v]).tobytes()
        assert probs.tobytes() == np.array([prob_plus_unchecked(a, b) for a, b in zip(s, n)]).tobytes()


class TestRowReductions:
    """every_row, any_row and first_row read a single flag, a numpy flag or
    a mask with one flag per row alike."""

    @pytest.mark.parametrize(
        "mask,every,some",
        [
            (True, True, True),
            (False, False, False),
            (np.True_, True, True),
            (np.False_, False, False),
            (np.array(True), True, True),
            (np.array(False), False, False),
            (np.array([True, True]), True, True),
            (np.array([False, True]), False, True),
            (np.array([False, False]), False, False),
        ],
    )
    def test_every_and_any_row(self, mask, every, some):
        assert every_row(mask) is every
        assert any_row(mask) is some

    @pytest.mark.parametrize("mask", [True, np.True_, np.array(True)])
    def test_first_row_of_a_single_flag_is_the_value(self, mask):
        value = np.array([0.5, 0.25, 0.125])
        assert first_row(mask, 0.75) == 0.75
        assert first_row(mask, value) is value

    def test_first_row_of_a_mask_per_row(self):
        mask = np.array([False, True, True])
        assert first_row(mask, np.array([1.0, 2.0, 3.0])) == 2.0
        assert first_row(mask, np.eye(3)).tolist() == [0.0, 1.0, 0.0]
        # A value shared by all rows is given as it is.
        assert first_row(mask, 0.75) == 0.75
        assert first_row(mask, np.array(0.75)) == 0.75

    def test_constz_offset_is_a_read_only_array(self):
        nz = Plane.const_z(0.3).nz
        assert isinstance(nz, np.ndarray) and nz.ndim == 0 and not nz.flags.writeable


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
        return plane.embed(*u.T)

    @pytest.mark.parametrize("plane", [Plane.xz(), Plane.const_z(0.35)], ids=["xz", "constz"])
    def test_perp_and_angle_match_one_at_a_time(self, plane):
        v = self.vectors(plane)
        perp, angle = perp_in_plane(v, plane), plane_angle(v, plane)
        assert not perp[3].any()
        for k, row in enumerate(v):
            assert perp[k].tobytes() == perp_in_plane(row, plane).tobytes()
            assert angle[k] == pytest.approx(plane_angle(row, plane), abs=1e-15)

    def test_plane_with_one_offset_per_row(self):
        nz = np.array([-0.5, 0.0, 0.7])
        plane = Plane.const_z(nz)
        u = np.array([[0.1, 0.2], [0.3, -0.4], [0.0, 0.5]])
        v = plane.embed(*u.T)
        assert v[:, 2].tolist() == nz.tolist()
        assert plane.coords(v).tolist() == u.tolist()
        assert plane.on_plane(v).all()
        assert plane.on_plane(v[::-1]).tolist() == [False, True, False]
        assert plane.radius_sq.tolist() == (1.0 - nz * nz).tolist()
        with pytest.raises(ContractViolation):
            Plane.const_z(np.array([0.2, 1.0]))

    @pytest.mark.parametrize(
        "plane, off_state, offset_axis",
        [(Plane.xz(), [0.0, 1.0, 0.0], UNIT_Y), (Plane.const_z(0.6), [0.0, 0.6, 0.8], UNIT_Z)],
        ids=["xz", "constz"],
    )
    def test_one_plane_refusal_names_the_first_bad_row(self, plane, off_state, offset_axis):
        # A spec's state and decomposition's ensemble vector are refused by
        # Plane.check alone, with one message: a batch names its first row
        # off the plane as that row alone does.  -v is off the plane as v is.
        state = plane.embed(math.sqrt(plane.radius_sq), 0.0)
        n, _ = ensemble_vector(0.6, 1.0, 0.3, plane)
        assert plane.check(state.tolist(), "psi").tolist() == state.tolist()
        off_state, off_n = np.array(off_state), n + 1e-3 * offset_axis
        for v in (off_state, np.array([state, state, off_state, state, -off_state])):
            text = f"psi1 {off_state} does not lie in the {plane.kind} plane"
            with pytest.raises(ContractViolation, match="^" + re.escape(text) + "$"):
                EnsembleSpec(np.full(v.shape[:-1], 0.6)[()], np.broadcast_to(state, v.shape), v, plane)
        for v in (off_n, np.array([n, off_n, n, -off_n])):
            text = f"ensemble vector {off_n} does not lie in the {plane.kind} plane"
            with pytest.raises(ContractViolation, match="^" + re.escape(text) + "$"):
                mixture_targets(v, 1.0, 0.6, plane)

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
