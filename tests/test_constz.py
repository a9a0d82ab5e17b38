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
from povmlearn.experiment import ExperimentConfig, render_results, run_experiment
from povmlearn.helstrom import helstrom

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
        n0, n1 = decompose(n, theta, eta0, case, plane)
        assert row_norm(eta0 * n0 + eta1 * n1 - n) <= 1e-11
        assert abs(row_norm(n0) - 1.0) <= 1e-11
        assert abs(row_norm(n1) - 1.0) <= 1e-11
        assert n0[2] == pytest.approx(nz, abs=1e-12)
        assert n1[2] == pytest.approx(nz, abs=1e-12)

    def test_coincident_states(self):
        n0, n1 = decompose([0.8, 0.0, 0.6], 0.0, 0.7, "A", Plane.const_z(0.6))
        assert np.allclose(n0, [0.8, 0.0, 0.6], atol=1e-12)
        assert np.allclose(n1, [0.8, 0.0, 0.6], atol=1e-12)

    def test_zero_offset_matches_plane_decomposition_bitwise(self):
        for eta0, theta, direction in [(0.6, 1.0, 0.3), (0.8, 2.2, 4.1), (0.5, 0.4, 5.9)]:
            plane, m, _ = make_n(eta0, theta, direction, 0.0)
            n = np.array([m[0], 0.0, m[1]])
            for case in ("A", "B"):
                flat0, flat1 = decompose(n, theta, eta0, case, Plane.xz())
                sliced0, sliced1 = decompose(m, theta, eta0, case, plane)
                assert sliced0[0] == flat0[0] and sliced0[1] == flat0[2]
                assert sliced1[0] == flat1[0] and sliced1[1] == flat1[2]
                assert sliced0[2] == 0.0 and sliced1[2] == 0.0

    def test_degenerate_gives_nan_states_on_the_slice(self):
        n0, n1 = decompose([0.0, 0.0, 0.5], 1.0, 0.5, "A", Plane.const_z(0.5))
        for state in (n0, n1):
            assert np.isnan(state[:2]).all() and state[2] == 0.5


class TestMixtureTargetsConstZ:
    def test_coincident_states(self):
        # theta = 0 forces |r| to sit at the slice radius.
        radius = math.sqrt(1.0 - 0.3 * 0.3)
        direction = np.array([0.5, 0.2, 0.0]) / row_norm(np.array([0.5, 0.2, 0.0]))
        full = radius * direction + np.array([0.0, 0.0, 0.3])
        m0, m1 = mixture_targets(full, 0.0, 0.6, Plane.const_z(0.3))
        assert row_norm(m0 - full) <= 1e-12
        assert row_norm(m1 - full) <= 1e-12

    def test_zero_offset_matches_plane_targets(self):
        plane, m, _ = make_n(0.65, 1.1, 0.9, 0.0)
        n = np.array([m[0], 0.0, m[1]])
        flat0, flat1 = mixture_targets(n, 1.1, 0.65, Plane.xz())
        sliced0, sliced1 = mixture_targets(m, 1.1, 0.65, plane)
        assert sliced0[0] == flat0[0] and sliced0[1] == flat0[2]
        assert sliced1[0] == flat1[0] and sliced1[1] == flat1[2]
        assert sliced0[2] == 0.0 and sliced1[2] == 0.0

    def test_equal_priors_yield_branch_state(self):
        plane, n, _ = make_n(0.5, 0.8, 0.2, 0.4)
        m0, m1 = mixture_targets(n, 0.8, 0.5, plane)
        n0, n1 = decompose(n, 0.8, 0.5, "A", plane)
        assert row_norm(m0 - n0) <= 1e-12

    @given(slice_instances)
    @settings(max_examples=200)
    def test_equal_purity_and_common_offset(self, inst):
        eta0, theta, direction, nz = inst
        plane, n, _ = make_n(eta0, theta, direction, nz)
        m0, m1 = mixture_targets(n, theta, eta0, plane)
        assert abs(row_norm(m0) - row_norm(m1)) <= 1e-12
        assert m0[2] == pytest.approx(nz, abs=1e-12)
        assert m1[2] == pytest.approx(nz, abs=1e-12)


class TestSuccessProbConstZ:
    @given(slice_instances)
    @settings(max_examples=200)
    def test_matches_oracle_on_slice_targets(self, inst):
        eta0, theta, direction, nz = inst
        plane, n, r_norm = make_n(eta0, theta, direction, nz)
        m0, m1 = mixture_targets(n, theta, eta0, plane)
        ours = success_prob(eta0, theta, r_norm, plane)
        # Helstrom at equal priors: 1/2 + |m0 - m1|/4 in Bloch form.
        assert abs(ours - (0.5 + 0.25 * row_norm(m0 - m1))) <= 1e-12
        assert abs(ours - helstrom(m0, m1)[0]) <= 1e-12

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
        n0, n1 = decompose(n, 1.0, 0.6, "A", plane)
        spec = EnsembleSpec(0.6, n0, n1, plane)
        axis, n_hat, _ = learn_axis(spec, pauli_axes(spec.plane), 100_000, frame_generators(5, 3))
        assert axis[2] == 0.0
        assert abs(row_norm(axis) - 1.0) <= 1e-12
        # The slice learner measures z as a third axis and keeps the reading.
        assert abs(n_hat[2] - 0.4) <= 5.0 / math.sqrt(100_000)


@pytest.mark.parametrize("eta0, theta", [(0.6, 1.2), (0.55, 3.1)])
@pytest.mark.parametrize("nz", [0.3, 0.9])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mirrored_slice_writes_the_same_cells_but_n_z(seed, nz, eta0, theta):
    # Mirroring the slice through z = 0 flips the states' z component, which
    # the in-plane axis does not see, and the z reading, drawn from its own
    # stream and not used; all else reads nz through 1 - nz*nz.  Both runs
    # do the same arithmetic, so every CSV cell but n_z is equal on any CPU,
    # a -0.0 included, since the rendered text is compared.
    def columns(offset):
        config = ExperimentConfig(scenario="const-z", eta0=eta0, theta=theta, nz=offset, shots_learn=2000,
                                  shots_holdout=500, trials=50, seed=seed)
        header, *rows = render_results(run_experiment(config)).splitlines()
        return dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))

    plus, minus = columns(nz), columns(-nz)
    assert (plus.pop("n_z"), minus.pop("n_z")) == ((repr(nz),) * 50, (repr(-nz),) * 50)
    for name in plus:
        assert minus[name] == plus[name], name
