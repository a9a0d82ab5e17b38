"""Verification batteries: truth in one array pass, instances drawn as one array.

Each battery computes the ground truth of its random instances with one
array call of ensemble_vector, mixture_targets and success_prob per check,
so the number of truth calls does not grow with the instance count;
oracle_battery calls helstrom, the oracle under test, once over all of its
instances, and invariant_battery calls every geometry helper a fixed
number of times.  Every line of oracle_battery fails when the oracle or
its truth is broken by 1e-9.  Each one (count, k) block draw of instance parameters
must equal the interleaved scalar draws it replaced, and numpy's uniform,
bit for bit, which keeps the battery goldens unchanged.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmlearn import selfcheck
from povmlearn.bloch import Plane, row_norm
from povmlearn.decomposition import ensemble_vector

from helpers import patch_oracle, turned_axis

TRUTH = ("ensemble_vector", "mixture_targets", "success_prob")


def count_calls(monkeypatch, names=TRUTH) -> dict[str, int]:
    """Wrap the named functions under their selfcheck names and return the
    live count of calls per name."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(selfcheck, name)

        def counted(*args, _name=name, _fn=fn):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(selfcheck, name, counted)
    return counts


@pytest.mark.parametrize("n_instances", [1, 37, 500])
def test_oracle_battery_calls_each_truth_function_once(monkeypatch, n_instances):
    counts = count_calls(monkeypatch)
    outcomes = selfcheck.oracle_battery(n_instances, seed=5)
    assert all(passed for _, passed, _ in outcomes)
    assert counts == dict.fromkeys(TRUTH, 1)


@pytest.mark.parametrize("n_instances", [1, 37, 500])
def test_oracle_battery_calls_helstrom_once(monkeypatch, n_instances):
    # The perpendicular the oracle axis is checked against is one
    # perp_in_plane call over all instances, and the oracle one helstrom
    # call.
    counts = count_calls(monkeypatch, ("perp_in_plane", "helstrom"))
    outcomes = selfcheck.oracle_battery(n_instances, seed=5)
    assert all(passed for _, passed, _ in outcomes)
    assert counts == {"perp_in_plane": 1, "helstrom": 1}


def failing_lines(n_instances, seed=5) -> set[str]:
    """The names of the oracle battery's lines that fail."""
    return {name for name, passed, _ in selfcheck.oracle_battery(n_instances, seed) if not passed}


# Each line of the oracle battery can fail: the oracle or its truth broken
# by 1e-9, above the battery's 1e-12 tolerance, fails the line that checks
# that property.


@pytest.mark.parametrize("n_instances", [1, 500])
def test_oracle_battery_fails_a_turned_axis(monkeypatch, n_instances):
    patch_oracle(monkeypatch, turned_axis)
    assert failing_lines(n_instances) == {
        "oracle axis is the in-plane perpendicular",
        "detectors balance at the oracle axis",
    }


@pytest.mark.parametrize("n_instances", [1, 500])
def test_oracle_battery_fails_a_shifted_success(monkeypatch, n_instances):
    patch_oracle(monkeypatch, lambda success, axes, m0, m1: (success + 1e-9, axes))
    assert failing_lines(n_instances) == {"oracle success matches the closed form"}


@pytest.mark.parametrize("n_instances", [1, 500])
def test_oracle_battery_fails_unequal_purities(monkeypatch, n_instances):
    real = selfcheck.mixture_targets

    def shrunk_m1(*args):
        m0, m1 = real(*args)
        return m0, (1.0 - 1e-9) * m1

    monkeypatch.setattr(selfcheck, "mixture_targets", shrunk_m1)
    assert "equal-purity of mixture targets" in failing_lines(n_instances)


def reversed_in_gap(success, axes, m0, m1):
    """The same successes, handed out in decreasing order of the state gap."""
    reordered = np.empty_like(success)
    reordered[np.argsort(row_norm(m0 - m1))] = np.sort(success)[::-1]
    return reordered, axes


@pytest.mark.parametrize("n_instances", [1, 2, 37, 500])
def test_oracle_battery_fails_a_success_out_of_gap_order(monkeypatch, n_instances):
    # One instance has no pair to compare, so its line still passes.
    patch_oracle(monkeypatch, reversed_in_gap)
    assert ("success is monotone in the state gap" in failing_lines(n_instances)) == (n_instances > 1)


def test_invariant_battery_calls_truth_once_per_check(monkeypatch):
    counts = count_calls(monkeypatch)
    outcomes = selfcheck.invariant_battery(seed=5)
    assert all(passed for _, passed, _ in outcomes)
    # One instance draw each for the round trip and the nz = 0 slice, one
    # per plane (three) for the branch averages, and the equal-prior
    # instances of the branch ceiling.  mixture_targets: one per plane of
    # the branch averages; success_prob: the branch ceiling at drawn and at
    # equal priors, and the two planes the slice check compares.
    assert counts == {"ensemble_vector": 6, "mixture_targets": 3, "success_prob": 4}


def test_invariant_battery_calls_each_helper_a_fixed_number_of_times(monkeypatch):
    # Every check runs over all of its instances in one array call: the
    # grid and the optimum take three delta_analytic calls, and the branch
    # ceiling one helstrom call per branch at drawn and at equal priors.
    names = ("delta_analytic", "solve_alpha", "perp_in_plane", "wrap_angle", "helstrom")
    counts = count_calls(monkeypatch, names)
    outcomes = selfcheck.invariant_battery(seed=5)
    assert all(passed for _, passed, _ in outcomes)
    assert counts == {"delta_analytic": 3, "solve_alpha": 1, "perp_in_plane": 1, "wrap_angle": 1, "helstrom": 4}


def scalar_instances(rng, count, plane):
    """The interleaved scalar draws of (eta0, theta, direction) and the
    single-value ensemble vector of each instance."""
    rows = []
    for _ in range(count):
        eta0 = rng.uniform(0.05, 0.95)
        theta = rng.uniform(0.05, math.pi - 0.05)
        direction = rng.uniform(0.0, 2.0 * math.pi)
        n, r = ensemble_vector(eta0, theta, direction, plane)
        rows.append((eta0, theta, direction, r, n))
    return rows


# (low, high) of each further draw of invariant_battery: zero detector
# difference, optimal setting and angle wrapping.
BATTERY_DRAWS = (
    ((0.0, 0.0), (2.0 * math.pi, math.pi / 2)),
    ((0.0, 0.0), (2.0 * math.pi, math.pi / 2 - 0.05)),
    ((-20.0,), (20.0,)),
)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 300),
    st.one_of(st.just(None), st.floats(-0.9, 0.9)),
    st.sampled_from(BATTERY_DRAWS),
)
@settings(max_examples=60, deadline=None)
def test_one_array_draw_equals_interleaved_scalar_draws(seed, count, nz, bounds):
    plane = Plane.xz() if nz is None else Plane.const_z(nz)
    rng_rows, rng_one = np.random.default_rng(seed), np.random.default_rng(seed)
    rows = scalar_instances(rng_rows, count, plane)
    eta0, theta, direction, r, n = selfcheck._random_instances(rng_one, count, plane)
    assert eta0.shape == theta.shape == direction.shape == r.shape == (count,) and n.shape == (count, 3)
    for k, (eta0_k, theta_k, direction_k, r_k, n_k) in enumerate(rows):
        assert eta0[k] == eta0_k and theta[k] == theta_k and direction[k] == direction_k
        assert r[k].tobytes() == np.float64(r_k).tobytes() and n[k].tobytes() == n_k.tobytes()
    # The generator is left where the scalar draws leave it.
    assert rng_one.random(4).tobytes() == rng_rows.random(4).tobytes()
    low, high = bounds
    rng_rows, rng_one = np.random.default_rng(seed), np.random.default_rng(seed)
    rows = [[rng_rows.uniform(lo, hi) for lo, hi in zip(low, high)] for _ in range(count)]
    assert selfcheck._block(rng_one, low, high, count).tobytes() == np.array(rows).tobytes()
    assert rng_one.random(4).tobytes() == rng_rows.random(4).tobytes()


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("count", [1, 500, 2000])
@pytest.mark.parametrize("bounds", [selfcheck._INSTANCE, *BATTERY_DRAWS], ids=["instance", "optimum", "setting", "wrap"])
def test_block_draw_is_numpys_uniform_bit_for_bit(seed, count, bounds):
    # low + (high - low) U is the formula numpy's uniform evaluates; a numpy
    # whose uniform fuses the multiply and the add fails here, before any
    # battery golden does.
    low, high = bounds
    rng_block, rng_uniform = np.random.default_rng(seed), np.random.default_rng(seed)
    block = selfcheck._block(rng_block, low, high, count)
    assert block.tobytes() == rng_uniform.uniform(low, high, size=(count, len(low))).tobytes()
    assert rng_block.random() == rng_uniform.random()


def two_norm_axis_match(axis, reference):
    """_axis_match as two separate row_norm calls: the reference of the
    stacked pair."""
    axis, reference = np.asarray(axis, dtype=float), np.asarray(reference, dtype=float)
    return np.minimum(row_norm(axis - reference), row_norm(axis + reference))


def test_axis_match_equals_two_row_norms_bit_for_bit():
    rng = np.random.default_rng(17)
    axis, reference = rng.normal(size=(2, 200, 3))
    # Rows of +-0 components, a zero axis, an exact match and an exact flip.
    axis[:4] = [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], reference[2], -reference[3]]
    reference[:2] = [[-0.0, 0.0, -0.0], [0.0, 0.0, 1.0]]
    xz = axis * [1.0, 0.0, 1.0], reference * [1.0, 0.0, 1.0]
    for a, b in ((axis, reference), xz, (axis, reference[0]), (axis[5], reference[5]), (axis[0], reference[0])):
        got = selfcheck._axis_match(a, b)
        assert got.shape == np.broadcast_shapes(np.shape(a), np.shape(b))[:-1]
        assert got.tobytes() == two_norm_axis_match(a, b).tobytes()
    assert selfcheck._axis_match(axis, reference)[2:4].tolist() == [0.0, 0.0]
