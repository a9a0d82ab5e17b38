"""Minimum-error oracle: Helstrom's measurement from the closed-form spectrum
of eta0 rho0 - eta1 rho1, for one pair or for rows of pairs, checked against
LAPACK's eigh of the same matrices."""

import importlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from povmlearn.bloch import EPS_DEGENERATE, check_unit, row_norm
from povmlearn.helstrom import _density_matrix, helstrom

# The module itself: the package exports the function under its name.
HELSTROM_MODULE = importlib.import_module("povmlearn.helstrom")

INV_SQRT2 = 0.7071067811865476


def from_spherical(point):
    """The Bloch vector of (radius, cos polar angle, azimuth)."""
    radius, c, azimuth = point
    s = math.sqrt(1.0 - c * c)
    return radius * np.array([s * math.cos(azimuth), s * math.sin(azimuth), c])


# Bloch vectors |m| <= 1, mixed states included.
BLOCH_BALL = st.tuples(st.floats(0.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * math.pi)).map(from_spherical)

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def pauli_sum(n):
    """rho = (I + x sigma_x + y sigma_y + z sigma_z)/2 as a sum of Pauli
    products, one matrix per row: the reference of the entry-by-entry rho."""
    n = np.asarray(n, dtype=float)
    x, y, z = (n[..., k, None, None] for k in range(3))
    return 0.5 * (np.eye(2, dtype=complex) + x * PAULI[0] + y * PAULI[1] + z * PAULI[2])


def bloch_form(m0, m1):
    """Equal-prior success 1/2 + |m0 - m1|/4 in Bloch form."""
    diff = np.asarray(m0, dtype=float) - np.asarray(m1, dtype=float)
    return 0.5 + 0.25 * math.sqrt(diff.dot(diff))


def lapack_helstrom(m0, m1, eta0):
    """(success, axis, gap) per row from np.linalg.eigh of Gamma = eta0 rho0
    - (1 - eta0) rho1: the axis is the Bloch vector of the eigenvector of
    larger eigenvalue."""
    rho0, rho1 = (0.5 * (np.eye(2) + np.einsum("rk,kij->rij", m, PAULI)) for m in (m0, m1))
    eta0 = eta0[:, None, None]
    lam, vec = np.linalg.eigh(eta0 * rho0 - (1.0 - eta0) * rho1)
    a, b = vec[:, 0, 1], vec[:, 1, 1]
    ab = a.conj() * b
    axis = np.stack((2.0 * ab.real, 2.0 * ab.imag, np.abs(a) ** 2 - np.abs(b) ** 2), axis=-1)
    return 0.5 * (1.0 + np.abs(lam).sum(axis=1)), axis, lam[:, 1] - lam[:, 0]


class TestHelstrom:
    def test_orthogonal_pure_states(self):
        success, axis = helstrom([0, 0, 1], [0, 0, -1])
        assert np.allclose(axis, [0, 0, 1], atol=1e-15)
        assert success == pytest.approx(1.0, abs=1e-12)

    def test_reference_instance(self):
        # Mixture targets of the equal-prior pair at separation pi/2.
        success, axis = helstrom([INV_SQRT2, 0, INV_SQRT2], [INV_SQRT2, 0, -INV_SQRT2])
        assert np.allclose(axis, [0, 0, 1], atol=1e-12)
        assert success == pytest.approx(0.8535533905932737, abs=1e-12)

    def test_indistinguishable_limit(self):
        success, _ = helstrom([0.3, 0, 0.2], [0.3, 0, 0.2 + 5e-5])
        assert success == pytest.approx(0.5, abs=1e-4)

    def test_coincident_pair_has_half_and_the_zero_axis(self):
        # Gamma = 0: no eigenvalue gap, so no axis, and no division by r = 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            success, axis = helstrom([0.3, 0, 0.2], [0.3, 0, 0.2])
            assert success == 0.5 and axis.tolist() == [0.0, 0.0, 0.0]
            success, axis = helstrom([0.1, 0, 0], [0.1, 0, 0])
            assert success == 0.5 and axis.tolist() == [0.0, 0.0, 0.0]

    def test_gap_within_tolerance_has_the_zero_axis(self):
        # Eigenvalue gap 5e-7, below EPS_DEGENERATE: the zero axis, and the
        # trace-norm success of the pair.
        m0, m1 = [0.3, 0.1, 0.2], [0.3, 0.1, 0.2 + 1e-6]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            success, axis = helstrom(m0, m1)
        assert axis.tolist() == [0.0, 0.0, 0.0]
        assert success == pytest.approx(0.5 + 2.5e-7, abs=1e-15)

    def test_nan_pair_has_nan_success_and_the_zero_axis(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            success, axis = helstrom([math.nan, 0, 0.2], [0.3, 0, 0.2])
        assert math.isnan(success) and axis.tolist() == [0.0, 0.0, 0.0]

    def test_equal_prior_success_is_the_bloch_form(self):
        for m0, m1 in (([0, 0, 1], [0, 0, -1]), ([0.1, 0, 0], [0.1, 0, 0]), ([0.6, 0, 0.3], [-0.2, 0, 0.5])):
            assert helstrom(m0, m1)[0] == pytest.approx(bloch_form(m0, m1), abs=1e-15)

    def test_monotone_in_separation(self):
        base = np.array([0.2, 0.0, 0.1])
        gap = np.linspace(0.01, 0.6, 20)[:, None] * [0, 0, 1]
        success, _ = helstrom(base + gap, base - gap)
        assert np.all(success[1:] >= success[:-1] - 1e-15)

    def test_unequal_priors_match_the_trace_norm(self):
        # Gamma = ((eta0 - eta1) I + v.sigma)/2 with v = eta0 m0 - eta1 m1
        # has eigenvalues ((eta0 - eta1) +- |v|)/2, so the success is
        # (1 + max(|eta0 - eta1|, |v|))/2 and the axis is v/|v|.
        rng = np.random.default_rng(11)
        m0, m1 = rng.uniform(-0.57, 0.57, size=(2, 500, 3))
        eta0 = rng.uniform(0.05, 0.95, size=500)
        v = eta0[:, None] * m0 - (1.0 - eta0)[:, None] * m1
        v_norm = np.linalg.norm(v, axis=1)
        success, axis = helstrom(m0, m1, eta0)
        assert np.abs(success - 0.5 * (1.0 + np.maximum(np.abs(2.0 * eta0 - 1.0), v_norm))).max() <= 1e-15
        assert np.abs(axis - v / v_norm[:, None]).max() <= 1e-12

    def test_degenerate_rows_have_the_bits_of_their_pair(self):
        rows0 = np.tile([0.3, 0.1, 0.2], (6, 1))
        rows1 = rows0 + [0.0, 0.4, 0.0]
        rows1[2] = rows0[2] + [0.0, 0.0, 1e-6]  # eigenvalue gap 5e-7
        rows1[4] = rows0[4]  # eigenvalue gap 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            success, axis = helstrom(rows0, rows1)
            for k in range(6):
                one_success, one_axis = helstrom(rows0[k], rows1[k])
                assert success[k].tobytes() == one_success.tobytes() and axis[k].tobytes() == one_axis.tobytes()
        assert axis[2].tolist() == axis[4].tolist() == [0.0, 0.0, 0.0] and success[4] == 0.5
        assert np.all(np.abs(row_norm(axis[[0, 1, 3, 5]]) - 1.0) <= 1e-15)


@given(BLOCH_BALL, BLOCH_BALL)
@settings(max_examples=200, deadline=None)
def test_complex_gamma_matches_the_bloch_form(m0, m1):
    # y components that differ make Gamma's off-diagonal entries complex.
    assume(m0[1] != m1[1])
    diff = m0 - m1
    dist = math.sqrt(diff.dot(diff))
    assume(dist >= 1e-3)
    success, axis = helstrom(m0, m1)
    assert abs(success - bloch_form(m0, m1)) <= 1e-15
    assert np.abs(axis - diff / dist).max() <= 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.booleans())
@settings(max_examples=40, deadline=None)
def test_each_row_has_the_bits_of_its_pair(seed, count, row_priors):
    rng = np.random.default_rng(seed)
    m0, m1 = rng.uniform(-0.57, 0.57, size=(2, count, 3))
    eta0 = rng.uniform(0.05, 0.95, size=count) if row_priors else 0.3
    success, axis = helstrom(m0, m1, eta0)
    assert success.shape == (count,) and axis.shape == (count, 3)
    for k in range(count):
        one_success, one_axis = helstrom(m0[k], m1[k], eta0[k] if row_priors else eta0)
        assert one_success.tobytes() == success[k].tobytes() and one_axis.tobytes() == axis[k].tobytes()


# Rows of (m0, m1, eta0) whose y components differ, so every Gamma has a
# complex off-diagonal entry.
COMPLEX_ROWS = st.lists(
    st.tuples(BLOCH_BALL, BLOCH_BALL, st.floats(0.01, 0.99)).filter(lambda row: row[0][1] != row[1][1]),
    min_size=1, max_size=8)


@given(COMPLEX_ROWS)
@settings(max_examples=300, deadline=None)
def test_closed_form_matches_lapack_eigh(rows):
    m0, m1 = (np.array([row[k] for row in rows]) for k in (0, 1))
    eta0 = np.array([row[2] for row in rows])
    ref_success, ref_axis, ref_gap = lapack_helstrom(m0, m1, eta0)
    # Every row's success, degenerate rows too; the axis where the gap is
    # wide enough to fix it.
    success, axis = helstrom(m0, m1, eta0)
    assert np.abs(success - ref_success).max() <= 1e-15
    wide = ref_gap >= 1e-3
    assert np.abs(axis[wide] - ref_axis[wide]).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("eta0", [0.5, 0.3, 0.8])
def test_axis_is_unit_and_along_v_down_to_the_degeneracy_tolerance(eta0):
    # Gamma = ((eta0 - eta1) I + v.sigma)/2 has eigenvalue gap |v|, and its
    # axis is v/|v|; both orders of the pair give opposite v.
    gap = np.geomspace(1.001 * EPS_DEGENERATE, 1e-3, 60)
    direction = np.array([0.48, -0.6, 0.64])
    m0 = np.tile([0.2, 0.3, -0.1], (gap.size, 1))
    m1 = (eta0 * m0 - gap[:, None] * direction) / (1.0 - eta0)
    for first, second, prior in ((m0, m1, eta0), (m1, m0, 1.0 - eta0)):
        v = prior * first - (1.0 - prior) * second
        v_norm = np.linalg.norm(v, axis=1)
        _, axis = helstrom(first, second, prior)
        check_unit(axis, "helstrom axis")
        assert np.all(np.abs(axis - v / v_norm[:, None]).max(axis=1) <= 1e-15 / gap)


def test_no_linear_algebra_call(monkeypatch):
    class NoLinalg:
        def __getattr__(self, name):
            raise AssertionError(f"helstrom called np.linalg.{name}")

    rng = np.random.default_rng(5)
    m0, m1 = rng.uniform(-0.57, 0.57, size=(2, 20, 3))
    expected = helstrom(m0, m1, 0.3)
    monkeypatch.setattr(np, "linalg", NoLinalg())
    success, axis = helstrom(m0, m1, 0.3)
    assert np.array_equal(success, expected[0]) and np.array_equal(axis, expected[1])


def density_matrix_inputs():
    """Bloch vectors for the rho kernel: rows from the ball, x-z rows, rows
    with +-0 and zero components, and one vector alone."""
    rng = np.random.default_rng(21)
    ball = rng.uniform(-0.57, 0.57, size=(200, 3))
    xz = ball.copy()
    xz[:, 1] = 0.0
    signed_zeros = np.array([[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [-0.0, 0.3, 0.0], [0.4, -0.0, -0.2], [0.0, 0.0, 1.0]])
    return {"ball": ball, "xz": xz, "signed-zeros": signed_zeros, "one": ball[0], "one-zero": np.array([-0.0, 0.0, -0.0])}


@pytest.mark.parametrize("name", list(density_matrix_inputs()))
def test_density_matrix_equals_the_pauli_sum(name):
    # Bit for bit, save that a -0.0 component may give a zero entry of the
    # other sign.
    n = density_matrix_inputs()[name]
    rho, reference = _density_matrix(n), pauli_sum(n)
    assert rho.dtype == complex and rho.shape == n.shape[:-1] + (2, 2)
    assert np.array_equal(rho, reference)
    if not np.signbit(n[n == 0.0]).any():
        assert rho.tobytes() == reference.tobytes()


@pytest.mark.parametrize("name", ["ball", "xz", "one"])
@pytest.mark.parametrize("eta0", [0.5, 0.3])
def test_helstrom_keeps_its_bits_over_the_pauli_sum(monkeypatch, name, eta0):
    n = density_matrix_inputs()[name]
    m0, m1 = n, 0.9 * n[..., ::-1]
    success, axis = helstrom(m0, m1, eta0)
    monkeypatch.setattr(HELSTROM_MODULE, "_density_matrix", pauli_sum)
    ref_success, ref_axis = helstrom(m0, m1, eta0)
    assert success.tobytes() == ref_success.tobytes() and axis.tobytes() == ref_axis.tobytes()
