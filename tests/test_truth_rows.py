"""Row truth functions: a batch row equals the single-value call bit for bit.

The ground truth of a run or sweep is computed in one array pass over its
cells.  Each truth function takes one value per row and must give, in every
row, exactly the bits of the single-value call on that row's values.  That
holds on degenerate rows too: a cell with no in-plane direction is NaN
(or keeps its true pair) alone just as in a batch.  The hidden pair is
built forward from a cell's angles, and decompose, the inverse map, is
its reference.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmlearn.bloch import EPS_DEGENERATE, Plane, bloch_from_state_angle, row_norm
from povmlearn.decomposition import (
    EPS_CLAMP,
    cos_theta,
    decompose,
    ensemble_vector,
    equal_prior_cell,
    mixture_targets,
    success_prob,
    two_fold_spec,
)
from povmlearn.errors import ContractViolation
from povmlearn.experiment import two_fold_cell
from povmlearn.helstrom import helstrom

# At theta = pi, |u| = rho |eta0 - eta1|: eta0 = 1/2 + 5e-7 (1 +- 1%) puts it
# about 1% below and above EPS_DEGENERATE on the x-z plane and the nz = 0
# slice, and eta0 = 1/2 puts it at rho cos(pi/2), about 6e-17 in floats.
NEAR_HALF = (0.5 + 4.95e-7, 0.5 + 5.05e-7)
ETA0 = (0.05, 0.3, 0.5, *NEAR_HALF, 0.75, 0.95)
THETA = (0.0, math.pi / 2, math.pi, 1.2)
NZ = (-0.9, 0.0, 0.9)
ALPHA = (0.0, 0.7, 2.0 * math.pi / 3, 4.0 * math.pi / 3, 5.5)
GRID = np.array(list(itertools.product(ETA0, THETA, NZ, ALPHA))).T
CASES = ("A", "B")


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.fixture(scope="module", params=["xz", "constz"])
def grid(request):
    """(eta0, theta, nz, alpha) rows and the plane of each row: the x-z
    plane for every row, or one const-z slice per row."""
    eta0, theta, nz, alpha = GRID
    if request.param == "xz":
        return eta0, theta, alpha, Plane.xz(), [Plane.xz()] * len(eta0)
    return eta0, theta, alpha, Plane.const_z(nz), [Plane.const_z(v) for v in nz]


def test_grid_holds_degenerate_and_threshold_rows(grid):
    eta0, theta, alpha, plane, _ = grid
    _, r = ensemble_vector(eta0, theta, alpha, plane)
    assert (r < 1e-9 * EPS_DEGENERATE).any()
    near = np.abs(r / EPS_DEGENERATE - 1.0) < 0.05
    assert ((r <= EPS_DEGENERATE) & near).any() and ((r > EPS_DEGENERATE) & near).any()


def test_ensemble_vector(grid):
    eta0, theta, alpha, plane, planes = grid
    n, r = ensemble_vector(eta0, theta, alpha, plane)
    for k, p in enumerate(planes):
        n1, r1 = ensemble_vector(eta0[k], theta[k], alpha[k], p)
        assert isinstance(r1, float)
        assert bits(n[k]) == bits(n1) and bits(r[k]) == bits(r1)


def test_mixture_targets_success_prob_and_oracle(grid):
    eta0, theta, alpha, plane, planes = grid
    n, r = ensemble_vector(eta0, theta, alpha, plane)
    m0, m1 = mixture_targets(n, theta, eta0, plane)
    ps = success_prob(eta0, theta, r, plane)
    oracle = helstrom(m0, m1)[0]
    lost = np.isnan(oracle)
    # The equal-prior oracle is 1/2 + |m0 - m1|/4 in Bloch form.
    assert np.abs(oracle - (0.5 + 0.25 * row_norm(m0 - m1)))[~lost].max() <= 1e-15
    assert lost.any() and np.isnan(plane.coords(m0)[lost]).all() and np.isnan(ps[lost]).all()
    for k, p in enumerate(planes):
        one0, one1 = mixture_targets(n[k], theta[k], eta0[k], p)
        ps1 = success_prob(eta0[k], theta[k], r[k], p)
        assert bits(m0[k]) == bits(one0) and bits(m1[k]) == bits(one1)
        assert bits(oracle[k]) == bits(helstrom(one0, one1)[0])
        assert isinstance(ps1, float) and bits(ps[k]) == bits(ps1)


def test_cos_theta(grid):
    # Norms scaled past the slice radius put some rows out of range (NaN).
    eta0, theta, alpha, plane, planes = grid
    _, r = ensemble_vector(eta0, theta, alpha, plane)
    norm = r * np.resize([1.0, 1.05, 1.3], len(r))
    c = cos_theta(norm, eta0, EPS_CLAMP, plane)
    assert 0 < np.isnan(c).sum() < len(c)
    for k, p in enumerate(planes):
        assert bits(c[k]) == bits(cos_theta(norm[k], eta0[k], EPS_CLAMP, p))


@pytest.mark.parametrize("case", ["A", "B", "rows"])
def test_decompose(grid, case):
    eta0, theta, alpha, plane, planes = grid
    n, _ = ensemble_vector(eta0, theta, alpha, plane)
    cases = [CASES[k % 2] for k in range(len(eta0))] if case == "rows" else [case] * len(eta0)
    n0, n1 = decompose(n, theta, eta0, cases if case == "rows" else case, plane)
    assert np.isnan(plane.coords(n0)).any()
    for k, p in enumerate(planes):
        one0, one1 = decompose(n[k], theta[k], eta0[k], cases[k], p)
        assert bits(n0[k]) == bits(one0) and bits(n1[k]) == bits(one1)


def test_two_fold_cell_marks_exactly_the_degenerate_cells(grid):
    eta0, theta, alpha, plane, planes = grid
    analytic, oracle = two_fold_cell(eta0, theta, alpha, plane)
    marked = np.isnan(analytic)
    assert 0 < marked.sum() < len(eta0)
    assert (np.isnan(oracle) == marked).all()
    for k, p in enumerate(planes):
        one = two_fold_cell(eta0[k], theta[k], alpha[k], p)
        assert bits(analytic[k]) == bits(one[0]) and bits(oracle[k]) == bits(one[1])


@pytest.mark.parametrize("case", [*CASES, "rows"])
def test_two_fold_spec_rows(grid, case):
    # Every row of a batch spec, degenerate cells included, has the bits of
    # its cell's spec alone.
    eta0, theta, alpha, plane, planes = grid
    cases = [CASES[(k // 3) % 2] if case == "rows" else case for k in range(len(eta0))]
    spec = two_fold_spec(eta0, theta, alpha, cases if case == "rows" else case, plane)
    for k, p in enumerate(planes):
        one = two_fold_spec(eta0[k], theta[k], alpha[k], cases[k], p)
        assert bits(spec.psi0[k]) == bits(one.psi0) and bits(spec.psi1[k]) == bits(one.psi1)
        assert spec.eta0[k] == one.eta0


@pytest.mark.parametrize("case", CASES)
def test_two_fold_spec_is_the_pair_decompose_recovers(grid, case):
    # On every cell with an ensemble direction, the pair built forward from
    # the cell's angles is the pair decompose recovers from its vector.
    eta0, theta, alpha, plane, _ = grid
    (n, _), (analytic, _) = ensemble_vector(eta0, theta, alpha, plane), two_fold_cell(eta0, theta, alpha, plane)
    kept = ~np.isnan(analytic)
    assert kept.sum() >= 0.9 * len(eta0)
    spec, (n0, n1) = two_fold_spec(eta0, theta, alpha, case, plane), decompose(n, theta, eta0, case, plane)
    assert np.abs(spec.psi0 - n0)[kept].max() <= 1e-14
    assert np.abs(spec.psi1 - n1)[kept].max() <= 1e-14


@pytest.mark.parametrize("case", CASES)
def test_degenerate_cells_keep_a_pure_pair(grid, case):
    # The cells with no ensemble direction (theta = pi at eta0 = 1/2 and at
    # the near-half priors) keep their true pair: pure, in the plane, with
    # a mixture whose in-plane norm is at most EPS_DEGENERATE, and
    # antipodal in the plane at eta0 = 1/2.
    eta0, theta, alpha, plane, _ = grid
    analytic, _ = two_fold_cell(eta0, theta, alpha, plane)
    lost = np.isnan(analytic)
    assert set(theta[lost]) == {math.pi} and {0.5, NEAR_HALF[0]} <= set(eta0[lost]) <= {0.5, *NEAR_HALF}
    spec = two_fold_spec(eta0, theta, alpha, case, plane)
    for psi in (spec.psi0, spec.psi1):
        assert np.abs(row_norm(psi[lost]) - 1.0).max() <= 1e-15
    assert row_norm(plane.coords(spec.mixture)[lost]).max() <= EPS_DEGENERATE
    half = lost & (eta0 == 0.5)
    assert np.abs(plane.coords(spec.psi0 + spec.psi1)[half]).max() <= 1e-15


def test_equal_prior_cell_is_the_pair_at_alpha_plus_minus_beta():
    # The two-fold cell of (alpha, beta) holds state 0 at alpha + beta and
    # state 1 at alpha - beta, over the beta domain's edges and at random.
    rng = np.random.default_rng(11)
    edges = np.array(list(itertools.product(ALPHA, (0.0, 0.3, math.pi / 2)))).T
    alpha, beta = np.concatenate((edges, [rng.uniform(-10.0, 10.0, 5000), rng.uniform(0.0, math.pi / 2, 5000)]), 1)
    eta0, theta, direction, case = equal_prior_cell(alpha, beta)
    assert (eta0 == 0.5).all() and bits(theta) == bits(2.0 * beta) and case == "B"
    spec = two_fold_spec(*equal_prior_cell(alpha, beta))
    assert np.abs(spec.psi0 - bloch_from_state_angle(alpha + beta)).max() <= 1e-13
    assert np.abs(spec.psi1 - bloch_from_state_angle(alpha - beta)).max() <= 1e-13


@given(
    st.floats(-1e-3, 1e-3).map(lambda d: 0.5 + d),
    st.floats(0.0, 1e-3).map(lambda d: math.pi - d),
    st.floats(0.0, 2.0 * math.pi),
    st.one_of(st.just(None), st.floats(-0.9, 0.9)),
)
@settings(max_examples=300)
def test_near_antipodal_cells_build_both_branches(eta0, theta, alpha, nz):
    # Near eta0 = 1/2 and theta = pi, |u| is small and must carry full
    # relative precision: every cell past EPS_DEGENERATE then has a target
    # of at most 1 and decomposes into the pair built forward from its
    # angles, to the unit-norm tolerance (decompose's own error here is
    # about 2e-11).  Every cell, degenerate or not, builds pure states (the
    # spec checks them), and has the bits of its row in a batch.
    plane = Plane.xz() if nz is None else Plane.const_z(nz)
    rows = Plane.xz() if nz is None else Plane.const_z([nz, nz])
    n, r = ensemble_vector(eta0, theta, alpha, plane)
    cell = (np.array([eta0, 0.7]), np.array([theta, 1.0]), np.array([alpha, 0.3]))
    one, batch = two_fold_cell(eta0, theta, alpha, plane), two_fold_cell(*cell, rows)
    assert all(bits(b[0]) == bits(o) for b, o in zip(batch, one))
    analytic, _ = one
    if r <= EPS_DEGENERATE:
        assert np.isnan(analytic)
    else:
        assert analytic == success_prob(eta0, theta, r, plane) <= 1.0
    for case in CASES:
        spec, spec_rows = two_fold_spec(eta0, theta, alpha, case, plane), two_fold_spec(*cell, [case] * 2, rows)
        assert bits(spec_rows.psi0[0]) == bits(spec.psi0) and bits(spec_rows.psi1[0]) == bits(spec.psi1)
        if r > EPS_DEGENERATE:
            n0, n1 = decompose(n, theta, eta0, case, plane)
            assert max(np.abs(n0 - spec.psi0).max(), np.abs(n1 - spec.psi1).max()) <= 1e-9


def test_oracle_on_any_rows():
    rng = np.random.default_rng(3)
    m0, m1 = rng.normal(size=(2, 500, 3))
    rows = helstrom(m0, m1)[0]
    assert np.abs(rows - (0.5 + 0.25 * row_norm(m0 - m1))).max() <= 1e-15
    assert all(bits(rows[k]) == bits(helstrom(m0[k], m1[k])[0]) for k in range(500))


def test_equal_prior_spec_rows():
    alpha, beta = np.array(list(itertools.product(ALPHA, (0.0, 0.3, math.pi / 2)))).T
    spec = two_fold_spec(*equal_prior_cell(alpha, beta))
    assert spec.eta0.shape == alpha.shape and (spec.eta0 == 0.5).all()
    for k in range(len(alpha)):
        one = two_fold_spec(*equal_prior_cell(alpha[k], beta[k]))
        assert one.eta0 == 0.5
        assert bits(spec.psi0[k]) == bits(one.psi0) and bits(spec.psi1[k]) == bits(one.psi1)


def test_batch_contract_errors_still_raise():
    eta0 = np.array([0.6, 0.7])
    theta = np.array([1.0, 1.2])
    n, _ = ensemble_vector(eta0, theta, np.array([0.0, 1.0]))
    # Each refusal names the first bad row; two directions for one prior
    # are two rows, never one state from each.
    with pytest.raises(ContractViolation, match=r"^eta0 must lie in \(0, 1\), got 1.0$"):
        two_fold_spec(np.array([0.6, 1.0, 0.0]), 1.0, 0.0, "A")
    with pytest.raises(ContractViolation, match=r"^theta must lie in \[0, pi\], got 3.5$"):
        two_fold_spec(eta0, np.array([1.0, 3.5]), 0.0, "A")
    with pytest.raises(ContractViolation, match="branch must be 'A' or 'B', got 'C'"):
        two_fold_spec(eta0, theta, 0.0, ["A", "C"])
    with pytest.raises(ContractViolation, match="psi0 must be a Bloch 3-vector per row"):
        two_fold_spec(0.6, 1.0, np.array([0.1, 0.2]), "A")
    with pytest.raises(ContractViolation, match="branch"):
        decompose(n, theta, eta0, ["A", "C"])
    with pytest.raises(ContractViolation, match=r"^theta must lie in \[0, pi\], got 3.5$"):
        mixture_targets(n, np.array([1.0, 3.5]), eta0)
    with pytest.raises(ContractViolation, match="slice radius"):
        mixture_targets(n * np.array([[1.0], [3.0]]), theta, eta0)
    with pytest.raises(ContractViolation, match="exceeds 1"):
        success_prob(eta0, np.array([1.5, 1.5]), np.array([0.5, 0.01]))
