"""Row truth functions: a batch row equals the single-value call bit for bit.

The ground truth of a run or sweep is computed in one array pass over its
cells.  Each truth function takes one value per row and must give, in every
row, exactly the bits of the single-value call on that row's values.  That
holds on degenerate rows too: a cell with no in-plane direction is NaN
(or gets the placeholder pair) alone just as in a batch.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmlearn.bloch import EPS_DEGENERATE, Plane
from povmlearn.decomposition import EPS_CLAMP, cos_theta, decompose, ensemble_vector, mixture_targets, success_prob
from povmlearn.errors import ContractViolation
from povmlearn.experiment import equal_prior_ensemble, two_fold_cell, two_fold_spec
from povmlearn.helstrom import success_equal_priors

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
    t = mixture_targets(n, theta, eta0, plane)
    ps = success_prob(eta0, theta, r, plane)
    oracle = success_equal_priors(t.m0, t.m1)
    lost = np.isnan(oracle)
    assert lost.any() and np.isnan(plane.coords(t.m0)[lost]).all() and np.isnan(ps[lost]).all()
    for k, p in enumerate(planes):
        t1 = mixture_targets(n[k], theta[k], eta0[k], p)
        ps1 = success_prob(eta0[k], theta[k], r[k], p)
        assert bits(t.m0[k]) == bits(t1.m0) and bits(t.m1[k]) == bits(t1.m1)
        assert bits(oracle[k]) == bits(success_equal_priors(t1.m0, t1.m1))
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
    pair = decompose(n, theta, eta0, cases if case == "rows" else case, plane)
    assert np.isnan(plane.coords(pair.n0)).any()
    for k, p in enumerate(planes):
        one = decompose(n[k], theta[k], eta0[k], cases[k], p)
        assert bits(pair.n0[k]) == bits(one.n0) and bits(pair.n1[k]) == bits(one.n1)


def test_two_fold_cell_marks_exactly_the_degenerate_cells(grid):
    eta0, theta, alpha, plane, planes = grid
    n, analytic, oracle = two_fold_cell(eta0, theta, alpha, plane)
    marked = np.isnan(analytic)
    assert 0 < marked.sum() < len(eta0)
    assert (np.isnan(oracle) == marked).all()
    assert np.isnan(plane.coords(n)[marked]).all()
    for k, p in enumerate(planes):
        one = two_fold_cell(eta0[k], theta[k], alpha[k], p)
        assert bits(n[k]) == bits(one[0])
        assert bits(analytic[k]) == bits(one[1]) and bits(oracle[k]) == bits(one[2])


def test_two_fold_spec_rows_and_placeholder(grid):
    # Every cell of the grid, the near-half ones at theta = pi included,
    # builds a spec whose states are pure to the spec's tolerance.
    eta0, theta, alpha, plane, planes = grid
    n, analytic, _ = two_fold_cell(eta0, theta, alpha, plane)
    cases = [CASES[(k // 3) % 2] for k in range(len(eta0))]
    spec = two_fold_spec(n, eta0, theta, cases, plane)
    assert np.isnan(analytic).any()
    for k, p in enumerate(planes):
        if np.isnan(analytic[k]):
            spot = p.embed([math.sqrt(p.radius_sq), 0.0])
            assert bits(spec.psi0[k]) == bits(spot) and bits(spec.psi1[k]) == bits(spot)
        one = two_fold_spec(two_fold_cell(eta0[k], theta[k], alpha[k], p)[0], eta0[k], theta[k], cases[k], p)
        assert bits(spec.psi0[k]) == bits(one.psi0) and bits(spec.psi1[k]) == bits(one.psi1)
        assert spec.eta0[k] == one.eta0


@given(
    st.floats(-1e-3, 1e-3).map(lambda d: 0.5 + d),
    st.floats(0.0, 1e-3).map(lambda d: math.pi - d),
    st.floats(0.0, 2.0 * math.pi),
    st.one_of(st.just(None), st.floats(-0.9, 0.9)),
)
@settings(max_examples=300)
def test_near_antipodal_cells_build_both_branches(eta0, theta, alpha, nz):
    # Near eta0 = 1/2 and theta = pi, |u| is small and must carry full
    # relative precision: every cell past EPS_DEGENERATE then decomposes
    # into unit states (the spec checks them) with a target of at most 1.
    # Every cell, degenerate or not, has the bits of its row in a batch.
    plane = Plane.xz() if nz is None else Plane.const_z(nz)
    rows = Plane.xz() if nz is None else Plane.const_z([nz, nz])
    _, r = ensemble_vector(eta0, theta, alpha, plane)
    cell = (np.array([eta0, 0.7]), np.array([theta, 1.0]))
    one, batch = two_fold_cell(eta0, theta, alpha, plane), two_fold_cell(*cell, np.array([alpha, 0.3]), rows)
    assert all(bits(b[0]) == bits(o) for b, o in zip(batch, one))
    n, analytic, _ = one
    if r <= EPS_DEGENERATE:
        assert np.isnan(analytic)
    else:
        assert analytic == success_prob(eta0, theta, r, plane) <= 1.0
    for case in CASES:
        spec, spec_rows = two_fold_spec(n, eta0, theta, case, plane), two_fold_spec(batch[0], *cell, [case] * 2, rows)
        assert bits(spec_rows.psi0[0]) == bits(spec.psi0) and bits(spec_rows.psi1[0]) == bits(spec.psi1)


def test_success_equal_priors_on_any_rows():
    rng = np.random.default_rng(3)
    m0, m1 = rng.normal(size=(2, 500, 3))
    rows = success_equal_priors(m0, m1)
    assert all(bits(rows[k]) == bits(success_equal_priors(m0[k], m1[k])) for k in range(500))


def test_equal_prior_ensemble_rows():
    alpha, beta = np.array(list(itertools.product(ALPHA, (0.0, 0.3, math.pi / 2)))).T
    spec = equal_prior_ensemble(alpha, beta)
    assert spec.eta0.shape == alpha.shape and (spec.eta0 == 0.5).all()
    for k in range(len(alpha)):
        one = equal_prior_ensemble(alpha[k], beta[k])
        assert one.eta0 == 0.5
        assert bits(spec.psi0[k]) == bits(one.psi0) and bits(spec.psi1[k]) == bits(one.psi1)


def test_batch_contract_errors_still_raise():
    eta0 = np.array([0.6, 0.7])
    theta = np.array([1.0, 1.2])
    n, _, _ = two_fold_cell(eta0, theta, np.array([0.0, 1.0]))
    with pytest.raises(ContractViolation, match="branch"):
        decompose(n, theta, eta0, ["A", "C"])
    with pytest.raises(ContractViolation, match="separation angle"):
        mixture_targets(n, np.array([1.0, 3.5]), eta0)
    with pytest.raises(ContractViolation, match="slice radius"):
        mixture_targets(n * np.array([[1.0], [3.0]]), theta, eta0)
    with pytest.raises(ContractViolation, match="exceeds 1"):
        success_prob(eta0, np.array([1.5, 1.5]), np.array([0.5, 0.01]))
