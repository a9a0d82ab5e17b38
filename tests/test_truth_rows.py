"""Row truth functions: a batch row equals the single-value call bit for bit.

The ground truth of a run or sweep is computed in one array pass over its
cells.  Each truth function takes one value per row and must give, in every
row, exactly the bits of the single-value call on that row's values; a row
where the single-value call raises DegenerateEnsemble is marked instead
(NaN), and only there.
"""

import itertools
import math

import numpy as np
import pytest

from povmlearn.bloch import EPS_DEGENERATE, Plane
from povmlearn.decomposition import decompose, ensemble_vector, mixture_targets, success_prob
from povmlearn.ensemble import EnsembleSpec
from povmlearn.errors import ContractViolation, DegenerateEnsemble
from povmlearn.experiment import equal_prior_ensemble, two_fold_cell, two_fold_spec
from povmlearn.helstrom import success_equal_priors

# At theta = pi, |u| = rho |eta0 - eta1|: eta0 = 1/2 + 5e-7 (1 +- 1%) puts it
# about 1% below and above EPS_DEGENERATE on the x-z plane and the nz = 0
# slice, and eta0 = 1/2 makes it exactly 0.
NEAR_HALF = (0.5 + 4.95e-7, 0.5 + 5.05e-7)
ETA0 = (0.05, 0.3, 0.5, *NEAR_HALF, 0.75, 0.95)
THETA = (0.0, math.pi / 2, math.pi, 1.2)
NZ = (-0.9, 0.0, 0.9)
ALPHA = (0.0, 0.7, 2.0 * math.pi / 3, 4.0 * math.pi / 3, 5.5)
GRID = np.array(list(itertools.product(ETA0, THETA, NZ, ALPHA))).T
CASES = ("A", "B")


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def single(fn, *args):
    """fn(*args), or None where it raises DegenerateEnsemble."""
    try:
        return fn(*args)
    except DegenerateEnsemble:
        return None


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
    assert (r == 0.0).any()
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
    t = mixture_targets(n, theta, eta0, 1.0 - eta0, plane)
    ps = success_prob(eta0, 1.0 - eta0, theta, r, plane)
    oracle = success_equal_priors(t.m0, t.m1)
    for k, p in enumerate(planes):
        t1 = single(mixture_targets, n[k], theta[k], eta0[k], 1.0 - eta0[k], p)
        ps1 = single(success_prob, eta0[k], 1.0 - eta0[k], theta[k], r[k], p)
        if t1 is None:
            assert np.isnan(p.coords(t.m0[k])).all() and np.isnan(p.coords(t.m1[k])).all()
            assert np.isnan(oracle[k])
        else:
            assert bits(t.m0[k]) == bits(t1.m0) and bits(t.m1[k]) == bits(t1.m1)
            assert bits(oracle[k]) == bits(success_equal_priors(t1.m0, t1.m1))
        if ps1 is None:
            assert np.isnan(ps[k])
        else:
            assert isinstance(ps1, float) and bits(ps[k]) == bits(ps1)


@pytest.mark.parametrize("case", ["A", "B", "rows"])
def test_decompose(grid, case):
    eta0, theta, alpha, plane, planes = grid
    n, _ = ensemble_vector(eta0, theta, alpha, plane)
    cases = [CASES[k % 2] for k in range(len(eta0))] if case == "rows" else [case] * len(eta0)
    pair = decompose(n, theta, eta0, 1.0 - eta0, cases if case == "rows" else case, plane)
    for k, p in enumerate(planes):
        one = single(decompose, n[k], theta[k], eta0[k], 1.0 - eta0[k], cases[k], p)
        if one is None:
            assert np.isnan(p.coords(pair.n0[k])).all() and np.isnan(p.coords(pair.n1[k])).all()
        else:
            assert bits(pair.n0[k]) == bits(one.n0) and bits(pair.n1[k]) == bits(one.n1)


def test_two_fold_cell_marks_exactly_the_degenerate_cells(grid):
    eta0, theta, alpha, plane, planes = grid
    n, analytic, oracle = two_fold_cell(eta0, theta, alpha, plane)
    marked = np.isnan(analytic)
    assert 0 < marked.sum() < len(eta0)
    assert (np.isnan(oracle) == marked).all()
    for k, p in enumerate(planes):
        one = single(two_fold_cell, eta0[k], theta[k], alpha[k], p)
        assert marked[k] == (one is None)
        if one is None:
            assert np.isnan(p.coords(n[k])).all()
        else:
            assert bits(n[k]) == bits(one[0])
            assert bits(analytic[k]) == bits(one[1]) and bits(oracle[k]) == bits(one[2])


def test_two_fold_spec_rows_and_placeholder(grid):
    # Near theta = pi and eta0 = 1/2 the decomposed states miss unit norm by
    # more than the spec admits, one value or a row alike, so those cells
    # are left out.
    eta0, theta, alpha, plane, planes = grid
    rows = ~np.isin(eta0, NEAR_HALF)
    eta0, theta, alpha, planes = eta0[rows], theta[rows], alpha[rows], [p for p, k in zip(planes, rows) if k]
    plane = Plane.const_z(plane.nz[rows]) if plane.kind == "constz" else plane
    n, analytic, _ = two_fold_cell(eta0, theta, alpha, plane)
    cases = [CASES[(k // 3) % 2] for k in range(len(eta0))]
    spec = two_fold_spec(n, eta0, theta, cases, plane)
    assert np.isnan(analytic).any()
    for k, p in enumerate(planes):
        if np.isnan(analytic[k]):
            with pytest.raises(DegenerateEnsemble):
                two_fold_spec(two_fold_cell(0.5, math.pi, alpha[k], p)[0], 0.5, math.pi, cases[k], p)
            spot = p.embed([math.sqrt(p.radius_sq), 0.0])
            assert bits(spec.psi0[k]) == bits(spot) and bits(spec.psi1[k]) == bits(spot)
        else:
            one = two_fold_spec(two_fold_cell(eta0[k], theta[k], alpha[k], p)[0], eta0[k], theta[k], cases[k], p)
            assert bits(spec.psi0[k]) == bits(one.psi0) and bits(spec.psi1[k]) == bits(one.psi1)
            assert spec.eta0[k] == one.eta0 and spec.eta1[k] == one.eta1


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
        decompose(n, theta, eta0, 1.0 - eta0, ["A", "C"])
    with pytest.raises(ContractViolation, match="separation angle"):
        mixture_targets(n, np.array([1.0, 3.5]), eta0, 1.0 - eta0)
    with pytest.raises(ContractViolation, match="slice radius"):
        mixture_targets(n * np.array([[1.0], [3.0]]), theta, eta0, 1.0 - eta0)
    with pytest.raises(ContractViolation, match="exceeds 1"):
        success_prob(eta0, 1.0 - eta0, np.array([1.5, 1.5]), np.array([0.5, 0.01]))


class TestValueEquality:
    """Planes and specs holding arrays compare by value and hash alike."""

    def test_planes_with_offset_rows(self):
        a, b = Plane.const_z(np.array([0.1, -0.2])), Plane.const_z(np.array([0.1, -0.2]))
        assert a == b and hash(a) == hash(b)
        assert a != Plane.const_z(np.array([0.1, 0.2]))
        assert a != Plane.const_z(0.1) and Plane.const_z(0.1) == Plane.const_z(0.1)
        assert Plane.xz() != Plane.const_z(0.0)
        assert len({a, b, Plane.xz(), Plane.xz()}) == 2

    def test_specs(self):
        eta0 = np.array([0.6, 0.3])
        n, _, _ = two_fold_cell(eta0, np.array([1.0, 2.0]), np.array([0.5, 4.0]), Plane.const_z(np.array([0.2, 0.4])))
        args = (n, eta0, np.array([1.0, 2.0]), ["A", "B"], Plane.const_z(np.array([0.2, 0.4])))
        s, t = two_fold_spec(*args), two_fold_spec(*args)
        assert s is not t and s == t and hash(s) == hash(t)
        assert s != two_fold_spec(n, eta0, np.array([1.0, 2.0]), ["B", "B"], args[4])
        assert s != EnsembleSpec(0.6, 0.4, s.psi0[0], s.psi1[0], Plane.const_z(0.2))
        one = two_fold_spec(n[0], 0.6, 1.0, "A", Plane.const_z(0.2))
        assert one == two_fold_spec(n[0], 0.6, 1.0, "A", Plane.const_z(0.2))
        assert one != two_fold_spec(n[0], 0.6, 1.0, "B", Plane.const_z(0.2))
        assert (s == "spec") is False
