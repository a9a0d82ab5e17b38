"""Self-contained validation batteries behind the oracle-check and selftest
subcommands.  Each check returns its name, a pass flag, and the worst
deviation observed, so failures point at the broken identity directly.

The random instances of a check are drawn as one array, and every check
runs over all of its instances with one array call of each truth function,
geometry helper and of helstrom, the density-matrix oracle under test, so
these are called a fixed number of times whatever the instance count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from povmlearn.bloch import (
    Plane,
    angle_dist,
    check_domain,
    check_unit,
    every_row,
    perp_in_plane,
    plane_angle,
    rotate_in_plane,
    row_norm,
    wrap_angle,
)
from povmlearn.decomposition import cos_theta, decompose, ensemble_vector, mixture_targets, success_prob
from povmlearn.equal_prior import delta_analytic, povm_axis_from_phi, solve_alpha
from povmlearn.errors import ContractViolation
from povmlearn.helstrom import helstrom, success_equal_priors

_XZ = Plane.xz()


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str


def _axis_match(axis, reference):
    """Distance of axis to the closer of +-reference; one per row for rows
    of vectors, both distances from one row_norm over the stacked pair."""
    axis = np.asarray(axis, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return np.minimum(*row_norm(np.array((axis - reference, axis + reference))))


def _random_instances(rng: np.random.Generator, count: int, plane: Plane = _XZ):
    """Arrays (eta0, theta, |u|, n) of `count` consistent instances in a
    plane, away from degeneracy, one row per instance; |u| is the in-plane
    norm of n.  The parameters are drawn as one (count, 3) array, whose bits
    and generator state are those of `count` interleaved scalar draws of
    (eta0, theta, direction)."""
    low, high = [0.05, 0.05, 0.0], [0.95, math.pi - 0.05, 2.0 * math.pi]
    eta0, theta, direction = rng.uniform(low, high, size=(count, 3)).T
    n, r = ensemble_vector(eta0, theta, direction, plane)
    return eta0, theta, r, n


def oracle_battery(n_instances: int = 10_000, seed: int = 12345) -> list[CheckOutcome]:
    """Property battery for the minimum-error oracle on random instances.

    The ground truth of every instance (ensemble vector, mixture targets and
    closed-form success) comes from one array call of each truth function,
    the geometry the oracle is checked against from one array call of
    perp_in_plane per check, and the oracle's success and axis from one
    call of helstrom over all instances."""
    if n_instances < 1:
        raise ContractViolation(f"the oracle battery needs at least 1 instance, got {n_instances}")
    check_domain("seed", seed)
    rng = np.random.default_rng(seed)
    eta0, theta, q, n = _random_instances(rng, n_instances)
    t = mixture_targets(n, theta, eta0)
    analytic = success_prob(eta0, theta, q)
    success, axes = helstrom(t.m0, t.m1)
    axes = check_unit(axes, "measurement axis")
    worst_purity = np.abs(row_norm(t.m0) - row_norm(t.m1)).max()
    worst_axis = _axis_match(axes, perp_in_plane(n, _XZ)).max()
    worst_lam = np.abs(success - analytic).max()
    worst_converse = _axis_match(perp_in_plane(t.m0 + t.m1, _XZ), axes).max()
    # Detector firing rates of each oracle axis on its 50/50 mixture, with
    # the dot product of one row alone.
    mid = 0.5 * (t.m0 + t.m1)
    p0 = 0.5 * (1.0 + (axes[:, None, :] @ mid[:, :, None])[:, 0, 0])
    worst_balance = np.abs(p0 - (1.0 - p0)).max()
    # Success in order of the state gap, ties broken by success.
    ordered = success[np.lexsort((success, row_norm(t.m0 - t.m1)))]
    monotone = every_row(ordered[:-1] <= ordered[1:] + 1e-15)
    tol = 1e-12
    return [
        CheckOutcome("equal-purity of mixture targets", worst_purity <= tol, f"worst {worst_purity:.3g}"),
        CheckOutcome("oracle axis is the in-plane perpendicular", worst_axis <= tol, f"worst {worst_axis:.3g}"),
        CheckOutcome("oracle success matches the closed form", worst_lam <= tol, f"worst {worst_lam:.3g}"),
        CheckOutcome("equal-count axis recovers the oracle axis", worst_converse <= tol, f"worst {worst_converse:.3g}"),
        CheckOutcome("detectors balance at the oracle axis", worst_balance <= tol, f"worst {worst_balance:.3g}"),
        CheckOutcome("success is monotone in the state gap", monotone, f"{n_instances} instances"),
    ]


def invariant_battery(seed: int = 12345) -> list[CheckOutcome]:
    """Library-wide invariant battery; pure computation, no file I/O.  Each
    check compares a whole array of instances (a grid, or one draw of
    random rows) and reports the worst row."""
    check_domain("seed", seed)
    rng = np.random.default_rng(seed)
    outcomes = []

    alpha, beta, phi0 = np.meshgrid(np.arange(100) * 2.0 * math.pi / 100.0, (0.2, 0.6, 1.0), (0.0, 0.3, 1.1))
    d0 = delta_analytic(alpha, beta, phi0)
    d1 = delta_analytic(alpha, beta, phi0 + math.pi / 4)
    worst = angle_dist(solve_alpha(d0, d1, phi0), alpha).max()
    outcomes.append(CheckOutcome("angle inversion over the branch grid", worst <= 1e-10, f"worst {worst:.3g}"))

    alpha, beta = rng.uniform([0.0, 0.0], [2.0 * math.pi, math.pi / 2], size=(500, 2)).T
    worst = np.abs(delta_analytic(alpha, beta, 0.5 * alpha + math.pi / 4)).max()
    outcomes.append(CheckOutcome("zero detector difference at the optimum", worst <= 1e-12, f"worst {worst:.3g}"))

    alpha, beta = rng.uniform([0.0, 0.0], [2.0 * math.pi, math.pi / 2 - 0.05], size=(500, 2)).T
    n = 0.5 * (povm_axis_from_phi(0.5 * (alpha + beta)) + povm_axis_from_phi(0.5 * (alpha - beta)))
    axis = povm_axis_from_phi(0.5 * alpha + math.pi / 4)
    worst = _axis_match(axis, perp_in_plane(n, _XZ)).max()
    outcomes.append(CheckOutcome("optimal setting is the ensemble perpendicular", worst <= 1e-12, f"worst {worst:.3g}"))

    a, b = rng.uniform([0.0, -10.0], [2.0 * math.pi, 10.0], size=(500, 2)).T
    v = _XZ.embed(np.cos(a), np.sin(a))
    turned = rotate_in_plane(v, _XZ, b)
    worst = max(row_norm(rotate_in_plane(turned, _XZ, -b) - v).max(), np.abs(row_norm(turned) - 1.0).max())
    outcomes.append(CheckOutcome("in-plane rotations compose and preserve norm", worst <= 1e-12, f"worst {worst:.3g}"))

    worst = 0.0
    least_gap = math.inf
    eta0, theta, q, n = _random_instances(rng, 2000)
    axis_rule = success_prob(eta0, theta, q)
    for case in ("A", "B"):
        pair = decompose(n, theta, eta0, case)
        worst = max(
            worst,
            row_norm(eta0[:, None] * pair.n0 + (1.0 - eta0)[:, None] * pair.n1 - n).max(),
            np.abs(row_norm(pair.n0) - 1.0).max(),
            np.abs(row_norm(pair.n1) - 1.0).max(),
            np.abs(angle_dist(plane_angle(pair.n0, _XZ), plane_angle(pair.n1, _XZ)) - theta).max(),
        )
        least_gap = min(least_gap, (helstrom(pair.n0, pair.n1, eta0)[0] - axis_rule).min())
    outcomes.append(CheckOutcome("branch decomposition round trip", worst <= 1e-11, f"worst {worst:.3g}"))

    # Knowing the branch, Helstrom's measurement of its two states at their
    # priors is a ceiling on the axis rule, which does not know it; at equal
    # priors both branches are the same pair and the ceiling is reached.
    n, q = ensemble_vector(0.5, theta, plane_angle(n, _XZ))
    axis_rule = success_prob(0.5, theta, q)
    equal = 0.0
    for case in ("A", "B"):
        pair = decompose(n, theta, 0.5, case)
        equal = max(equal, np.abs(helstrom(pair.n0, pair.n1)[0] - axis_rule).max())
    outcomes.append(
        CheckOutcome(
            "each branch's Helstrom success bounds the axis rule",
            least_gap >= -1e-12 and equal <= 1e-12,
            f"least gap {least_gap:.3g}, {equal:.3g} at equal priors",
        )
    )

    n = np.array([0.7 * math.cos(0.4), 0.0, 0.7 * math.sin(0.4)])
    eta0 = 0.5 + np.array([0.0, 0.01, 0.05, 0.1])
    gap = row_norm(decompose(n, 1.2, eta0, "A").n0 - decompose(n, 1.2, eta0, "B").n1)
    outcomes.append(
        CheckOutcome(
            "branch ambiguity collapses only at equal priors",
            gap[0] <= 1e-12 and every_row(gap[:-1] < gap[1:]),
            f"gap at equal priors {gap[0]:.3g}",
        )
    )

    eta0, theta, q, n = _random_instances(rng, 2000)
    t = mixture_targets(n, theta, eta0)
    worst = np.abs(success_prob(eta0, theta, q) - success_equal_priors(t.m0, t.m1)).max()
    outcomes.append(CheckOutcome("axis-rule success equals the oracle bound", worst <= 1e-12, f"worst {worst:.3g}"))

    worst = 0.0
    slice0 = Plane.const_z(0.0)
    eta0, theta, q, n = _random_instances(rng, 1000)
    m = slice0.embed(*_XZ.coords(n).T)
    for case in ("A", "B"):
        pair_xz = decompose(n, theta, eta0, case)
        pair_cz = decompose(m, theta, eta0, case, slice0)
        worst = max(
            worst,
            np.abs(pair_xz.n0[:, ::2] - pair_cz.n0[:, :2]).max(),
            np.abs(pair_xz.n1[:, ::2] - pair_cz.n1[:, :2]).max(),
        )
    worst = max(
        worst,
        np.abs(cos_theta(q, eta0) - cos_theta(q, eta0, plane=slice0)).max(),
        np.abs(success_prob(eta0, theta, q) - success_prob(eta0, theta, q, slice0)).max(),
    )
    outcomes.append(CheckOutcome("constant-z slice reduces to the x-z plane at nz = 0", worst <= 1e-12, f"worst {worst:.3g}"))

    worst = 0.0
    for plane in (_XZ, Plane.const_z(-0.7), Plane.const_z(0.35)):
        eta0, theta, _, n = _random_instances(rng, 500, plane)
        t = mixture_targets(n, theta, eta0, plane)
        a = decompose(n, theta, eta0, "A", plane)
        b = decompose(n, theta, eta0, "B", plane)
        eta0, eta1 = eta0[:, None], 1.0 - eta0[:, None]
        worst = max(
            worst,
            row_norm(t.m0 - (eta0 * a.n0 + eta1 * b.n1)).max(),
            row_norm(t.m1 - (eta1 * a.n1 + eta0 * b.n0)).max(),
        )
    outcomes.append(CheckOutcome("closed-form mixture targets equal the branch averages", worst <= 1e-12, f"worst {worst:.3g}"))

    a = rng.uniform([-20.0], [20.0], size=(500, 1))
    w = wrap_angle(a)
    ok = every_row((0.0 <= w) & (w < 2.0 * math.pi) & (angle_dist(w, a) <= 1e-9))
    outcomes.append(CheckOutcome("angle wrapping lands in [0, 2 pi)", ok, "500 samples"))

    return outcomes


def render(outcomes: list[CheckOutcome]) -> tuple[str, bool]:
    lines = []
    all_passed = True
    for o in outcomes:
        tag = "PASS" if o.passed else "FAIL"
        all_passed &= o.passed
        lines.append(f"{tag}  {o.name} ({o.detail})")
    return "\n".join(lines) + "\n", all_passed
