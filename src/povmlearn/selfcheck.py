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

import numpy as np

from povmlearn.bloch import (
    Plane,
    angle_dist,
    check_domain,
    check_unit,
    every_row,
    perp_in_plane,
    plane_angle,
    row_norm,
    wrap_angle,
)
from povmlearn.decomposition import (
    cos_theta,
    decompose,
    delta_analytic,
    ensemble_vector,
    mixture_targets,
    povm_axis_from_phi,
    solve_alpha,
    success_prob,
    two_fold_spec,
)
from povmlearn.helstrom import helstrom

_XZ = Plane.xz()


def _axis_match(axis, reference):
    """Distance of axis to the closer of +-reference; one per row for rows
    of vectors, both distances from one row_norm over the stacked pair."""
    axis = np.asarray(axis, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return np.minimum(*row_norm(np.array((axis - reference, axis + reference))))


def _block(rng: np.random.Generator, low, high, count: int) -> np.ndarray:
    """`count` rows of uniform draws on [low, high), one column per bound, as
    numpy's uniform evaluates each, low + (high - low) U, without its
    broadcasting path: the bits and generator state of rng.uniform."""
    low = np.asarray(low, dtype=float)
    return low + (np.asarray(high, dtype=float) - low) * rng.random((count, len(low)))


# The bounds of (eta0, theta, direction) of a random instance.
_INSTANCE = np.array([0.05, 0.05, 0.0]), np.array([0.95, math.pi - 0.05, 2.0 * math.pi])


def _random_instances(rng: np.random.Generator, count: int, plane: Plane = _XZ):
    """Arrays (eta0, theta, direction, |u|, n) of `count` consistent instances
    in a plane, away from degeneracy, one row per instance; |u| is the
    in-plane norm of n.  The parameters are one (count, 3) block (_block)."""
    eta0, theta, direction = _block(rng, *_INSTANCE, count).T
    n, r = ensemble_vector(eta0, theta, direction, plane)
    return eta0, theta, direction, r, n


def oracle_battery(n_instances: int, seed: int) -> list[tuple[str, bool, str]]:
    """Property battery for the minimum-error oracle on random instances.

    Every instance's ground truth (ensemble vector, mixture targets and
    closed-form success) comes from one array call of each truth function,
    the oracle axis is compared once with perp_in_plane(n), the equal-count
    axis of m0 + m1 = 2n, and the oracle's success and axis come from one
    call of helstrom over all instances."""
    check_domain("instances", n_instances)
    check_domain("seed", seed)
    rng = np.random.default_rng(seed)
    eta0, theta, _, q, n = _random_instances(rng, n_instances)
    m0, m1 = mixture_targets(n, theta, eta0)
    analytic = success_prob(eta0, theta, q)
    success, axes = helstrom(m0, m1)
    axes = check_unit(axes, "measurement axis")
    worst_purity = np.abs(row_norm(m0) - row_norm(m1)).max()
    worst_axis = _axis_match(axes, perp_in_plane(n, _XZ)).max()
    worst_lam = np.abs(success - analytic).max()
    # Detector firing rates of each oracle axis on its 50/50 mixture, with
    # the dot product of one row alone.
    p0 = 0.5 * (1.0 + np.vecdot(axes, 0.5 * (m0 + m1)))
    worst_balance = np.abs(p0 - (1.0 - p0)).max()
    # Success in order of the state gap, ties broken by success.
    ordered = success[np.lexsort((success, row_norm(m0 - m1)))]
    monotone = every_row(ordered[:-1] <= ordered[1:] + 1e-15)
    tol = 1e-12
    return [
        ("equal-purity of mixture targets", worst_purity <= tol, f"worst {worst_purity:.3g}"),
        ("oracle axis is the in-plane perpendicular", worst_axis <= tol, f"worst {worst_axis:.3g}"),
        ("oracle success matches the closed form", worst_lam <= tol, f"worst {worst_lam:.3g}"),
        ("detectors balance at the oracle axis", worst_balance <= tol, f"worst {worst_balance:.3g}"),
        ("success is monotone in the state gap", monotone, f"{n_instances} instances"),
    ]


def invariant_battery(seed: int) -> list[tuple[str, bool, str]]:
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
    outcomes.append(("angle inversion over the branch grid", worst <= 1e-10, f"worst {worst:.3g}"))

    alpha, beta = _block(rng, [0.0, 0.0], [2.0 * math.pi, math.pi / 2], 500).T
    worst = np.abs(delta_analytic(alpha, beta, 0.5 * alpha + math.pi / 4)).max()
    outcomes.append(("zero detector difference at the optimum", worst <= 1e-12, f"worst {worst:.3g}"))

    alpha, beta = _block(rng, [0.0, 0.0], [2.0 * math.pi, math.pi / 2 - 0.05], 500).T
    n = 0.5 * (povm_axis_from_phi(0.5 * (alpha + beta)) + povm_axis_from_phi(0.5 * (alpha - beta)))
    axis = povm_axis_from_phi(0.5 * alpha + math.pi / 4)
    worst = _axis_match(axis, perp_in_plane(n, _XZ)).max()
    outcomes.append(("optimal setting is the ensemble perpendicular", worst <= 1e-12, f"worst {worst:.3g}"))

    worst = 0.0
    least_gap = math.inf
    eta0, theta, direction, q, n = _random_instances(rng, 2000)
    axis_rule = success_prob(eta0, theta, q)
    for case in ("A", "B"):
        n0, n1 = decompose(n, theta, eta0, case)
        spec = two_fold_spec(eta0, theta, direction, case)
        worst = max(
            worst,
            row_norm(np.array((n0 - spec.psi0, n1 - spec.psi1))).max(),
            np.abs(row_norm(np.array((n0, n1))) - 1.0).max(),
            np.abs(angle_dist(plane_angle(n0, _XZ), plane_angle(n1, _XZ)) - theta).max(),
        )
        least_gap = min(least_gap, (helstrom(n0, n1, eta0)[0] - axis_rule).min())
    outcomes.append(("branch decomposition round trip", worst <= 1e-11, f"worst {worst:.3g}"))

    # Knowing the branch, Helstrom's measurement of its two states at their
    # priors is a ceiling on the axis rule, which does not know it; at equal
    # priors both branches are the same pair and the ceiling is reached.
    n, q = ensemble_vector(0.5, theta, plane_angle(n, _XZ))
    axis_rule = success_prob(0.5, theta, q)
    equal = 0.0
    for case in ("A", "B"):
        equal = max(equal, np.abs(helstrom(*decompose(n, theta, 0.5, case))[0] - axis_rule).max())
    outcomes.append(
        (
            "each branch's Helstrom success bounds the axis rule",
            least_gap >= -1e-12 and equal <= 1e-12,
            f"least gap {least_gap:.3g}, {equal:.3g} at equal priors",
        )
    )

    n = np.array([0.7 * math.cos(0.4), 0.0, 0.7 * math.sin(0.4)])
    eta0 = 0.5 + np.array([0.0, 0.01, 0.05, 0.1])
    gap = row_norm(decompose(n, 1.2, eta0, "A")[0] - decompose(n, 1.2, eta0, "B")[1])
    outcomes.append(
        (
            "branch ambiguity collapses only at equal priors",
            gap[0] <= 1e-12 and every_row(gap[:-1] < gap[1:]),
            f"gap at equal priors {gap[0]:.3g}",
        )
    )

    worst = 0.0
    slice0 = Plane.const_z(0.0)
    eta0, theta, _, q, n = _random_instances(rng, 1000)
    m = slice0.embed(*_XZ.coords(n).T)
    for case in ("A", "B"):
        xz0, xz1 = decompose(n, theta, eta0, case)
        cz0, cz1 = decompose(m, theta, eta0, case, slice0)
        worst = max(worst, np.abs(xz0[:, ::2] - cz0[:, :2]).max(), np.abs(xz1[:, ::2] - cz1[:, :2]).max())
    worst = max(
        worst,
        np.abs(cos_theta(q, eta0) - cos_theta(q, eta0, plane=slice0)).max(),
        np.abs(success_prob(eta0, theta, q) - success_prob(eta0, theta, q, slice0)).max(),
    )
    outcomes.append(("constant-z slice reduces to the x-z plane at nz = 0", worst <= 1e-12, f"worst {worst:.3g}"))

    # The branch pairs come from their angles (two_fold_spec), whose arctan2
    # has other last bits without AVX-512: the line prints no residue.
    worst = 0.0
    for plane in (_XZ, Plane.const_z(-0.7), Plane.const_z(0.35)):
        eta0, theta, direction, _, n = _random_instances(rng, 500, plane)
        m0, m1 = mixture_targets(n, theta, eta0, plane)
        a, b = (two_fold_spec(eta0, theta, direction, case, plane) for case in ("A", "B"))
        eta0, eta1 = eta0[:, None], 1.0 - eta0[:, None]
        worst = max(
            worst,
            row_norm(m0 - (eta0 * a.psi0 + eta1 * b.psi1)).max(),
            row_norm(m1 - (eta1 * a.psi1 + eta0 * b.psi0)).max(),
        )
    outcomes.append(("closed-form mixture targets equal the branch averages", worst <= 1e-12, "1500 instances"))

    a = _block(rng, [-20.0], [20.0], 500)
    w = wrap_angle(a)
    ok = every_row((0.0 <= w) & (w < 2.0 * math.pi) & (angle_dist(w, a) <= 1e-9))
    outcomes.append(("angle wrapping lands in [0, 2 pi)", ok, "500 samples"))

    return outcomes


def render(outcomes: list[tuple[str, bool, str]]) -> tuple[str, bool]:
    lines = []
    all_passed = True
    for name, passed, detail in outcomes:
        tag = "PASS" if passed else "FAIL"
        all_passed &= passed
        lines.append(f"{tag}  {name} ({detail})")
    return "\n".join(lines) + "\n", all_passed
