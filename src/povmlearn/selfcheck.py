"""Self-contained validation batteries behind the oracle-check and selftest
subcommands.  Each check returns its name, a pass flag, and the worst
deviation observed, so failures point at the broken identity directly."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from povmlearn.bloch import (
    Plane,
    angle_dist,
    norm,
    perp_in_plane,
    plane_angle,
    rotate_in_plane,
    wrap_angle,
)
from povmlearn.decomposition import cos_theta, decompose, ensemble_vector, mixture_targets, success_prob
from povmlearn.ensemble import check_seed
from povmlearn.equal_prior import delta_analytic, povm_axis_from_phi, solve_alpha
from povmlearn.errors import ContractViolation
from povmlearn.helstrom import detector_probabilities, helstrom, success_equal_priors

_XZ = Plane.xz()


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str


def _axis_match(axis, reference) -> float:
    """Distance of axis to the closer of +-reference."""
    axis = np.asarray(axis, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return min(norm(axis - reference), norm(axis + reference))


def _random_instances(rng: np.random.Generator, count: int, plane: Plane = _XZ):
    """Consistent (eta0, theta, |u|, n) tuples in a plane, away from
    degeneracy; |u| is the in-plane norm of n."""
    for _ in range(count):
        eta0 = rng.uniform(0.05, 0.95)
        theta = rng.uniform(0.05, math.pi - 0.05)
        direction = rng.uniform(0.0, 2.0 * math.pi)
        n, r = ensemble_vector(eta0, theta, direction, plane)
        yield eta0, theta, r, n


def oracle_battery(n_instances: int = 10_000, seed: int = 12345) -> list[CheckOutcome]:
    """Property battery for the minimum-error oracle on random instances."""
    if n_instances < 1:
        raise ContractViolation(f"the oracle battery needs at least 1 instance, got {n_instances}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    worst_purity = worst_axis = worst_lam = worst_converse = worst_balance = 0.0
    pairs = []
    for eta0, theta, q, n in _random_instances(rng, n_instances):
        t = mixture_targets(n, theta, eta0)
        res = helstrom(t.m0, t.m1)
        worst_purity = max(worst_purity, abs(norm(t.m0) - norm(t.m1)))
        worst_axis = max(worst_axis, _axis_match(res.p0_axis, perp_in_plane(n, _XZ)))
        worst_lam = max(worst_lam, abs(res.success - success_prob(eta0, theta, q)))
        converse_axis = perp_in_plane(t.m0 + t.m1, _XZ)
        worst_converse = max(worst_converse, _axis_match(converse_axis, res.p0_axis))
        p0, p1 = detector_probabilities(res.p0_axis, t.m0, t.m1)
        worst_balance = max(worst_balance, abs(p0 - p1))
        pairs.append((norm(t.m0 - t.m1), res.success))
    pairs.sort()
    monotone = all(s1 <= s2 + 1e-15 for (_, s1), (_, s2) in zip(pairs, pairs[1:]))
    tol = 1e-12
    return [
        CheckOutcome("equal-purity of mixture targets", worst_purity <= tol, f"worst {worst_purity:.3g}"),
        CheckOutcome("oracle axis is the in-plane perpendicular", worst_axis <= tol, f"worst {worst_axis:.3g}"),
        CheckOutcome("oracle success matches the closed form", worst_lam <= tol, f"worst {worst_lam:.3g}"),
        CheckOutcome("equal-count axis recovers the oracle axis", worst_converse <= tol, f"worst {worst_converse:.3g}"),
        CheckOutcome("detectors balance at the oracle axis", worst_balance <= tol, f"worst {worst_balance:.3g}"),
        CheckOutcome("success is monotone in the state gap", monotone, f"{len(pairs)} instances"),
    ]


def invariant_battery(seed: int = 12345) -> list[CheckOutcome]:
    """Library-wide invariant battery; pure computation, no file I/O."""
    check_seed(seed)
    rng = np.random.default_rng(seed)
    outcomes = []

    worst = 0.0
    for k in range(100):
        alpha = k * 2.0 * math.pi / 100.0
        for beta in (0.2, 0.6, 1.0):
            for phi0 in (0.0, 0.3, 1.1):
                d0 = delta_analytic(alpha, beta, phi0)
                d1 = delta_analytic(alpha, beta, phi0 + math.pi / 4)
                worst = max(worst, angle_dist(solve_alpha(d0, d1, phi0), alpha))
    outcomes.append(CheckOutcome("angle inversion over the branch grid", worst <= 1e-10, f"worst {worst:.3g}"))

    worst = 0.0
    for _ in range(500):
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        beta = rng.uniform(0.0, math.pi / 2)
        worst = max(worst, abs(delta_analytic(alpha, beta, 0.5 * alpha + math.pi / 4)))
    outcomes.append(CheckOutcome("zero detector difference at the optimum", worst <= 1e-12, f"worst {worst:.3g}"))

    worst = 0.0
    for _ in range(500):
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        beta = rng.uniform(0.0, math.pi / 2 - 0.05)
        n = 0.5 * (povm_axis_from_phi(0.5 * (alpha + beta)) + povm_axis_from_phi(0.5 * (alpha - beta)))
        axis = povm_axis_from_phi(0.5 * alpha + math.pi / 4)
        worst = max(worst, _axis_match(axis, perp_in_plane(n, _XZ)))
    outcomes.append(CheckOutcome("optimal setting is the ensemble perpendicular", worst <= 1e-12, f"worst {worst:.3g}"))

    worst = 0.0
    for _ in range(500):
        a = rng.uniform(0.0, 2.0 * math.pi)
        b = rng.uniform(-10.0, 10.0)
        v = np.array([math.cos(a), 0.0, math.sin(a)])
        r1 = rotate_in_plane(rotate_in_plane(v, _XZ, b), _XZ, -b)
        worst = max(worst, norm(r1 - v), abs(norm(rotate_in_plane(v, _XZ, b)) - 1.0))
    outcomes.append(CheckOutcome("in-plane rotations compose and preserve norm", worst <= 1e-12, f"worst {worst:.3g}"))

    worst = 0.0
    for eta0, theta, _, n in _random_instances(rng, 2000):
        for case in ("A", "B"):
            pair = decompose(n, theta, eta0, case)
            worst = max(
                worst,
                norm(eta0 * pair.n0 + (1.0 - eta0) * pair.n1 - n),
                abs(norm(pair.n0) - 1.0),
                abs(norm(pair.n1) - 1.0),
                abs(angle_dist(plane_angle(pair.n0, _XZ), plane_angle(pair.n1, _XZ)) - theta),
            )
    outcomes.append(CheckOutcome("branch decomposition round trip", worst <= 1e-11, f"worst {worst:.3g}"))

    collapse = 0.0
    growth = []
    for delta in (0.0, 0.01, 0.05, 0.1):
        n = np.array([0.7 * math.cos(0.4), 0.0, 0.7 * math.sin(0.4)])
        pa = decompose(n, 1.2, 0.5 + delta, "A")
        pb = decompose(n, 1.2, 0.5 + delta, "B")
        gap = norm(pa.n0 - pb.n1)
        growth.append(gap)
        if delta == 0.0:
            collapse = gap
    monotone = all(g1 < g2 for g1, g2 in zip(growth, growth[1:]))
    outcomes.append(
        CheckOutcome(
            "branch ambiguity collapses only at equal priors",
            collapse <= 1e-12 and monotone,
            f"gap at equal priors {collapse:.3g}",
        )
    )

    worst = 0.0
    for eta0, theta, q, n in _random_instances(rng, 2000):
        t = mixture_targets(n, theta, eta0)
        worst = max(worst, abs(success_prob(eta0, theta, q) - success_equal_priors(t.m0, t.m1)))
    outcomes.append(CheckOutcome("axis-rule success equals the oracle bound", worst <= 1e-12, f"worst {worst:.3g}"))

    worst = 0.0
    slice0 = Plane.const_z(0.0)
    for eta0, theta, q, n in _random_instances(rng, 1000):
        m = slice0.embed(_XZ.coords(n))
        for case in ("A", "B"):
            pair_xz = decompose(n, theta, eta0, case)
            pair_cz = decompose(m, theta, eta0, case, slice0)
            worst = max(
                worst,
                abs(pair_xz.n0[0] - pair_cz.n0[0]),
                abs(pair_xz.n0[2] - pair_cz.n0[1]),
                abs(pair_xz.n1[0] - pair_cz.n1[0]),
                abs(pair_xz.n1[2] - pair_cz.n1[1]),
            )
        worst = max(
            worst,
            abs(cos_theta(q, eta0) - cos_theta(q, eta0, plane=slice0)),
            abs(success_prob(eta0, theta, q) - success_prob(eta0, theta, q, slice0)),
        )
    outcomes.append(CheckOutcome("constant-z slice reduces to the x-z plane at nz = 0", worst <= 1e-12, f"worst {worst:.3g}"))

    worst = 0.0
    for plane in (_XZ, Plane.const_z(-0.7), Plane.const_z(0.35)):
        for eta0, theta, _, n in _random_instances(rng, 500, plane):
            t = mixture_targets(n, theta, eta0, plane)
            a = decompose(n, theta, eta0, "A", plane)
            b = decompose(n, theta, eta0, "B", plane)
            eta1 = 1.0 - eta0
            worst = max(
                worst,
                norm(t.m0 - (eta0 * a.n0 + eta1 * b.n1)),
                norm(t.m1 - (eta1 * a.n1 + eta0 * b.n0)),
            )
    outcomes.append(CheckOutcome("closed-form mixture targets equal the branch averages", worst <= 1e-12, f"worst {worst:.3g}"))

    worst = 0.0
    for _ in range(500):
        a = rng.uniform(-20.0, 20.0)
        w = wrap_angle(a)
        ok = 0.0 <= w < 2.0 * math.pi and angle_dist(w, a) <= 1e-9
        worst = max(worst, 0.0 if ok else 1.0)
    outcomes.append(CheckOutcome("angle wrapping lands in [0, 2 pi)", worst == 0.0, "500 samples"))

    return outcomes


def render(outcomes: list[CheckOutcome]) -> tuple[str, bool]:
    lines = []
    all_passed = True
    for o in outcomes:
        tag = "PASS" if o.passed else "FAIL"
        all_passed &= o.passed
        lines.append(f"{tag}  {o.name} ({o.detail})")
    return "\n".join(lines) + "\n", all_passed
