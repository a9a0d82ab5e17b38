"""End-to-end acceptance checks.

Each test prints one [criterion N] PASS/FAIL line (with wall time) on the
real terminal, asserts the stated numerical tolerance, and enforces its
runtime budget.  Reference values are frozen closed-form literals computed
independently of the library.
"""

import contextlib
import csv
import io
import math
import time

import numpy as np

from povmlearn.bloch import Plane, perp_in_plane, row_norm
from povmlearn.cli import main as cli_main
from povmlearn.decomposition import (
    cos_theta,
    decompose,
    equal_prior_cell,
    learn_axis,
    mixture_targets,
    success_prob,
    two_fold_spec,
)
from povmlearn.ensemble import RngStream
from povmlearn.equal_prior import delta_analytic, povm_axis_from_phi, solve_alpha
from povmlearn.evaluate import classify_holdout, score
from povmlearn.experiment import ExperimentConfig, run_experiment, sweep
from povmlearn.helstrom import helstrom

from helpers import as_rows, circ_diff, criterion

PHI_STAR_REF = 1.3089969389957472  # pi/6 + pi/4
EQUAL_PRIOR_SUCCESS = 0.75         # (1 + sin(pi/6)) / 2, the two-state optimum

# Closed-form optimal success per sweep cell, keyed by (eta0, theta).
SWEEP_CELLS = {
    (0.5, math.pi / 6): 0.6294095225512604,
    (0.5, math.pi / 2): 0.8535533905932737,
    (0.5, 2 * math.pi / 3): 0.9330127018922192,
    (0.6, math.pi / 6): 0.6240551342031083,
    (0.6, math.pi / 2): 0.8328201177351374,
    (0.6, 2 * math.pi / 3): 0.8927922024247862,
    (0.7, math.pi / 6): 0.6080849595912359,
    (0.7, math.pi / 2): 0.7757435090054174,
    (0.7, 2 * math.pi / 3): 0.7989847686620373,
}


def _cli_quiet(args):
    """Run the CLI with its status output swallowed; return the exit code."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli_main(args)


def _instances(seed, count):
    """Random ensembles away from the degenerate corners, with consistent norm."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        eta0 = rng.uniform(0.05, 0.95)
        eta1 = 1.0 - eta0
        theta = rng.uniform(0.05, math.pi - 0.05)
        direction = rng.uniform(0.0, 2.0 * math.pi)
        q = math.sqrt(eta0 * eta0 + eta1 * eta1 + 2 * eta0 * eta1 * math.cos(theta))
        n = np.array([q * math.cos(direction), 0.0, q * math.sin(direction)])
        yield eta0, theta, q, n


def _learn_at_phi0_zero(spec, gens):
    """The engine's equal-prior learning at phi0 = 0: learn_axis on the x-z
    frame of the settings 0 and pi/4.  Returns the axis of the learned
    setting (the perpendicular turned to the phi* orientation) and phi*."""
    frame = (povm_axis_from_phi(0.0), povm_axis_from_phi(math.pi / 4))
    axis, _, readings = learn_axis(spec, frame, 1_000_000, gens)
    alpha_hat = solve_alpha(readings[0], readings[1], 0.0)
    return 0.0 - axis, math.fmod(0.5 * alpha_hat + 0.25 * math.pi, math.pi)


def test_criterion_1_noise_free_angle_inversion(capfd):
    with capfd.disabled(), criterion(1, "noise-free angle inversion on the full grid"):
        start = time.perf_counter()
        worst = 0.0
        for k in range(100):
            alpha = k * 2.0 * math.pi / 100.0
            for beta in (0.2, 0.6, 1.0):
                for phi0 in (0.0, 0.3, 1.1):
                    d0 = delta_analytic(alpha, beta, phi0)
                    d1 = delta_analytic(alpha, beta, phi0 + math.pi / 4)
                    worst = max(worst, circ_diff(solve_alpha(d0, d1, phi0), alpha))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-10, f"worst inversion error {worst:.3g}"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_monte_carlo_angle_learning(capfd):
    with capfd.disabled(), criterion(2, "learned optimal setting concentrates at the target"):
        start = time.perf_counter()
        spec = two_fold_spec(*equal_prior_cell(math.pi / 3, math.pi / 6))
        hits = 0
        for trial in range(100):
            gens = (
                RngStream(2026, 2 * trial).generator(),
                RngStream(2026, 2 * trial + 1).generator(),
            )
            _, phi_star = _learn_at_phi0_zero(spec, gens)
            if abs(phi_star - PHI_STAR_REF) <= 0.01:
                hits += 1
        elapsed = time.perf_counter() - start
        assert hits >= 95, f"only {hits}/100 trials within 0.01 rad"
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_3_equal_prior_classification(capfd):
    with capfd.disabled(), criterion(3, "holdout success matches the two-state optimum"):
        start = time.perf_counter()
        spec = two_fold_spec(*equal_prior_cell(math.pi / 3, math.pi / 6))
        gens = (RngStream(7, 0).generator(), RngStream(7, 1).generator())
        axis, _ = _learn_at_phi0_zero(spec, gens)
        correct = classify_holdout(spec, axis, 100_000, RngStream(7, 2).generator())
        report = score(correct, 100_000, EQUAL_PRIOR_SUCCESS)
        sigma = math.sqrt(EQUAL_PRIOR_SUCCESS * (1 - EQUAL_PRIOR_SUCCESS) / 100_000)
        elapsed = time.perf_counter() - start
        assert abs(report.empirical_success - EQUAL_PRIOR_SUCCESS) <= 5 * sigma, (
            f"empirical {report.empirical_success:.5f} vs 0.75 (z = {report.z_score:.2f})"
        )
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_4_success_probability_sweep(capfd):
    with capfd.disabled(), criterion(4, "pooled success per sweep cell matches the closed form"):
        start = time.perf_counter()
        base = ExperimentConfig(
            scenario="unequal-prior-xz",
            trials=200,
            shots_learn=100_000,
            shots_holdout=10_000,
            seed=404,
        )
        rows = as_rows(sweep(
            base,
            {
                "eta0": [0.5, 0.6, 0.7],
                "theta": [math.pi / 6, math.pi / 2, 2 * math.pi / 3],
            },
        ))
        assert len(rows) == 9 * 200
        assert all(r.status == "ok" for r in rows)
        for (eta0, theta), target in SWEEP_CELLS.items():
            cell = [r for r in rows if r.eta0 == eta0 and r.theta_true == theta]
            assert len(cell) == 200
            correct = sum(r.holdout_correct for r in cell)
            total = sum(r.shots_holdout for r in cell)
            pooled = correct / total
            sigma = math.sqrt(target * (1 - target) / total)
            assert abs(pooled - target) <= 3 * sigma, (
                f"cell eta0={eta0}, theta={theta:.4f}: pooled {pooled:.5f} "
                f"vs {target:.5f} ({abs(pooled - target) / sigma:.2f} sigma)"
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.2f}s"


def test_criterion_5_oracle_equivalence(capfd):
    with capfd.disabled(), criterion(5, "closed-form axis rule equals the oracle"):
        start = time.perf_counter()
        eta0, theta, q, n = (np.array(column) for column in zip(*_instances(505, 10_000)))
        t = mixture_targets(n, theta, eta0)
        worst_purity = np.abs(row_norm(t.m0) - row_norm(t.m1)).max()
        success, axis = helstrom(t.m0, t.m1)
        n_perp = perp_in_plane(n, Plane.xz())
        worst_axis = np.minimum(row_norm(axis - n_perp), row_norm(axis + n_perp)).max()
        worst_success = np.abs(success - success_prob(eta0, theta, q)).max()
        elapsed = time.perf_counter() - start
        assert worst_purity <= 1e-12, f"purity mismatch {worst_purity:.3g}"
        assert worst_axis <= 1e-12, f"axis mismatch {worst_axis:.3g}"
        assert worst_success <= 1e-12, f"success mismatch {worst_success:.3g}"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_6_round_trip_and_ambiguity_collapse(capfd):
    with capfd.disabled(), criterion(6, "branch round trip and equal-prior ambiguity collapse"):
        worst_recombine = worst_unit = 0.0
        for eta0, theta, _, n in _instances(606, 10_000):
            for case in ("A", "B"):
                pair = decompose(n, theta, eta0, case)
                worst_recombine = max(
                    worst_recombine, row_norm(eta0 * pair.n0 + (1.0 - eta0) * pair.n1 - n)
                )
                worst_unit = max(
                    worst_unit, abs(row_norm(pair.n0) - 1.0), abs(row_norm(pair.n1) - 1.0)
                )
        assert worst_recombine <= 1e-12, f"recombination error {worst_recombine:.3g}"
        assert worst_unit <= 1e-12, f"unit-norm error {worst_unit:.3g}"
        for theta in (0.6, 1.2, 2.0):
            for direction in (0.0, 0.9, 3.8):
                q = math.sqrt(0.5 + 0.5 * math.cos(theta))
                n = np.array([q * math.cos(direction), 0.0, q * math.sin(direction)])
                gaps = []
                for delta in (0.0, 0.01, 0.05, 0.1):
                    a = decompose(n, theta, 0.5 + delta, "A")
                    b = decompose(n, theta, 0.5 + delta, "B")
                    gaps.append(row_norm(a.n0 - b.n1))
                assert gaps[0] <= 1e-12, f"gap {gaps[0]:.3g} at equal priors"
                assert all(g1 < g2 for g1, g2 in zip(gaps, gaps[1:])), (
                    f"gaps not increasing at theta={theta}: {gaps}"
                )


def test_criterion_7_constant_z_reduction(capfd):
    with capfd.disabled(), criterion(7, "zero-offset slice pipeline replays the plane pipeline"):
        common = dict(
            eta0=0.6, theta=1.0, alpha=0.8, trials=20,
            shots_learn=5_000, shots_holdout=5_000, seed=123,
        )
        flat_rows = as_rows(run_experiment(ExperimentConfig(scenario="unequal-prior-xz", **common)))
        slice_rows = as_rows(run_experiment(ExperimentConfig(scenario="const-z", nz=0.0, **common)))
        for f, s in zip(flat_rows, slice_rows):
            assert f.case == s.case
            assert f.status == s.status == "ok"
            # Analytic columns match to tolerance.
            assert abs(f.success_analytic - s.success_analytic) <= 1e-12
            assert abs(f.success_oracle - s.success_oracle) <= 1e-12
            assert abs(f.alpha_hat - s.alpha_hat) <= 1e-12
            # Axis components match under the plane relabeling (x,z)->(x,y).
            assert abs(f.axis_x - s.axis_x) <= 1e-12
            assert abs(f.axis_z - s.axis_y) <= 1e-12
            assert s.axis_z == 0.0
            # Sampled counts are identical, not merely close.
            assert f.holdout_correct == s.holdout_correct
            assert f.success_emp == s.success_emp
        # The separation cosine at coincident-state inputs must be exactly 1;
        # the variant without the factor 2 in the denominator would give 2.
        for nz in (0.0, 0.3, -0.6):
            for eta0 in (0.5, 0.65, 0.8):
                value = cos_theta(
                    math.sqrt(1.0 - nz * nz), eta0, plane=Plane.const_z(nz)
                )
                assert value == 1.0
                assert value != 2.0


def test_criterion_8_byte_identical_reruns(capfd, tmp_path):
    with capfd.disabled(), criterion(8, "repeated runs and sweeps are byte-identical"):
        run_args = [
            "run", "--scenario", "const-z", "--eta0", "0.6", "--theta", "1.1",
            "--nz", "0.25", "--trials", "5", "--shots-learn", "2000",
            "--shots-holdout", "1000", "--seed", "11",
        ]
        sweep_args = [
            "sweep", "--scenario", "unequal-prior-xz", "--eta0", "0.5,0.65",
            "--theta", "0.7,1.3", "--trials", "3", "--shots-learn", "2000",
            "--shots-holdout", "1000", "--seed", "12", "--format", "json",
        ]
        for args in (run_args, sweep_args):
            a, b = tmp_path / "a.out", tmp_path / "b.out"
            for path in (a, b):
                assert _cli_quiet(args + ["--out", str(path)]) == 0
            assert a.read_bytes() == b.read_bytes()
            assert a.read_bytes()  # nonempty
        # CSV header discipline: identical column set on rerun.
        with open(tmp_path / "a.out") as fh:  # json from the sweep rerun
            assert fh.read(1) == "["
        assert _cli_quiet(run_args + ["--out", str(tmp_path / "c.csv")]) == 0
        with open(tmp_path / "c.csv") as fh:
            header = next(csv.reader(fh))
        assert header[0] == "trial" and header[-1] == "status"
