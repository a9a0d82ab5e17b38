"""The engine against a deliberately naive simulator.

The reference draws every qubit on its own: one uniform for its hidden
label, then one for its measurement outcome.  It shares nothing with the
engine but the ground truth (the two hidden states of a cell).  At small
budgets the two must produce the same distributions of the holdout success
and of the learned in-plane angle, by a two-sample Kolmogorov-Smirnov test;
bytes are never compared, since the two draw different random numbers.
"""

import math

import numpy as np
import pytest

from povmlearn.bloch import Plane
from povmlearn.experiment import ExperimentConfig, equal_prior_ensemble, run_experiment, two_fold_cell, two_fold_spec

from helpers import as_rows

SHOTS = 400
TRIALS = 300
P_MIN = 1e-3

CONFIGS = {
    "equal-prior-xz": ExperimentConfig(scenario="equal-prior-xz", alpha=1.0, beta=0.5),
    # The learning frame turned by phi0: settings 0.3 and 0.3 + pi/4.
    "equal-prior-xz-phi0": ExperimentConfig(scenario="equal-prior-xz", alpha=1.0, beta=0.5, phi0=0.3),
    "unequal-prior-xz": ExperimentConfig(scenario="unequal-prior-xz", eta0=0.6, theta=1.2, alpha=1.0),
    "const-z": ExperimentConfig(scenario="const-z", eta0=0.6, theta=1.2, alpha=1.0, nz=0.4),
}


def ks_pvalue(a, b) -> float:
    """Asymptotic p-value of the two-sample Kolmogorov-Smirnov statistic."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    d = np.max(np.abs(np.searchsorted(a, grid, side="right") / len(a)
                      - np.searchsorted(b, grid, side="right") / len(b)))
    en = math.sqrt(len(a) * len(b) / (len(a) + len(b)))
    lam = (en + 0.12 + 0.11 / en) * d
    if lam < 0.3:
        return 1.0
    k = np.arange(1, 101)
    return float(min(1.0, max(0.0, 2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k * k * lam * lam)))))


def measure(rng, eta0, psi0, psi1, axis, shots):
    """Hidden labels (True for label 1) and +1 outcomes, qubit by qubit."""
    label1 = rng.random(shots) >= eta0
    p_plus = np.where(label1, 0.5 * (1.0 + axis @ psi1), 0.5 * (1.0 + axis @ psi0))
    return label1, rng.random(shots) < p_plus


def naive_trial(rng, cfg):
    """One trial: (holdout success, learned in-plane angle)."""
    if cfg.scenario == "equal-prior-xz":
        spec = equal_prior_ensemble(cfg.alpha, cfg.beta)
        eta0, psi0, psi1 = 0.5, spec.psi0, spec.psi1
        deltas = []
        for phi in (cfg.phi0, cfg.phi0 + math.pi / 4):
            axis = np.array([math.sin(2 * phi), 0.0, math.cos(2 * phi)])
            _, plus = measure(rng, eta0, psi0, psi1, axis, SHOTS)
            deltas.append(2.0 * plus.mean() - 1.0)
        angle = (2 * cfg.phi0 + math.atan2(deltas[1], deltas[0])) % (2 * math.pi)
        phi_star = angle / 2 + math.pi / 4
        axis = np.array([math.sin(2 * phi_star), 0.0, math.cos(2 * phi_star)])
    else:
        plane = Plane.const_z(cfg.nz) if cfg.scenario == "const-z" else Plane.xz()
        case = "A" if rng.random() < 0.5 else "B"
        spec = two_fold_spec(two_fold_cell(cfg.eta0, cfg.theta, cfg.alpha, plane)[0], cfg.eta0, cfg.theta, case, plane)
        eta0, psi0, psi1 = cfg.eta0, spec.psi0, spec.psi1
        means = []
        for axis in np.eye(3)[[0, 2] if plane.kind == "xz" else [0, 1, 2]]:
            _, plus = measure(rng, eta0, psi0, psi1, axis, SHOTS)
            means.append(2.0 * plus.mean() - 1.0)
        u = np.array(means[:2])  # plane coordinates: (x, z) or (x, y)
        angle = math.atan2(u[1], u[0]) % (2 * math.pi)
        perp = np.array([-u[1], u[0]]) / math.hypot(u[0], u[1])
        axis = np.array([perp[0], 0.0, perp[1]]) if plane.kind == "xz" else np.array([perp[0], perp[1], 0.0])
    label1, plus = measure(rng, eta0, psi0, psi1, axis, SHOTS)
    correct = np.count_nonzero(plus != label1)  # +1 predicts label 0
    return max(correct, SHOTS - correct) / SHOTS, angle


def naive_run(cfg, seed):
    rng = np.random.default_rng(seed)
    return np.array([naive_trial(rng, cfg) for _ in range(TRIALS)]).T


def engine_run(cfg, seed):
    rows = as_rows(run_experiment(ExperimentConfig(**{**cfg.__dict__, "shots_learn": SHOTS, "shots_holdout": SHOTS,
                                                      "trials": TRIALS, "seed": seed})))
    assert all(r.success_emp is not None and r.alpha_hat is not None for r in rows)
    return np.array([(r.success_emp, r.alpha_hat) for r in rows]).T


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_engine_matches_naive_simulator(name):
    cfg = CONFIGS[name]
    engine, naive = engine_run(cfg, 17), naive_run(cfg, 17)
    for name, a, b in zip(("success_emp", "learned angle"), engine, naive):
        assert ks_pvalue(a, b) > P_MIN, f"{name}: engine and naive distributions differ"


def test_comparison_detects_a_wrong_simulator():
    # The same comparison against a reference run at another separation
    # must fail, or the test above would show nothing.
    cfg = CONFIGS["unequal-prior-xz"]
    engine = engine_run(cfg, 17)
    wrong = naive_run(ExperimentConfig(**{**cfg.__dict__, "theta": 1.0}), 17)
    assert ks_pvalue(engine[0], wrong[0]) < P_MIN
