"""Seeded experiment harness: scenario setup, trial pipeline, result rows.

Each trial runs generate -> learn -> classify -> score.  Randomness is
addressed by (seed, trial, role): every trial owns a block of stream ids,
one per role (branch draw, each measurement axis or setting in order,
holdout), so trials are independent and reruns are byte-identical.

Ground truth (the hidden spec, the closed-form success and the oracle
value) is fixed by a cell's parameters and the trial's case, and is never
random: run_experiment builds it at most once per (cell, case), on the
first trial that needs it, and trials only sample.

The two-fold scenarios share one pipeline on a Plane: unequal-prior-xz
runs it on the x-z plane, const-z on the slice z = nz, and the scenario
only chooses the plane.  The slice pipeline measures one extra axis (z),
whose stream comes after the two in-plane ones, so at nz = 0 it consumes
exactly the streams of the x-z pipeline for the corresponding
measurements.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from povmlearn.bloch import Plane, bloch_from_state_angle, norm, plane_angle
from povmlearn.decomposition import (
    EPS_CLAMP,
    cos_theta,
    decompose,
    ensemble_vector,
    learn_axis,
    mixture_targets,
    success_prob,
)
from povmlearn.ensemble import EnsembleSpec, RngStream, pauli_axes
from povmlearn.equal_prior import learn_equal_prior, povm_axis_from_phi
from povmlearn.errors import (
    ContractViolation,
    CosThetaOutOfRange,
    DegenerateEnsemble,
    WeakSignal,
)
from povmlearn.evaluate import classify_holdout, score
from povmlearn.helstrom import success_equal_priors

SCENARIOS = ("equal-prior-xz", "unequal-prior-xz", "const-z")

FORMATS = ("csv", "json")

# Parameters a sweep may fan out over, in the order that fixes the cell
# order and so the trial indices.
SWEEP_KEYS = ("eta0", "theta", "alpha", "beta", "nz")

CSV_COLUMNS = (
    "trial",
    "scenario",
    "case",
    "eta0",
    "theta_true",
    "alpha_true",
    "beta_true",
    "n_z",
    "axis_x",
    "axis_y",
    "axis_z",
    "alpha_hat",
    "success_emp",
    "success_analytic",
    "success_oracle",
    "z_score",
    "shots_learn",
    "shots_holdout",
    "status",
)
_AXIS_INDEX = {k: i for i, k in enumerate(k for k in CSV_COLUMNS if k.startswith("axis_"))}

# Stream roles within a trial's block of ids.  Measured axes take
# consecutive slots from AXIS0 in pauli_axes order: the first and second
# plane measurements (or the two angle settings), then the extra z
# measurement of the constant-z pipeline; keeping the roles aligned makes
# the nz = 0 reduction exact shot for shot.
_SLOT_CASE = 0
_SLOT_AXIS0 = 1
_SLOT_AXIS1 = 2
_SLOT_HOLDOUT = 4
_SLOTS_PER_TRIAL = 8

_STATUS_OF = {
    WeakSignal: "weak_signal",
    DegenerateEnsemble: "degenerate_ensemble",
    CosThetaOutOfRange: "cos_theta_out_of_range",
}


def _status_of(exc: Exception) -> str:
    for cls, tag in _STATUS_OF.items():
        if isinstance(exc, cls):
            return tag
    raise exc


@dataclass
class ExperimentConfig:
    """One experiment cell: a scenario, its ground-truth parameters, budgets.

    alpha is the scenario's primary direction parameter: the midpoint state
    angle from +z for the equal-prior scenario, the in-plane direction angle
    of the ensemble Bloch vector otherwise.  shots_learn is the budget per
    measurement setting or Pauli axis; shots_holdout is the classification
    budget per trial.
    """

    scenario: str = "equal-prior-xz"
    alpha: float = math.pi / 3
    beta: float = math.pi / 6
    eta0: float = 0.5
    theta: float = math.pi / 2
    nz: float = 0.0
    phi0: float = 0.0
    shots_learn: int = 100_000
    shots_holdout: int = 10_000
    trials: int = 10
    seed: int = 0
    fmt: str = "csv"
    out: str | None = None

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ContractViolation(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.fmt not in FORMATS:
            raise ContractViolation(f"format must be one of {FORMATS}, got {self.fmt!r}")
        for name in ("shots_learn", "shots_holdout", "trials"):
            value = getattr(self, name)
            if int(value) < 1:
                raise ContractViolation(f"{name} must be >= 1, got {value}")
        if int(self.seed) < 0:
            raise ContractViolation(f"seed must be a nonnegative integer, got {self.seed}")
        # Field domains hold regardless of which scenario consumes the field,
        # so an out-of-range value never passes silently as an unused flag.
        for name in ("alpha", "phi0"):
            if not math.isfinite(getattr(self, name)):
                raise ContractViolation(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.eta0 < 1.0:
            raise ContractViolation(f"eta0 must lie in (0, 1), got {self.eta0}")
        if not 0.0 <= self.beta <= math.pi / 2 + 1e-12:
            raise ContractViolation(f"beta must lie in [0, pi/2], got {self.beta}")
        if not 0.0 <= self.theta <= math.pi + 1e-12:
            raise ContractViolation(f"theta must lie in [0, pi], got {self.theta}")
        if not -1.0 < self.nz < 1.0:
            raise ContractViolation(f"nz must lie in (-1, 1), got {self.nz}")
        if self.scenario == "equal-prior-xz" and abs(self.eta0 - 0.5) > 1e-12:
            raise ContractViolation("the equal-prior scenario requires eta0 = 0.5")

    @property
    def eta1(self) -> float:
        return 1.0 - self.eta0


@dataclass
class TrialResult:
    """One trial's emitted row plus diagnostics kept for tests and summaries;
    a trial names its cell-constant fields and fills the rest as it goes."""

    trial: int
    scenario: str
    case: str | None
    eta0: float
    theta_true: float | None
    alpha_true: float | None
    beta_true: float | None
    n_z: float | None
    axis: np.ndarray | None = None
    alpha_hat: float | None = None
    success_emp: float | None = None
    success_analytic: float | None = None
    success_oracle: float | None = None
    z_score: float | None = None
    shots_learn: int = 0
    shots_holdout: int = 0
    status: str = "ok"
    # Diagnostics, not serialized.
    theta_hat: float | None = None
    n_hat: np.ndarray | None = None
    swapped: bool | None = None
    holdout_correct: int | None = None

    @property
    def qubits_used(self) -> int:
        return self.shots_learn + self.shots_holdout


def _gen(cfg: ExperimentConfig, trial: int, slot: int) -> np.random.Generator:
    return RngStream(cfg.seed, trial * _SLOTS_PER_TRIAL + slot).generator()


def equal_prior_ensemble(alpha: float, beta: float) -> EnsembleSpec:
    """50/50 ensemble of the pure states at state angles alpha +- beta from +z."""
    return EnsembleSpec(
        eta0=0.5,
        eta1=0.5,
        psi0=bloch_from_state_angle(alpha + beta),
        psi1=bloch_from_state_angle(alpha - beta),
        plane=Plane.xz(),
    )


def two_fold_truth(
    eta0: float, theta: float, direction: float, case: str, plane: Plane = Plane.xz()
) -> tuple[EnsembleSpec, float, float]:
    """Hidden branch spec, closed-form success and oracle value of the ensemble
    in `plane` whose Bloch vector points along `direction` in plane
    coordinates, with the norm implied by (eta0, theta); the hidden pair is
    the requested branch.  The ensemble vector is built once and everything
    derives from it."""
    eta1 = 1.0 - eta0
    n, r = ensemble_vector(eta0, theta, direction, plane)
    pair = decompose(n, theta, eta0, eta1, case, plane)
    spec = EnsembleSpec(eta0=eta0, eta1=eta1, psi0=pair.n0, psi1=pair.n1, plane=plane, case_tag=case)
    targets = mixture_targets(n, theta, eta0, eta1, plane)
    analytic = success_prob(eta0, eta1, theta, r, plane)
    return spec, analytic, success_equal_priors(targets.m0, targets.m1)


def _equal_prior_trial(cfg: ExperimentConfig, trial: int, truths: dict) -> TrialResult:
    if None not in truths:
        spec = equal_prior_ensemble(cfg.alpha, cfg.beta)
        oracle = success_equal_priors(spec.psi0, spec.psi1)
        truths[None] = spec, 0.5 * (1.0 + math.sin(cfg.beta)), oracle
    row = TrialResult(
        trial=trial,
        scenario=cfg.scenario,
        case=None,
        eta0=0.5,
        theta_true=2.0 * cfg.beta,
        alpha_true=cfg.alpha,
        beta_true=cfg.beta,
        n_z=0.0,
    )
    spec, row.success_analytic, row.success_oracle = truths[None]
    gens = (_gen(cfg, trial, _SLOT_AXIS0), _gen(cfg, trial, _SLOT_AXIS1))
    try:
        est = learn_equal_prior(spec, cfg.phi0, cfg.shots_learn, gens)
    except (WeakSignal, DegenerateEnsemble) as exc:
        row.status = _status_of(exc)
        row.shots_learn = len(gens) * cfg.shots_learn
        return row
    row.shots_learn = est.shots_used
    row.alpha_hat = est.alpha_hat
    row.axis = povm_axis_from_phi(est.phi_star)
    _classify_into(row, cfg, spec, trial)
    return row


def _two_fold_trial(cfg: ExperimentConfig, trial: int, truths: dict) -> TrialResult:
    case = "A" if _gen(cfg, trial, _SLOT_CASE).random() < 0.5 else "B"
    plane = Plane.const_z(cfg.nz) if cfg.scenario == "const-z" else Plane.xz()
    row = TrialResult(
        trial=trial,
        scenario=cfg.scenario,
        case=case,
        eta0=cfg.eta0,
        theta_true=cfg.theta,
        alpha_true=cfg.alpha,
        beta_true=None,
        n_z=plane.nz,
    )
    try:
        # A truth that raises is not stored: each trial of the case retries it.
        if case not in truths:
            truths[case] = two_fold_truth(cfg.eta0, cfg.theta, cfg.alpha, case, plane)
    except DegenerateEnsemble as exc:
        row.status = _status_of(exc)
        return row
    spec, row.success_analytic, row.success_oracle = truths[case]
    gens = [_gen(cfg, trial, _SLOT_AXIS0 + k) for k in range(len(pauli_axes(plane)))]
    try:
        axis, est = learn_axis(spec, cfg.shots_learn, gens)
    except DegenerateEnsemble as exc:
        row.status = _status_of(exc)
        row.shots_learn = len(gens) * cfg.shots_learn
        return row
    row.shots_learn = est.shots_used
    row.n_hat = est.n_hat
    row.axis = axis
    row.alpha_hat = plane_angle(est.n_hat, plane)
    try:
        # The separation cosine reads the in-plane part of the estimate; the
        # measured z of a slice is not used.
        in_plane = norm(plane.embed(plane.coords(est.n_hat), with_offset=False))
        c = cos_theta(in_plane, cfg.eta0, cfg.eta1, tol=EPS_CLAMP, plane=plane)
        row.theta_hat = math.acos(c)
    except CosThetaOutOfRange as exc:
        # Diagnostic only; the learned axis is still usable.
        row.status = _status_of(exc)
    _classify_into(row, cfg, spec, trial)
    return row


def _classify_into(row: TrialResult, cfg: ExperimentConfig, spec: EnsembleSpec, trial: int) -> None:
    confusion = classify_holdout(spec, row.axis, cfg.shots_holdout, _gen(cfg, trial, _SLOT_HOLDOUT))
    report = score(confusion, row.success_analytic)
    row.shots_holdout = cfg.shots_holdout
    row.success_emp = report.empirical_success
    row.z_score = report.z_score
    row.swapped = report.swapped
    row.holdout_correct = max(confusion.correct, confusion.total - confusion.correct)


def run_experiment(config: ExperimentConfig, trial_offset: int = 0) -> list[TrialResult]:
    """Run config.trials independent trials; recoverable per-trial errors are
    recorded in the row status, never raised.  Truth is built at most once
    per case (None for equal-prior-xz) and shared by this call's trials."""
    config.validate()
    trial_fn = _equal_prior_trial if config.scenario == "equal-prior-xz" else _two_fold_trial
    truths: dict = {}
    return [trial_fn(config, trial_offset + i, truths) for i in range(int(config.trials))]


def sweep(base: ExperimentConfig, grid: dict[str, Sequence[float]]) -> list[TrialResult]:
    """Cartesian sweep over parameter value lists, with globally unique trial
    indices so every row draws from its own random streams."""
    keys = [k for k in SWEEP_KEYS if k in grid]
    unknown = set(grid) - set(keys)
    if unknown:
        raise ContractViolation(f"cannot sweep over {sorted(unknown)}")
    rows: list[TrialResult] = []
    offset = 0
    for combo in itertools.product(*(grid[k] for k in keys)):
        cfg = replace(base, **{k: float(v) for k, v in zip(keys, combo)})
        rows.extend(run_experiment(cfg, trial_offset=offset))
        offset += int(cfg.trials)
    return rows


def summarize(rows: Sequence[TrialResult]) -> dict:
    """Aggregate counts and pooled success over the ok rows."""
    statuses: dict[str, int] = {}
    for r in rows:
        statuses[r.status] = statuses.get(r.status, 0) + 1
    scored = [r for r in rows if r.success_emp is not None]
    pooled_correct = sum(r.holdout_correct for r in scored)
    pooled_total = sum(r.shots_holdout for r in scored)
    return {
        "trials": len(rows),
        "statuses": statuses,
        "pooled_success": (pooled_correct / pooled_total) if pooled_total else None,
        "mean_analytic": (
            sum(r.success_analytic for r in scored) / len(scored) if scored else None
        ),
        "max_abs_z": max((abs(r.z_score) for r in scored), default=None),
        "qubits_used": sum(r.qubits_used for r in rows),
    }


def _fmt_float(x: float) -> str:
    return f"{float(x):.12g}"


def _row_record(r: TrialResult) -> dict:
    """The row's value for each of CSV_COLUMNS: the TrialResult field of that
    name, or for an axis_* column its component of r.axis."""
    axis = r.axis if r.axis is not None else (None, None, None)
    return {k: axis[_AXIS_INDEX[k]] if k in _AXIS_INDEX else getattr(r, k) for k in CSV_COLUMNS}


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _fmt_float(value)


def _json_value(value):
    if value is None or isinstance(value, (str, int, np.integer)):
        return int(value) if isinstance(value, np.integer) else value
    return float(_fmt_float(value))


def render_results(rows: Sequence[TrialResult], fmt: str = "csv") -> str:
    """Render result rows to CSV or JSON text; both carry the same fields,
    floats at 12 significant digits, empty/null for inapplicable values."""
    if not rows:
        raise ContractViolation("no result rows to emit")
    if fmt not in FORMATS:
        raise ContractViolation(f"format must be one of {FORMATS}, got {fmt!r}")
    records = [_row_record(r) for r in rows]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([_csv_cell(rec[k]) for k in CSV_COLUMNS])
        return buf.getvalue()
    payload = [{k: _json_value(rec[k]) for k in CSV_COLUMNS} for rec in records]
    return json.dumps(payload, indent=2) + "\n"


def emit_results(rows: Sequence[TrialResult], fmt: str = "csv", path: str | None = None) -> None:
    """Write rendered results to a file, or stdout when path is None.

    Identical rows and format produce byte-identical files.
    """
    text = render_results(rows, fmt)
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write results to {path!r}: {exc}") from exc
