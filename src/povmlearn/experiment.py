"""Seeded experiment harness: scenario setup, the trial engine, result records.

A trial runs generate -> learn -> classify -> score.  The engine runs all
rows of a run or sweep together: the library functions take arrays of
rows, and statuses are masks (degenerate_ensemble per cell, or per row
when an estimate has no in-plane direction; weak_signal and
cos_theta_out_of_range per row).  A run is the one-cell sweep.

Randomness follows stream layout v4: one stream per role, each drawing
one array over all rows in row order, and every row draws from every
stream of its scenario whatever its status (rows that report nothing
draw with their true pair, along a placeholder axis where they learned
none).  Row k therefore depends on the rows before it, never on those
after it, so a run's leading rows are those of any shorter run with the
same seed, and reruns are byte-identical.  The learner sees only unlabeled qubits in the mixture
state, so each learning axis or setting draws one binomial per row; the
score needs only the holdout's correct count, so the holdout draws one
binomial per row too.  A run or sweep builds 3, 4 or 5 generators
(equal-prior-xz, unequal-prior-xz, const-z).

Ground truth (the hidden spec, the closed-form success and the oracle
value) is fixed by a cell's parameters and the row's case, and is never
random.  Every scenario builds it once per run or sweep, as arrays, from
two-fold cells (equal_prior_cell maps an equal-prior one): two_fold_cell
over the cells, and two_fold_spec, the batch spec the rows sample from,
over the rows.  A degenerate cell's truth is NaN, and its rows draw with
its true pair.  A sweep takes its cells as columns: one value per cell of
each swept parameter, each checked once.

All three scenarios learn through one function, learn_axis, on a
measurement frame: the Pauli axes of the plane, or for equal-prior-xz
the axes of the settings phi0 and phi0 + pi/4, an x-z frame turned by
phi0.  The rows of every scenario report alike (_report).  The two-fold
scenarios share one pipeline on a Plane: unequal-prior-xz runs it on the
x-z plane, const-z on the slice z = nz, and the scenario only chooses
the plane.  The slice pipeline measures one extra axis (z), whose stream
comes after the two in-plane ones, so at nz = 0 it draws exactly the
counts of the x-z pipeline for the corresponding measurements.
"""

from __future__ import annotations

import collections
import itertools
import math
import sys
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

from povmlearn.bloch import UNIT_X, Plane, plane_angle, reduce_angle, row_norm
from povmlearn.decomposition import (
    EPS_CLAMP,
    _check_case,
    _check_priors,
    _check_theta,
    cos_theta,
    ensemble_vector,
    learn_axis,
    mixture_targets,
    success_prob,
)
from povmlearn.ensemble import EnsembleSpec, RngStream, check_seed, pauli_axes
from povmlearn.equal_prior import povm_axis_from_phi, solve_alpha, weak_readings, weak_signal_threshold
from povmlearn.errors import ContractViolation
from povmlearn.evaluate import classify_holdout, score
from povmlearn.helstrom import success_equal_priors

SCENARIOS = ("equal-prior-xz", "unequal-prior-xz", "const-z")

FORMATS = ("csv", "json")

# Parameters a sweep may fan out over, in the order that fixes the cell
# order and so the trial indices.
SWEEP_KEYS = ("eta0", "theta", "alpha", "beta", "nz")

# The parameters each scenario reads; sweeping another would repeat cells.
_READS = {
    "equal-prior-xz": ("alpha", "beta"),
    "unequal-prior-xz": ("eta0", "theta", "alpha"),
    "const-z": ("eta0", "theta", "alpha", "nz"),
}

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

# Stream layout v4: one stream per role, with stream id
# _ID_STRIDE * (index of the role in _ROLES): ids 0, 3, 6, 9 and 12, the
# ids of each role's first draw under the three-draw layouts before it.
# The case role draws one uniform per row, a learning role the +1 count of
# its unlabeled qubits (EnsembleSpec.expectation) and the holdout the
# correct count of its labelled qubits (classify_holdout).  Learning axes
# take axis0, axis1, axis2 in pauli_axes order (or the two angle
# settings), so the slice pipeline's extra z measurement has its own
# stream and the nz = 0 reduction stays exact count for count.  Each
# stream draws one array over all rows of a run or sweep, in row order.
_ROLES = ("case", "axis0", "axis1", "axis2", "holdout")
_ID_STRIDE = 3

_OK, _OUT_OF_RANGE, _DEGENERATE, _WEAK = "ok", "cos_theta_out_of_range", "degenerate_ensemble", "weak_signal"
_XZ = Plane.xz()


# Domain of each real parameter: (test, what the message says it must do).
_DOMAINS = {
    "alpha": (math.isfinite, "be finite"),
    "phi0": (math.isfinite, "be finite"),
    "eta0": (lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
    "beta": (lambda v: 0.0 <= v <= math.pi / 2 + 1e-12, "lie in [0, pi/2]"),
    "theta": (lambda v: 0.0 <= v <= math.pi + 1e-12, "lie in [0, pi]"),
    "nz": (lambda v: -1.0 < v < 1.0, "lie in (-1, 1)"),
}


def _check_field(scenario: str, name: str, value) -> None:
    """Raise ContractViolation when a real parameter value lies outside its
    domain.  A domain holds regardless of which scenario consumes the field,
    so an out-of-range value never passes silently as an unused flag; the
    equal-prior scenario also pins eta0 to 0.5."""
    ok, domain = _DOMAINS[name]
    if not ok(value):
        raise ContractViolation(f"{name} must {domain}, got {value}")
    if name == "eta0" and scenario == "equal-prior-xz" and abs(value - 0.5) > 1e-12:
        raise ContractViolation("the equal-prior scenario requires eta0 = 0.5")


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
        for name in ("shots_learn", "shots_holdout", "trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ContractViolation(f"{name} must be an integer, got {value!r}")
            if name != "seed" and value < 1:
                raise ContractViolation(f"{name} must be >= 1, got {value}")
            # numpy's binomial draws take a budget as a signed 64-bit integer.
            if name.startswith("shots") and value >= 2**63:
                raise ContractViolation(f"{name} must be < 2**63, got {value}")
        check_seed(self.seed)
        for name in _DOMAINS:
            _check_field(self.scenario, name, getattr(self, name))


def two_fold_cell(eta0, theta, direction, plane: Plane = _XZ):
    """Case-independent truth of a two-fold cell, shared by both branches:
    the ensemble vector in `plane` along `direction` (plane coordinates)
    with the norm implied by (eta0, theta), its closed-form success and its
    oracle value.  Arrays of parameters (and a plane with one nz per cell)
    give every cell's truth in one pass; a degenerate cell, alone or in a
    batch, has NaN in all three (the in-plane coordinates of its vector)."""
    n, r = ensemble_vector(eta0, theta, direction, plane)
    targets = mixture_targets(n, theta, eta0, plane)
    analytic = success_prob(eta0, theta, r, plane)
    oracle = success_equal_priors(targets.m0, targets.m1)
    lost = np.isnan(analytic) | np.isnan(oracle)
    plane.coords(n)[lost] = np.nan
    return n, np.where(lost, np.nan, analytic)[()], np.where(lost, np.nan, oracle)[()]


def two_fold_spec(eta0, theta, direction, case, plane: Plane = _XZ) -> EnsembleSpec:
    """Hidden spec of the two-fold cell (eta0, theta, direction) in branch
    `case`, built forward from its angles (decompose inverts it): state 0
    at in-plane angle direction + s phi and state 1 at direction + s (phi -
    theta), s = +1 for branch A and -1 for B, phi = atan2(eta1 sin theta,
    eta0 + eta1 cos theta) with the sum written (eta0 - eta1) + 2 eta1
    cos^2(theta/2), which does not cancel near theta = pi.  The direction
    is reduced (reduce_angle) before the offsets are added, which a huge
    angle would lose.  One value of each argument (and of the plane's nz)
    per row gives a batch; a degenerate cell keeps its true pair."""
    _check_priors(eta0)
    _check_theta(theta)
    eta1, sgn, rho = 1.0 - eta0, _check_case(case), np.sqrt(plane.radius_sq)
    half = np.cos(0.5 * theta)
    phi = np.arctan2(eta1 * np.sin(theta), (eta0 - eta1) + 2.0 * eta1 * half * half)
    direction = reduce_angle(direction)
    a0, a1 = direction + sgn * phi, direction + sgn * (phi - theta)
    psi0, psi1 = (plane.embed(np.stack((rho * np.cos(a), rho * np.sin(a)), axis=-1)) for a in (a0, a1))
    return EnsembleSpec(eta0, psi0, psi1, plane)


def equal_prior_cell(alpha, beta):
    """The two-fold cell (eta0, theta, direction, case) of the 50/50 pair at
    state angles alpha +- beta from +z, one per row for arrays of angles:
    theta = 2 beta, direction pi/2 - alpha, with alpha reduced first
    (reduce_angle), and branch B, whose state 0 is at alpha + beta."""
    return np.full(np.broadcast(alpha, beta).shape, 0.5)[()], 2.0 * beta, 0.5 * math.pi - reduce_angle(alpha), "B"


def equal_prior_ensemble(alpha, beta) -> EnsembleSpec:
    """50/50 ensemble of the pure states at state angles alpha +- beta from
    +z, the two-fold spec of its cell (equal_prior_cell); arrays of angles
    give a batch with one ensemble per row."""
    return two_fold_spec(*equal_prior_cell(alpha, beta))


def _truth(cell_of, eta0, theta, direction, case, plane: Plane = _XZ):
    """Each row's truth from one eta0, theta, direction (and nz) per cell:
    its hidden spec (two_fold_spec over the rows), whether its cell has a
    direction, and its success and oracle value (two_fold_cell)."""
    _, analytic, oracle = two_fold_cell(eta0, theta, direction, plane)
    rows = plane if plane.kind == "xz" else Plane.const_z(plane.nz[cell_of])
    spec = two_fold_spec(eta0[cell_of], theta[cell_of], direction[cell_of], case, rows)
    return spec, ~np.isnan(analytic)[cell_of], analytic[cell_of], oracle[cell_of]


def _role_streams(seed: int, roles: Sequence[str]) -> dict:
    """The generator of each role, the RngStream of its layout-v4 id."""
    return {role: RngStream(seed, _ID_STRIDE * _ROLES.index(role)).generator() for role in roles}


def _masked(keep: list, values: list) -> list:
    """values where keep is true, None elsewhere; values itself when every
    row is kept."""
    if all(keep):
        return values
    return [v if k else None for v, k in zip(values, keep)]


def _report(base: ExperimentConfig, spec: EnsembleSpec, axis, readings, alpha_hat, reached, analytic, oracle,
            in_range, gen) -> dict:
    """The columns every scenario fills alike from its truth (reached marks
    the rows whose ensemble vector has a direction) and what it learned
    (learn_axis).  A row is degenerate when its truth or its estimate has no
    in-plane direction, weak when its first two readings sit within the
    noise floor, where their direction is meaningless, and out of range
    where in_range (a mask, or True) fails.  Every row draws its holdout
    qubits: along the first plane axis where its axis is zero, and against
    chance where it has no truth.  Only the rows neither degenerate nor
    weak report their score, axis and alpha_hat."""
    has_axis = axis.any(axis=-1)
    learned = reached & has_axis
    weak = weak_readings(readings[..., 0], readings[..., 1], weak_signal_threshold(base.shots_learn))
    scored = learned & ~weak
    ok = scored & in_range
    n, budget = base.shots_holdout, readings.shape[-1] * base.shots_learn
    correct = classify_holdout(spec, np.where(has_axis[:, None], axis, UNIT_X), n, gen)
    report = score(correct, n, np.where(reached, analytic, 0.5))
    reach, keep = reached.tolist(), scored.tolist()
    return {
        **{name: _masked(keep, part) for name, part in zip(("axis_x", "axis_y", "axis_z"), axis.T.tolist())},
        "alpha_hat": _masked(keep, alpha_hat.tolist()),
        "success_emp": _masked(keep, report.empirical_success.tolist()),
        "success_analytic": _masked(reach, analytic.tolist()),
        "success_oracle": _masked(reach, oracle.tolist()),
        "z_score": _masked(keep, report.z_score.tolist()),
        "shots_learn": [budget if r else 0 for r in reach],
        "shots_holdout": [n if k else 0 for k in keep],
        "holdout_correct": _masked(keep, np.maximum(correct, n - correct).tolist()),
        "status": [
            _OK if o else _DEGENERATE if not d else _WEAK if w else _OUT_OF_RANGE
            for o, d, w in zip(ok.tolist(), learned.tolist(), weak.tolist())
        ],
    }


@dataclass(frozen=True)
class _Grid:
    """The cells of a run or sweep: base's settings, one value per cell of
    each swept parameter, and the cell of each row."""

    base: ExperimentConfig
    swept: dict[str, list[float]]
    count: int
    cell_of: np.ndarray

    def cells(self, key: str) -> np.ndarray:
        """A parameter's value in each cell, as floats."""
        if key in self.swept:
            return np.array(self.swept[key])
        return np.full(self.count, float(getattr(self.base, key)))

    def column(self, key: str, convert=None):
        """A parameter's output column: its value in each row's cell when it
        is swept, else one base value (of any number type) for every row;
        converted when a conversion is given."""
        if key in self.swept:
            values = np.array(self.swept[key])[self.cell_of].tolist()
            return values if convert is None else [convert(v) for v in values]
        value = getattr(self.base, key)
        return value if convert is None else convert(value)


def _equal_prior_rows(grid: _Grid) -> dict:
    base = grid.base
    streams = _role_streams(base.seed, ("axis0", "axis1", "holdout"))
    # The truth of each cell's two-fold cell.  Its ensemble vector has length
    # cos(beta), so antipodal states (beta = pi/2) leave degenerate rows.
    spec, *truth = _truth(grid.cell_of, *equal_prior_cell(grid.cells("alpha"), grid.cells("beta")))
    # The settings phi0 and phi0 + pi/4 read the ensemble along an x-z frame
    # turned by phi0, reduced first so that a huge phi0 keeps its quarter
    # turn.  The learned perpendicular, negated, is the axis of
    # phi* = alpha_hat/2 + pi/4; 0.0 - axis writes no -0.0.
    phi0 = reduce_angle(base.phi0)
    frame = (povm_axis_from_phi(phi0), povm_axis_from_phi(phi0 + 0.25 * math.pi))
    axis, _, readings = learn_axis(spec, frame, base.shots_learn, (streams["axis0"], streams["axis1"]))
    alpha_hat = solve_alpha(readings[..., 0], readings[..., 1], phi0)
    return {
        "scenario": base.scenario,
        "case": None,
        "eta0": 0.5,
        "theta_true": grid.column("beta", lambda b: 2.0 * b),
        "alpha_true": grid.column("alpha"),
        "beta_true": grid.column("beta"),
        "n_z": 0.0,
        **_report(base, spec, 0.0 - axis, readings, alpha_hat, *truth, True, streams["holdout"]),
    }


def _two_fold_rows(grid: _Grid) -> dict:
    base = grid.base
    constz = base.scenario == "const-z"
    axis_roles = ("axis0", "axis1", "axis2") if constz else ("axis0", "axis1")
    streams = _role_streams(base.seed, ("case", *axis_roles, "holdout"))
    case = np.where(streams["case"].random(len(grid.cell_of)) >= 0.5, "B", "A")
    eta0, theta, alpha, nz = map(grid.cells, ("eta0", "theta", "alpha", "nz"))
    spec, *truth = _truth(grid.cell_of, eta0, theta, alpha, case, Plane.const_z(nz) if constz else _XZ)
    plane = spec.plane
    axis, n_hat, readings = learn_axis(spec, pauli_axes(plane), base.shots_learn, [streams[r] for r in axis_roles])
    # The status reads the in-plane part of the estimate; the measured z of
    # a slice is not used.
    u = plane.coords(n_hat)
    in_range = ~np.isnan(cos_theta(row_norm(u), spec.eta0, tol=EPS_CLAMP, plane=plane))
    return {
        "scenario": base.scenario,
        "case": case.tolist(),
        "eta0": grid.column("eta0"),
        "theta_true": grid.column("theta"),
        "alpha_true": grid.column("alpha"),
        "beta_true": None,
        "n_z": grid.column("nz", float) if constz else 0.0,
        **_report(base, spec, axis, readings, plane_angle(n_hat, plane), *truth, in_range, streams["holdout"]),
    }


# The columns of a result record: the CSV columns, then the holdout
# qubits each row classified correctly (None where it reports no score).
_RECORD_COLUMNS = (*CSV_COLUMNS, "holdout_correct")


def _simulate(base: ExperimentConfig, swept: dict[str, list[float]], cells: int) -> dict[str, list]:
    """The engine: the result record of all cells, base.trials rows per cell
    in cell order, each role's streams drawing one array over them.  `swept`
    holds one value per cell of each swept parameter; the others take
    base's value.  Nothing is kept after it returns."""
    count = cells * int(base.trials)
    grid = _Grid(base, swept, cells, np.repeat(np.arange(cells), int(base.trials)))
    fill = _equal_prior_rows if base.scenario == "equal-prior-xz" else _two_fold_rows
    columns = {"trial": list(range(count)), **fill(grid)}
    # A value that every row shares is expanded to one entry per row.
    return {name: v if isinstance(v := columns[name], list) else [v] * count for name in _RECORD_COLUMNS}


def run_experiment(config: ExperimentConfig) -> dict[str, list]:
    """Run config.trials trials: the one-cell sweep of config.  Recoverable
    per-row outcomes are recorded in the row status, never raised."""
    return sweep(config, {})


def sweep(base: ExperimentConfig, grid: dict[str, Sequence[float]]) -> dict[str, list]:
    """Cartesian sweep over parameter value lists, base.trials rows per cell
    in cell order, with globally unique trial indices.  All cells draw from
    the same role streams, one array per stream over every row.  A grid
    key the scenario does not read is refused, since its cells would repeat.

    The result record maps each CSV_COLUMNS name, then holdout_correct, to
    a list with one entry per row; None marks a value that the row's status
    leaves empty."""
    keys = [k for k in SWEEP_KEYS if k in grid]
    unknown = set(grid) - set(keys)
    if unknown:
        raise ContractViolation(f"cannot sweep over {sorted(unknown)}")
    values = {k: [float(v) for v in grid[k]] for k in keys}
    if not all(values.values()):
        return {name: [] for name in _RECORD_COLUMNS}
    # The first cell is validated whole, then every other swept value once.
    replace(base, **{k: v[0] for k, v in values.items()}).validate()
    for k, v in values.items():
        for value in v[1:]:
            _check_field(base.scenario, k, value)
    unread = [k for k in keys if k not in _READS[base.scenario]]
    if unread:
        raise ContractViolation(f"cannot sweep over {unread}, which the {base.scenario} scenario does not read")
    combos = list(itertools.product(*values.values()))
    return _simulate(base, dict(zip(keys, map(list, zip(*combos)))), len(combos))


def summarize(columns: dict[str, list]) -> dict:
    """Aggregate counts of a result record, and pooled success over the
    rows that report a score."""
    scored = [v is not None for v in columns["success_emp"]]
    correct, holdout, analytic, z = (
        list(itertools.compress(columns[name], scored))
        for name in ("holdout_correct", "shots_holdout", "success_analytic", "z_score")
    )
    pooled_total = sum(holdout)
    return {
        "trials": len(columns["trial"]),
        "statuses": dict(collections.Counter(columns["status"])),
        "pooled_success": sum(correct) / pooled_total if pooled_total else None,
        "mean_analytic": sum(analytic) / len(analytic) if analytic else None,
        "max_abs_z": max(map(abs, z), default=None),
        "qubits_used": sum(columns["shots_learn"]) + sum(columns["shots_holdout"]),
    }


def _kind(t: type) -> str:
    """How a cell of type t is written: as null, str, int or float."""
    if t is type(None):
        return "null"
    if issubclass(t, str):
        return "str"
    if issubclass(t, (int, np.integer)):
        return "int"
    return "float"


def _is_shared(column: list) -> bool:
    """Whether every cell of a column is written as its first is: all equal,
    of one type, and of one sign at zero (0.0 == -0.0, 1 == 1.0)."""
    first = column[0]
    if column.count(first) != len(column) or len(set(map(type, column))) > 1:
        return False
    return bool(first) or _kind(type(first)) != "float" or len({math.copysign(1.0, x) for x in column}) == 1


# CSV: empty for None (%.0s consumes the cell and writes nothing), strings
# as they are, integers in full, anything else as a float at 12
# significant digits.  No cell needs quoting: floats and integers hold no
# comma, quote or newline, and render_results checks that no string does.
_CSV_SPEC = {"null": "%.0s", "str": "%s", "int": "%d", "float": "%.12g"}


def _csv_column(column: list) -> tuple[str, list]:
    """The spec of a varying CSV column in the row template, and the cells
    that fill it: the column itself under its kind's spec when it holds
    one kind, else the text of each cell under %s (a column with None, or
    with an integer in a float field)."""
    kinds = {_kind(t) for t in set(map(type, column))}
    if len(kinds) == 1 and "null" not in kinds:
        return _CSV_SPEC[kinds.pop()], column
    return "%s", [_CSV_SPEC[_kind(type(v))] % v for v in column]


# JSON: the text json.dumps(indent=2) writes for each cell; a float is the
# shortest repr of its 12-significant-digit value.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x) -> str:
    """The shortest repr of float('%.12g' % x), as json.dumps writes it.

    A finite '%.12g' text without an exponent is that repr already, save a
    missing '.0': a decimal of at most 15 significant digits reads back as
    a double whose shortest repr has the same digits, and both '%g' and
    repr write a decimal exponent in [-4, 12) positionally.  Other texts
    (an exponent, nan, inf) go through float and repr.
    """
    text = "%.12g" % x
    if "e" in text or "n" in text:
        text = float.__repr__(float(text))
        return _JSON_NONFINITE.get(text, text)
    return text if "." in text else text + ".0"


_JSON_CELL = {
    "null": lambda v: "null",
    "str": encode_basestring_ascii,
    "int": "%d".__mod__,
    "float": _json_float,
}
# A column of one kind (and None) is written in one comprehension.  A float
# '%.12g' text with a point and no exponent is already its JSON text, and
# one with neither (nor the n of nan or inf) is a whole number that only
# lacks its '.0' (_json_float).
_JSON_COLUMN = {
    "str": lambda c: ["null" if v is None else encode_basestring_ascii(v) for v in c],
    "int": lambda c: ["null" if v is None else "%d" % v for v in c],
    "float": lambda c: [
        "null" if v is None
        else t if "." in (t := "%.12g" % v) and "e" not in t
        else t + ".0" if "e" not in t and "n" not in t
        else _json_float(v)
        for v in c
    ],
}
_JSON_OBJECT = "  {\n" + ",\n".join(f"    {encode_basestring_ascii(k)}: %s" for k in CSV_COLUMNS) + "\n  }"


def _json_column(column: list) -> list:
    """The JSON text of each cell of a column."""
    kinds = {_kind(t) for t in set(map(type, column))} - {"null"}
    if len(kinds) == 1:
        return _JSON_COLUMN[kinds.pop()](column)
    # Cells of several kinds (an integer in a float field): each by its own.
    return [_JSON_CELL[_kind(type(v))](v) for v in column]


def render_results(columns: dict[str, list], fmt: str = "csv") -> str:
    """Render the CSV_COLUMNS of a result record to CSV or JSON text; both
    carry the same fields, floats at 12 significant digits, empty/null for
    inapplicable values.

    The bytes are those of csv.writer (lineterminator "\\n") and of
    json.dumps(indent=2) over the rows' cells.  A column whose cells are
    all written alike is written once, into the row template; each row is
    then one %-format over its varying cells.  CSV builds that template
    once, from the kind of each varying column, and JSON formats those
    cells a column at a time."""
    table = [columns[name] for name in CSV_COLUMNS]
    if len(set(map(len, table))) > 1:
        raise ContractViolation("the columns of a result record differ in length")
    if not table[0]:
        raise ContractViolation("no result rows to emit")
    if fmt not in FORMATS:
        raise ContractViolation(f"format must be one of {FORMATS}, got {fmt!r}")
    write = (lambda v: _CSV_SPEC[_kind(type(v))] % v) if fmt == "csv" else (lambda v: _JSON_CELL[_kind(type(v))](v))
    # The text of each shared column, % escaped for the row template.
    shared = [write(c[0]).replace("%", "%%") if _is_shared(c) else None for c in table]
    varying = [c for c, text in zip(table, shared) if text is None]
    # With no varying column, every row is the template itself.
    if fmt == "csv":
        specs, cells = zip(*map(_csv_column, varying)) if varying else ((), ())
        spec = iter(specs)
        template = ",".join(next(spec) if text is None else text for text in shared)
        rows = zip(*cells) if cells else [()] * len(table[0])
        lines = [",".join(CSV_COLUMNS)]
        lines += [template % c for c in rows]
        text = "\n".join(lines) + "\n"
        # A comma, quote or newline inside a string cell would need CSV quoting.
        if text.count(",") != len(lines) * (len(CSV_COLUMNS) - 1) or '"' in text or text.count("\n") != len(lines):
            raise ContractViolation("a string cell holds a comma, quote or newline")
        return text
    template = _JSON_OBJECT % tuple("%s" if text is None else text for text in shared)
    rows = zip(*map(_json_column, varying)) if varying else [()] * len(table[0])
    return "[\n" + ",\n".join([template % c for c in rows]) + "\n]\n"


def emit_results(columns: dict[str, list], fmt: str = "csv", path: str | None = None) -> None:
    """Write a rendered result record to a file, or stdout when path is None.

    Identical records and format produce byte-identical files.
    """
    text = render_results(columns, fmt)
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write results to {path!r}: {exc}") from exc
