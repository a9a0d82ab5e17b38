"""Seeded experiment harness: scenario setup, the trial engine, result records.

A trial runs generate -> learn -> classify -> score.  The engine runs all
rows of a run or sweep together: the library functions take arrays of
rows, and statuses are masks (degenerate_ensemble per cell, or per row
when an estimate has no in-plane direction; weak_signal and
cos_theta_out_of_range per row).  A run is the one-cell sweep.

Randomness follows stream layout v4: one stream per role, each drawing
one array over all rows in row order, and every row draws from every
stream of its scenario whatever its status (rows that report nothing
draw with placeholder states or axes).  Row k therefore depends on the
rows before it, never on those after it, so a run's leading rows are
those of any shorter run with the same seed, and reruns are
byte-identical.  The learner sees only unlabeled qubits in the mixture
state, so each learning axis or setting draws one binomial per row; the
score needs only the holdout's correct count, so the holdout draws one
binomial per row too.  A run or sweep builds 3, 4 or 5 generators
(equal-prior-xz, unequal-prior-xz, const-z).

Ground truth (the hidden spec, the closed-form success and the oracle
value) is fixed by a cell's parameters and the row's case, and is never
random.  The engine builds it once per run or sweep, as arrays: the
case-independent part (the ensemble vector, the closed-form success and
the oracle value) in one pass over the cells, and the hidden spec, which
is the batch spec the rows sample from, in one pass over the rows.  A
degenerate cell's truth is NaN, and its rows draw with a placeholder
pair.  A sweep takes its cells as columns: one value per cell of each
swept parameter, each checked once.

The two-fold scenarios share one pipeline on a Plane: unequal-prior-xz
runs it on the x-z plane, const-z on the slice z = nz, and the scenario
only chooses the plane.  The slice pipeline measures one extra axis (z),
whose stream comes after the two in-plane ones, so at nz = 0 it draws
exactly the counts of the x-z pipeline for the corresponding
measurements.
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

from povmlearn.bloch import UNIT_X, Plane, bloch_from_state_angle, plane_angle, row_norm
from povmlearn.decomposition import (
    EPS_CLAMP,
    cos_theta,
    decompose,
    ensemble_vector,
    learn_axis,
    mixture_targets,
    success_prob,
)
from povmlearn.ensemble import EnsembleSpec, RngStream, check_seed
from povmlearn.equal_prior import learn_equal_prior, povm_axis_from_phi, weak_readings, weak_signal_threshold
from povmlearn.errors import ContractViolation
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


def equal_prior_ensemble(alpha, beta) -> EnsembleSpec:
    """50/50 ensemble of the pure states at state angles alpha +- beta from
    +z; arrays of angles give a batch with one ensemble per row."""
    psi0 = bloch_from_state_angle(alpha + beta)
    half = np.full(psi0.shape[:-1], 0.5)
    return EnsembleSpec(eta0=half, psi0=psi0, psi1=bloch_from_state_angle(alpha - beta), plane=_XZ)


def two_fold_cell(eta0, theta, direction, plane: Plane = _XZ):
    """Case-independent truth of a two-fold cell: the ensemble vector of the
    ensemble in `plane` pointing along `direction` in plane coordinates,
    with the norm implied by (eta0, theta), its closed-form success and its
    oracle value.  Both branches share all three.

    Arrays of parameters (and a plane with one nz per cell) give the truth
    of every cell in one pass.  A degenerate cell, alone or in a batch, has
    NaN in all three (the in-plane coordinates of its vector).
    """
    n, r = ensemble_vector(eta0, theta, direction, plane)
    targets = mixture_targets(n, theta, eta0, plane)
    analytic = success_prob(eta0, theta, r, plane)
    oracle = success_equal_priors(targets.m0, targets.m1)
    lost = np.isnan(analytic) | np.isnan(oracle)
    plane.coords(n)[lost] = np.nan
    return n, np.where(lost, np.nan, analytic)[()], np.where(lost, np.nan, oracle)[()]


def two_fold_spec(n, eta0, theta, case, plane: Plane = _XZ) -> EnsembleSpec:
    """Hidden spec of the ensemble with Bloch vector n in branch `case`: one
    ensemble, or a batch with one vector, prior, separation and branch name
    per row.  An n with no in-plane direction (NaN from two_fold_cell),
    alone or as a row, gets the placeholder pair, both states at the first
    plane axis, so that it can still draw."""
    pair = decompose(n, theta, eta0, case, plane)
    psi0, psi1 = pair.n0, pair.n1
    lost = np.isnan(psi0[..., :1])
    if lost.any():
        rho = np.sqrt(plane.radius_sq)
        spot = plane.embed(np.stack((rho, np.zeros_like(rho)), axis=-1))
        psi0, psi1 = np.where(lost, spot, psi0), np.where(lost, spot, psi1)
    return EnsembleSpec(eta0, psi0, psi1, plane)


def _role_streams(seed: int, roles: Sequence[str]) -> dict:
    """The generator of each role, the RngStream of its layout-v4 id."""
    return {role: RngStream(seed, _ID_STRIDE * _ROLES.index(role)).generator() for role in roles}


def _masked(keep: list, values: list) -> list:
    """values where keep is true, None elsewhere; values itself when every
    row is kept."""
    if all(keep):
        return values
    return [v if k else None for v, k in zip(values, keep)]


def _classify(spec: EnsembleSpec, axis: np.ndarray, cfg: ExperimentConfig, gen, analytic, scored) -> dict:
    """Holdout columns: every row draws its holdout qubits along its axis,
    the scored rows report them and the axis."""
    n = cfg.shots_holdout
    correct = classify_holdout(spec, axis, n, gen)
    report = score(correct, n, analytic)
    keep = scored.tolist()
    return {
        **{name: _masked(keep, part) for name, part in zip(("axis_x", "axis_y", "axis_z"), axis.T.tolist())},
        "success_emp": _masked(keep, report.empirical_success.tolist()),
        "z_score": _masked(keep, report.z_score.tolist()),
        "shots_holdout": [n if k else 0 for k in keep],
        "holdout_correct": _masked(keep, np.maximum(correct, n - correct).tolist()),
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

    def column(self, key: str, convert=lambda v: v):
        """A parameter's output column: its converted value in each row's
        cell when it is swept, else one converted base value (of any number
        type) for every row."""
        if key in self.swept:
            return [convert(v) for v in np.array(self.swept[key])[self.cell_of].tolist()]
        return convert(getattr(self.base, key))


def _equal_prior_rows(grid: _Grid) -> dict:
    base = grid.base
    streams = _role_streams(base.seed, ("axis0", "axis1", "holdout"))
    # Truth: the hidden spec and both targets in one array pass over the rows.
    alpha, beta = (grid.cells(key)[grid.cell_of] for key in ("alpha", "beta"))
    spec = equal_prior_ensemble(alpha, beta)
    analytic = 0.5 * (1.0 + np.sin(beta))
    est = learn_equal_prior(spec, base.phi0, base.shots_learn, (streams["axis0"], streams["axis1"]))
    # A weak row's setting is meaningless but still a unit axis, so every
    # row classifies its holdout qubits.
    scored = ~est.weak
    keep = scored.tolist()
    return {
        "scenario": base.scenario,
        "case": None,
        "eta0": 0.5,
        "theta_true": grid.column("beta", lambda b: 2.0 * b),
        "alpha_true": grid.column("alpha"),
        "beta_true": grid.column("beta"),
        "n_z": 0.0,
        "alpha_hat": _masked(keep, est.alpha_hat.tolist()),
        "success_analytic": analytic.tolist(),
        "success_oracle": success_equal_priors(spec.psi0, spec.psi1).tolist(),
        "shots_learn": est.shots_used,
        "status": [_OK if k else _WEAK for k in keep],
        **_classify(spec, povm_axis_from_phi(est.phi_star), base, streams["holdout"], analytic, scored),
    }


def _two_fold_rows(grid: _Grid) -> dict:
    base, cell_of = grid.base, grid.cell_of
    constz = base.scenario == "const-z"
    axis_roles = ("axis0", "axis1", "axis2") if constz else ("axis0", "axis1")
    streams = _role_streams(base.seed, ("case", *axis_roles, "holdout"))
    case = np.where(streams["case"].random(len(cell_of)) >= 0.5, "B", "A")
    # Truth: the case-independent part in one array pass over the cells,
    # the hidden spec in one over the rows.  A degenerate cell has NaN truth,
    # and its rows draw with a placeholder pair.
    eta0, theta, alpha, nz = map(grid.cells, ("eta0", "theta", "alpha", "nz"))
    vec, analytic, oracle = two_fold_cell(eta0, theta, alpha, Plane.const_z(nz) if constz else _XZ)
    plane = Plane.const_z(nz[cell_of]) if constz else _XZ
    spec = two_fold_spec(vec[cell_of], eta0[cell_of], theta[cell_of], case, plane)
    reached_rows = ~np.isnan(analytic)[cell_of]
    analytic, oracle = analytic[cell_of], oracle[cell_of]

    axis, n_hat = learn_axis(spec, base.shots_learn, [streams[role] for role in axis_roles])
    learned = reached_rows & axis.any(axis=-1)
    # The status reads the in-plane part of the estimate; the measured z of
    # a slice is not used.  An estimate within the noise floor of the zero
    # vector on both plane axes has a meaningless direction (weak), as the
    # equal-prior learner's readings do.  A weak row or one whose separation
    # cosine is out of range still classifies along its axis.
    u = plane.coords(n_hat)
    weak = weak_readings(u[..., 0], u[..., 1], weak_signal_threshold(base.shots_learn))
    in_range = ~np.isnan(cos_theta(row_norm(u), spec.eta0, tol=EPS_CLAMP, plane=plane))
    scored = learned & ~weak
    reach, keep = reached_rows.tolist(), scored.tolist()
    return {
        "scenario": base.scenario,
        "case": case.tolist(),
        "eta0": grid.column("eta0"),
        "theta_true": grid.column("theta"),
        "alpha_true": grid.column("alpha"),
        "beta_true": None,
        "n_z": grid.column("nz", float) if constz else 0.0,
        "alpha_hat": _masked(keep, plane_angle(n_hat, plane).tolist()),
        "success_analytic": _masked(reach, analytic.tolist()),
        "success_oracle": _masked(reach, oracle.tolist()),
        "shots_learn": [len(axis_roles) * base.shots_learn if r else 0 for r in reach],
        "status": [
            _DEGENERATE if not d else _WEAK if w else _OK if ok else _OUT_OF_RANGE
            for d, w, ok in zip(learned.tolist(), weak.tolist(), in_range.tolist())
        ],
        # A row with no learned axis classifies along the first plane axis,
        # and a row with no truth is scored against chance; neither row, nor
        # a weak one, reports its score.
        **_classify(
            spec, np.where(learned[:, None], axis, UNIT_X), base, streams["holdout"],
            np.where(reached_rows, analytic, 0.5), scored,
        ),
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
    the same role streams, one array per stream over every row.

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


def _csv_template(shared: list, types: tuple) -> str:
    """The %-template of a CSV line: the text of each shared cell (None
    where a column varies), then the spec of each varying cell's type."""
    varying = iter(types)
    return ",".join(_CSV_SPEC[_kind(next(varying))] if text is None else text for text in shared)


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
    then one %-format over its varying cells.  CSV picks its template by
    the types of those cells, JSON formats them a column at a time."""
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
        rows = list(zip(*varying)) if varying else [()] * len(table[0])
        types = [tuple(map(type, c)) for c in rows]
        templates = {t: _csv_template(shared, t) for t in set(types)}
        lines = [",".join(CSV_COLUMNS)]
        lines += [templates[t] % c for t, c in zip(types, rows)]
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
