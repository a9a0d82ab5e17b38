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
two-fold cells (decomposition.equal_prior_cell maps an equal-prior one):
two_fold_cell over the cells, and decomposition.two_fold_spec, the batch
spec the rows sample from, over the rows.  A degenerate cell's truth is
NaN, and its rows draw with its true pair.  A run or sweep is validated
once, each swept field as its column: one value per cell.

All three scenarios learn through one function, learn_axis, on a
measurement frame: the Pauli axes of the plane, or for equal-prior-xz
the axes of the settings phi0 and phi0 + pi/4, an x-z frame turned by
phi0.  One row builder (_rows) serves every scenario, which gives it its
data, and the rows report alike (_report).  The two-fold scenarios share
one pipeline on a Plane: unequal-prior-xz runs it on the x-z plane,
const-z on the slice z = nz, and the scenario only chooses the plane.
The slice pipeline measures one extra axis (z), whose stream comes after
the two in-plane ones, so at nz = 0 it draws exactly the counts of the
x-z pipeline for the corresponding measurements.
"""

from __future__ import annotations

import collections
import itertools
import math
import os
import sys
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

from povmlearn.bloch import UNIT_X, Plane, any_row, check_domain, plane_angle, reduce_angle, row_norm
from povmlearn.decomposition import (
    EPS_CLAMP,
    cos_theta,
    ensemble_vector,
    equal_prior_cell,
    learn_axis,
    mixture_targets,
    success_prob,
    two_fold_spec,
)
from povmlearn.ensemble import EnsembleSpec, RngStream, pauli_axes
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
# its unlabeled qubits (learn_axis) and the holdout the correct count of its
# labelled qubits (classify_holdout).  Learning axes take axis0, axis1,
# axis2 in pauli_axes order (or the two angle settings), so the slice
# pipeline's extra z measurement has its own stream and the nz = 0
# reduction stays exact count for count.  Each stream draws one array over
# all rows of a run or sweep, in row order.
_ROLES = ("case", "axis0", "axis1", "axis2", "holdout")
_ID_STRIDE = 3

_OK, _OUT_OF_RANGE, _DEGENERATE, _WEAK = "ok", "cos_theta_out_of_range", "degenerate_ensemble", "weak_signal"
_XZ = Plane.xz()


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
        """Refuse a config with a field outside its domain (check_domain); a
        real field may hold a column, one value per cell of a sweep.  A
        domain holds whichever scenario consumes the field, so an
        out-of-range value never passes silently as an unused flag; the
        equal-prior scenario also pins eta0 to 0.5."""
        if self.scenario not in SCENARIOS:
            raise ContractViolation(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.fmt not in FORMATS:
            raise ContractViolation(f"format must be one of {FORMATS}, got {self.fmt!r}")
        for name in ("shots_learn", "shots_holdout"):
            check_domain("shots", getattr(self, name), name)
        for name in ("trials", "seed", "alpha", "phi0", "eta0", "beta", "theta", "nz"):
            check_domain(name, getattr(self, name))
        if self.scenario == "equal-prior-xz" and any_row(abs(self.eta0 - 0.5) > 1e-12):
            raise ContractViolation("the equal-prior scenario requires eta0 = 0.5")


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


def _rows(config: ExperimentConfig, cells: int) -> dict:
    """The record columns of every row of config's cells but the trial index:
    config.trials rows per cell, in cell order.  A swept field of config
    holds one value per cell, any other field the value every cell shares.
    The scenarios differ only in data: the roles drawn (equal priors draw no
    case), the cell (equal_prior_cell maps an equal-prior one), the plane,
    the learning frame, the sign of the learned axis, how alpha_hat is read
    and whether cos_theta bounds the status, and the descriptive columns."""
    cell_of = np.repeat(np.arange(cells), int(config.trials))

    def per_cell(key):
        return np.full(cells, getattr(config, key), dtype=float)

    def per_row(value, convert=lambda v: v):
        # A swept field's value in each row's cell, else its one value.
        return value[cell_of].tolist() if np.ndim(value) else convert(value)

    equal, constz = config.scenario == "equal-prior-xz", config.scenario == "const-z"
    axis_roles = ("axis0", "axis1", "axis2") if constz else ("axis0", "axis1")
    streams = _role_streams(config.seed, (*axis_roles, "holdout") if equal else ("case", *axis_roles, "holdout"))
    if equal:
        # An equal-prior cell's ensemble vector has length cos(beta), so
        # antipodal states (beta = pi/2) leave degenerate rows.
        (eta0, theta, direction, case), plane = equal_prior_cell(per_cell("alpha"), per_cell("beta")), _XZ
        # The settings phi0 and phi0 + pi/4 read the ensemble along an x-z
        # frame turned by phi0, reduced first so that a huge phi0 keeps its
        # quarter turn.
        phi0 = reduce_angle(config.phi0)
        frame = (povm_axis_from_phi(phi0), povm_axis_from_phi(phi0 + 0.25 * math.pi))
        columns = {"case": None, "eta0": 0.5, "theta_true": per_row(2.0 * config.beta),
                   "beta_true": per_row(config.beta), "n_z": 0.0}
    else:
        case = np.where(streams["case"].random(len(cell_of)) >= 0.5, "B", "A")
        eta0, theta, direction = map(per_cell, ("eta0", "theta", "alpha"))
        plane = Plane.const_z(per_cell("nz")) if constz else _XZ
        frame = pauli_axes(plane)
        columns = {"case": case.tolist(), "eta0": per_row(config.eta0), "theta_true": per_row(config.theta),
                   "beta_true": None, "n_z": per_row(config.nz, float) if constz else 0.0}
    # Truth: each cell's success and oracle value, then the hidden spec of
    # each row, drawn from its cell with its case.
    _, analytic, oracle = two_fold_cell(eta0, theta, direction, plane)
    rows = plane if plane.kind == "xz" else Plane.const_z(plane.nz[cell_of])
    spec = two_fold_spec(eta0[cell_of], theta[cell_of], direction[cell_of], case, rows)
    axis, n_hat, readings = learn_axis(spec, frame, config.shots_learn, [streams[r] for r in axis_roles])
    if equal:
        # The learned perpendicular, negated, is the axis of
        # phi* = alpha_hat/2 + pi/4; 0.0 - axis writes no -0.0.
        axis, alpha_hat, in_range = 0.0 - axis, solve_alpha(readings[..., 0], readings[..., 1], phi0), True
    else:
        # The status reads the in-plane part of the estimate; the measured
        # z of a slice is not used.
        alpha_hat, u = plane_angle(n_hat, spec.plane), spec.plane.coords(n_hat)
        in_range = ~np.isnan(cos_theta(row_norm(u), spec.eta0, tol=EPS_CLAMP, plane=spec.plane))
    reached = ~np.isnan(analytic)[cell_of]
    return {
        "scenario": config.scenario,
        "alpha_true": per_row(config.alpha),
        **columns,
        **_report(config, spec, axis, readings, alpha_hat, reached, analytic[cell_of], oracle[cell_of], in_range,
                  streams["holdout"]),
    }


# The columns of a result record: the CSV columns, then the holdout
# qubits each row classified correctly (None where it reports no score).
_RECORD_COLUMNS = (*CSV_COLUMNS, "holdout_correct")


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
    combos = list(itertools.product(*([float(v) for v in grid[k]] for k in keys)))
    # Each swept field holds its column, one value per cell, and the whole
    # config is validated once, also when a column is empty.
    config = replace(base, **{k: np.array(column) for k, column in zip(keys, zip(*combos))})
    config.validate()
    unread = [k for k in keys if k not in _READS[base.scenario]]
    if unread:
        raise ContractViolation(f"cannot sweep over {unread}, which the {base.scenario} scenario does not read")
    if not combos:
        return {name: [] for name in _RECORD_COLUMNS}
    count = len(combos) * int(base.trials)
    columns = {"trial": list(range(count)), **_rows(config, len(combos))}
    # A value that every row shares is expanded to one entry per row.
    return {name: v if isinstance(v := columns[name], list) else [v] * count for name in _RECORD_COLUMNS}


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


def emit_results(columns: dict[str, list], fmt: str = "csv", path: str | os.PathLike | None = None) -> None:
    """Write a rendered result record to a file, or stdout when path is None.

    Identical records and format produce byte-identical files.  A file that
    cannot be written raises OSError naming the path as given, a str or a
    Path alike.
    """
    text = render_results(columns, fmt)
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write results to {os.fspath(path)!r}: {exc}") from exc
