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
value, helstrom's success on the cell's mixture targets) is fixed by a
cell's parameters and the row's case, and is never random.  Every
scenario builds it once per run or sweep, as arrays, from two-fold cells
(decomposition.equal_prior_cell maps an equal-prior one): two_fold_cell
over the cells, and decomposition.two_fold_spec, the batch spec the rows
sample from, over the rows.  A degenerate cell's truth is
NaN, and its rows draw with its true pair.  A run or sweep is validated
once, each swept field as its column: one value per cell.

All three scenarios learn through one function, learn_axis, on a
measurement frame: the Pauli axes of the plane, or for equal-prior-xz
the axes of the settings phi0 and phi0 + pi/4, an x-z frame turned by
phi0.  One row builder (_rows) serves every scenario, which gives it its
data, and decides every row's status in one place.  The two-fold
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
import os
import sys
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

from povmlearn.bloch import (
    INTEGERS,
    REALS,
    UNIT_X,
    Plane,
    any_row,
    check_domain,
    plane_angle,
    reduce_angle,
    row_norm,
    shown,
)
from povmlearn.decomposition import (
    EPS_CLAMP,
    cos_theta,
    ensemble_vector,
    equal_prior_cell,
    learn_axis,
    mixture_targets,
    povm_axis_from_phi,
    solve_alpha,
    success_prob,
    two_fold_spec,
)
from povmlearn.ensemble import RngStream, pauli_axes
from povmlearn.errors import ContractViolation
from povmlearn.evaluate import classify_holdout, score
from povmlearn.helstrom import helstrom

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

# The record columns and the kind of each, which decides how its cells are
# written (render_results): integers, text, or floats.
_COLUMN_KINDS = {
    "trial": "int",
    "scenario": "str",
    "case": "str",
    "eta0": "float",
    "theta_true": "float",
    "alpha_true": "float",
    "beta_true": "float",
    "n_z": "float",
    "axis_x": "float",
    "axis_y": "float",
    "axis_z": "float",
    "alpha_hat": "float",
    "success_emp": "float",
    "success_analytic": "float",
    "success_oracle": "float",
    "z_score": "float",
    "shots_learn": "int",
    "shots_holdout": "int",
    "status": "str",
}
CSV_COLUMNS = tuple(_COLUMN_KINDS)

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

    def validate(self) -> None:
        """Refuse a config with a field outside its domain (check_domain); a
        real field may hold a column, one value per cell of a sweep.  A
        domain holds whichever scenario consumes the field, so an
        out-of-range value never passes silently as an unused flag; the
        equal-prior scenario also pins eta0 to 0.5."""
        if self.scenario not in SCENARIOS:
            raise ContractViolation(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        for name in ("shots_learn", "shots_holdout"):
            check_domain("shots", getattr(self, name), name)
        for name in ("trials", "seed", "alpha", "phi0", "eta0", "beta", "theta", "nz"):
            check_domain(name, getattr(self, name))
        if self.scenario == "equal-prior-xz" and any_row(abs(self.eta0 - 0.5) > 1e-12):
            raise ContractViolation("the equal-prior scenario requires eta0 = 0.5")


def two_fold_cell(eta0, theta, direction, plane: Plane):
    """Case-independent truth of a two-fold cell, shared by both branches:
    the closed-form success and the oracle value (helstrom on the mixture
    targets) of its ensemble vector, in `plane` along `direction` (plane
    coordinates) with the norm implied by (eta0, theta).  Arrays of
    parameters (and a plane with one nz per cell) give every cell's truth
    in one pass; a degenerate cell, alone or in a batch, has NaN in both."""
    n, r = ensemble_vector(eta0, theta, direction, plane)
    oracle = helstrom(*mixture_targets(n, theta, eta0, plane))[0]
    analytic = success_prob(eta0, theta, r, plane)
    lost = np.isnan(analytic) | np.isnan(oracle)
    return np.where(lost, np.nan, analytic)[()], np.where(lost, np.nan, oracle)[()]


def _role_streams(seed: int, roles: Sequence[str]) -> dict:
    """The generator of each role, the RngStream of its layout-v4 id."""
    return {role: RngStream(seed, _ID_STRIDE * _ROLES.index(role)).generator() for role in roles}


def _masked(keep: list, values: list) -> list:
    """values where keep is true, None elsewhere; values itself when every
    row is kept."""
    if all(keep):
        return values
    return [v if k else None for v, k in zip(values, keep)]


def _rows(config: ExperimentConfig, cells: int) -> dict:
    """The record columns of every row of config's cells but the trial index:
    config.trials rows per cell, in cell order.  A swept field of config
    holds one value per cell, any other field the value every cell shares.
    The scenarios differ only in data: the roles drawn (equal priors draw no
    case), the cell (equal_prior_cell maps an equal-prior one), the plane,
    the learning frame, the sign of the learned axis, how alpha_hat is read
    and whether cos_theta bounds the status, and the descriptive columns.

    The status of every row is decided here.  A row is degenerate when its
    truth or its estimate has no in-plane direction, weak when its first
    two readings both sit within the noise floor 3/sqrt(shots_learn),
    where their direction is meaningless (a slice's z reading is not
    used), and out of range where in_range fails.  Every row draws its
    holdout qubits: along the first plane axis where its axis is zero,
    and against chance where it has no truth.  Only the rows neither
    degenerate nor weak report their score, axis and alpha_hat."""
    cell_of = np.repeat(np.arange(cells), int(config.trials))

    def per_cell(key):
        return np.full(cells, getattr(config, key), dtype=float)

    def per_row(value):
        # A swept field's value in each row's cell, else its one value.
        return value[cell_of].tolist() if np.ndim(value) else value

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
                   "beta_true": None, "n_z": per_row(config.nz) if constz else 0.0}
    # Truth: each cell's success and oracle value, read in each row, then
    # the hidden spec of each row, drawn from its cell with its case.
    analytic, oracle = (truth[cell_of] for truth in two_fold_cell(eta0, theta, direction, plane))
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
    reached, has_axis = ~np.isnan(analytic), axis.any(axis=-1)
    learned = reached & has_axis
    weak = np.maximum(np.abs(readings[..., 0]), np.abs(readings[..., 1])) <= 3.0 / math.sqrt(config.shots_learn)
    scored = learned & ~weak
    ok = scored & in_range
    n, budget = config.shots_holdout, readings.shape[-1] * config.shots_learn
    correct = classify_holdout(spec, np.where(has_axis[:, None], axis, UNIT_X), n, streams["holdout"])
    success, z = score(correct, n, np.where(reached, analytic, 0.5))
    reach, keep = reached.tolist(), scored.tolist()
    return {
        "scenario": config.scenario,
        "alpha_true": per_row(config.alpha),
        **columns,
        **{name: _masked(keep, part) for name, part in zip(("axis_x", "axis_y", "axis_z"), axis.T.tolist())},
        "alpha_hat": _masked(keep, alpha_hat.tolist()),
        "success_emp": _masked(keep, success.tolist()),
        "success_analytic": _masked(reach, analytic.tolist()),
        "success_oracle": _masked(reach, oracle.tolist()),
        "z_score": _masked(keep, z.tolist()),
        "shots_learn": [budget if r else 0 for r in reach],
        "shots_holdout": [n if k else 0 for k in keep],
        "status": [
            _OK if o else _DEGENERATE if not d else _WEAK if w else _OUT_OF_RANGE
            for o, d, w in zip(ok.tolist(), learned.tolist(), weak.tolist())
        ],
    }


def run_experiment(config: ExperimentConfig) -> dict[str, list]:
    """Run config.trials trials: the one-cell sweep of config.  Recoverable
    per-row outcomes are recorded in the row status, never raised."""
    return sweep(config, {})


def sweep(base: ExperimentConfig, grid: dict[str, Sequence[float]]) -> dict[str, list]:
    """Cartesian sweep over parameter value lists, base.trials rows per cell
    in cell order, with globally unique trial indices.  All cells draw from
    the same role streams, one array per stream over every row.  A grid
    key the scenario does not read is refused, since its cells would repeat,
    and so is an entry that is not a list of values (text, None, a number).

    The result record is what render_results writes: each CSV_COLUMNS name,
    in order, maps to a list with one entry per row, None where the row's
    status leaves a value empty.  One check (_check_record) refuses a
    malformed record for its readers, render_results and summarize."""
    keys = [k for k in SWEEP_KEYS if k in grid]
    unknown = set(grid) - set(keys)
    if unknown:
        raise ContractViolation(f"cannot sweep over {sorted(unknown)}")
    # Each swept value is one number, checked as given, as the config field
    # would be, before it is read as a double.
    for k in keys:
        if isinstance(values := grid[k], (str, bytes)) or not np.iterable(values):
            bad = values[()] if isinstance(values, np.ndarray) else values
            raise ContractViolation(f"a swept {k} takes a list of values, got {shown(bad)}")
        for v in values:
            check_domain(k, v)
            if np.ndim(v):
                raise ContractViolation(f"a swept {k} value must be one number, got {shown(v)}")
    combos = list(itertools.product(*([float(v) for v in grid[k]] for k in keys)))
    # Each swept field holds its column, one value per cell, and the whole
    # config is validated once, also when a column is empty.
    config = replace(base, **{k: np.array(column) for k, column in zip(keys, zip(*combos))})
    config.validate()
    unread = [k for k in keys if k not in _READS[base.scenario]]
    if unread:
        raise ContractViolation(f"cannot sweep over {unread}, which the {base.scenario} scenario does not read")
    if not combos:
        return {name: [] for name in CSV_COLUMNS}
    count = len(combos) * int(base.trials)
    columns = {"trial": list(range(count)), **_rows(config, len(combos))}
    # A value that every row shares is expanded to one entry per row.
    return {name: v if isinstance(v := columns[name], list) else [v] * count for name in CSV_COLUMNS}


def _check_record(columns: dict) -> list:
    """The CSV_COLUMNS of a result record, in order, once each is there, is
    a list or tuple, and all have one length; else the record is refused,
    the column at fault named."""
    table = []
    for name in CSV_COLUMNS:
        if not isinstance(column := columns.get(name), (list, tuple)):
            got = type(column).__name__ if name in columns else "no such column"
            raise ContractViolation(f"the {name} column of a result record must be a list or tuple, got {got}")
        if table and len(column) != len(table[0]):
            raise ContractViolation(f"the {name} and trial columns differ in length, {len(column)} and {len(table[0])}")
        table.append(column)
    return table


def summarize(columns: dict[str, list]) -> dict:
    """Aggregate counts of a result record (_check_record), and pooled
    success over the rows that report a score: their success_emp weighted
    by shots_holdout.  That is their share of correct holdout qubits, up to
    rounding, so the written record gives it again."""
    _check_record(columns)
    scored = [v is not None for v in columns["success_emp"]]
    success, holdout, analytic, z = (
        list(itertools.compress(columns[name], scored))
        for name in ("success_emp", "shots_holdout", "success_analytic", "z_score")
    )
    pooled_total = sum(holdout)
    return {
        "trials": len(columns["trial"]),
        "statuses": dict(collections.Counter(columns["status"])),
        "pooled_success": sum(s * h for s, h in zip(success, holdout)) / pooled_total if pooled_total else None,
        "mean_analytic": sum(analytic) / len(analytic) if analytic else None,
        "max_abs_z": max(map(abs, z), default=None),
        "qubits_used": sum(columns["shots_learn"]) + sum(columns["shots_holdout"]),
    }


# The types a cell of each kind may have, None included, and their name in
# the message that refuses any other type, or a cell the kind cannot write.
_KIND_TYPES = {"int": ((*INTEGERS, type(None)), "integers"), "str": ((str, type(None)), "strings"),
               "float": ((*REALS, type(None)), "real numbers")}


def _is_shared(column: list) -> bool:
    """Whether every cell of a column is written as its first is: all equal
    (1 == 1.0, written alike by the column's kind) and of one sign at zero
    (0.0 == -0.0)."""
    first = column[0]
    return column.count(first) == len(column) and (first != 0 or len({math.copysign(1.0, x) for x in column}) == 1)


# CSV: empty for None, strings as they are, integers in full, and floats at
# 12 significant digits.  No cell needs quoting: numbers hold no comma,
# quote or newline, and render_results checks that no string does.
_CSV_SPEC = {"str": "%s", "int": "%d", "float": "%.12g"}


def _csv_column(column: list, kind: str, types: set) -> tuple[str, list]:
    """The spec of a varying CSV column in the row template, and the cells
    that fill it: the column itself under its kind's spec, or, when it holds
    None, the text of each cell under %s."""
    spec = _CSV_SPEC[kind]
    if type(None) not in types:
        return spec, column
    return "%s", ["" if v is None else spec % v for v in column]


# JSON: the text json.dumps(indent=2) writes for each cell; a float is the
# shortest repr of its 12-significant-digit value.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(text: str) -> str:
    """The JSON text of a '%.12g' text with an exponent, nan or inf: the
    shortest repr of its value, as json.dumps writes it."""
    text = float.__repr__(float(text))
    return _JSON_NONFINITE.get(text, text)


# Each kind's column (and None) is written in one comprehension.  A finite
# float's '%.12g' text without an exponent is the shortest repr of its value
# already, save a missing '.0': a decimal of at most 15 significant digits
# reads back as a double whose shortest repr has the same digits, and both
# '%g' and repr write a decimal exponent in [-4, 12) positionally.  Other
# texts (an exponent, nan, inf) go through float and repr (_json_float).
_JSON_COLUMN = {
    "str": lambda c: ["null" if v is None else encode_basestring_ascii(v) for v in c],
    "int": lambda c: ["null" if v is None else "%d" % v for v in c],
    "float": lambda c: [
        "null" if v is None
        else t if "." in (t := "%.12g" % v) and "e" not in t
        else t + ".0" if "e" not in t and "n" not in t
        else _json_float(t)
        for v in c
    ],
}
_JSON_OBJECT = "  {\n" + ",\n".join(f"    {encode_basestring_ascii(k)}: %s" for k in CSV_COLUMNS) + "\n  }"


def render_results(columns: dict[str, list], fmt: str = "csv") -> str:
    """Render the CSV_COLUMNS of a result record to CSV or JSON text; both
    carry the same fields, floats at 12 significant digits, empty/null for
    inapplicable values.

    Each column's kind (_COLUMN_KINDS) decides how its cells are written: a
    float column writes any real number, a Python or numpy int or float, as
    a float; an integer column takes integers, a text column strings, and
    any cell may be None.  A cell of another type, or one that its kind
    cannot write (an int beyond every double in a float column, or of more
    than 4300 digits), is refused, its column named.  The bytes are those
    of csv.writer (lineterminator "\\n") and of json.dumps(indent=2) over
    the cells so written.  A column whose cells are all written alike is
    written once, into the row template; each row is then one %-format
    over the cells of the other columns.  A malformed record (a column
    missing, not a list or tuple, or of another length) is refused first."""
    table = _check_record(columns)
    if not table[0]:
        raise ContractViolation("no result rows to emit")
    if fmt not in FORMATS:
        raise ContractViolation(f"format must be one of {FORMATS}, got {fmt!r}")
    types = [set(map(type, c)) for c in table]
    kinds = _COLUMN_KINDS.values()
    for name, kind, column, t in zip(CSV_COLUMNS, kinds, table, types):
        wrong = {u for u in t if u is bool or not issubclass(u, _KIND_TYPES[kind][0])}
        for v in column if wrong else ():
            if type(v) in wrong:
                raise ContractViolation(f"the {name} column holds {_KIND_TYPES[kind][1]}, got {shown(v)}")
    try:
        return _render(table, kinds, types, fmt)
    except (OverflowError, ValueError):
        # Only an int can fail its kind's spec, in CSV and JSON alike; the cells are scanned only now.
        for name, kind, v in ((n, k, v) for n, k, c in zip(CSV_COLUMNS, kinds, table) for v in c):
            try:
                _CSV_SPEC[kind] % (0 if v is None else v)
            except (OverflowError, ValueError):
                raise ContractViolation(f"the {name} column holds {_KIND_TYPES[kind][1]}, got {shown(v)}") from None
        raise


def _render(table: list[list], kinds, types: list[set], fmt: str) -> str:
    """The text of render_results over cells of their columns' types."""
    write = (lambda v, kind: "" if v is None else _CSV_SPEC[kind] % v) if fmt == "csv" else (
        lambda v, kind: _JSON_COLUMN[kind]((v,))[0])
    # The text of each shared column, % escaped for the row template.
    shared = [write(c[0], kind).replace("%", "%%") if _is_shared(c) else None for c, kind in zip(table, kinds)]
    varying = [(c, kind, t) for c, kind, t, text in zip(table, kinds, types, shared) if text is None]
    # With no varying column, every row is the template itself.
    if fmt == "csv":
        specs, cells = zip(*(_csv_column(*v) for v in varying)) if varying else ((), ())
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
    rows = zip(*(_JSON_COLUMN[kind](c) for c, kind, _ in varying)) if varying else [()] * len(table[0])
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
