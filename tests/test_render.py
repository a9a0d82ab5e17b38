"""Row rendering: render_results against a reference renderer.

The reference is the straightforward one: the record's rows, each a
namespace of cells, then csv.writer or json.dumps(indent=2).  render_results
decides each column once, from one table per format: a column whose cells
are all written alike goes into the row template as text, one whose kind
the template formats itself (every kind in CSV, integers in JSON) and that
holds no None gets that kind's spec, and any other gets its cells' texts.
One %-format per row then fills the template.  It must give the same bytes
for every record, including every pattern of empty cells the four statuses
produce, floats at the edges of the double range, and columns whose cells
are equal but not written alike (0.0 and -0.0).  Each column's kind decides
how its cells are written: an integer in a float column is written as a
float, and a cell of another kind is refused, before any cell is written.
"""

import csv
import functools
import io
import itertools
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from povmlearn.cli import _config_and_grid, build_parser
from povmlearn.errors import ContractViolation
from povmlearn.experiment import (
    CSV_COLUMNS,
    FORMATS,
    SCENARIOS,
    ExperimentConfig,
    _COLUMN_KINDS,
    _WRITERS,
    render_results,
    run_experiment,
    summarize,
    sweep,
)

from helpers import as_rows
from test_golden import GOLDEN_RUNS


def columns_of(rows) -> dict:
    """The result record of rows (namespaces of the CSV columns)."""
    return {k: [getattr(r, k) for r in rows] for k in CSV_COLUMNS}


def record(**cells) -> dict:
    """A one-row result record of these cells; the other cells are empty,
    the shots 0 and the status ok."""
    row = {**dict.fromkeys(CSV_COLUMNS), "shots_learn": 0, "shots_holdout": 0, "status": "ok", **cells}
    return {k: [v] for k, v in row.items()}


# --- reference renderer -----------------------------------------------------
# The kind of each column, as the README's output schema states it.

INT_COLUMNS = ("trial", "shots_learn", "shots_holdout")
TEXT_COLUMNS = ("scenario", "case", "status")
KIND = {name: "int" if name in INT_COLUMNS else "str" if name in TEXT_COLUMNS else "float" for name in CSV_COLUMNS}


def _fmt_float(x) -> str:
    return f"{float(x):.12g}"


def _csv_cell(name, value) -> str:
    if value is None:
        return ""
    return {"str": str, "int": lambda v: str(int(v)), "float": _fmt_float}[KIND[name]](value)


def _json_value(name, value):
    if value is None:
        return None
    return {"str": str, "int": int, "float": lambda v: float(_fmt_float(v))}[KIND[name]](value)


def reference_render(columns: dict, fmt: str) -> str:
    records = as_rows(columns)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([_csv_cell(k, getattr(rec, k)) for k in CSV_COLUMNS])
        return buf.getvalue()
    payload = [{k: _json_value(k, getattr(rec, k)) for k in CSV_COLUMNS} for rec in records]
    return json.dumps(payload, indent=2) + "\n"


# --- rows the program writes, one per (scenario, status, empty cells) --------

_SMALL = dict(shots_learn=2_000, shots_holdout=200, trials=4, seed=5)
STATUS_CONFIGS = (
    ExperimentConfig(scenario="equal-prior-xz", **_SMALL),
    # Nearly orthogonal settings at 50 shots: the difference signal is lost.
    ExperimentConfig(scenario="equal-prior-xz", beta=1.55, shots_learn=50, shots_holdout=100, trials=2, seed=3),
    ExperimentConfig(scenario="unequal-prior-xz", eta0=0.6, theta=1.2, **_SMALL),
    # Coincident states: noise pushes the separation cosine past 1.
    ExperimentConfig(scenario="unequal-prior-xz", eta0=0.6, theta=0.0, shots_learn=2_000, shots_holdout=100,
                     trials=10, seed=5),
    # Antipodal equal-prior pair: the ensemble vector vanishes, no truth.
    ExperimentConfig(scenario="unequal-prior-xz", eta0=0.5, theta=math.pi, shots_learn=50, shots_holdout=100,
                     trials=1, seed=1),
    # Nearly antipodal at 2 shots per axis: the estimate vanishes on about
    # a quarter of the rows.
    ExperimentConfig(scenario="const-z", eta0=0.5, theta=math.pi - 0.01, nz=0.3, shots_learn=2, shots_holdout=10,
                     trials=20, seed=1),
    ExperimentConfig(scenario="const-z", eta0=0.6, theta=1.2, nz=0.4, **_SMALL),
)


def _empty_cells(r: SimpleNamespace) -> tuple:
    return tuple(k for k in CSV_COLUMNS if getattr(r, k) is None)


@functools.cache
def status_rows() -> tuple:
    """The first row of each (scenario, status, empty-cell pattern)."""
    seen = {}
    for cfg in STATUS_CONFIGS:
        for r in as_rows(run_experiment(cfg)):
            seen.setdefault((r.scenario, r.status, _empty_cells(r)), r)
    return tuple(seen.values())


def test_status_rows_cover_every_status_and_empty_pattern():
    rows = status_rows()
    assert {r.status for r in rows} == {"ok", "weak_signal", "degenerate_ensemble", "cos_theta_out_of_range"}
    patterns = {_empty_cells(r) for r in rows}
    axis_etc = ("axis_x", "axis_y", "axis_z", "alpha_hat", "success_emp")
    assert patterns == {
        ("case",),  # equal-prior, scored
        ("case", *axis_etc, "z_score"),  # equal-prior, weak_signal
        ("beta_true",),  # two-fold, scored
        ("beta_true", *axis_etc, "z_score"),  # two-fold, degenerate while learning
        ("beta_true", *axis_etc, "success_analytic", "success_oracle", "z_score"),  # two-fold, no truth
    }


@pytest.mark.parametrize("fmt", FORMATS)
def test_program_rows_match_reference(fmt):
    rows = status_rows()
    assert render_results(columns_of(rows), fmt) == reference_render(columns_of(rows), fmt)
    for r in rows:
        assert render_results(columns_of([r]), fmt) == reference_render(columns_of([r]), fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_run_records_match_reference_in_both_formats(fmt, name):
    # The goldens pin one format per record; this checks the other too.
    config, grid = _config_and_grid(build_parser().parse_args(GOLDEN_RUNS[name]))
    columns = sweep(config, grid)
    assert render_results(columns, fmt) == reference_render(columns, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "config, statuses",
    [
        (ExperimentConfig(scenario="const-z", eta0=0.6, theta=1.2, nz=0.4, trials=10_000, seed=3), 1),
        # Near-antipodal at 20 shots per axis: rows of all four statuses.
        # cos_theta_out_of_range is rare here (3 of the 10^4 rows at seed 6;
        # some seeds, such as 1, have none).
        (ExperimentConfig(scenario="const-z", eta0=0.5, theta=math.pi - 0.3, nz=0.3, shots_learn=20,
                          shots_holdout=10, trials=10_000, seed=6), 4),
    ],
    ids=["ok", "every-status"],
)
def test_long_run_matches_reference(fmt, config, statuses):
    columns = run_experiment(config)
    assert len(set(columns["status"])) == statuses
    assert render_results(columns, fmt) == reference_render(columns, fmt)


# Both readers of a record refuse a malformed one through one check, its
# column named: never a KeyError, an AttributeError or a summary.
READERS = {"csv": functools.partial(render_results, fmt="csv"), "json": functools.partial(render_results, fmt="json"),
           "summarize": summarize}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("column", ["trial", "axis_y", "status"])
def test_columns_of_different_lengths_are_rejected(reader, column):
    # zip would drop the rows past the shortest column without a word.  The
    # message names the first column whose length differs from trial's.
    columns = columns_of(status_rows())
    columns[column] = columns[column][:-1]
    named = "scenario" if column == "trial" else column
    with pytest.raises(ContractViolation, match=f"^the {named} and trial columns differ in length"):
        READERS[reader](columns)


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("column", ["trial", "success_emp", "status"])
def test_a_record_without_a_column_is_rejected(reader, column):
    columns = columns_of(status_rows())
    del columns[column]
    with pytest.raises(ContractViolation, match=f"^the {column} column of a result record must be a list or tuple, "
                                                 "got no such column$"):
        READERS[reader](columns)


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("column", ["trial", "success_emp", "shots_holdout"])
def test_a_column_that_is_not_a_list_or_tuple_is_rejected(reader, column):
    columns = columns_of(status_rows())
    columns[column] = np.array(columns[column])
    with pytest.raises(ContractViolation, match=f"^the {column} column of a result record must be a list or tuple, "
                                                 "got ndarray$"):
        READERS[reader](columns)


@pytest.mark.parametrize("reader", READERS)
def test_a_record_of_tuples_is_read_as_one_of_lists(reader):
    columns = columns_of(status_rows())
    assert READERS[reader]({k: tuple(v) for k, v in columns.items()}) == READERS[reader](columns)


# --- generated rows ------------------------------------------------------------

EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, -2.225073858507201e-308,
    1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308, 1.0, -1.0, 2.0, 0.5, 1e-5, 1e11, 1e12,
    1e15, 1e16, 123456789012.0, 1234567890123456.0, 0.1 + 0.2, math.pi,
    math.inf, -math.inf, math.nan,
)
floats = st.one_of(
    st.floats(),  # subnormals, infinities and nan included
    st.sampled_from(EDGE_FLOATS),
    st.integers(-(2**60), 2**60).map(float),  # integer-valued: CSV "1", JSON "1.0"
    st.floats(1e-310, 1e-290) | st.floats(1e290, 1e308),
    st.floats(-1e308, -1e290) | st.floats(-1e-290, -1e-310),
)
float_cells = floats | floats.map(np.float64)
int_cells = st.integers(0, 2**63 - 1) | st.integers(0, 2**63 - 1).map(np.int64)
# A float field may also hold an integer (ExperimentConfig(theta=1) from a
# library caller); it is written as a float.
number_cells = float_cells | int_cells

FLOAT_FIELDS = (
    "eta0", "theta_true", "alpha_true", "beta_true", "n_z",
    "alpha_hat", "success_emp", "success_analytic", "success_oracle", "z_score",
)


AXIS_FIELDS = ("axis_x", "axis_y", "axis_z")


@st.composite
def trial_rows(draw) -> SimpleNamespace:
    """A row with the empty cells of a program row and any values elsewhere."""
    template = draw(st.sampled_from(status_rows()))
    cells = {name: None if getattr(template, name) is None else draw(number_cells) for name in FLOAT_FIELDS}
    axis = {name: None if getattr(template, name) is None else draw(floats) for name in AXIS_FIELDS}
    return SimpleNamespace(
        trial=draw(int_cells),
        scenario=draw(st.sampled_from(SCENARIOS)),
        case=template.case if template.case is None else draw(st.sampled_from(("A", "B"))),
        shots_learn=draw(int_cells),
        shots_holdout=draw(int_cells),
        status=template.status,
        **cells,
        **axis,
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(trial_rows(), min_size=1, max_size=4).map(columns_of))
def test_generated_rows_match_reference(columns):
    for fmt in FORMATS:
        assert render_results(columns, fmt) == reference_render(columns, fmt)


# --- repeated values ---------------------------------------------------------
# A column whose cells are all written alike is written once.  Equal cells
# are not always written alike: 0.0 and -0.0 compare equal, and NaN is not
# equal to itself, even when one NaN object fills a column.  Equal cells of
# other types are written alike by their column's kind: 1 and 1.0 (and
# np.int64(1) and np.float64(1.0)) in a float column.  The strings hold a
# '%' for the row template to escape.

_NAN = math.nan
POOL = {
    "float": (0.0, -0.0, 1, 1.0, np.int64(1), np.float64(1.0), _NAN, np.float64("nan"), None, 0.5),
    "int": (0, 1, np.int64(1), np.int64(0), 2**63 - 1, None),
    "str": ("A", "5%", "%s", None),
}
pool_cells = {
    "float": st.sampled_from(POOL["float"]) | st.builds(float, st.just("nan")),
    "int": st.sampled_from(POOL["int"]),
    "str": st.sampled_from(POOL["str"]),
}


@st.composite
def repeated_records(draw) -> dict:
    """A record of 1-40 rows whose every column holds two cells of its
    kind's POOL (or a NaN of its own), each object in the rows a bit mask
    picks, so that many columns repeat one value or one object."""
    n = draw(st.integers(1, 40))
    columns = {}
    for name in CSV_COLUMNS:
        cells = pool_cells[KIND[name]]
        first, other, mask = draw(cells), draw(cells), draw(st.integers(0, 2**n - 1))
        columns[name] = [other if mask >> i & 1 else first for i in range(n)]
    return columns


@settings(max_examples=200, deadline=None)
@given(repeated_records())
def test_records_with_repeated_values_match_reference(columns):
    for fmt in FORMATS:
        assert render_results(columns, fmt) == reference_render(columns, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("rows", [1, 50])
def test_all_shared_record(fmt, rows):
    # No column varies, trial included: every row is the template itself.
    for r in status_rows():
        columns = {k: [getattr(r, k)] * rows for k in CSV_COLUMNS}
        assert render_results(columns, fmt) == reference_render(columns, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "kind, first, last",
    [("float", 0.0, -0.0), ("float", -0.0, 0.0), ("float", 1.0, 1), ("float", 1, 1.0),
     ("float", np.float64(1.0), np.int64(1)), ("float", 0.5, None), ("float", None, 0.5),
     ("float", _NAN, float("nan")), ("int", 1, np.int64(1)), ("int", 3, None), ("str", "A", "B"),
     ("str", None, "A"),
     # JSON's row template formats an integer column without None itself.
     ("int", np.int64(7), 2**63 - 1), ("int", 2**63 - 1, None), ("int", None, np.int64(7))],
)
def test_column_shared_but_for_its_last_row(fmt, kind, first, last):
    base = {k: [getattr(status_rows()[0], k)] * 50 for k in CSV_COLUMNS}
    for name in (k for k in CSV_COLUMNS if KIND[k] == kind):
        columns = {**base, name: [first] * 49 + [last]}
        assert render_results(columns, fmt) == reference_render(columns, fmt), name


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64("nan"), -0.0, 1.0, 5e-324])
def test_edge_float_cells(value):
    r = record(trial=0, scenario="const-z", case="A", eta0=value, theta_true=value, alpha_true=value,
               n_z=value, axis_x=float(value), axis_y=0.0, axis_z=-float(value), z_score=value)
    for fmt in FORMATS:
        assert render_results(r, fmt) == reference_render(r, fmt)
    # How each format spells the value.
    cell = {"inf": ("inf", "Infinity"), "-inf": ("-inf", "-Infinity"), "nan": ("nan", "NaN"),
            "-0.0": ("-0", "-0.0"), "1.0": ("1", "1.0"), "5e-324": ("4.94065645841e-324", "5e-324")}[repr(float(value))]
    assert render_results(r, "csv").splitlines()[1].split(",")[CSV_COLUMNS.index("eta0")] == cell[0]
    assert f'"eta0": {cell[1]},' in render_results(r, "json")


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_json_escapes_any_string(text):
    r = record(trial=1, scenario=text, case=text, eta0=0.5, n_z=0.0, status=text)
    assert render_results(r, "json") == reference_render(r, "json")


@pytest.mark.parametrize("text", ["a,b", 'say "x"', "two\nlines"])
def test_csv_rejects_a_string_cell_that_needs_quoting(text):
    r = record(trial=1, scenario="const-z", case="A", eta0=0.5, n_z=0.0, status=text)
    with pytest.raises(ContractViolation):
        render_results(r, "csv")


# --- column kinds --------------------------------------------------------------


def test_schema_kinds_are_the_renderers():
    assert KIND == _COLUMN_KINDS


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("grid", [{"theta": [1]}, {"alpha": [0]}, {"theta": [1], "alpha": [0]}])
def test_run_and_its_one_cell_sweep_write_equal_bytes(fmt, grid):
    # A library caller's integer theta is a float like the swept 1.0.
    config = ExperimentConfig(scenario="unequal-prior-xz", eta0=0.6, theta=1, alpha=0, trials=2, shots_learn=2000,
                              shots_holdout=500, seed=1)
    run = render_results(run_experiment(config), fmt)
    assert run == render_results(sweep(config, grid), fmt)
    assert run == reference_render(run_experiment(config), fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "name, cell, text",
    [
        # '%d' would write 1.
        ("shots_learn", 1.5, "the shots_learn column holds integers, got 1.5"),
        ("trial", True, "the trial column holds integers, got True"),
        ("eta0", "0.5", "the eta0 column holds real numbers, got '0.5'"),
        ("alpha_hat", np.bool_(True), "the alpha_hat column holds real numbers, got np.True_"),
        ("status", 3, "the status column holds strings, got 3"),
        # A number is shown as the domain table shows it (bloch.shown).
        ("shots_holdout", np.float64(2.5), "the shots_holdout column holds integers, got 2.5"),
    ],
)
def test_a_cell_of_another_kind_is_refused_by_its_column(fmt, name, cell, text):
    r = record(trial=1, scenario="const-z", case="A", eta0=0.5, n_z=0.0)
    for place, eta0 in itertools.product(range(3), [0.5, 10**400]):
        # The first such cell is named, wherever it sits and whatever follows it,
        # even after an int that an earlier float column cannot write.
        columns = {k: v * 3 for k, v in r.items()}
        columns["eta0"] = [eta0] * 3
        columns[name] = [*columns[name][:place], cell, *[None] * (2 - place)]
        with pytest.raises(ContractViolation, match="^" + re.escape(text) + "$"):
            render_results(columns, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("huge, text", [(10**400, str(10**400)), (-(10**5000), "<int too long to write>")],
                         ids=["10**400", "-10**5000"])
def test_a_float_column_refuses_an_int_beyond_every_double(fmt, huge, text):
    # '%.12g' would raise OverflowError on it; an int that a double holds
    # before it is written as that double.
    columns = {k: v * 3 for k, v in record(trial=1, scenario="const-z", case="A", eta0=0.5, n_z=0.0).items()}
    columns["eta0"] = [0.5, 2**64, huge]
    message = f"the eta0 column holds real numbers, got {text}"
    with pytest.raises(ContractViolation, match="^" + re.escape(message) + "$"):
        render_results(columns, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("rows", [1, 3], ids=["shared", "varying"])
def test_an_integer_column_refuses_an_int_too_long_to_write(fmt, rows):
    # '%d' would raise ValueError past Python's 4300-digit limit; the column
    # is named whether its cells are written once (shared) or row by row.
    columns = {k: v * rows for k, v in record(trial=1, scenario="const-z", case="A", eta0=0.5, n_z=0.0).items()}
    columns["trial"] = [10**4000] * (rows - 1) + [10**5000]
    message = "the trial column holds integers, got <int too long to write>"
    with pytest.raises(ContractViolation, match="^" + re.escape(message) + "$"):
        render_results(columns, fmt)


@settings(max_examples=1000)
@given(st.floats())
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(2.2250738585072014e-308)
@example(1e300)
@example(-1e-300)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
def test_percent_format_equals_format_spec(x):
    # CSV floats are written with '%.12g'; the reference used format(x, '.12g').
    assert "%.12g" % x == format(x, ".12g") == "%.12g" % np.float64(x)


# --- JSON floats ------------------------------------------------------------
# The JSON float writer keeps a finite, exponent-free '%.12g' text as it is
# (plus '.0' when it has no point) and sends every other text through repr
# (_json_float).  The expected text is json.dumps of the 12-digit value.

JSON_FLOAT_CASES = (
    # '%g' writes an exponent from 1e12 on, repr from 1e16 on.
    (1e11, "100000000000.0"),
    (99999999999.5, "99999999999.5"),
    (999999999999.4, "999999999999.0"),
    (999999999999.5, "1000000000000.0"),
    (1e12, "1000000000000.0"),
    (1e13, "10000000000000.0"),
    (1e14, "100000000000000.0"),
    (1e15, "1000000000000000.0"),
    (1e16, "1e+16"),
    (-1e15, "-1000000000000000.0"),
    (123456789012345.0, "123456789012000.0"),
    # Both switch to an exponent below 1e-4.
    (1e-4, "0.0001"),
    (1.5e-4, "0.00015"),
    (1e-5, "1e-05"),
    (-1e-5, "-1e-05"),
    (0.0, "0.0"),
    (-0.0, "-0.0"),
    (1.0, "1.0"),
    (-7.0, "-7.0"),
    (0.1 + 0.2, "0.3"),
    (math.pi, "3.14159265359"),
    (2.0**52, "4503599627370000.0"),
    (5e-324, "5e-324"),
    (-5e-324, "-5e-324"),
    (1e-310, "1e-310"),
    (2.2250738585072014e-308, "2.22507385851e-308"),
    (math.nan, "NaN"),
    (math.inf, "Infinity"),
    (-math.inf, "-Infinity"),
)


def json_float(x) -> str:
    """The JSON text of x in a float column."""
    return _WRITERS["json"]["float"][0]([x])[0]


@pytest.mark.parametrize("value, text", JSON_FLOAT_CASES, ids=[repr(v) for v, _ in JSON_FLOAT_CASES])
@pytest.mark.parametrize("kind", [float, np.float64])
def test_json_float_cases(value, text, kind):
    assert json_float(kind(value)) == text == json.dumps(float("%.12g" % value))


@pytest.mark.parametrize("value", [0, 7, -3, 2**53 + 1, np.int64(12)])
def test_json_float_of_an_integer_value(value):
    # A float field holding an integer is written as a float (render_results),
    # and the float writer agrees with json.dumps on it.
    assert json_float(value) == json.dumps(float("%.12g" % value))


@settings(max_examples=2000)
@given(st.floats() | st.floats(1e-6, 1e17) | st.floats(-1e17, -1e-6))
def test_json_float_equals_the_shortest_repr(x):
    assert json_float(x) == json.dumps(float("%.12g" % x))
