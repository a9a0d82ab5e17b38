"""The row and oracle checkers flag each kind of bad output they promise to."""

import json

import pytest

import run
from checker import check_oracle, check_trials
from workloads import Sizes, repetition

TINY = Sizes(run_trials=4, sweep_points=(3, 3, 2, 1), oracle_instances=5)


@pytest.fixture(scope="module")
def program():
    return run.load_program()


def _good(program, tmp_path, workload, index=0):
    cli, columns = program
    inv = repetition(workload, 7, 0, tmp_path, TINY)[index]
    call = run.invoke(cli, inv, columns)
    assert call.verdict.failed == 0, call.verdict.problems
    return inv, call.output.decode(), columns


def _csv_edit(text, row, column, value):
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("index", [0, 1, 2])
def test_clean_run_output_passes(program, tmp_path, index):
    inv, text, columns = _good(program, tmp_path, "run-deep", index)
    assert check_trials(text, inv, columns, 0).failed == 0


@pytest.mark.parametrize(
    "column, value, reason",
    [
        ("status", "exploded", "undocumented status"),
        ("z_score", "nan", "z_score is nan"),
        ("success_emp", "inf", "success_emp is inf"),
        ("shots_learn", "199999", "shots_learn"),
        ("shots_holdout", "9999", "shots_holdout"),
        ("axis_y", "0.1", "axis"),
        ("success_oracle", "0.1", "disagree"),
    ],
)
def test_csv_row_faults_are_flagged(program, tmp_path, column, value, reason):
    inv, text, columns = _good(program, tmp_path, "run-deep", 1)
    verdict = check_trials(_csv_edit(text, 2, column, value), inv, columns, 0)
    assert verdict.failed == 1
    assert reason in verdict.problems[0]


def test_missing_row_is_flagged(program, tmp_path):
    inv, text, columns = _good(program, tmp_path, "run-deep", 2)
    lines = text.splitlines(keepends=True)
    verdict = check_trials("".join(lines[:-1]), inv, columns, 0)
    assert verdict.failed == 1
    assert "rows where" in verdict.problems[0]


def test_wrong_header_and_exit_code_fail_every_row(program, tmp_path):
    inv, text, columns = _good(program, tmp_path, "run-deep", 0)
    assert check_trials(text.replace("z_score", "pull", 1), inv, columns, 0).failed == inv.rows
    assert check_trials(text, inv, columns, 2).failed == inv.rows


def test_json_row_faults_are_flagged(program, tmp_path):
    inv, text, columns = _good(program, tmp_path, "sweep-wide")
    assert check_trials(text, inv, columns, 0).failed == 0
    rows = json.loads(text)
    faults = [("status", "exploded"), ("z_score", float("nan")), ("shots_learn", 1)]
    for (column, value), row in zip(faults, rows):
        row[column] = value
    del rows[-1]
    verdict = check_trials(json.dumps(rows), inv, columns, 0)
    assert verdict.failed == len(faults) + 1


def test_oracle_checker(program, tmp_path):
    inv, text, _ = _good(program, tmp_path, "oracle-check")
    assert check_oracle(text, inv, 0).failed == 0
    assert check_oracle(text, inv, 2).failed == inv.instances
    assert check_oracle(text.replace("PASS", "FAIL", 1), inv, 0).failed == inv.instances
    # What `--instances 0` prints: every line PASS, but no instance checked.
    vacuous = text.replace(f"({inv.instances} instances)", "(0 instances)")
    assert check_oracle(vacuous, inv, 0).failed == inv.instances
