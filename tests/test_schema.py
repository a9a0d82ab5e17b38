"""The README matches what the code writes: its output-schema table and
its first-case command."""

import csv
import io
import math
import re
from pathlib import Path

from povmlearn.cli import main as cli_main
from povmlearn.experiment import (
    CSV_COLUMNS,
    SCENARIOS,
    ExperimentConfig,
    _COLUMN_KINDS,
    render_results,
    run_experiment,
)

from helpers import circ_diff

README = Path(__file__).resolve().parents[1] / "README.md"


def schema_table() -> list[tuple[list[str], str]]:
    """(column names, meaning) per row of the README's output-schema table."""
    section = README.read_text().split("## Output schema", 1)[1]
    rows = []
    for line in section.splitlines():
        if line.startswith("#"):
            break
        if not line.startswith("| `"):
            continue
        names_cell, meaning = line.strip().strip("|").split("|", 1)
        rows.append((re.findall(r"`([^`]+)`", names_cell), meaning))
    return rows


def rendered_rows() -> list[dict]:
    rows = []
    for scenario in SCENARIOS:
        cfg = ExperimentConfig(
            scenario=scenario,
            eta0=0.5 if scenario == "equal-prior-xz" else 0.6,
            nz=0.3 if scenario == "const-z" else 0.0,
            shots_learn=1000,
            shots_holdout=500,
            trials=2,
            seed=4,
        )
        rows.extend(csv.DictReader(io.StringIO(render_results(run_experiment(cfg)))))
    return rows


def test_table_lists_every_column_in_order():
    names = [name for row_names, _ in schema_table() for name in row_names]
    assert tuple(names) == CSV_COLUMNS


def test_scenario_only_columns_are_empty_elsewhere():
    rows = rendered_rows()
    annotated = 0
    for names, meaning in schema_table():
        only = re.search(r"\(`([\w-]+)` only\)", meaning)
        if only is None:
            continue
        assert only.group(1) in SCENARIOS
        annotated += 1
        for row in rows:
            if row["scenario"] != only.group(1):
                for name in names:
                    assert row[name] == "", f"{name} is set on a {row['scenario']} row"
    assert annotated >= 1


def test_kinds_named_in_the_schema_are_those_the_code_writes():
    section = " ".join(README.read_text().split("## Output schema", 1)[1].split("\n## ", 1)[0].split())
    found = re.search(r"((?:`\w+`,? (?:and )?)+)are integers, and ((?:`\w+`,? (?:and )?)+)are text\.", section)
    assert found is not None
    named = {kind: re.findall(r"`(\w+)`", group) for kind, group in zip(("int", "str"), found.groups())}
    assert {kind: [k for k, v in _COLUMN_KINDS.items() if v == kind] for kind in ("int", "str")} == named
    assert set(_COLUMN_KINDS.values()) == {"int", "str", "float"}


FIRST_CASE = ("run", "--scenario", "equal-prior-xz", "--trials", "1", "--alpha", "1.0472", "--beta", "0.5236",
              "--seed", "0")


def test_first_case_command_learns_the_optimal_setting(capsys):
    # The README's command, run as written: its one row is ok, and
    # phi* = alpha_hat/2 + pi/4 mod pi lies within 0.01 of its target.
    assert "povmlearn " + " ".join(FIRST_CASE) in README.read_text().splitlines()
    assert cli_main(list(FIRST_CASE)) == 0
    (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert row["status"] == "ok"
    phi_star = float(row["alpha_hat"]) / 2 + math.pi / 4
    assert circ_diff(phi_star, float(row["alpha_true"]) / 2 + math.pi / 4, math.pi) <= 0.01
