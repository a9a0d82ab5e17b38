"""Correctness checks on what one ``cli.main`` invocation produced.

A trial invocation passes row by row: a row that breaks any rule, and every
expected row that is missing, counts as one failed op.  An oracle-check
invocation passes or fails as a whole, so all its instances count together.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

from workloads import LEARN_AXES, SHOTS_HOLDOUT, SHOTS_LEARN, Invocation

STATUSES = ("ok", "weak_signal", "degenerate_ensemble", "cos_theta_out_of_range")
_TEXT_COLUMNS = ("scenario", "case", "status")
_INT_COLUMNS = ("trial", "shots_learn", "shots_holdout")
_CSV_TYPES = {**{key: str for key in _TEXT_COLUMNS}, **{key: int for key in _INT_COLUMNS}}

# The analytic optimum and the oracle are coded independently; they agree to
# rounding, which reaches 2e-12 near the cancellation at theta = pi.
ORACLE_TOL = 1e-9
# Floats are written with 12 significant digits.
UNIT_TOL = 1e-9
PLANE_TOL = 1e-12


@dataclass
class Verdict:
    """Failed ops of one invocation, with the first few reasons."""

    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def flag(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.problems) < 5:
            self.problems.append(message)


def parse_rows(text: str, fmt: str) -> tuple[tuple[str, ...], list[dict]]:
    """Header and records of a CSV or JSON result; empty cells become None."""
    if fmt == "json":
        payload = json.loads(text)
        if not isinstance(payload, list) or not all(isinstance(r, dict) for r in payload):
            raise ValueError("JSON result is not a list of objects")
        header = tuple(payload[0]) if payload else ()
        return header, payload
    table = list(csv.reader(io.StringIO(text)))
    if not table:
        raise ValueError("CSV result is empty")
    header = tuple(table[0])
    records = []
    for cells in table[1:]:
        if len(cells) != len(header):
            raise ValueError(f"CSV row has {len(cells)} cells, header has {len(header)}")
        records.append({
            key: None if cell == "" else _CSV_TYPES.get(key, float)(cell)
            for key, cell in zip(header, cells)
        })
    return header, records


def closed_form_success(eta0: float, theta: float, nz: float) -> float:
    """1/2 + eta0 eta1 sin(theta) sqrt(1 - nz^2) / q, the two-fold optimum."""
    eta1 = 1.0 - eta0
    q = math.sqrt(eta0 * eta0 + eta1 * eta1 + 2.0 * eta0 * eta1 * math.cos(theta))
    return min(0.5 + eta0 * eta1 * math.sin(theta) * math.sqrt(1.0 - nz * nz) / q, 1.0)


def row_problem(rec: dict, index: int, inv: Invocation, columns: tuple[str, ...]) -> str | None:
    """The first rule this row breaks, or None."""
    if tuple(rec) != columns:
        return "fields differ from CSV_COLUMNS"
    for key, value in rec.items():
        if key in _TEXT_COLUMNS:
            if value is not None and not isinstance(value, str):
                return f"{key} is not text"
        elif value is not None:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return f"{key} is not a number"
            if not math.isfinite(value):
                return f"{key} is {value}"
            if key in _INT_COLUMNS and value != int(value):
                return f"{key} is not a whole number"
    if rec["trial"] != index:
        return f"trial {rec['trial']} where {index} was expected"
    if rec["scenario"] != inv.scenario:
        return f"scenario {rec['scenario']!r}"
    if rec["status"] not in STATUSES:
        return f"undocumented status {rec['status']!r}"

    reached = rec["success_analytic"] is not None
    expected_learn = SHOTS_LEARN * LEARN_AXES[inv.scenario] if reached else 0
    if rec["shots_learn"] != expected_learn:
        return f"shots_learn {rec['shots_learn']} where {expected_learn} was expected"
    scored = rec["success_emp"] is not None
    expected_holdout = SHOTS_HOLDOUT if scored else 0
    if rec["shots_holdout"] != expected_holdout:
        return f"shots_holdout {rec['shots_holdout']} where {expected_holdout} was expected"
    if rec["status"] == "ok" and not scored:
        return "status ok without a score"

    axis = (rec["axis_x"], rec["axis_y"], rec["axis_z"])
    if [a is not None for a in axis] != [scored] * 3:
        return "axis present without a score, or a score without an axis"
    if scored:
        if abs(math.sqrt(sum(a * a for a in axis)) - 1.0) > UNIT_TOL:
            return "axis is not a unit vector"
        off_plane = axis[2] if inv.scenario == "const-z" else axis[1]
        if abs(off_plane) > PLANE_TOL:
            return "axis leaves the declared plane"
        if not 0.5 <= rec["success_emp"] <= 1.0:
            return f"success_emp {rec['success_emp']} outside [0.5, 1]"

    if reached:
        if rec["success_oracle"] is None:
            return "success_analytic without success_oracle"
        if abs(rec["success_analytic"] - rec["success_oracle"]) > ORACLE_TOL:
            return "success_analytic and success_oracle disagree"
        if inv.scenario == "equal-prior-xz":
            expected = 0.5 * (1.0 + math.sin(rec["beta_true"]))
        else:
            expected = closed_form_success(rec["eta0"], rec["theta_true"], rec["n_z"])
        if abs(rec["success_analytic"] - expected) > ORACLE_TOL:
            return f"success_analytic {rec['success_analytic']} where the closed form gives {expected}"
    return None


def check_trials(text: str, inv: Invocation, columns: tuple[str, ...], exit_code: int) -> Verdict:
    """Check the rows a run or sweep invocation wrote."""
    verdict = Verdict()
    if exit_code != 0:
        verdict.flag(f"exit code {exit_code}", inv.rows)
        return verdict
    try:
        header, records = parse_rows(text, inv.fmt)
    except ValueError as exc:
        verdict.flag(f"unreadable output: {exc}", inv.rows)
        return verdict
    if header != columns:
        verdict.flag("header differs from CSV_COLUMNS", inv.rows)
        return verdict
    if len(records) != inv.rows:
        verdict.flag(f"{len(records)} rows where {inv.rows} were expected", abs(inv.rows - len(records)))
    for index, rec in enumerate(records[: inv.rows]):
        problem = row_problem(rec, index, inv, columns)
        if problem is not None:
            verdict.flag(f"row {index}: {problem}")
    return verdict


def check_oracle(text: str, inv: Invocation, exit_code: int) -> Verdict:
    """Exit code 0, every line PASS, and the battery covered every instance.

    The instance count matters because ``--instances 0`` passes vacuously.
    """
    verdict = Verdict()
    lines = text.splitlines()
    if exit_code != 0:
        verdict.flag(f"exit code {exit_code}", inv.instances)
    elif not lines or not all(line.startswith("PASS ") for line in lines):
        verdict.flag("a check did not PASS", inv.instances)
    elif not any(line.endswith(f"({inv.instances} instances)") for line in lines):
        verdict.flag(f"no line reports {inv.instances} instances", inv.instances)
    return verdict
