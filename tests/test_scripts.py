"""Smoke tests of the demo scripts, run in process at small budgets."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_learn_equal_prior_script(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "learn_equal_prior.py", "--shots", "2000", "--holdout", "1000")
    assert lines[0].startswith("measured differences: delta(0.0000) = ")
    assert "qubits consumed while learning: 4000" in lines
    assert any(line.startswith("holdout success: ") and line.endswith(" over 1000 qubits") for line in lines)
    assert lines[-1].startswith("closed-form optimum: 0.750000  (z = ")


def test_learn_equal_prior_on_weak_data(monkeypatch, capsys):
    # Near-orthogonal states at a small budget: the readings sit inside the
    # noise floor, and the script says so instead of failing.
    args = ("--beta", "1.5", "--shots", "400", "--holdout", "1000", "--seed", "1")
    lines = run_script(monkeypatch, capsys, "learn_equal_prior.py", *args)
    assert lines[1] == "weak signal: both readings lie within the 3/sqrt(N) noise floor 0.1500, so alpha_hat below is noise"
    assert lines[2].startswith("alpha_hat = ")
    assert lines[-1].startswith("closed-form optimum: ")
