"""Smoke tests of the demo scripts, run in process at small budgets."""

import math
import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_learn_equal_prior(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "learn_equal_prior.py", "--shots", "2000", "--holdout", "1000")
    assert lines[0].startswith("measured differences: delta(0.0000) = ")
    assert "qubits consumed while learning: 4000" in lines
    assert any(line.startswith("holdout success: ") and line.endswith(" over 1000 qubits") for line in lines)
    assert lines[-1].startswith("closed-form optimum: 0.750000  (z = ")


def test_sweep_two_fold(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "sweep_two_fold.py",
                       "--trials", "2", "--shots-learn", "2000", "--shots-holdout", "1000")
    assert lines[0].split() == ["eta0", "theta", "closed", "form", "pooled", "emp", "pull", "ok"]
    cells = [line.split() for line in lines[1:]]
    assert len(cells) == 9
    assert all(cell[-1] == "2/2" for cell in cells)
    # eta0 = 0.5, theta = pi/2: 1/2 + (1/4) / sqrt(1/2).
    mid = next(c for c in cells if c[0] == "0.50" and c[1] == f"{math.pi / 2:.4f}")
    assert mid[2] == f"{0.5 + 0.25 / math.sqrt(0.5):.6f}"
