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


def test_learn_equal_prior_reduces_a_huge_phi0(monkeypatch, capsys):
    # Whole turns come off phi0 before the quarter turn is added, so a huge
    # phi0 learns as its reduced angle does.
    def learned(phi0):
        args = ("--phi0", repr(phi0), "--shots", "20000", "--holdout", "1000", "--seed", "2")
        lines = run_script(monkeypatch, capsys, "learn_equal_prior.py", *args)
        return [line for line in lines if line.startswith(("alpha_hat = ", "phi_star  = "))]

    huge = learned(1e300)
    assert len(huge) == 2
    assert huge == learned(math.fmod(1e300, 2 * math.pi))
    assert huge[0].endswith("(true 1.047198)") and abs(float(huge[0].split()[2]) - math.pi / 3) < 0.05


def test_learn_equal_prior_reduces_a_huge_alpha(monkeypatch, capsys):
    # Whole turns come off alpha before the target phi* = alpha/2 + pi/4 is
    # formed, and the reduced alpha is printed as the true one, so a huge
    # alpha reports exactly as its reduced angle does.
    def learned(alpha):
        args = ("--alpha", repr(alpha), "--shots", "20000", "--holdout", "1000", "--seed", "2")
        lines = run_script(monkeypatch, capsys, "learn_equal_prior.py", *args)
        return [line for line in lines if line.startswith(("alpha_hat = ", "phi_star  = "))]

    reduced = math.fmod(1e300, 2 * math.pi)
    huge = learned(1e300)
    assert len(huge) == 2
    assert huge == learned(reduced)
    assert huge[0].endswith(f"(true {reduced:.6f})")
    assert huge[1].endswith(f"(target {(reduced / 2 + math.pi / 4) % math.pi:.6f})")
