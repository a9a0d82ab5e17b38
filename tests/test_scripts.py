"""Smoke tests of the demo scripts, run in process at small budgets."""

import math
import runpy
import sys
from pathlib import Path

import pytest

from povmlearn.ensemble import RngStream

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


@pytest.mark.parametrize(
    "args, error",
    [
        (("--seed", "-1"), "seed must be a nonnegative integer, got -1"),
        (("--beta", "2"), "beta must lie in [0, pi/2], got 2.0"),
        (("--beta", "-0.5"), "beta must lie in [0, pi/2], got -0.5"),
        (("--alpha", "nan"), "alpha must be finite, got nan"),
        (("--phi0", "inf"), "phi0 must be finite, got inf"),
        (("--shots", "0"), "shots must be an integer in [1, 2**63), got 0"),
        (("--holdout", "0"), "holdout must be an integer in [1, 2**63), got 0"),
        (("--shots", str(2**63)), f"shots must be an integer in [1, 2**63), got {2**63}"),
        (("--holdout", str(2**63)), f"holdout must be an integer in [1, 2**63), got {2**63}"),
    ],
)
def test_learn_equal_prior_refuses_a_bad_value(monkeypatch, capsys, args, error):
    # A bad value is a usage error: exit 2 with one error line on stderr,
    # before any generator is built or any line printed.
    def no_draw(self):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(RngStream, "generator", no_draw)
    monkeypatch.setattr(sys, "argv", ["learn_equal_prior.py", *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "learn_equal_prior.py"), run_name="__main__")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"
