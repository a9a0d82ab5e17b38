"""Tests of the demo script, run in process at small budgets.  The script
prints row 0 of the engine's equal-prior-xz run, whose rows the engine's
own tests check (test_experiment.TestHugeAngles covers a huge alpha and
phi0 at equal priors), so these check what the script adds: its lines,
its printed target and its refusals."""

import csv
import math
import runpy
import sys
from pathlib import Path

import pytest

from povmlearn.cli import main as cli_main
from povmlearn.ensemble import RngStream

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, *args):
    monkeypatch.setattr(sys, "argv", ["learn_equal_prior.py", *args])
    runpy.run_path(str(SCRIPTS / "learn_equal_prior.py"), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def cli_row(tmp_path, *args):
    """Row 0 of `povmlearn run --scenario equal-prior-xz --trials 1` at the
    script's flags, as the CSV writes its cells."""
    out = tmp_path / "row.csv"
    assert cli_main(["run", "--scenario", "equal-prior-xz", "--trials", "1", *args, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        return next(csv.DictReader(fh))


def line(lines, prefix):
    """The one printed line that starts with prefix."""
    (found,) = [text for text in lines if text.startswith(prefix)]
    return found


def printed(text, spec=".6f"):
    """A CSV cell as the script prints it: n/a where the cell is empty."""
    return "n/a" if text == "" else format(float(text), spec)


@pytest.mark.parametrize(
    "args, status",
    [
        (("--shots-learn", "2000", "--shots-holdout", "1000"), "ok"),
        # Near-orthogonal states at a small budget: both readings sit inside
        # the noise floor, and the row reports no estimate.
        (("--beta", "1.5", "--shots-learn", "400", "--shots-holdout", "1000", "--seed", "1"), "weak_signal"),
    ],
)
def test_learn_equal_prior_prints_the_cli_row(monkeypatch, capsys, tmp_path, args, status):
    lines = run_script(monkeypatch, capsys, *args)
    row = cli_row(tmp_path, *args)
    assert row["status"] == status and lines[0] == f"status: {status}"
    weak = "weak signal: both readings lie within the 3/sqrt(N) noise floor, so the row reports no estimate"
    assert (weak in lines) == (status == "weak_signal")
    assert line(lines, "alpha_hat = ").startswith(f"alpha_hat = {printed(row['alpha_hat'])}  (true ")
    axis = ", ".join(printed(row[k], "+.6f") for k in ("axis_x", "axis_y", "axis_z"))
    assert line(lines, "measurement axis: ") == f"measurement axis: ({axis})"
    assert line(lines, "qubits consumed ") == f"qubits consumed while learning: {row['shots_learn']}"
    assert line(lines, "holdout success: ") == (
        f"holdout success: {printed(row['success_emp'])} over {row['shots_holdout']} qubits"
    )
    assert line(lines, "closed-form optimum: ") == (
        f"closed-form optimum: {printed(row['success_analytic'])}  (z = {printed(row['z_score'], '+.6f')})"
    )


def test_learn_equal_prior_reduces_a_huge_alpha(monkeypatch, capsys):
    # Whole turns come off alpha before the target phi* = alpha/2 + pi/4 is
    # formed, and alpha is printed on [0, 2 pi) as the true one, so a huge
    # alpha reports exactly as its reduced angle does.
    def learned(alpha):
        args = ("--alpha", repr(alpha), "--shots-learn", "20000", "--shots-holdout", "1000", "--seed", "2")
        lines = run_script(monkeypatch, capsys, *args)
        return [text for text in lines if text.startswith(("alpha_hat = ", "phi_star  = "))]

    reduced = math.fmod(1e300, 2 * math.pi)
    huge = learned(1e300)
    assert len(huge) == 2
    assert huge == learned(reduced)
    assert huge[0].endswith(f"(true {reduced:.6f})")
    assert huge[1].endswith(f"(target {(reduced / 2 + math.pi / 4) % math.pi:.6f})")


@pytest.mark.parametrize("alpha", [-1.0, -1e300])
def test_learn_equal_prior_prints_alpha_on_the_range_of_alpha_hat(monkeypatch, capsys, alpha):
    # alpha_hat lies in [0, 2 pi), so the true alpha is printed there too: a
    # negative alpha and its estimate read side by side, not a turn apart.
    wrapped = math.fmod(alpha, 2 * math.pi) + 2 * math.pi
    lines = run_script(monkeypatch, capsys, f"--alpha={alpha!r}", "--shots-learn", "20000",
                       "--shots-holdout", "1000", "--seed", "2")
    text = line(lines, "alpha_hat = ")
    assert text.endswith(f"  (true {wrapped:.6f})")
    assert abs(float(text.split()[2]) - wrapped) < 0.05
    assert line(lines, "phi_star  = ").endswith(f"(target {(wrapped / 2 + math.pi / 4) % math.pi:.6f})")


@pytest.mark.parametrize(
    "args, error",
    [
        (("--seed", "-1"), "seed must be a nonnegative integer, got -1"),
        (("--beta", "2"), "beta must lie in [0, pi/2], got 2.0"),
        (("--beta", "-0.5"), "beta must lie in [0, pi/2], got -0.5"),
        (("--alpha", "nan"), "alpha must be finite, got nan"),
        (("--phi0", "inf"), "phi0 must be finite, got inf"),
        (("--shots-learn", "0"), "shots_learn must be an integer in [1, 2**63), got 0"),
        (("--shots-holdout", "0"), "shots_holdout must be an integer in [1, 2**63), got 0"),
        (("--shots-learn", str(2**63)), f"shots_learn must be an integer in [1, 2**63), got {2**63}"),
        (("--shots-holdout", str(2**63)), f"shots_holdout must be an integer in [1, 2**63), got {2**63}"),
    ],
)
def test_learn_equal_prior_refuses_a_bad_value(monkeypatch, capsys, args, error):
    # A bad value is a usage error: exit 2 with one error line on stderr,
    # before any generator is built or any line printed.
    def no_draw(self):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(RngStream, "generator", no_draw)
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, capsys, *args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"
