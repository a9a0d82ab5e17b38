"""Command-line interface: flags, config files, exit codes, reproducibility."""

import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from povmlearn import cli
from povmlearn.cli import main
from povmlearn.ensemble import RngStream
from povmlearn.experiment import ExperimentConfig, emit_results, run_experiment

from helpers import patch_oracle, turned_axis

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


COMMON = (
    "--trials", "3", "--shots-learn", "2000", "--shots-holdout", "1000", "--seed", "5",
)


class TestRun:
    def test_csv_to_stdout(self, capsys):
        code, out, err = run_cli(capsys, "run", "--scenario", "equal-prior-xz", *COMMON)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        assert rows[0]["scenario"] == "equal-prior-xz"
        # Human summary goes to stderr when rows occupy stdout.
        assert "trials: 3" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--scenario", "unequal-prior-xz", "--eta0", "0.6",
            "--theta", "1.2", "--format", "json", *COMMON,
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 3
        # Each column's kind decides the JSON type of its cells, on a run of
        # ok and weak_signal rows: the three integer columns hold ints, the
        # three text columns str or null, and every other column a float or
        # null.
        code, out, _ = run_cli(
            capsys, "run", "--scenario", "equal-prior-xz", "--beta", "1.5", "--shots-learn", "400",
            "--shots-holdout", "1000", "--trials", "40", "--seed", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert {row["status"] for row in payload} == {"ok", "weak_signal"}
        for row in payload:
            for name, cell in row.items():
                if name in ("trial", "shots_learn", "shots_holdout"):
                    assert type(cell) is int, (name, cell)
                elif name in ("scenario", "case", "status"):
                    assert cell is None or type(cell) is str, (name, cell)
                else:
                    assert cell is None or type(cell) is float, (name, cell)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys, "run", "--scenario", "equal-prior-xz", "--out", str(path), *COMMON
        )
        assert code == 0
        assert path.exists()
        assert "wrote" in out  # summary stays on stdout when rows go to a file
        assert len(path.read_text().splitlines()) == 4

    def test_unwritable_out_names_the_path_as_given(self, capsys, tmp_path):
        # The CLI hands the library a Path; the message names it as typed,
        # never as PosixPath(...), and the exit code is the I/O one.
        path = str(tmp_path / "missing" / "x.csv")
        code, out, err = run_cli(capsys, "run", "--trials", "1", "--out", path)
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write results to {path!r}: ")
        columns = run_experiment(ExperimentConfig(trials=1, shots_learn=10, shots_holdout=10))
        for given in (path, Path(path)):
            with pytest.raises(OSError, match=f"^cannot write results to {re.escape(repr(path))}: "):
                emit_results(columns, "csv", given)

    def test_constz_scenario(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--scenario", "const-z", "--eta0", "0.65",
            "--theta", "1.0", "--nz", "0.4", *COMMON,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["n_z"] == "0.4" for r in rows)

    def test_bad_scenario_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--scenario", "bogus", *COMMON)
        assert code == 2

    def test_bad_parameter_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--scenario", "unequal-prior-xz", "--theta", "9.9", *COMMON
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("scenario", [("unequal-prior-xz",), ("const-z", "--nz", "0.4")], ids=["xz", "constz"])
    @pytest.mark.parametrize("theta", ["3.1415", "3.14159", "3.1415904"])
    def test_equal_priors_near_antipodal_run(self, capsys, scenario, theta):
        # |u| = rho cos(theta/2) is small here; computed without cancellation
        # it yields unit states and a success target of at most 1.  The
        # estimate of u is noise at this budget, so every row is weak.
        code, out, err = run_cli(
            capsys, "run", "--scenario", *scenario, "--eta0", "0.5", "--theta", theta, *COMMON,
        )
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3 and all(r["status"] == "weak_signal" for r in rows)
        assert all(0.5 < float(r["success_analytic"]) <= 1.0 for r in rows)

    def test_unwritable_out_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "--scenario", "equal-prior-xz",
            "--out", str(tmp_path / "no-dir" / "x.csv"), *COMMON,
        )
        assert code == 1
        assert "no-dir" in err

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "run", "--scenario", "const-z", "--eta0", "0.6",
                "--nz", "0.25", "--out", str(path), *COMMON,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    # Two runs of mixed statuses: the printed pooled success and statuses.
    MIXED = {
        ("--scenario", "equal-prior-xz", "--beta", "1.5", "--shots-learn", "400", "--shots-holdout", "1000",
         "--trials", "40", "--seed", "1"): ("0.993000", "ok=1, weak_signal=39"),
        ("--scenario", "unequal-prior-xz", "--eta0", "0.55", "--theta", "3.1", "--shots-learn", "2000",
         "--shots-holdout", "500", "--trials", "40", "--seed", "3"): ("0.608824", "ok=34, weak_signal=6"),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", MIXED, ids=["equal-prior-xz", "unequal-prior-xz"])
    def test_pooled_success_is_the_shot_weighted_success_of_the_file(self, capsys, tmp_path, argv, fmt):
        # The summary reads only columns that the --out file holds, so its
        # pooled success can be recomputed from the file.
        path = tmp_path / f"rows.{fmt}"
        code, out, _ = run_cli(capsys, "run", *argv, "--format", fmt, "--out", str(path))
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh)) if fmt == "csv" else json.load(fh)
        scored = [r for r in rows if r["success_emp"] not in ("", None)]
        pooled = sum(float(r["success_emp"]) * int(r["shots_holdout"]) for r in scored) / sum(
            int(r["shots_holdout"]) for r in scored)
        printed, statuses = self.MIXED[argv]
        assert f"trials: 40 ({statuses})" in out
        assert f"pooled empirical success: {pooled:.6f} " in out
        assert f"{pooled:.6f}" == printed


class TestConfigFile:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# experiment cell\n"
            "scenario = unequal-prior-xz\n"
            "eta0 = 0.7\n"
            "theta = 1.2\n"
            "trials = 2\n"
            "shots-learn = 1500\n"
            "shots_holdout = 800\n"
            "seed = 9\n"
        )
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        assert rows[0]["eta0"] == "0.7"

    def test_cli_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario = unequal-prior-xz\neta0 = 0.7\ntrials = 2\nseed = 9\n")
        code, out, _ = run_cli(
            capsys, "run", "--config", str(cfg), "--eta0", "0.55",
            "--shots-learn", "1000", "--shots-holdout", "500",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["eta0"] == "0.55"

    def test_missing_config_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--config", str(tmp_path / "nope.cfg"))
        assert code == 1
        assert "nope.cfg" in err

    def test_malformed_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario equal-prior-xz\n")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert "key=value" in err

    # Keys are whole flag names: no abbreviation, no --config, and the
    # field name fmt is not the flag --format.
    @pytest.mark.parametrize("line", ["banana = 3", "eta = 0.6", "config = x.cfg", "fmt = json"])
    def test_unknown_config_key(self, capsys, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert "unknown config key" in err
        assert out == ""

    def test_non_integer_value_is_config_error(self, capsys, tmp_path):
        # A file value is parsed as its flag, and a bad one is reported
        # the way the same bad flag is.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario = unequal-prior-xz\ntrials = 2.5\n")
        code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert "povmlearn run: error: argument --trials: invalid int value: '2.5'" in err
        assert out == ""

    def test_sweep_list_in_file_fans_out_and_a_flag_overrides_it(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "scenario = unequal-prior-xz\neta0 = 0.5,0.6\ntrials = 2\n"
            "shots-learn = 500\nshots-holdout = 200\nformat = json\n"
        )
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert [r["eta0"] for r in json.loads(out)] == [0.5, 0.5, 0.6, 0.6]
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--eta0", "0.7")
        assert code == 0
        assert [r["eta0"] for r in json.loads(out)] == [0.7, 0.7]
        path = tmp_path / "rows.csv"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--format", "csv", "--out", str(path))
        assert code == 0
        with open(path, newline="") as fh:
            assert [r["eta0"] for r in csv.DictReader(fh)] == ["0.5", "0.5", "0.6", "0.6"]

    # The two output keys, as the flags --out and --format.
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_key_writes_the_record_to_its_file(self, capsys, tmp_path, fmt):
        path = tmp_path / f"rows.{fmt}"
        cfg = tmp_path / "out.cfg"
        cfg.write_text(("format = json\n" if fmt == "json" else "") + f"out = {path}\n")
        code, out, err = run_cli(capsys, "run", "--config", str(cfg), *COMMON)
        assert code == 0 and err == ""
        assert out.splitlines()[0] == f"wrote {path}"
        code, expected, _ = run_cli(capsys, "run", "--format", fmt, *COMMON)
        assert code == 0
        assert path.read_text() == expected

    def test_a_hash_starts_a_comment_only_at_a_line_start_or_after_whitespace(self, capsys, tmp_path):
        # A value is parsed as its flag's value, a '#' in it included.
        path = tmp_path / "res#1.csv"
        cfg = tmp_path / "out.cfg"
        cfg.write_text(f"# whole-line comment\nscenario = unequal-prior-xz\neta0 = 0.7  # note\nout = {path}\n")
        code, out, err = run_cli(capsys, "run", "--config", str(cfg), *COMMON)
        assert code == 0 and err == ""
        assert out.splitlines()[0] == f"wrote {path}"
        with open(path, newline="") as fh:
            assert [r["eta0"] for r in csv.DictReader(fh)] == ["0.7"] * 3


class TestSweep:
    def test_comma_lists_form_a_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--scenario", "unequal-prior-xz",
            "--eta0", "0.5,0.6", "--theta", "0.8,1.4", "--trials", "2",
            "--shots-learn", "1000", "--shots-holdout", "500", "--seed", "2",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 8
        assert {r["eta0"] for r in rows} == {"0.5", "0.6"}
        assert len({r["trial"] for r in rows}) == 8

    def test_single_values_run_one_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--scenario", "unequal-prior-xz", "--eta0", "0.6",
            "--trials", "2", "--shots-learn", "1000", "--shots-holdout", "500",
            "--seed", "2",
        )
        assert code == 0
        assert len(list(csv.DictReader(io.StringIO(out)))) == 2

    def test_bad_list_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--scenario", "unequal-prior-xz", "--eta0", "0.5,x",
            "--trials", "1", "--shots-learn", "100", "--shots-holdout", "100",
            "--seed", "2",
        )
        assert code == 2
        # The type is named for what it reads, not for its function.
        assert err.splitlines()[-1] == "povmlearn sweep: error: argument --eta0: invalid float list value: '0.5,x'"

    @pytest.mark.parametrize("place", [0, 1, 2])
    @pytest.mark.parametrize(
        "scenario, key, good, bad, message",
        [
            ("const-z", "eta0", "0.3,0.5,0.7", "1.0", "eta0 must lie in (0, 1), got 1.0"),
            ("const-z", "theta", "0.5,1.0,1.5", "3.2", "theta must lie in [0, pi], got 3.2"),
            ("const-z", "nz", "-0.5,0.0,0.5", "-1.0", "nz must lie in (-1, 1), got -1.0"),
            ("const-z", "alpha", "0.0,1.0,2.0", "inf", "alpha must be finite, got inf"),
            ("equal-prior-xz", "beta", "0.1,0.2,0.3", "1.6", "beta must lie in [0, pi/2], got 1.6"),
            ("equal-prior-xz", "eta0", "0.5,0.5,0.5", "0.6", "the equal-prior scenario requires eta0 = 0.5"),
        ],
    )
    def test_out_of_domain_value_anywhere_in_a_list_writes_nothing(
        self, capsys, tmp_path, scenario, key, good, bad, message, place
    ):
        values = good.split(",")
        values[place] = bad
        path = tmp_path / "rows.json"
        code, out, err = run_cli(
            capsys, "sweep", "--scenario", scenario, f"--{key}={','.join(values)}", "--trials", "1",
            "--shots-learn", "100", "--shots-holdout", "100", "--seed", "2", "--format", "json",
            "--out", str(path),
        )
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""
        assert not path.exists()

    @pytest.mark.parametrize(
        "scenario, flag", [("equal-prior-xz", "--theta=0.5,1.0"), ("unequal-prior-xz", "--nz=0.1,0.5")]
    )
    def test_sweep_over_a_parameter_the_scenario_does_not_read_writes_nothing(
        self, capsys, tmp_path, scenario, flag
    ):
        # Each cell would repeat the others and report a value it ignores.
        path = tmp_path / "rows.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--scenario", scenario, flag, "--trials", "1", "--shots-learn", "100",
            "--shots-holdout", "100", "--seed", "2", "--out", str(path),
        )
        key = flag[2:].split("=")[0]
        assert code == 2
        assert err == f"error: cannot sweep over ['{key}'], which the {scenario} scenario does not read\n"
        assert out == "" and not path.exists()

    def test_sweep_rerun_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "sweep", "--scenario", "unequal-prior-xz",
                "--eta0", "0.5,0.65", "--trials", "2", "--shots-learn", "800",
                "--shots-holdout", "400", "--seed", "3", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestBatteries:
    def test_oracle_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--instances", "500", "--seed", "1")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 5

    def test_oracle_check_fails_a_turned_axis(self, capsys, monkeypatch):
        patch_oracle(monkeypatch, turned_axis)
        code, out, _ = run_cli(capsys, "oracle-check", "--instances", "500", "--seed", "1")
        assert code == 2
        assert "\nFAIL  oracle axis is the in-plane perpendicular (worst " in out

    @pytest.mark.parametrize("instances", ["0", "-1"])
    def test_oracle_check_rejects_empty_battery(self, capsys, instances):
        code, out, err = run_cli(capsys, "oracle-check", "--instances", instances)
        assert code == 2
        assert "PASS" not in out
        assert err == f"error: instances must be a positive integer, got {instances}\n"

    def test_selftest_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--seed", "1")
        assert code == 0
        assert "FAIL" not in out

    @pytest.mark.parametrize("command", ["run", "oracle-check", "selftest"])
    def test_negative_seed_is_config_error(self, capsys, command):
        # The library's check and exit code, not numpy's ValueError, and
        # not a flag: -1 stays the value of --seed.
        code, out, err = run_cli(capsys, command, "--seed", "-1")
        assert code == 2
        assert err.startswith("error: seed must be a nonnegative integer, got -1")
        assert out == ""


def test_import_does_not_load_numpy_random():
    # numpy.random costs a noticeable part of start-up; it loads only when a
    # generator is built, not by the import or the parser.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = "import sys, povmlearn.cli; povmlearn.cli.build_parser(); print('numpy.random' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_package_holds_no_names_and_a_module_loads_only_its_imports():
    # Each name is imported from its module: the package namespace holds
    # only __version__, and importing one module runs no other but its own
    # imports.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = ("import sys, povmlearn; print(sorted(n for n in vars(povmlearn) if not n.startswith('_')))\n"
            "import povmlearn.bloch; print(sorted(m for m in sys.modules if m.split('.')[0] == 'povmlearn'))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.splitlines() == ["[]", "['povmlearn', 'povmlearn.bloch', 'povmlearn.errors']"]


def test_parser_does_not_load_selfcheck():
    # Only oracle-check and selftest run the batteries, so a run or sweep
    # process never compiles selfcheck; the parser loads exactly the
    # modules of the engine and its CLI.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = ("import sys, povmlearn.cli; povmlearn.cli.build_parser(); "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'povmlearn'))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    names = ("bloch", "cli", "decomposition", "ensemble", "errors", "evaluate", "experiment", "helstrom")
    assert result.stdout.split() == ["povmlearn", *(f"povmlearn.{name}" for name in names)]


class TestUsage:
    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unknown_format_is_usage_error_and_writes_nothing(self, capsys, tmp_path, command):
        path = tmp_path / "rows.yaml"
        code, out, err = run_cli(capsys, command, "--format", "yaml", "--out", str(path), *COMMON)
        assert code == 2 and out == ""
        assert f"povmlearn {command}: error: argument --format: invalid choice: 'yaml'" in err
        assert not path.exists()

    def test_unknown_flag_is_the_top_level_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "run", "--bogus")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "povmlearn: error: unrecognized arguments: --bogus"

    def test_help_exits_zero(self, capsys):
        code, _, _ = run_cli(capsys, "--help")
        assert code == 0

    def test_non_finite_angle_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--scenario", "unequal-prior-xz", "--alpha", "inf", *COMMON
        )
        assert code == 2
        assert "alpha" in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("flag", ["--shots-learn", "--shots-holdout"])
    def test_shot_budget_past_int64_is_config_error(self, capsys, tmp_path, command, flag):
        # numpy's binomial draws cannot take it; 2**63 - 1 still runs.
        path = tmp_path / "rows.csv"
        code, out, err = run_cli(capsys, command, flag, str(2**63), "--trials", "1", "--out", str(path))
        assert code == 2
        assert err == f"error: {flag[2:].replace('-', '_')} must be an integer in [1, 2**63), got {2**63}\n"
        assert out == ""
        assert not path.exists()
        code, _, _ = run_cli(capsys, command, flag, str(2**63 - 1), "--trials", "1", "--out", str(path))
        assert code == 0
        assert path.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("flag", ["--shots-learn", "--shots-holdout"])
    def test_zero_shot_budget_is_config_error(self, capsys, command, flag):
        code, out, err = run_cli(capsys, command, flag, "0", "--trials", "1")
        assert (code, out) == (2, "")
        assert err == f"error: {flag[2:].replace('-', '_')} must be an integer in [1, 2**63), got 0\n"

    @pytest.mark.parametrize("args, error", [
        (("--seed", "-1"), "seed must be a nonnegative integer, got -1"),
        (("--beta", "2"), "beta must lie in [0, pi/2], got 2.0"),
        (("--beta", "-0.5"), "beta must lie in [0, pi/2], got -0.5"),
        (("--alpha", "nan"), "alpha must be finite, got nan"),
        (("--phi0", "inf"), "phi0 must be finite, got inf"),
        (("--shots-learn", "0"), "shots_learn must be an integer in [1, 2**63), got 0"),
        (("--shots-holdout", "0"), "shots_holdout must be an integer in [1, 2**63), got 0"),
        (("--shots-learn", str(2**63)), f"shots_learn must be an integer in [1, 2**63), got {2**63}"),
        (("--shots-holdout", str(2**63)), f"shots_holdout must be an integer in [1, 2**63), got {2**63}"),
    ])
    def test_bad_value_is_refused_before_any_generator_is_built(self, capsys, monkeypatch, args, error):
        # ExperimentConfig.validate refuses it: exit 2, nothing on stdout and
        # one error line on stderr, before any draw.
        def no_draw(self):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(RngStream, "generator", no_draw)
        argv = ("run", "--scenario", "equal-prior-xz", "--trials", "1", *args)
        assert run_cli(capsys, *argv) == (2, "", f"error: {error}\n")

    def test_library_bug_is_not_a_config_error(self, monkeypatch):
        # Only ContractViolation maps to exit 2; anything else is a bug and
        # must surface with its traceback.
        def broken(config):
            raise TypeError("library bug")

        monkeypatch.setattr(cli, "run_experiment", broken)
        with pytest.raises(TypeError, match="library bug"):
            main(["run", "--scenario", "equal-prior-xz", *COMMON])


def _subparser(command: str) -> argparse.ArgumentParser:
    return cli._parsers()[1][command]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_run_and_sweep_flags_are_the_config_fields(command):
    # One flag per ExperimentConfig field, in field order, after --config;
    # then the two output flags.
    flags = [s for a in _subparser(command)._actions for s in a.option_strings]
    assert flags == [
        "-h", "--help", "--config", "--scenario", "--alpha", "--beta", "--eta0", "--theta", "--nz",
        "--phi0", "--shots-learn", "--shots-holdout", "--trials", "--seed", "--format", "--out",
    ]


class TestParserReuse:
    """main builds the parser once per process, and a call leaves nothing
    in it that a later call could see."""

    RUN = ("run", "--scenario", "const-z", "--eta0", "0.6", "--nz", "0.25",
           "--trials", "2", "--shots-learn", "500", "--shots-holdout", "200")

    def test_built_once_across_calls(self, capsys):
        cli._parsers.cache_clear()
        for _ in range(3):
            assert run_cli(capsys, *self.RUN)[0] == 0
        assert run_cli(capsys, "oracle-check", "--instances", "5")[0] == 0
        assert cli._parsers.cache_info().misses == 1
        assert cli.build_parser() is cli.build_parser()

    def test_seed_does_not_carry_over(self, capsys):
        cli._parsers.cache_clear()
        fresh = run_cli(capsys, *self.RUN, "--seed", "0")
        seeded = run_cli(capsys, *self.RUN, "--seed", "5")
        unseeded = run_cli(capsys, *self.RUN)
        assert seeded[1] != fresh[1]
        assert unseeded == fresh

    @pytest.mark.parametrize("argv", [("--help",), ("run", "--help"), ("run", "--trials", "x"), ("run", "--bogus")])
    def test_help_and_usage_errors_leave_the_parser_usable(self, capsys, argv):
        before = run_cli(capsys, *self.RUN)
        code = run_cli(capsys, *argv)[0]
        assert code == (0 if "--help" in argv else 2)
        assert run_cli(capsys, *self.RUN) == before


class TestSubcommandParse:
    """An argv that starts with a subcommand is parsed by that subcommand's
    parser alone, and gives what the full parser gives."""

    ARGVS = {
        "run": ("run", "--scenario", "const-z", "--eta0", "0.6", "--nz", "0.25", *COMMON),
        "run-json": ("run", "--scenario", "equal-prior-xz", "--format", "json", *COMMON),
        "sweep": ("sweep", "--scenario", "unequal-prior-xz", "--eta0", "0.5,0.6", *COMMON),
        "oracle-check": ("oracle-check", "--instances", "20", "--seed", "4"),
        "selftest": ("selftest", "--seed", "2"),
        "help": ("--help",),
        "run-help": ("run", "--help"),
        "no-command": (),
        "unknown-command": ("bogus", "--seed", "1"),
        "unknown-flag": ("run", "--bogus"),
        "unknown-flag-and-value": ("run", "--scenario", "const-z", "--bogus", "-1", *COMMON),
        "non-integer-trials": ("run", "--trials", "2.5"),
        "config-overridden": ("run", "--config", "{cfg}", "--eta0", "0.55"),
        "config-unknown-key": ("run", "--config", "{bad_cfg}"),
    }

    @pytest.fixture
    def argv_of(self, tmp_path):
        cfg, bad_cfg = tmp_path / "exp.cfg", tmp_path / "bad.cfg"
        cfg.write_text("scenario = unequal-prior-xz\neta0 = 0.7\ntrials = 2\nshots-learn = 500\n"
                       "shots-holdout = 200\nseed = 9\n")
        bad_cfg.write_text("eta = 0.6\n")
        return lambda name: [a.format(cfg=cfg, bad_cfg=bad_cfg) for a in self.ARGVS[name]]

    @pytest.mark.parametrize("name", ARGVS)
    def test_same_outcome_as_the_full_parser(self, capsys, monkeypatch, argv_of, name):
        argv = argv_of(name)
        outcome = run_cli(capsys, *argv)
        monkeypatch.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
        assert outcome == run_cli(capsys, *argv)

    @pytest.mark.parametrize("name", ["run", "sweep", "oracle-check", "unknown-flag", "config-overridden"])
    def test_known_subcommand_skips_the_top_level_pass(self, capsys, monkeypatch, argv_of, name):
        def top_level_pass(*args, **kwargs):
            raise AssertionError("the top-level parser parsed a subcommand's argv")

        monkeypatch.setattr(cli.build_parser(), "parse_known_args", top_level_pass)
        assert run_cli(capsys, *argv_of(name))[0] == (2 if name == "unknown-flag" else 0)

    @pytest.mark.parametrize("command", ["run", "sweep", "oracle-check", "selftest"])
    def test_value_flags_are_the_subcommand_flags(self, command):
        flags = {s for a in _subparser(command)._actions for s in a.option_strings} - {"-h", "--help"}
        assert cli._VALUE_FLAGS[command] == flags


class TestNegativeValues:
    """A negative value after its flag, in either spelling."""

    @pytest.mark.parametrize("command, flag, value", [
        ("run", "--alpha", "-1e-3"), ("run", "--alpha", "-1e300"), ("sweep", "--nz", "-0.9,0.9"),
    ])
    def test_separate_value_equals_joined_value(self, capsys, command, flag, value):
        head = (command, "--scenario", "const-z", *COMMON)
        joined = run_cli(capsys, *head, f"{flag}={value}")
        assert joined[0] == 0
        assert run_cli(capsys, *head, flag, value) == joined

    @pytest.mark.parametrize("command, flag, value, message", [
        ("run", "--alpha", "-inf", "error: alpha must be finite, got -inf"),
        ("run", "--alpha", "-Infinity", "error: alpha must be finite, got -inf"),
        ("run", "--alpha", "-NaN", "error: alpha must be finite, got nan"),
        ("sweep", "--nz", "-inf,0.5", "error: nz must lie in (-1, 1), got -inf"),
        ("sweep", "--nz", "-INF", "error: nz must lie in (-1, 1), got -inf"),
    ])
    def test_non_finite_value_reaches_the_library_check(self, capsys, command, flag, value, message):
        head = (command, "--scenario", "const-z", "--trials", "1")
        joined = run_cli(capsys, *head, f"{flag}={value}")
        assert joined[:2] == (2, "")
        assert joined[2].splitlines()[-1] == message
        assert run_cli(capsys, *head, flag, value) == joined

    @pytest.mark.parametrize("token", ["-info", "-nano", "-infinite"])
    def test_word_that_only_starts_like_inf_stays_a_flag(self, capsys, token):
        code, out, err = run_cli(capsys, "run", "--alpha", token, "--trials", "1")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "povmlearn run: error: argument --alpha: expected one argument"

    def test_flag_after_a_flag_stays_a_flag(self, capsys):
        code, out, err = run_cli(capsys, "run", "--alpha", "--trials", "2")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "povmlearn run: error: argument --alpha: expected one argument"
