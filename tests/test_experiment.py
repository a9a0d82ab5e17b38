"""Experiment harness: trial pipeline, sweeps, serialization, determinism."""

import csv
import io
import json
import math

import numpy as np
import pytest

import povmlearn.experiment as experiment
from povmlearn.bloch import Plane
from povmlearn.decomposition import success_prob
from povmlearn.errors import ContractViolation
from povmlearn.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    emit_results,
    equal_prior_ensemble,
    render_results,
    run_experiment,
    summarize,
    sweep,
    two_fold_truth,
)

BASE = dict(shots_learn=5_000, shots_holdout=2_000, trials=4, seed=42)


def rows_equal(a, b) -> bool:
    return render_results(a) == render_results(b)


class TestConfigValidation:
    def test_defaults_valid(self):
        ExperimentConfig().validate()

    def test_scenario_domain(self):
        with pytest.raises(ContractViolation):
            ExperimentConfig(scenario="bogus").validate()

    def test_budget_domain(self):
        with pytest.raises(ContractViolation):
            ExperimentConfig(trials=0).validate()
        with pytest.raises(ContractViolation):
            ExperimentConfig(shots_learn=0).validate()

    def test_equal_prior_requires_half(self):
        with pytest.raises(ContractViolation):
            ExperimentConfig(scenario="equal-prior-xz", eta0=0.6).validate()

    def test_theta_domain(self):
        with pytest.raises(ContractViolation):
            ExperimentConfig(scenario="unequal-prior-xz", theta=3.5).validate()

    def test_domains_checked_for_unused_fields(self):
        # An out-of-range value never passes just because the scenario
        # ignores that field.
        with pytest.raises(ContractViolation):
            ExperimentConfig(scenario="equal-prior-xz", theta=9.9).validate()
        with pytest.raises(ContractViolation):
            ExperimentConfig(scenario="unequal-prior-xz", nz=1.5).validate()
        with pytest.raises(ContractViolation):
            ExperimentConfig(scenario="unequal-prior-xz", beta=2.0).validate()

    def test_nz_domain(self):
        with pytest.raises(ContractViolation):
            ExperimentConfig(scenario="const-z", nz=1.0).validate()

    def test_format_domain(self):
        with pytest.raises(ContractViolation):
            ExperimentConfig(fmt="yaml").validate()


class TestScenarioBuilders:
    def test_equal_prior_states(self):
        spec = equal_prior_ensemble(0.9, 0.3)
        assert spec.eta0 == 0.5
        assert np.allclose(
            spec.psi0, [math.sin(1.2), 0.0, math.cos(1.2)], atol=1e-12
        )
        assert np.allclose(
            spec.psi1, [math.sin(0.6), 0.0, math.cos(0.6)], atol=1e-12
        )

    def test_two_fold_consistency(self):
        spec = two_fold_truth(0.65, 1.1, 0.4, "B")[0]
        n = spec.eta0 * spec.psi0 + spec.eta1 * spec.psi1
        q = np.linalg.norm(n)
        expect = math.sqrt(
            0.65**2 + 0.35**2 + 2 * 0.65 * 0.35 * math.cos(1.1)
        )
        assert q == pytest.approx(expect, abs=1e-12)
        assert math.atan2(n[2], n[0]) == pytest.approx(0.4, abs=1e-12)

    def test_constz_consistency(self):
        spec = two_fold_truth(0.6, 0.9, 1.2, "A", Plane.const_z(0.35))[0]
        assert spec.psi0[2] == pytest.approx(0.35, abs=1e-12)
        assert spec.psi1[2] == pytest.approx(0.35, abs=1e-12)
        assert abs(np.linalg.norm(spec.psi0) - 1.0) <= 1e-12


class TestRunExperiment:
    def test_row_count_and_indices(self):
        cfg = ExperimentConfig(scenario="equal-prior-xz", **BASE)
        rows = run_experiment(cfg)
        assert [r.trial for r in rows] == [0, 1, 2, 3]

    def test_determinism(self):
        for scenario in ("equal-prior-xz", "unequal-prior-xz", "const-z"):
            cfg = ExperimentConfig(scenario=scenario, eta0=0.5 if scenario == "equal-prior-xz" else 0.6, **BASE)
            assert rows_equal(run_experiment(cfg), run_experiment(cfg))

    def test_seed_changes_results(self):
        a = run_experiment(ExperimentConfig(scenario="equal-prior-xz", **BASE))
        b = run_experiment(
            ExperimentConfig(scenario="equal-prior-xz", **{**BASE, "seed": 43})
        )
        assert not rows_equal(a, b)

    def test_budget_conservation_per_row(self):
        cfg = ExperimentConfig(scenario="unequal-prior-xz", eta0=0.7, **BASE)
        for r in run_experiment(cfg):
            assert r.qubits_used == r.shots_learn + r.shots_holdout
            assert r.shots_learn == 2 * cfg.shots_learn  # two measurement axes

    def test_constz_budget_counts_three_axes(self):
        cfg = ExperimentConfig(scenario="const-z", eta0=0.6, nz=0.3, **BASE)
        for r in run_experiment(cfg):
            assert r.shots_learn == 3 * cfg.shots_learn

    def test_equal_prior_rows_track_target(self):
        cfg = ExperimentConfig(
            scenario="equal-prior-xz",
            alpha=math.pi / 3,
            beta=math.pi / 6,
            shots_learn=50_000,
            shots_holdout=20_000,
            trials=5,
            seed=7,
        )
        for r in run_experiment(cfg):
            assert r.status == "ok"
            assert r.success_analytic == pytest.approx(0.75, abs=1e-12)
            assert r.success_oracle == pytest.approx(0.75, abs=1e-12)
            assert abs(r.z_score) <= 5.0

    def test_two_fold_rows_match_oracle_target(self):
        cfg = ExperimentConfig(scenario="unequal-prior-xz", eta0=0.6, theta=1.2, **BASE)
        for r in run_experiment(cfg):
            assert r.case in ("A", "B")
            assert r.success_analytic == pytest.approx(r.success_oracle, abs=1e-12)

    def test_weak_signal_status_recorded(self):
        cfg = ExperimentConfig(
            scenario="equal-prior-xz",
            beta=1.55,
            shots_learn=50,
            shots_holdout=100,
            trials=6,
            seed=3,
        )
        rows = run_experiment(cfg)
        statuses = {r.status for r in rows}
        assert "weak_signal" in statuses
        for r in rows:
            if r.status == "weak_signal":
                assert r.success_emp is None
                assert r.shots_learn == 2 * cfg.shots_learn  # consumed budget

    def test_degenerate_ensemble_status_recorded(self):
        # Antipodal equal-prior two-state ensemble: the mixed Bloch vector
        # vanishes, so the axis construction must fail gracefully per trial.
        cfg = ExperimentConfig(
            scenario="unequal-prior-xz", eta0=0.5, theta=math.pi, trials=3,
            shots_learn=500, shots_holdout=100, seed=1,
        )
        rows = run_experiment(cfg)
        assert all(r.status == "degenerate_ensemble" for r in rows)
        assert all(r.success_emp is None for r in rows)

    def test_chance_level_at_coincident_states(self):
        # theta = 0 sits on the boundary of the separation-cosine domain, so
        # the theta diagnostic may report out-of-range on noisy trials; the
        # classification itself must still run and land at chance level.
        cfg = ExperimentConfig(
            scenario="unequal-prior-xz", eta0=0.6, theta=0.0, trials=3,
            shots_learn=2_000, shots_holdout=5_000, seed=5,
        )
        for r in run_experiment(cfg):
            assert r.status in ("ok", "cos_theta_out_of_range")
            assert r.success_analytic == 0.5
            assert r.success_oracle == 0.5
            assert abs(r.success_emp - 0.5) <= 0.05

    def test_trial_offset_shifts_streams(self):
        cfg = ExperimentConfig(scenario="equal-prior-xz", **BASE)
        plain = run_experiment(cfg)
        shifted = run_experiment(cfg, trial_offset=4)
        assert [r.trial for r in shifted] == [4, 5, 6, 7]
        assert plain[0].success_emp != shifted[0].success_emp


def count_calls(monkeypatch, name):
    """Wrap povmlearn.experiment.<name> and return its list of call args."""
    calls = []
    fn = getattr(experiment, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(experiment, name, counted)
    return calls


class TestTruthOncePerCell:
    """Ground truth is a function of (cell, case) only, so a cell builds it at
    most once per case, and never hands it to another cell."""

    @pytest.mark.parametrize("scenario", ["unequal-prior-xz", "const-z"])
    def test_two_fold_run_builds_truth_per_case(self, monkeypatch, scenario):
        calls = count_calls(monkeypatch, "two_fold_truth")
        cfg = ExperimentConfig(scenario=scenario, eta0=0.6, nz=0.3, **{**BASE, "trials": 40})
        rows = run_experiment(cfg)
        assert len(rows) == 40
        assert {r.case for r in rows} == {"A", "B"}
        assert sorted(args[3] for args in calls) == ["A", "B"]

    def test_equal_prior_run_builds_ensemble_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "equal_prior_ensemble")
        rows = run_experiment(ExperimentConfig(scenario="equal-prior-xz", **{**BASE, "trials": 10}))
        assert len(rows) == 10
        assert len(calls) == 1

    def test_sweep_builds_truth_per_cell(self, monkeypatch):
        calls = count_calls(monkeypatch, "two_fold_truth")
        base = ExperimentConfig(scenario="unequal-prior-xz", **{**BASE, "trials": 5})
        thetas = [0.5, 1.0, 1.5]
        rows = sweep(base, {"theta": thetas})
        for theta in thetas:
            assert sum(args[1] == theta for args in calls) <= 2
        for r in rows:
            eta1 = 1.0 - r.eta0
            q = math.sqrt(r.eta0**2 + eta1**2 + 2 * r.eta0 * eta1 * math.cos(r.theta_true))
            assert r.success_analytic == pytest.approx(success_prob(r.eta0, eta1, r.theta_true, q), abs=1e-12)

    def test_degenerate_truth_is_not_stored(self, monkeypatch):
        calls = count_calls(monkeypatch, "two_fold_truth")
        cfg = ExperimentConfig(
            scenario="unequal-prior-xz", eta0=0.5, theta=math.pi, trials=3,
            shots_learn=500, shots_holdout=100, seed=1,
        )
        rows = run_experiment(cfg)
        assert all(r.status == "degenerate_ensemble" for r in rows)
        assert len(calls) == 3


class TestSweep:
    def test_grid_cardinality(self):
        base = ExperimentConfig(scenario="unequal-prior-xz", **BASE)
        rows = sweep(base, {"eta0": [0.5, 0.6, 0.7], "theta": [0.5, 1.0, 1.5]})
        assert len(rows) == 9 * BASE["trials"]
        assert len({r.trial for r in rows}) == len(rows)  # globally unique

    def test_unknown_key_rejected(self):
        base = ExperimentConfig(scenario="unequal-prior-xz", **BASE)
        with pytest.raises(ContractViolation):
            sweep(base, {"shots_learn": [10, 20]})

    def test_empty_grid_is_single_run(self):
        base = ExperimentConfig(scenario="unequal-prior-xz", eta0=0.6, **BASE)
        assert rows_equal(sweep(base, {}), run_experiment(base))

    def test_sweep_determinism(self):
        base = ExperimentConfig(scenario="unequal-prior-xz", **BASE)
        grid = {"eta0": [0.55, 0.7]}
        assert rows_equal(sweep(base, grid), sweep(base, grid))


class TestSerialization:
    def rows(self):
        cfg = ExperimentConfig(scenario="unequal-prior-xz", eta0=0.6, **BASE)
        return run_experiment(cfg)

    def test_csv_schema(self):
        text = render_results(self.rows(), "csv")
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        assert tuple(header) == CSV_COLUMNS
        data = list(reader)
        assert len(data) == BASE["trials"]
        for row in data:
            assert len(row) == len(CSV_COLUMNS)
            for cell in row:
                assert cell == cell.strip()
                assert "nan" not in cell.lower()

    def test_csv_blank_for_inapplicable(self):
        cfg = ExperimentConfig(scenario="equal-prior-xz", **BASE)
        text = render_results(run_experiment(cfg), "csv")
        first = next(csv.DictReader(io.StringIO(text)))
        assert first["case"] == ""
        assert first["beta_true"] != ""

    def test_json_mirrors_csv_fields(self):
        rows = self.rows()
        payload = json.loads(render_results(rows, "json"))
        assert len(payload) == len(rows)
        assert set(payload[0].keys()) == set(CSV_COLUMNS)
        assert payload[0]["trial"] == 0
        assert payload[0]["status"] == "ok"
        assert isinstance(payload[0]["success_emp"], float)

    def test_json_null_for_inapplicable(self):
        cfg = ExperimentConfig(scenario="equal-prior-xz", **BASE)
        payload = json.loads(render_results(run_experiment(cfg), "json"))
        assert payload[0]["case"] is None

    def test_twelve_significant_digits(self):
        text = render_results(self.rows(), "csv")
        first = next(csv.DictReader(io.StringIO(text)))
        value = first["success_analytic"]
        assert len(value.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) <= 13

    def test_empty_rows_rejected(self):
        with pytest.raises(ContractViolation):
            render_results([], "csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ContractViolation):
            render_results(self.rows(), "yaml")

    def test_emit_to_file_and_stdout(self, tmp_path, capsys):
        rows = self.rows()
        path = tmp_path / "out.csv"
        emit_results(rows, "csv", str(path))
        emit_results(rows, "csv", None)
        captured = capsys.readouterr()
        assert path.read_text() == captured.out

    def test_emit_io_error_has_path_context(self, tmp_path):
        rows = self.rows()
        bad = tmp_path / "missing-dir" / "out.csv"
        with pytest.raises(OSError) as err:
            emit_results(rows, "csv", str(bad))
        assert "missing-dir" in str(err.value)

    def test_byte_identical_rerun(self, tmp_path):
        cfg = ExperimentConfig(scenario="const-z", eta0=0.6, nz=0.2, **BASE)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(run_experiment(cfg), "csv", str(p1))
        emit_results(run_experiment(cfg), "csv", str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestSummarize:
    def test_aggregates(self):
        cfg = ExperimentConfig(scenario="unequal-prior-xz", eta0=0.6, **BASE)
        rows = run_experiment(cfg)
        summary = summarize(rows)
        assert summary["trials"] == BASE["trials"]
        assert summary["statuses"] == {"ok": BASE["trials"]}
        assert 0.5 <= summary["pooled_success"] <= 1.0
        assert summary["qubits_used"] == sum(r.qubits_used for r in rows)

    def test_all_failed_rows(self):
        cfg = ExperimentConfig(
            scenario="unequal-prior-xz", eta0=0.5, theta=math.pi, trials=2,
            shots_learn=100, shots_holdout=100, seed=0,
        )
        summary = summarize(run_experiment(cfg))
        assert summary["pooled_success"] is None
        assert summary["max_abs_z"] is None
