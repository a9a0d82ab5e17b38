"""Experiment harness: trial pipeline, sweeps, serialization, determinism."""

import csv
import gc
import io
import json
import math
import re
import sys
import weakref

from dataclasses import replace

import numpy as np
import pytest

import povmlearn.experiment as experiment
from povmlearn import bloch
from povmlearn.bloch import Plane
from povmlearn.decomposition import (
    ensemble_vector,
    equal_prior_cell,
    learn_axis,
    mixture_targets,
    povm_axis_from_phi,
    success_prob,
    two_fold_spec,
)
from povmlearn.ensemble import EnsembleSpec, RngStream, pauli_axes
from povmlearn.errors import ContractViolation
from povmlearn.helstrom import helstrom
from povmlearn.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    emit_results,
    render_results,
    run_experiment,
    summarize,
    sweep,
)

from helpers import as_rows
from test_golden import GOLDEN_DIR, GOLDEN_RUNS, render

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

    @pytest.mark.parametrize(
        "name, value",
        [("trials", 2.7), ("shots_learn", 1000.9), ("shots_holdout", 500.5), ("seed", 1.5),
         ("trials", True), ("seed", True), ("shots_learn", "100")],
    )
    def test_budgets_and_seed_must_be_integers(self, name, value):
        # A float budget would sample its floor but report the float, and a
        # float seed would reach numpy's TypeError.
        domain = {"trials": "a positive integer", "seed": "a nonnegative integer"}.get(name, "an integer in [1, 2**63)")
        with pytest.raises(ContractViolation, match="^" + re.escape(f"{name} must be {domain}, got {value!r}") + "$"):
            run_experiment(ExperimentConfig(**{name: value}))

    def test_sweep_checks_each_field_once(self, monkeypatch):
        # Each swept value is checked once as given, then the whole config
        # once, each swept field as its column of 64000 cells; a budget is
        # checked under its own name.
        calls = count_calls(monkeypatch, "check_domain")
        base = ExperimentConfig(scenario="unequal-prior-xz", trials=1, shots_learn=100, shots_holdout=100)
        columns = {key: np.linspace(low, high, 40) for key, low, high in
                   [("eta0", 0.1, 0.9), ("theta", 0.1, 3.0), ("alpha", 0.0, 6.0)]}
        assert len(sweep(base, columns)["trial"]) == 40**3
        values, config = calls[:120], calls[120:]
        assert values == [(key, v) for key, column in columns.items() for v in column]
        names = [args[2] if len(args) > 2 else args[0] for args in config]
        fields = ("shots_learn", "shots_holdout", "trials", "seed", "alpha", "phi0", "eta0", "beta", "theta", "nz")
        assert sorted(names) == sorted(fields)
        assert [np.size(args[1]) for args in config if args[0] in columns] == [40**3] * 3

    def test_empty_sweep_still_validates(self):
        # A sweep with an empty column has no cell, but its config is checked.
        with pytest.raises(ContractViolation, match=r"^trials must be a positive integer, got 0$"):
            sweep(ExperimentConfig(trials=0), {"alpha": []})
        with pytest.raises(ContractViolation, match=r"^cannot sweep over \['nz'\], which the equal-prior-xz"):
            sweep(ExperimentConfig(), {"nz": []})

    def test_numpy_integers_are_integers(self):
        ExperimentConfig(shots_learn=np.int64(100), trials=np.int32(2), seed=np.uint8(3)).validate()

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


class TestScenarioBuilders:
    def test_equal_prior_states(self):
        spec = two_fold_spec(*equal_prior_cell(0.9, 0.3))
        assert spec.eta0 == 0.5
        assert np.allclose(
            spec.psi0, [math.sin(1.2), 0.0, math.cos(1.2)], atol=1e-12
        )
        assert np.allclose(
            spec.psi1, [math.sin(0.6), 0.0, math.cos(0.6)], atol=1e-12
        )

    def test_two_fold_consistency(self):
        spec = two_fold_spec(0.65, 1.1, 0.4, "B")
        n = spec.eta0 * spec.psi0 + (1 - spec.eta0) * spec.psi1
        q = np.linalg.norm(n)
        expect = math.sqrt(
            0.65**2 + 0.35**2 + 2 * 0.65 * 0.35 * math.cos(1.1)
        )
        assert q == pytest.approx(expect, abs=1e-12)
        assert math.atan2(n[2], n[0]) == pytest.approx(0.4, abs=1e-12)

    def test_constz_consistency(self):
        plane = Plane.const_z(0.35)
        spec = two_fold_spec(0.6, 0.9, 1.2, "A", plane)
        assert spec.psi0[2] == pytest.approx(0.35, abs=1e-12)
        assert spec.psi1[2] == pytest.approx(0.35, abs=1e-12)
        assert abs(np.linalg.norm(spec.psi0) - 1.0) <= 1e-12


class TestRunExperiment:
    def test_row_count_and_indices(self):
        cfg = ExperimentConfig(scenario="equal-prior-xz", **BASE)
        rows = as_rows(run_experiment(cfg))
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
        for r in as_rows(run_experiment(cfg)):
            assert r.shots_learn == 2 * cfg.shots_learn  # two measurement axes

    def test_constz_budget_counts_three_axes(self):
        cfg = ExperimentConfig(scenario="const-z", eta0=0.6, nz=0.3, **BASE)
        for r in as_rows(run_experiment(cfg)):
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
        for r in as_rows(run_experiment(cfg)):
            assert r.status == "ok"
            assert r.success_analytic == pytest.approx(0.75, abs=1e-12)
            assert r.success_oracle == pytest.approx(0.75, abs=1e-12)
            assert abs(r.z_score) <= 5.0

    def test_two_fold_rows_match_oracle_target(self):
        cfg = ExperimentConfig(scenario="unequal-prior-xz", eta0=0.6, theta=1.2, **BASE)
        for r in as_rows(run_experiment(cfg)):
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
        rows = as_rows(run_experiment(cfg))
        statuses = {r.status for r in rows}
        assert "weak_signal" in statuses
        for r in rows:
            if r.status == "weak_signal":
                assert r.success_emp is None
                assert r.shots_learn == 2 * cfg.shots_learn  # consumed budget

    @pytest.mark.parametrize("scenario,axes", [("unequal-prior-xz", 2), ("const-z", 3)])
    def test_two_fold_weak_signal_rows(self, scenario, axes):
        # |u| = rho cos(theta/2) ~ 5e-5 lies far below the noise floor
        # 3/sqrt(2000) of its estimate on each plane axis: the learned
        # direction is noise, so no row reports an axis or a score.
        cfg = ExperimentConfig(
            scenario=scenario, eta0=0.5, theta=3.1415, nz=0.4 if scenario == "const-z" else 0.0,
            trials=4, shots_learn=2_000, shots_holdout=1_000, seed=5,
        )
        for r in as_rows(run_experiment(cfg)):
            assert r.status == "weak_signal"
            assert r.shots_learn == axes * cfg.shots_learn
            assert r.shots_holdout == 0
            assert r.success_analytic is not None
            assert (r.axis_x, r.alpha_hat, r.success_emp, r.z_score) == (None,) * 4

    def test_degenerate_ensemble_status_recorded(self):
        # Antipodal equal-prior two-state ensemble: the mixed Bloch vector
        # vanishes, so the axis construction must fail gracefully per trial.
        cfg = ExperimentConfig(
            scenario="unequal-prior-xz", eta0=0.5, theta=math.pi, trials=3,
            shots_learn=500, shots_holdout=100, seed=1,
        )
        rows = as_rows(run_experiment(cfg))
        assert all(r.status == "degenerate_ensemble" for r in rows)
        assert all(r.success_emp is None for r in rows)

    def test_antipodal_equal_prior_rows_are_degenerate(self, monkeypatch):
        # beta = pi/2: the equal-prior states are antipodal and the ensemble
        # vector vanishes, as above.  The rows report no truth and no budget,
        # as two-fold degenerate rows do, and still draw from every stream.
        draws = []

        class Recorded(np.random.Generator):
            def binomial(self, n, p, size=None):
                draws.append(np.shape(p))
                return super().binomial(n, p, size)

        role_streams = experiment._role_streams
        monkeypatch.setattr(experiment, "_role_streams", lambda seed, roles: {
            role: Recorded(gen.bit_generator) for role, gen in role_streams(seed, roles).items()
        })
        cfg = ExperimentConfig(
            scenario="equal-prior-xz", beta=math.pi / 2, trials=50,
            shots_learn=2_000, shots_holdout=1_000, seed=3,
        )
        rows = as_rows(run_experiment(cfg))
        assert draws == [(50,)] * 3  # axis0, axis1, holdout
        assert all(r.status == "degenerate_ensemble" for r in rows)
        for r in rows:
            assert (r.success_analytic, r.success_oracle, r.shots_learn, r.shots_holdout) == (None, None, 0, 0)
            assert (r.axis_x, r.alpha_hat, r.success_emp, r.z_score) == (None,) * 4

    def test_chance_level_at_coincident_states(self):
        # theta = 0 sits on the boundary of the separation-cosine domain, so
        # the theta diagnostic may report out-of-range on noisy trials; the
        # classification itself must still run and land at chance level.
        cfg = ExperimentConfig(
            scenario="unequal-prior-xz", eta0=0.6, theta=0.0, trials=3,
            shots_learn=2_000, shots_holdout=5_000, seed=5,
        )
        for r in as_rows(run_experiment(cfg)):
            assert r.status in ("ok", "cos_theta_out_of_range")
            assert r.success_analytic == 0.5
            assert r.success_oracle == 0.5
            assert abs(r.success_emp - 0.5) <= 0.05


def redrawn_readings(cfg: ExperimentConfig, columns: dict) -> np.ndarray:
    """The readings of every row of a run, drawn again as the engine draws
    them: learn_axis on the rows' spec and the scenario's frame, from the
    _role_streams generators of its learning axes."""
    full = np.full(len(columns["trial"]), 1.0)
    roles = ("axis0", "axis1", "axis2") if cfg.scenario == "const-z" else ("axis0", "axis1")
    if cfg.scenario == "equal-prior-xz":
        spec = two_fold_spec(*equal_prior_cell(cfg.alpha * full, cfg.beta * full))
        frame = (povm_axis_from_phi(cfg.phi0), povm_axis_from_phi(cfg.phi0 + 0.25 * math.pi))
    else:
        plane = Plane.const_z(cfg.nz * full) if cfg.scenario == "const-z" else Plane.xz()
        spec = two_fold_spec(cfg.eta0 * full, cfg.theta * full, cfg.alpha * full, columns["case"], plane)
        frame = pauli_axes(plane)
    streams = experiment._role_streams(cfg.seed, roles)
    return learn_axis(spec, frame, cfg.shots_learn, [streams[role] for role in roles])[2]


class TestWeakRule:
    """The engine's one weak rule, for every scenario: a row with a
    direction is weak_signal exactly when both of its first two readings
    lie within 3/sqrt(shots_learn); a const-z row's z reading is not used.
    At 400 shots the floor is 0.15, which a reading (2 count - 400)/400
    meets exactly at a count of 230 or 170."""

    # Cells whose larger in-plane reading has a mean near the floor, so
    # that rows fall on both sides of it and on it.
    CELLS = {
        "equal-prior-xz": dict(scenario="equal-prior-xz", beta=1.4, phi0=0.3),
        "unequal-prior-xz": dict(scenario="unequal-prior-xz", eta0=0.5, theta=2.8),
        "const-z": dict(scenario="const-z", eta0=0.5, theta=2.8, nz=0.4),
    }

    @pytest.mark.parametrize("scenario", sorted(CELLS))
    def test_weak_exactly_at_or_below_the_floor(self, scenario):
        cfg = ExperimentConfig(**self.CELLS[scenario], shots_learn=400, shots_holdout=100, trials=400, seed=7)
        columns = run_experiment(cfg)
        readings = redrawn_readings(cfg, columns)
        top = np.maximum(np.abs(readings[:, 0]), np.abs(readings[:, 1]))
        status = np.array(columns["status"])
        kept = status != "degenerate_ensemble"
        assert kept.sum() >= 395 and (top[kept] == 0.15).any()
        assert ((status == "weak_signal") == (top <= 0.15))[kept].all()
        assert 50 <= (status == "weak_signal").sum() <= 350


def count_calls(monkeypatch, name):
    """Empty the engine's cell-truth memo, so that the count does not depend
    on the cells earlier tests ran, then watch povmlearn.experiment.<name>."""
    experiment._kept_truth.cache_clear()
    return watch(monkeypatch, name)


def watch(monkeypatch, name):
    """Wrap povmlearn.experiment.<name> and return its list of call args."""
    calls = []
    fn = getattr(experiment, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(experiment, name, counted)
    return calls


class TestTruthOncePerCell:
    """Ground truth is a function of (cell, case) only.  The engine computes
    it for every cell of a run or sweep in one array pass, for every
    scenario: one call of two_fold_cell over the cells and one of
    two_fold_spec over both branches of every cell, A then B, while the
    engine does not keep them.  Each two-fold row takes the pair of its own
    case, and every equal-prior row the pair of branch B."""

    @pytest.mark.parametrize("scenario", ["equal-prior-xz", "unequal-prior-xz", "const-z"])
    def test_run_builds_truth_once_per_cell_and_once_over_the_rows(self, monkeypatch, scenario):
        cells = count_calls(monkeypatch, "two_fold_cell")
        specs = count_calls(monkeypatch, "two_fold_spec")
        taken = []
        take = EnsembleSpec.take
        monkeypatch.setattr(EnsembleSpec, "take", lambda spec, rows: taken.append(rows) or take(spec, rows))
        cfg = ExperimentConfig(scenario=scenario, eta0=0.5 if scenario == "equal-prior-xz" else 0.6, nz=0.3,
                               **{**BASE, "trials": 40})
        rows = as_rows(run_experiment(cfg))
        assert len(rows) == 40
        assert len(cells) == 1 and cells[0][0].tolist() == [cfg.eta0]
        assert len(specs) == 1 and specs[0][0].tolist() == [cfg.eta0] * 2 and specs[0][3].tolist() == ["A", "B"]
        assert specs[0][1].tolist() == cells[0][1].tolist() * 2 and specs[0][2].tolist() == cells[0][2].tolist() * 2
        plane = specs[0][4]
        assert plane.kind == cells[0][3].kind
        assert np.asarray(plane.nz).tolist() == ([cfg.nz] * 2 if scenario == "const-z" else 0.0)
        assert len(taken) == 1
        if scenario == "equal-prior-xz":
            assert {r.case for r in rows} == {None} and taken[0].tolist() == [1] * 40
            assert cells[0][1].tolist() == [2.0 * cfg.beta] and cells[0][2].tolist() == [math.pi / 2 - cfg.alpha]
        else:
            assert {r.case for r in rows} == {"A", "B"}
            assert taken[0].tolist() == [int(r.case == "B") for r in rows]
        # A warm run builds neither the cell's truth nor its spec again.
        assert as_rows(run_experiment(cfg)) == rows
        assert len(cells) == 1 and len(specs) == 1 and len(taken) == 2

    def test_sweep_builds_truth_per_cell(self, monkeypatch):
        calls = count_calls(monkeypatch, "two_fold_cell")
        base = ExperimentConfig(scenario="unequal-prior-xz", **{**BASE, "trials": 5})
        thetas = [0.5, 1.0, 1.5]
        rows = as_rows(sweep(base, {"theta": thetas}))
        assert len(calls) == 1
        assert calls[0][1].tolist() == thetas
        for r in rows:
            eta1 = 1.0 - r.eta0
            q = math.sqrt(r.eta0**2 + eta1**2 + 2 * r.eta0 * eta1 * math.cos(r.theta_true))
            assert r.success_analytic == pytest.approx(success_prob(r.eta0, r.theta_true, q), abs=1e-12)

    @pytest.mark.parametrize(
        "scenario, key, truth",
        [
            ("equal-prior-xz", "beta", {"mixture_targets", "success_prob", "helstrom"}),
            ("const-z", "eta0", {"mixture_targets", "success_prob", "helstrom"}),
        ],
        ids=["equal-prior-xz", "const-z"],
    )
    def test_sweep_calls_each_truth_function_once(self, monkeypatch, scenario, key, truth):
        names = ("mixture_targets", "success_prob", "helstrom")
        calls = {name: count_calls(monkeypatch, name) for name in names}
        base = ExperimentConfig(scenario=scenario, **{**BASE, "trials": 2})
        rows = as_rows(sweep(base, {"alpha": [0.0, 1.0, 2.0], key: [0.2, 0.3, 0.4, 0.5]}))
        assert len(rows) == 24
        assert {name: len(c) for name, c in calls.items()} == {name: int(name in truth) for name in names}

    def test_a_warm_memo_does_not_change_the_counts(self, monkeypatch):
        # The const-z sweep above, run once before its calls are counted:
        # count_calls empties the memo, so the count is that of a cold run.
        grid = {"alpha": [0.0, 1.0, 2.0], "eta0": [0.2, 0.3, 0.4, 0.5]}
        base = ExperimentConfig(scenario="const-z", **{**BASE, "trials": 2})
        sweep(base, grid)
        names = ("mixture_targets", "success_prob", "helstrom")
        calls = {name: count_calls(monkeypatch, name) for name in names}
        assert len(sweep(base, grid)["trial"]) == 24
        assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(names, 1)

    def test_oracle_comes_from_helstrom_on_coincident_and_degenerate_cells(self, monkeypatch):
        # theta = 0 at equal priors: the two states coincide, Gamma = 0 and
        # the oracle is 1/2.  theta = pi: no ensemble direction, so the
        # cell is degenerate.  theta = 1.2: an ordinary cell.
        calls = count_calls(monkeypatch, "helstrom")
        base = ExperimentConfig(scenario="unequal-prior-xz", eta0=0.5, trials=3, shots_learn=2000,
                                shots_holdout=500, seed=4)
        thetas = [0.0, math.pi, 1.2]
        rows = as_rows(sweep(base, {"theta": thetas}))
        assert len(calls) == 1
        n, _ = ensemble_vector(0.5, 1.2, base.alpha)
        ordinary = float(helstrom(*mixture_targets(n, 1.2, 0.5))[0])
        assert [r.success_oracle for r in rows] == [0.5] * 3 + [None] * 3 + [ordinary] * 3
        assert [r.status for r in rows] == ["ok"] * 3 + ["degenerate_ensemble"] * 3 + ["ok"] * 3

    def test_degenerate_truth_is_not_stored(self, monkeypatch):
        calls = count_calls(monkeypatch, "two_fold_cell")
        cfg = ExperimentConfig(
            scenario="unequal-prior-xz", eta0=0.5, theta=math.pi, trials=3,
            shots_learn=500, shots_holdout=100, seed=1,
        )
        rows = as_rows(run_experiment(cfg))
        assert all(r.status == "degenerate_ensemble" for r in rows)
        # Once per cell: the engine asks for a cell's truth once, and the
        # failure marks every row of the cell.
        assert len(calls) == 1


class TestValidateOnce:
    """Specs are validated when built, so a run checks only the axes it
    measures along, each exactly once: a learning axis or setting is one
    3-vector shared by every row and is checked once per draw, and the
    holdout axis is one per row, each checked once.  A check covers all of
    its vectors at once, so the count is of the vectors checked."""

    @pytest.mark.parametrize(
        "scenario, shared", [("equal-prior-xz", 2), ("unequal-prior-xz", 2), ("const-z", 3)]
    )
    def test_unit_checks_per_trial(self, monkeypatch, scenario, shared):
        calls = []
        real = bloch.check_unit

        def counted(v, what="vector"):
            # The spec's states go through check_unit too; only axes count.
            if what.endswith("axis"):
                calls.extend(np.atleast_2d(v))
            return real(v, what)

        for name, module in list(sys.modules.items()):
            if name.startswith("povmlearn") and getattr(module, "check_unit", None) is real:
                monkeypatch.setattr(module, "check_unit", counted)
        cfg = ExperimentConfig(scenario=scenario, eta0=0.5 if scenario == "equal-prior-xz" else 0.6,
                               nz=0.3, **{**BASE, "trials": 6})
        rows = as_rows(run_experiment(cfg))
        assert all(r.success_emp is not None for r in rows)
        assert len(calls) == shared + len(rows)


def head(columns: dict, count: int) -> dict:
    """The result record of the first count rows."""
    return {name: column[:count] for name, column in columns.items()}


def streams_built_alone(seed, roles):
    """Stand-in for experiment._role_streams that builds each stream on its
    own, straight from numpy's SeedSequence, at its layout-v4 id:
    3 * role index, for the roles case, axis0, axis1, axis2, holdout."""
    order = ("case", "axis0", "axis1", "axis2", "holdout")
    return {role: np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3 * order.index(role),)))
            for role in roles}


class _WeakGenerator(np.random.Generator):
    """A Generator that can be weakly referenced; numpy's cannot."""


def track_streams(monkeypatch):
    """Make the engine build its streams through a recording RngStream.
    Returns the (seed, stream id) of each generator built, in order, and a
    weak reference to each generator; the generators draw the same bits."""
    built, held = [], []

    class Tracked(RngStream):
        def generator(self):
            gen = _WeakGenerator(super().generator().bit_generator)
            built.append((self.seed, self.stream_id))
            held.append(weakref.ref(gen))
            return gen

    monkeypatch.setattr(experiment, "RngStream", Tracked)
    return built, held


SMALL = dict(shots_learn=300, shots_holdout=100, seed=11)
SCENARIO_CELLS = {
    "equal-prior-xz": dict(scenario="equal-prior-xz"),
    "unequal-prior-xz": dict(scenario="unequal-prior-xz", eta0=0.6),
    "const-z": dict(scenario="const-z", eta0=0.6, nz=0.3),
}


class TestResultRecord:
    """run_experiment and sweep return a columns record of exactly the
    columns they write: each CSV column, in order, as a list with one entry
    per row."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_CELLS))
    def test_run_and_sweep_return_one_entry_per_row_in_each_column(self, scenario):
        cfg = ExperimentConfig(**SCENARIO_CELLS[scenario], trials=3, **SMALL)
        records = {
            3: run_experiment(cfg),
            6: sweep(cfg, {"alpha": [0.0, 1.0]}),
            0: sweep(cfg, {"alpha": []}),
        }
        for count, columns in records.items():
            assert list(columns) == list(CSV_COLUMNS)
            assert all(type(column) is list and len(column) == count for column in columns.values())


class TestStreamLayout:
    """Layout v4: one stream per role, each drawing one array over all rows
    of a run or sweep in row order."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_CELLS))
    def test_rows_match_streams_built_alone(self, monkeypatch, scenario):
        cfg = ExperimentConfig(**SCENARIO_CELLS[scenario], trials=30, **SMALL)
        rows = render_results(run_experiment(cfg))
        monkeypatch.setattr(experiment, "_role_streams", streams_built_alone)
        assert render_results(run_experiment(cfg)) == rows

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_CELLS))
    def test_run_is_prefix_stable(self, scenario):
        cfg = ExperimentConfig(**SCENARIO_CELLS[scenario], trials=20, **SMALL)
        long = run_experiment(cfg)
        short = run_experiment(replace(cfg, trials=10))
        assert render_results(head(long, 10)) == render_results(short)

    def test_sweep_is_prefix_stable(self):
        # The leading cells of a sweep are the shorter sweep; the grid holds
        # a degenerate cell (eta0 = 0.5, theta = pi) among the leading ones.
        base = ExperimentConfig(scenario="const-z", eta0=0.5, trials=3, **SMALL)
        long = sweep(base, {"theta": [0.5, math.pi, 1.5, 2.0]})
        short = sweep(base, {"theta": [0.5, math.pi, 1.5]})
        assert set(short["status"][3:6]) == {"degenerate_ensemble"}
        assert render_results(head(long, 9)) == render_results(short)

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_CELLS))
    def test_run_equals_one_cell_sweep(self, scenario):
        cfg = ExperimentConfig(**SCENARIO_CELLS[scenario], trials=7, **SMALL)
        assert rows_equal(run_experiment(cfg), sweep(cfg, {}))
        key = "alpha" if scenario == "equal-prior-xz" else "theta"
        assert rows_equal(run_experiment(cfg), sweep(cfg, {key: [getattr(cfg, key)]}))

    def test_sweep_builds_each_stream_once(self, monkeypatch):
        built, _ = track_streams(monkeypatch)
        base = ExperimentConfig(scenario="const-z", eta0=0.6, trials=1, **SMALL)
        rows = as_rows(sweep(base, {"nz": [-0.3, 0.0, 0.3], "alpha": [0.0, 1.0]}))
        assert len(rows) == 6
        assert built == [(11, k) for k in (0, 3, 6, 9, 12)]
        built.clear()
        run_experiment(ExperimentConfig(scenario="equal-prior-xz", trials=200, **SMALL))
        assert built == [(11, k) for k in (3, 6, 12)]

    def test_engine_keeps_nothing_after_return(self, monkeypatch):
        built, held = track_streams(monkeypatch)
        for scenario in sorted(SCENARIO_CELLS):
            rows = as_rows(run_experiment(ExperimentConfig(**SCENARIO_CELLS[scenario], trials=5, **SMALL)))
            assert len(rows) == 5
        gc.collect()
        assert len(built) == 3 + 4 + 5 and all(ref() is None for ref in held)


def cold(cfg: ExperimentConfig, grid: dict | None = None, fmt: str = "csv") -> str:
    """The text of cfg's run, or of its sweep over grid, from an empty
    cell-truth memo."""
    experiment._kept_truth.cache_clear()
    return render_results(sweep(cfg, grid or {}), fmt)


class TestCellTruthMemo:
    """The engine keeps the truth of the last _TRUTH_SLOTS sets of cells it
    computed, read-only and keyed by their exact bytes (_cell_truth): a
    repeated set skips two_fold_cell, and no output byte depends on what
    the memo holds."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("scenario", sorted(SCENARIO_CELLS))
    def test_warm_run_and_sweep_write_the_cold_bytes(self, monkeypatch, scenario, fmt):
        cfg = ExperimentConfig(**SCENARIO_CELLS[scenario], trials=6, **SMALL)
        grid = {"alpha": [0.0, 1.0, 2.0]}
        texts = cold(cfg, fmt=fmt), cold(cfg, grid, fmt)
        run_experiment(cfg)
        calls = watch(monkeypatch, "two_fold_cell")
        assert (render_results(run_experiment(cfg), fmt), render_results(sweep(cfg, grid), fmt)) == texts
        assert calls == []

    def test_seeds_of_one_cell_share_one_helstrom_call(self, monkeypatch):
        calls = count_calls(monkeypatch, "helstrom")
        cfg = ExperimentConfig(scenario="unequal-prior-xz", eta0=0.6, trials=3, **SMALL)
        for seed in (1, 2):
            run_experiment(replace(cfg, seed=seed))
        assert len(calls) == 1

    def test_signed_zero_alpha_is_its_own_cell(self):
        cfg = ExperimentConfig(scenario="unequal-prior-xz", eta0=0.6, trials=5, **SMALL)
        cells = replace(cfg, alpha=0.0), replace(cfg, alpha=-0.0)
        texts = [cold(c) for c in cells]
        experiment._kept_truth.cache_clear()
        assert [render_results(run_experiment(c)) for c in cells] == texts
        assert experiment._kept_truth.cache_info().currsize == 2

    def test_first_cell_keeps_its_golden_bytes_after_nine_others(self, monkeypatch, tmp_path):
        # Nine other cells evict the first, whose truth is then computed anew.
        name = "run-unequal-prior-xz.csv"
        experiment._kept_truth.cache_clear()
        first = render(GOLDEN_RUNS[name], tmp_path / "cold.csv")
        for k in range(1, 10):
            run_experiment(ExperimentConfig(scenario="unequal-prior-xz", eta0=0.6, theta=1.2, alpha=0.7 + 0.1 * k,
                                            trials=1, **SMALL))
        calls = watch(monkeypatch, "two_fold_cell")
        assert render(GOLDEN_RUNS[name], tmp_path / "warm.csv") == first == (GOLDEN_DIR / name).read_bytes()
        assert len(calls) == 1

    # Cells in the engine's layout for each scenario, with the nz of each
    # const-z cell and the index of the degenerate cell: eta0 = 1/2 and
    # theta = pi, or antipodal equal priors at beta = pi/2.  Each scenario
    # holds alpha = 1e17, and the const-z rows lie in three slices.
    TWO_FOLD = np.array([0.6, 0.5, 0.3, 0.5]), np.array([1.2, math.pi, 0.4, 2.0]), np.array([0.7, 0.0, 1e17, -2.5])
    GATHERED = {
        "equal-prior-xz": (equal_prior_cell(np.array([math.pi / 3, 1e17, 0.9]), np.array([0.5, 0.2, math.pi / 2])),
                           None, 2),
        "unequal-prior-xz": ((*TWO_FOLD, None), None, 1),
        "const-z": ((*TWO_FOLD, None), np.array([0.3, -0.5, 0.0, 0.3]), 1),
    }

    @pytest.mark.parametrize("scenario", sorted(GATHERED))
    def test_gathered_rows_are_the_spec_built_over_them_bit_for_bit(self, scenario):
        (eta0, theta, direction, case), nz, degenerate = self.GATHERED[scenario]
        cells = len(eta0)
        cell_of = np.repeat(np.arange(cells), 3)
        if case is None:
            case = np.resize(["A", "B", "B", "A", "A"], len(cell_of))
        plane = Plane.xz() if nz is None else Plane.const_z(nz)
        experiment._kept_truth.cache_clear()
        analytic, _, branches = experiment._cell_truth(eta0, theta, direction, plane)
        assert np.isnan(analytic).nonzero()[0].tolist() == [degenerate]
        taken = branches.take(cell_of + cells * (case == "B"))
        rows = plane if nz is None else Plane.const_z(nz[cell_of])
        built = two_fold_spec(eta0[cell_of], theta[cell_of], direction[cell_of], case, rows)
        def parts(spec):
            # The x-z plane has no nz per row, and is kept as it is.
            return spec.eta0, spec.psi0, spec.psi1, spec.mixture, *(() if nz is None else (spec.plane.nz,))

        for part, expected in zip(parts(taken), parts(built), strict=True):
            assert part.shape == expected.shape and part.tobytes() == expected.tobytes()
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[...] = 0.5
        assert taken.plane.kind == plane.kind
        assert taken.plane.nz == 0.0 if nz is None else np.unique(taken.plane.nz).size == 3

    @pytest.mark.parametrize(
        "scenario, field, grid",
        [
            ("unequal-prior-xz", {"eta0": 1.5}, {}),
            ("unequal-prior-xz", {}, {"theta": [1.2, 4.0]}),
            ("const-z", {}, {"nz": [0.3, 1.0]}),
        ],
    )
    def test_refused_config_is_refused_alike_when_warm(self, scenario, field, grid):
        cfg = ExperimentConfig(scenario=scenario, eta0=0.6, theta=1.2, nz=0.3, trials=2, **SMALL)
        cold(cfg)
        messages = []
        for _ in range(2):
            with pytest.raises(ContractViolation) as err:
                sweep(replace(cfg, **field), grid)
            messages.append(str(err.value))
        assert messages[0] == messages[1] and experiment._kept_truth.cache_info().currsize == 1

    def test_an_exception_is_raised_and_never_kept(self, monkeypatch):
        def broken(*args):
            raise ZeroDivisionError("no truth")

        cfg = ExperimentConfig(scenario="const-z", eta0=0.6, nz=0.3, trials=2, **SMALL)
        text = cold(cfg)
        experiment._kept_truth.cache_clear()
        monkeypatch.setattr(experiment, "two_fold_cell", broken)
        for _ in range(2):
            with pytest.raises(ZeroDivisionError, match="no truth"):
                run_experiment(cfg)
        assert experiment._kept_truth.cache_info().currsize == 0
        monkeypatch.undo()
        assert render_results(run_experiment(cfg)) == text

    def test_degenerate_cell_stays_degenerate_when_warm(self, monkeypatch):
        cfg = ExperimentConfig(scenario="unequal-prior-xz", eta0=0.5, theta=math.pi, trials=3, **SMALL)
        text = cold(cfg)
        calls = watch(monkeypatch, "two_fold_cell")
        columns = run_experiment(cfg)
        assert calls == [] and set(columns["status"]) == {"degenerate_ensemble"}
        assert render_results(columns) == text

    def test_memo_holds_at_most_eight_read_only_truths(self, monkeypatch):
        experiment._kept_truth.cache_clear()
        cells = [ExperimentConfig(scenario="const-z", eta0=0.6, nz=0.3, alpha=0.1 * k, trials=1, **SMALL)
                 for k in range(13)]
        for k, cfg in enumerate(cells[:12]):
            run_experiment(cfg)
            assert experiment._kept_truth.cache_info().currsize == min(k + 1, 8, experiment._TRUTH_SLOTS)
        cell = (np.array([0.6]), np.array([1.2]), np.array([0.7]), Plane.const_z(np.array([0.3])))
        truth = experiment._cell_truth(*cell)
        analytic, oracle, branches = truth
        arrays = (analytic, oracle, branches.eta0, branches.psi0, branches.psi1, branches.mixture, branches.plane.nz)
        assert experiment._cell_truth(*cell) is truth and not any(part.flags.writeable for part in arrays)
        with pytest.raises(ValueError):
            truth[0][0] = 0.5
        with pytest.raises(ValueError):
            branches.psi0[1, 0] = 0.5
        experiment._kept_truth.cache_clear()
        for cfg in cells[4:12]:
            run_experiment(cfg)
        # The least recently read set goes first: cells 4 to 11 are kept,
        # and cell 4, read again, outlives cell 5.
        calls = watch(monkeypatch, "two_fold_cell")
        for k in (4, 12, 4, 5):
            run_experiment(cells[k])
        assert [args[2].tolist() for args in calls] == [[cells[12].alpha], [cells[5].alpha]]
        assert experiment._kept_truth.cache_info().currsize == 8

    def test_public_truth_functions_compute_on_every_call(self, monkeypatch):
        calls = count_calls(monkeypatch, "helstrom")
        cell = (np.array([0.6]), np.array([1.2]), np.array([0.7]), Plane.xz())
        first, second = experiment.two_fold_cell(*cell), experiment.two_fold_cell(*cell)
        assert len(calls) == 2 and experiment._kept_truth.cache_info().currsize == 0
        assert all(part.flags.writeable for part in (*first, *second))


class TestHugeAngles:
    """An angle more than a turn from 0 is reduced by whole turns (np.fmod)
    before an offset is added to it, so a huge alpha or phi0 keeps the
    offsets it would lose to rounding and acts as its reduced angle."""

    def test_hidden_pair_keeps_its_separation(self):
        spec = two_fold_spec(0.6, 1.2, 1e17, "A")
        reduced = two_fold_spec(0.6, 1.2, math.fmod(1e17, 2 * math.pi), "A")
        assert spec.psi0.tobytes() == reduced.psi0.tobytes() and spec.psi1.tobytes() == reduced.psi1.tobytes()
        assert spec.psi0 @ spec.psi1 == pytest.approx(math.cos(1.2), abs=1e-12)

    def test_truth_takes_the_reduced_direction(self):
        direction = np.array([1e17, -1e16, 1e300, 2.0])
        n, r = ensemble_vector(0.6, 1.2, direction, Plane.const_z(0.3))
        reduced = ensemble_vector(0.6, 1.2, np.fmod(direction, 2 * math.pi), Plane.const_z(0.3))
        assert n.tobytes() == reduced[0].tobytes() and r.tobytes() == reduced[1].tobytes()
        assert equal_prior_cell(1e308, 0.3)[2] == 0.5 * math.pi - math.fmod(1e308, 2 * math.pi)
        # A full turn is an angle within a turn, and is taken as given.
        n, r = ensemble_vector(0.6, 1.2, 2 * math.pi)
        assert n.tolist() == [r * math.cos(2 * math.pi), 0.0, r * math.sin(2 * math.pi)]

    @pytest.mark.parametrize(
        "scenario, key, value",
        [
            ("const-z", "alpha", 1e17),
            ("unequal-prior-xz", "alpha", 1e16),
            ("equal-prior-xz", "alpha", 1e308),
            ("equal-prior-xz", "phi0", 1e300),
        ],
    )
    def test_rows_equal_the_rows_at_the_reduced_angle(self, scenario, key, value):
        cfg = ExperimentConfig(scenario=scenario, trials=200, seed=3, eta0=0.5 if scenario == "equal-prior-xz" else 0.6,
                               theta=1.2, nz=0.3 if scenario == "const-z" else 0.0, **{key: value})
        rows = run_experiment(cfg)
        reduced = run_experiment(replace(cfg, **{key: math.fmod(value, 2 * math.pi)}))
        for name in CSV_COLUMNS:
            if name != "alpha_true":
                assert rows[name] == reduced[name], name
        z = [v for v, status in zip(rows["z_score"], rows["status"]) if status == "ok"]
        assert len(z) >= 190 and abs(sum(z) / len(z)) < 0.5


class TestSweep:
    def test_grid_cardinality(self):
        base = ExperimentConfig(scenario="unequal-prior-xz", **BASE)
        rows = as_rows(sweep(base, {"eta0": [0.5, 0.6, 0.7], "theta": [0.5, 1.0, 1.5]}))
        assert len(rows) == 9 * BASE["trials"]
        assert len({r.trial for r in rows}) == len(rows)  # globally unique

    def test_unknown_key_rejected(self):
        base = ExperimentConfig(scenario="unequal-prior-xz", **BASE)
        with pytest.raises(ContractViolation):
            sweep(base, {"shots_learn": [10, 20]})

    @pytest.mark.parametrize(
        "scenario, key",
        [
            ("equal-prior-xz", "eta0"),
            ("equal-prior-xz", "theta"),
            ("equal-prior-xz", "nz"),
            ("unequal-prior-xz", "beta"),
            ("unequal-prior-xz", "nz"),
            ("const-z", "beta"),
        ],
    )
    def test_key_the_scenario_does_not_read_is_refused(self, scenario, key):
        # Its cells would be duplicates that report the value they ignore.
        base = ExperimentConfig(scenario=scenario, **BASE)
        values = {"eta0": [0.5, 0.5], "theta": [0.5, 1.0], "nz": [0.1, 0.5], "beta": [0.2, 0.4]}[key]
        with pytest.raises(ContractViolation, match=rf"cannot sweep over \['{key}'\], which the {scenario} scenario"):
            sweep(base, {"alpha": [0.0, 1.0], key: values})

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
        assert len(payload) == len(rows["trial"])
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
        with pytest.raises(ContractViolation, match="no result rows"):
            render_results(sweep(ExperimentConfig(**BASE), {"alpha": []}), "csv")

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
        assert summary["qubits_used"] == sum(r.shots_learn + r.shots_holdout for r in as_rows(rows))

    def test_all_failed_rows(self):
        cfg = ExperimentConfig(
            scenario="unequal-prior-xz", eta0=0.5, theta=math.pi, trials=2,
            shots_learn=100, shots_holdout=100, seed=0,
        )
        summary = summarize(run_experiment(cfg))
        assert summary["pooled_success"] is None
        assert summary["max_abs_z"] is None
