"""Traced counts repeat, absent callables are tolerated, and a checkout
without the program fails before printing a result."""

import shutil
import subprocess
import sys

import pytest

import run
import tracer
from workloads import WORKLOADS, Sizes, repetition

TINY = Sizes(run_trials=3, sweep_points=(3, 3, 2, 1), oracle_instances=5)


@pytest.fixture(scope="module")
def program():
    return run.load_program()


def _counts(program, tmp_path, workload, seed):
    cli, columns = program
    invocations = repetition(workload, seed, 0, tmp_path, TINY)
    calls, traced = run.traced_pass(cli, columns, invocations)
    assert all(c.verdict.failed == 0 for c in calls)
    return run.count_metrics(calls, traced)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(program, tmp_path, workload):
    first = _counts(program, tmp_path, workload, 11)
    assert first == _counts(program, tmp_path, workload, 11)
    assert first["cli.main.calls"][0] == len(repetition(workload, 11, 0, tmp_path, TINY))
    assert first["trace.absent_callables"][0] == 0


def test_run_deep_truth_repeats_within_an_invocation(program, tmp_path):
    counts = _counts(program, tmp_path, "run-deep", 5)
    assert counts["ensemble.generators_per_op"][0] == 4.0  # 3, 4 and 5 per scenario
    assert counts["truth.repeat_frac"][0] > 0.5


def test_wraps_are_removed_after_a_traced_pass(program, tmp_path):
    cli, columns = program
    before = cli.main
    run.traced_pass(cli, columns, repetition("oracle-check", 1, 0, tmp_path, TINY))
    assert cli.main is before


def test_missing_callable_is_reported_absent(program, tmp_path, monkeypatch):
    monkeypatch.setattr(tracer, "WRAPS", tracer.WRAPS + (
        ("experiment.retired", False, [("povmlearn.experiment", "retired_helper")]),
        ("gone.module", False, [("povmlearn.gone", "anything")]),
    ))
    cli, columns = program
    calls, traced = run.traced_pass(cli, columns, repetition("run-deep", 1, 0, tmp_path, TINY))
    assert traced.absent == ["povmlearn.experiment.retired_helper", "povmlearn.gone.anything"]
    assert all(c.verdict.failed == 0 for c in calls)


def test_tail_reads_p90_with_ten_beyond():
    values = list(range(1, 201))
    assert run.tail(values) == (180, 90.0, 20)
    assert run.tail(values[:50]) == (38, 75.0, 12)
    assert run.tail(values[:5]) == (5, 100.0, 0)


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-deep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
