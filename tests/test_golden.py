"""Golden output pin: exact bytes of a fixed set of CLI runs.

Every entry of GOLDEN_RUNS is run through the CLI with ``--out`` and its
file must equal ``tests/golden/<name>`` byte for byte, so any change to
sampled counts, stream layout, arithmetic or rendering shows up here.
Every entry of GOLDEN_STDOUT is a verification battery whose stdout must
equal its fixture file the same way; the batteries print rounding-level
residues, so a change to the shared geometry shows up there too.
After a deliberate change of output, rewrite the fixture with

    python tests/test_golden.py --regen

and say in the change log why the bytes moved.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_BUDGETS = ("--shots-learn", "2000", "--shots-holdout", "1000")
_PI = repr(math.pi)

# Fixture file name -> CLI argv (without --out).  The const-z sweep spans
# the nz edges and holds eta0 = 0.5 with theta = pi, so degenerate_ensemble
# and cos_theta_out_of_range rows are pinned alongside ok rows.  The
# equal-prior sweep holds the coincident (beta = 0) and antipodal
# (beta = pi/2) pairs at the edges of the beta domain.
GOLDEN_RUNS = {
    "run-equal-prior-xz.csv": (
        "run", "--scenario", "equal-prior-xz", "--alpha", "1.0", "--beta", "0.5",
        "--trials", "4", *_BUDGETS, "--seed", "7",
    ),
    "run-unequal-prior-xz.csv": (
        "run", "--scenario", "unequal-prior-xz", "--eta0", "0.6", "--theta", "1.2",
        "--alpha", "0.7", "--trials", "4", *_BUDGETS, "--seed", "7",
    ),
    "run-const-z.csv": (
        "run", "--scenario", "const-z", "--eta0", "0.6", "--theta", "1.2",
        "--alpha", "0.7", "--nz", "0.4", "--trials", "4", *_BUDGETS, "--seed", "7",
    ),
    "sweep-unequal-prior-xz.json": (
        "sweep", "--scenario", "unequal-prior-xz", "--eta0", "0.5,0.7",
        "--theta", f"0.0,1.2,{_PI}", "--alpha", "0.3,4.0", "--trials", "2",
        *_BUDGETS, "--seed", "11", "--format", "json",
    ),
    "sweep-equal-prior-xz.json": (
        "sweep", "--scenario", "equal-prior-xz", "--alpha", f"0.0,1.0,{_PI}",
        "--beta", f"0.0,0.5,{math.pi / 2!r}", "--trials", "2", *_BUDGETS,
        "--seed", "17", "--format", "json",
    ),
    "sweep-const-z.json": (
        "sweep", "--scenario", "const-z", "--eta0", "0.05,0.5,0.95",
        "--theta", f"0.0,{math.pi / 2!r},{_PI}", "--nz=-0.9,0.0,0.9",
        "--alpha", "0.0,2.0", "--trials", "1", *_BUDGETS, "--seed", "13",
        "--format", "json",
    ),
}

# Fixture file name -> CLI argv of a battery whose stdout is pinned.
GOLDEN_STDOUT = {
    "oracle-check.txt": ("oracle-check", "--instances", "2000", "--seed", "7"),
    # One instance: the edge of the row checks, with one row and no pair
    # of neighbours for the monotone check.
    "oracle-check-one.txt": ("oracle-check", "--instances", "1", "--seed", "9"),
    "selftest.txt": ("selftest",),
    # The README's example seed.
    "selftest-seed-1.txt": ("selftest", "--seed", "1"),
}


def render(argv, out: Path | None = None) -> bytes:
    """Run the CLI; return the bytes of the file `out` when given (rows are
    written there with --out), else the bytes it wrote on stdout."""
    from povmlearn.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)] if out is not None else list(argv))
    if code != 0:
        raise RuntimeError(f"exit {code} for {argv}: {stdout.getvalue()}{stderr.getvalue()}")
    return out.read_bytes() if out is not None else stdout.getvalue().encode()


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_output_matches_golden_bytes(name, tmp_path):
    expected = (GOLDEN_DIR / name).read_bytes()
    assert render(GOLDEN_RUNS[name], tmp_path / name) == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_STDOUT))
def test_battery_stdout_matches_golden_bytes(name):
    assert render(GOLDEN_STDOUT[name]) == (GOLDEN_DIR / name).read_bytes()


def test_constz_sweep_pins_every_row_status():
    rows = json.loads((GOLDEN_DIR / "sweep-const-z.json").read_text())
    statuses = {r["status"] for r in rows}
    assert {"ok", "degenerate_ensemble", "cos_theta_out_of_range"} <= statuses


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in GOLDEN_RUNS.items():
            data = render(argv, Path(tmp) / name)
            (GOLDEN_DIR / name).write_bytes(data)
            print(f"wrote {GOLDEN_DIR / name} ({len(data)} bytes)")
    for name, argv in GOLDEN_STDOUT.items():
        data = render(argv)
        (GOLDEN_DIR / name).write_bytes(data)
        print(f"wrote {GOLDEN_DIR / name} ({len(data)} bytes)")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite the golden output fixture.")
    parser.add_argument("--regen", action="store_true", required=True,
                        help="run every golden argv and overwrite tests/golden/")
    parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    regenerate()
