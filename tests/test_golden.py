"""Golden output pin: exact bytes of a fixed set of CLI runs.

Every entry of GOLDEN_RUNS is run through the CLI with ``--out`` and its
file must equal ``tests/golden/<name>`` byte for byte, so any change to
sampled counts, stream layout, arithmetic or rendering shows up here.
Every entry of GOLDEN_STDOUT is a verification battery whose stdout must
equal its fixture file the same way; the batteries print rounding-level
residues, so a change to the shared geometry shows up there too.
SAMPLER_DRAWS pins numpy's binomial sampler, which the run and sweep
bytes rest on, so a failure there says when numpy changed it.
After a deliberate change of output, rewrite the fixture with

    python tests/test_golden.py --regen

and say in the change log why the bytes moved.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
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
    # Near-antipodal cells at small budgets, whose rows mix weak_signal
    # (both learning readings within the noise floor) with ok.
    "run-equal-prior-xz-weak.csv": (
        "run", "--scenario", "equal-prior-xz", "--beta", "1.5", "--trials", "4",
        "--shots-learn", "2000", "--shots-holdout", "200", "--seed", "3",
    ),
    "run-unequal-prior-xz-weak.csv": (
        "run", "--scenario", "unequal-prior-xz", "--eta0", "0.5", "--theta", "3.1",
        "--trials", "4", "--shots-learn", "20000", "--shots-holdout", "200", "--seed", "3",
    ),
    "run-const-z-weak.csv": (
        "run", "--scenario", "const-z", "--eta0", "0.5", "--theta", "3.0", "--nz", "0.9",
        "--trials", "4", "--shots-learn", "4000", "--shots-holdout", "200", "--seed", "3",
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


# numpy's Generator.binomial draws every learning and holdout count, and
# numpy may change a Generator method's stream between versions (NEP 19;
# SeedSequence and PCG64 stay fixed).  Name -> (PCG64 seed, n, p, draws):
# a scalar p and one p per row, as the engine draws, in both of numpy's
# regimes: inversion where n*min(p, 1 - p) is below 30, BTPE above it.
# The goldens draw in both: most counts by BTPE, and by inversion the
# holdout of a near-certain row (run-equal-prior-xz-weak.csv: 200 qubits
# at a success near 0.9987).
SAMPLER_DRAWS = {
    "inversion, scalar p": (0, 20, 0.3, [7, 5, 3, 2, 8, 9, 6, 7, 6, 9, 8, 1, 8, 2, 7, 4, 8, 6, 5, 6, 2, 4, 7, 7]),
    "BTPE, scalar p": (1, 2000, 0.4, [
        789, 766, 800, 834, 785, 799, 790, 801, 786, 751, 822, 766,
        827, 804, 797, 778, 826, 802, 826, 798, 772, 807, 776, 808,
    ]),
    "inversion, p per row": (2, 40, (0.05, 0.95), [
        1, 3, 7, 4, 9, 11, 9, 8, 13, 17, 18, 16, 21, 21, 25, 24, 21, 27, 31, 34, 34, 35, 34, 37,
    ]),
    "BTPE, p per row": (3, 2000, (0.1, 0.9), [
        197, 260, 357, 387, 480, 549, 606, 717, 713, 831, 890, 934,
        1015, 1105, 1190, 1258, 1353, 1377, 1458, 1503, 1581, 1642, 1751, 1783,
    ]),
}


def platform() -> str:
    """numpy's version and the CPU features it dispatches to on this
    machine: a pin can move with either (numpy's float64 arctan2 and arccos
    give other last bits without AVX-512).  numpy 2 keeps the feature
    tables in numpy._core, numpy 1 in numpy.core; without them the
    features read unknown."""
    import numpy

    features = "unknown"
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            umath = importlib.import_module(name)
            found = umath.__cpu_features__
            features = " ".join(f for f in umath.__cpu_dispatch__ if found.get(f)) or "none"
            break
        except (ImportError, AttributeError):
            continue
    return f"numpy {numpy.__version__}, dispatched CPU features: {features}"


def mismatch(name: str) -> str:
    """The failure message of a byte comparison with fixture `name`."""
    return f"{name} differs from its golden bytes under {platform()}"


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
    assert render(GOLDEN_RUNS[name], tmp_path / name) == expected, mismatch(name)


@pytest.mark.parametrize("name", sorted(GOLDEN_STDOUT))
def test_battery_stdout_matches_golden_bytes(name):
    assert render(GOLDEN_STDOUT[name]) == (GOLDEN_DIR / name).read_bytes(), mismatch(name)


def test_constz_sweep_pins_every_row_status():
    rows = json.loads((GOLDEN_DIR / "sweep-const-z.json").read_text())
    statuses = {r["status"] for r in rows}
    assert {"ok", "degenerate_ensemble", "cos_theta_out_of_range"} <= statuses


@pytest.mark.parametrize("name", sorted(n for n in GOLDEN_RUNS if n.endswith("-weak.csv")))
def test_weak_runs_pin_weak_signal_beside_ok(name):
    with open(GOLDEN_DIR / name, newline="") as fh:
        statuses = {r["status"] for r in csv.DictReader(fh)}
    assert statuses == {"ok", "weak_signal"}


@pytest.mark.parametrize("name", sorted(SAMPLER_DRAWS))
def test_binomial_sampler_draws_its_pinned_counts(name):
    import numpy as np

    seed, n, p, expected = SAMPLER_DRAWS[name]
    rng = np.random.Generator(np.random.PCG64(seed))
    # A (low, high) p is one p per row, evenly spaced over the draws.
    draws = rng.binomial(n, p, len(expected)) if np.ndim(p) == 0 else rng.binomial(n, np.linspace(*p, len(expected)))
    assert draws.tolist() == expected, (
        f"numpy's Generator.binomial sampler changed ({name}) under {platform()}: the run and sweep goldens "
        "pin its draws, and may be regenerated with a declared change once tests/test_reference_sim.py "
        "and tests/test_calibration.py pass"
    )


def test_platform_names_numpy_and_its_cpu_features():
    import numpy

    text = mismatch("selftest.txt")
    assert text.startswith(f"selftest.txt differs from its golden bytes under numpy {numpy.__version__}, ")
    assert "dispatched CPU features: " in text and not text.endswith(": ")


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
