"""Shared test utilities: circular comparisons, frame generators, result rows
and acceptance bookkeeping."""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from types import SimpleNamespace

from povmlearn.ensemble import RngStream

TAU = 2.0 * math.pi


def circ_diff(a: float, b: float, period: float = TAU) -> float:
    """Minimal circular distance between two angles of the given period."""
    d = math.fmod(abs(float(a) - float(b)), period)
    return min(d, period - d)


def frame_generators(seed: int, count: int, first: int = 0) -> list:
    """One generator per axis of a measurement frame, as learn_axis takes
    them: the streams (seed, first), (seed, first + 1), ... in axis order."""
    return [RngStream(seed, first + k).generator() for k in range(count)]


def as_rows(columns: dict) -> list[SimpleNamespace]:
    """The rows of a result record, one namespace per row with an attribute
    per column."""
    return [SimpleNamespace(**dict(zip(columns, cells))) for cells in zip(*columns.values())]


@contextmanager
def criterion(number: int, description: str):
    """Print one pass/fail line per acceptance criterion, with elapsed time."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[criterion {number}] FAIL - {description} ({elapsed:.2f}s)", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number}] PASS - {description} ({elapsed:.2f}s)", flush=True)
