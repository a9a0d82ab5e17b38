"""Host-speed calibration: a fixed reference loop timed next to each measurement.

On a shared host the speed of a core drifts by up to 2x within a minute
(see README.md, "Noise"), and CPU time drifts with wall time, so raw
timings taken a minute apart cannot be compared.  Every timed measurement
in this benchmark is therefore paired with runs of `reference_loop`,
which does the same kind of work as the program (SeedSequence generators,
scalar binomial draws, arithmetic on 3-vectors, Python float math, JSON
text) but never touches povmlearn.  The host's slow phases do not slow
all kinds of work alike, so the blend matters: without the 3-vector
arithmetic, oracle-check's ratio to the loop moved by 12% between
phases.  A time is reported at reference speed:

    t_reported = t_measured * REFERENCE_S / t_reference_loop

so a change to povmlearn moves the reported figure while a change in host
speed, which slows both the measurement and the loop, cancels.

Interpreter start-up is file and import work, which the loop does not
track, so set-up time is scaled the same way by the start-up time of a
baseline interpreter that imports only argparse and NumPy, with
STARTUP_REFERENCE_S in place of REFERENCE_S.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

# Round values inside the ranges observed on the reference host, a 2-vCPU
# Intel Xeon VM at 2.0 GHz with Python 3.11.7 and NumPy 2.4.6: 1.2 to 2.3 ms
# for one reference_loop() call, 0.11 to 0.18 s for the baseline start-up.
# They only set the scale of the reported figures; changing one rescales
# every past result.
REFERENCE_S = 0.002
STARTUP_REFERENCE_S = 0.12

_DRAWS = 40
_TERMS = 30


def reference_loop() -> float:
    acc = 0.0
    for i in range(_DRAWS):
        gen = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(i,)))
        v = np.array([gen.random(), 0.0, 1.0])
        w = 0.6 * v + 0.4 * np.array([0.0, 0.0, 1.0])
        acc += math.sqrt(float(v @ v)) + int(gen.binomial(1000, 0.3)) + math.sqrt(float(np.dot(w - v, w - v)))
        acc += sum(math.cos(k * 0.1) for k in range(_TERMS))
    return acc + len(json.dumps([{"a": acc, "b": i} for i in range(100)]))


def time_reference() -> tuple[float, float]:
    """Run the reference loop once; return its (wall, cpu) seconds."""
    w0, c0 = time.perf_counter(), time.process_time()
    reference_loop()
    return time.perf_counter() - w0, time.process_time() - c0
