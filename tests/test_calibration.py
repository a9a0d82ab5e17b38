"""Calibration of z_score: over many seeded trials of one cell, the z-score
must have mean 0 and sd 1, near chance as well as far from it."""

import numpy as np
import pytest

from povmlearn.experiment import ExperimentConfig, run_experiment

from helpers import as_rows

TRIALS = 400
# The standard errors of the mean and the sd of z over 400 trials are
# about 0.05 and 0.035; the bounds are about 4 of them.
MEAN_BOUND = 0.2
SD_BOUND = 0.15

CELLS = {
    # Coincident states: the target is exactly chance, 1/2.
    "unequal-theta0": dict(scenario="unequal-prior-xz", eta0=0.6, theta=0.0),
    # Nearly coincident equal-prior states: the target sits one sigma above chance.
    "equal-beta0.01": dict(scenario="equal-prior-xz", beta=0.01),
    # Far from chance: the fold never acts.
    "unequal-theta1.2": dict(scenario="unequal-prior-xz", eta0=0.6, theta=1.2),
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_z_score_is_standard_normal(cell):
    rows = as_rows(run_experiment(ExperimentConfig(**CELLS[cell], trials=TRIALS, seed=3)))
    z = np.array([r.z_score for r in rows if r.z_score is not None])
    assert len(z) == TRIALS
    assert abs(z.mean()) <= MEAN_BOUND, f"mean z {z.mean():.3f}"
    assert abs(z.std(ddof=1) - 1.0) <= SD_BOUND, f"sd of z {z.std(ddof=1):.3f}"
