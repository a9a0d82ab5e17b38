"""One domain per parameter: a bad value is refused with one message by
every entry that takes it.

The message is "{name} must {domain}, got {first bad value}", whether the
value reaches the config, a swept column at any place, or a library
function; a column or a batch names its first bad value.
"""

import math
import re
import warnings

import numpy as np
import pytest

from povmlearn.bloch import Plane, check_domain
from povmlearn.decomposition import (
    cos_theta,
    decompose,
    ensemble_vector,
    learn_axis,
    mixture_targets,
    success_prob,
    two_fold_spec,
)
from povmlearn.ensemble import RngStream, pauli_axes
from povmlearn.errors import ContractViolation
from povmlearn.evaluate import classify_holdout
from povmlearn.experiment import ExperimentConfig, sweep
from povmlearn.selfcheck import invariant_battery, oracle_battery

from helpers import frame_generators

DOMAIN = {
    "alpha": "be finite",
    "phi0": "be finite",
    "direction": "be finite",
    "eta0": "lie in (0, 1)",
    "beta": "lie in [0, pi/2]",
    "theta": "lie in [0, pi]",
    "nz": "lie in (-1, 1)",
    "seed": "be a nonnegative integer",
    "shots": "be an integer in [1, 2**63)",
    "trials": "be a positive integer",
}

# Bad values of each name, on both sides of its domain where it has two.
BAD = {
    "alpha": (math.nan, math.inf, -math.inf),
    "phi0": (math.nan, -math.inf),
    "direction": (math.nan, math.inf, -math.inf),
    "eta0": (0.0, 1.0, -0.2, math.nan),
    "beta": (-1e-13, 2.0, math.nan),
    "theta": (-1e-13, 3.5, math.nan),
    "nz": (-1.0, 1.0, 1.5, math.nan),
    "seed": (-1, 1.5, True),
    "shots": (0, -3, 2**63),
    "trials": (0, -2, 2.7, True),
}

# The scenario that reads each swept name, and good values for its column.
SWEPT = {
    "alpha": ("equal-prior-xz", [0.1, 0.2, 0.3]),
    "beta": ("equal-prior-xz", [0.1, 0.2, 0.3]),
    "eta0": ("unequal-prior-xz", [0.3, 0.4, 0.6]),
    "theta": ("unequal-prior-xz", [0.5, 1.0, 1.5]),
    "nz": ("const-z", [-0.5, 0.0, 0.5]),
}
CONFIG_SCENARIO = {**{name: scenario for name, (scenario, _) in SWEPT.items()}, "phi0": "equal-prior-xz",
                   "seed": "const-z", "trials": "unequal-prior-xz"}

_N, _ = ensemble_vector(0.6, 1.0, 0.3)
_SPEC = two_fold_spec(0.6, 1.0, 0.3, "A")

# The library functions that take each name, called with a bad value.
LIBRARY = {
    "direction": [lambda v: two_fold_spec(0.6, 1.0, v, "A")],
    "eta0": [
        lambda v: two_fold_spec(v, 1.0, 0.3, "A"),
        lambda v: mixture_targets(_N, 1.0, v),
        lambda v: cos_theta(0.5, v),
        lambda v: success_prob(v, 1.0, 0.5),
        lambda v: decompose(_N, 1.0, v, "A"),
    ],
    "theta": [
        lambda v: two_fold_spec(0.6, v, 0.3, "A"),
        lambda v: mixture_targets(_N, v, 0.6),
        lambda v: success_prob(0.6, v, 0.5),
        lambda v: decompose(_N, v, 0.6, "A"),
    ],
    "nz": [Plane.const_z],
    "seed": [lambda v: RngStream(v, 0), lambda v: oracle_battery(10, v), invariant_battery],
    "shots": [
        lambda v: learn_axis(_SPEC, pauli_axes(Plane.xz()), v, frame_generators(0, 2)),
        lambda v: classify_holdout(_SPEC, [1.0, 0.0, 0.0], v, RngStream(0, 12).generator()),
    ],
}


def message(name, bad):
    return f"{name} must {DOMAIN[name]}, got {bad}"


def refused(call, text):
    """call raises ContractViolation with exactly text, and warns nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolation, match="^" + re.escape(text) + "$"):
            call()


def small(scenario, **fields):
    return ExperimentConfig(**{"scenario": scenario, "trials": 1, "shots_learn": 100, "shots_holdout": 100, **fields})


CASES = [(name, bad) for name, values in BAD.items() for bad in values]


@pytest.mark.parametrize("name, bad", CASES)
def test_check_domain_message(name, bad):
    refused(lambda: check_domain(name, bad), message(name, bad))
    refused(lambda: check_domain(name, np.array([bad])), message(name, bad))


@pytest.mark.parametrize("name, bad", [(n, b) for n, b in CASES if n in CONFIG_SCENARIO])
def test_config_gives_the_message(name, bad):
    refused(small(CONFIG_SCENARIO[name], **{name: bad}).validate, message(name, bad))


@pytest.mark.parametrize("place", [0, 1, 2])
@pytest.mark.parametrize("name, bad", [(n, b) for n, b in CASES if n in SWEPT])
def test_swept_column_gives_the_message_at_every_place(name, bad, place):
    scenario, column = SWEPT[name]
    column = list(column)
    column[place] = bad
    refused(lambda: sweep(small(scenario), {name: column}), message(name, bad))


@pytest.mark.parametrize("name", sorted(SWEPT))
def test_swept_column_names_its_first_bad_value(name):
    scenario, column = SWEPT[name]
    first, second = BAD[name][:2]
    refused(lambda: sweep(small(scenario), {name: [column[0], first, second]}), message(name, first))
    refused(lambda: sweep(small(scenario), {name: [column[0], second, first]}), message(name, second))


@pytest.mark.parametrize("name, bad", [(n, b) for n, b in CASES if n in LIBRARY])
def test_library_gives_the_message(name, bad):
    for call in LIBRARY[name]:
        refused(lambda: call(bad), message(name, bad))


@pytest.mark.parametrize("name", ["eta0", "theta", "direction"])
def test_library_batch_names_its_first_bad_value(name):
    cell = {"eta0": 0.6, "theta": 1.0, "direction": 0.3}
    first, second = BAD[name][:2]
    cell[name] = np.array([cell[name], first, second])
    refused(lambda: two_fold_spec(cell["eta0"], cell["theta"], cell["direction"], "A"), message(name, first))


def test_plane_batch_names_its_first_bad_nz():
    refused(lambda: Plane.const_z([0.2, 1.0, -1.0]), message("nz", 1.0))


def test_two_fold_spec_refuses_a_slightly_negative_theta_as_the_config_does():
    refused(lambda: small("unequal-prior-xz", theta=-1e-13).validate(), "theta must lie in [0, pi], got -1e-13")
    refused(lambda: two_fold_spec(0.6, -1e-13, 0.3, "A"), "theta must lie in [0, pi], got -1e-13")


def test_the_domain_edges_are_accepted():
    check_domain("theta", np.array([0.0, math.pi, math.pi + 1e-12]))
    check_domain("beta", np.array([0.0, math.pi / 2, math.pi / 2 + 1e-12]))
    check_domain("nz", np.array([-0.999, 0.0, 0.999]))
    check_domain("seed", 2**70)
    check_domain("shots", 1)
    check_domain("shots", 2**63 - 1)
    check_domain("trials", 1)
    two_fold_spec(np.full(2, 0.6), np.array([0.0, math.pi]), 0.3, "A")
