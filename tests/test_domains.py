"""One domain per parameter: a bad value is refused with one message by
every entry that takes it.

The message is "{name} must {domain}, got {first bad value}", whether the
value reaches the config, a swept column at any place, or a library
function; a column or a batch names its first bad value.  An integer
parameter takes one number, so an array is refused whole, and so is a
value that is not numeric; such a value is shown by its repr.
"""

import math
import re
import warnings

import numpy as np
import pytest

from povmlearn.bloch import Plane, check_domain, check_unit
from povmlearn.decomposition import (
    cos_theta,
    decompose,
    ensemble_vector,
    learn_axis,
    mixture_targets,
    success_prob,
    two_fold_spec,
)
from povmlearn.ensemble import EnsembleSpec, RngStream, pauli_axes
from povmlearn.errors import ContractViolation
from povmlearn.evaluate import classify_holdout, score
from povmlearn.experiment import FORMATS, SCENARIOS, ExperimentConfig, render_results, run_experiment, sweep
from povmlearn.helstrom import helstrom
from povmlearn.selfcheck import invariant_battery, oracle_battery

from helpers import frame_generators

DOMAIN = {
    "alpha": "be finite",
    "phi0": "be finite",
    "direction": "be finite",
    "eta0": "lie in (0, 1)",
    "prior": "lie in [0, 1]",
    "beta": "lie in [0, pi/2]",
    "theta": "lie in [0, pi]",
    "nz": "lie in (-1, 1)",
    "seed": "be a nonnegative integer",
    "shots": "be an integer in [1, 2**63)",
    "trials": "be a positive integer",
    "instances": "be a positive integer",
    "stream_id": "be an integer in [0, 2**64)",
}
INTEGER = {"seed", "shots", "trials", "instances", "stream_id"}

# Bad values of each name, on both sides of its domain where it has two.
BAD = {
    # An int too large for a double is not finite, and a bool is no number.
    "alpha": (math.nan, math.inf, -math.inf, 10**400, True),
    "phi0": (math.nan, -math.inf, "0.5", 10**400),
    "direction": (math.nan, math.inf, -math.inf, "x", -(10**400)),
    "eta0": (0.0, 1.0, -0.2, math.nan, "0.6"),
    # A prior is checked as given: text, an int too large for a double and a
    # bool are refused, never converted first.
    "prior": (-0.1, 1.5, math.nan, "x", 10**400, True, [0.2, "x"]),
    "beta": (-1e-13, 2.0, math.nan),
    "theta": (-1e-13, 3.5, math.nan),
    "nz": (-1.0, 1.0, 1.5, math.nan, np.True_),
    # An integer is one number: a 0-d or a longer array is refused whole.
    "seed": (-1, 1.5, True, np.array(3)),
    # A float or a bool budget is refused as given, never truncated first.
    "shots": (0, -3, 2**63, 100.7, True, np.float64(50.0), np.array(500), np.array([500, 600])),
    "trials": (0, -2, 2.7, True, [1, 2]),
    "instances": (0, -1, 2.5, True, np.array(3)),
    "stream_id": (-1, 2**64, 1.5, True, np.array(3), np.array([1, 2])),
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

_PURE = np.array([1.0, 0.0, 0.0])

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
    "prior": [lambda v: EnsembleSpec(v, _PURE, -_PURE, Plane.xz()), lambda v: helstrom(_PURE, -_PURE, v)],
    "nz": [Plane.const_z],
    "seed": [lambda v: RngStream(v, 0), lambda v: oracle_battery(10, v), invariant_battery],
    "shots": [
        lambda v: learn_axis(_SPEC, pauli_axes(Plane.xz()), v, frame_generators(0, 2)),
        lambda v: classify_holdout(_SPEC, [1.0, 0.0, 0.0], v, RngStream(0, 12).generator()),
        lambda v: score(1, v, 0.7),
    ],
    "instances": [oracle_battery],
    "stream_id": [lambda v: RngStream(0, v)],
}


# A vector argument that is not an array of integers or floats, at each
# entry that converts one: (what the message calls it, the call, the value).
VECTORS = {
    "spec-text-state": ("psi0", lambda v: EnsembleSpec(0.5, v, -_PURE, Plane.xz()), "abc"),
    "spec-ragged-state": ("psi1", lambda v: EnsembleSpec(0.5, _PURE, v, Plane.xz()), [[1, 0], [0]]),
    "text-ensemble-vector": ("ensemble vector", lambda v: mixture_targets(v, 1.0, 0.6), "abc"),
    "text-frame": ("measurement frame", lambda v: learn_axis(_SPEC, v, 100, frame_generators(0, 2)), ["x", "z"]),
    "none-axis": (
        "classification axis",
        lambda v: classify_holdout(_SPEC, v, 100, RngStream(0, 12).generator()),
        [None, 0.0, 1.0],
    ),
    "bool-vector": ("vector", check_unit, [True, False, False]),
    "none-plane-vector": ("state", lambda v: Plane.xz().check(v, "state"), None),
    # A number, or a vector whose last axis is not 3 long, is no 3-vector.
    "two-vector-unit": ("vector", check_unit, [1.0, 0.0]),
    "number-unit": ("vector", check_unit, 1.0),
    "two-vector-plane": ("v", lambda v: Plane.xz().check(v, "v"), [1.0, 0.0]),
    "number-plane": ("v", lambda v: Plane.xz().check(v, "v"), 1.0),
    "two-ensemble-vector": ("ensemble vector", lambda v: mixture_targets(v, 1.0, 0.6), [0.3, 0.0]),
}


def message(name, bad):
    shown = bad if isinstance(bad, (int, float, np.number)) else repr(bad)
    return f"{name} must {DOMAIN[name]}, got {shown}"


def refused(call, text):
    """call raises ContractViolation with exactly text, and warns nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolation, match="^" + re.escape(text) + "$"):
            call()


def small(scenario, **fields):
    return ExperimentConfig(**{"scenario": scenario, "trials": 1, "shots_learn": 100, "shots_holdout": 100, **fields})


CASES = [(name, bad) for name, values in BAD.items() for bad in values]


def case_id(value):
    """A short test id for a power of ten of hundreds of digits, else pytest's own."""
    if type(value) is int and abs(value) > 2**64:
        return f"{'-' if value < 0 else ''}10**{len(str(abs(value))) - 1}"
    return None


@pytest.mark.parametrize("name, bad", CASES, ids=case_id)
def test_check_domain_message(name, bad):
    refused(lambda: check_domain(name, bad), message(name, bad))
    # A real parameter's numeric column names its bad row; any other
    # column, a bool one included, is refused whole.
    column = np.array([bad])
    whole = name in INTEGER or column.dtype.kind not in "iuf"
    refused(lambda: check_domain(name, column), message(name, column if whole else bad))


@pytest.mark.parametrize("name, bad", [(n, b) for n, b in CASES if n in CONFIG_SCENARIO], ids=case_id)
def test_config_gives_the_message(name, bad):
    refused(small(CONFIG_SCENARIO[name], **{name: bad}).validate, message(name, bad))


def test_config_refuses_what_is_not_one_number_where_an_integer_is_due():
    refused(small("const-z", shots_learn=np.array([500, 600])).validate,
            "shots_learn must be an integer in [1, 2**63), got array([500, 600])")
    refused(small("const-z", eta0="0.5").validate, "eta0 must lie in (0, 1), got '0.5'")


@pytest.mark.parametrize("place", [0, 1, 2])
@pytest.mark.parametrize("name, bad", [(n, b) for n, b in CASES if n in SWEPT], ids=case_id)
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


@pytest.mark.parametrize("name, bad", [(n, b) for n, b in CASES if n in LIBRARY], ids=case_id)
def test_library_gives_the_message(name, bad):
    for call in LIBRARY[name]:
        refused(lambda: call(bad), message(name, bad))


@pytest.mark.parametrize("case", sorted(VECTORS))
def test_a_vector_must_hold_real_numbers(case):
    # numpy would raise its own ValueError, or read bools as 0 and 1.
    what, call, bad = VECTORS[case]
    refused(lambda: call(bad), f"{what} must hold real 3-vectors, got {bad!r}")


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


@pytest.mark.parametrize("name", ["alpha", "phi0", "direction", "eta0", "prior", "beta", "theta", "nz"])
@pytest.mark.parametrize("bad", [[[0.1], [0.2, 0.3]], 10**400, -(10**400)], ids=["ragged", "10**400", "-10**400"])
def test_a_real_parameter_refuses_what_a_double_array_cannot_hold(name, bad):
    # numpy would raise its own ValueError or TypeError on these.
    refused(lambda: check_domain(name, bad), message(name, bad))


def test_the_config_refuses_a_ragged_column():
    refused(small("unequal-prior-xz", eta0=[[0.1], [0.2, 0.3]]).validate,
            "eta0 must lie in (0, 1), got [[0.1], [0.2, 0.3]]")


@pytest.mark.parametrize("bad", [[[0.1], [0.2, 0.3]], "0.6", True, 10**400], ids=["ragged", "text", "bool", "10**400"])
def test_a_swept_value_is_refused_as_the_config_field_is(bad):
    # The value reaches the domain table as given, never read as a double first.
    refused(lambda: sweep(small("unequal-prior-xz"), {"eta0": [0.6, bad]}), message("eta0", bad))
    refused(small("unequal-prior-xz", eta0=bad).validate, message("eta0", bad))


def test_a_swept_value_is_one_number():
    refused(lambda: sweep(small("unequal-prior-xz"), {"eta0": [[0.6, 0.7]]}),
            "a swept eta0 value must be one number, got [0.6, 0.7]")


@pytest.mark.parametrize("call", [
    lambda: check_domain("alpha", 10**5000),
    small("const-z", alpha=10**5000).validate,
    lambda: sweep(small("const-z"), {"alpha": [10**5000]}),
], ids=["check_domain", "config", "sweep"])
def test_an_int_too_long_to_write_is_shown_by_its_type(call):
    refused(call, "alpha must be finite, got <int too long to write>")


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_an_integer_angle_that_a_double_holds_runs_as_that_double(scenario):
    # 2**64 is beyond numpy's integer types; it is finite all the same,
    # as a config field and as a swept value.
    runs = [run_experiment(small(scenario, alpha=alpha, phi0=alpha, trials=3)) for alpha in (2**64, float(2**64))]
    for fmt in FORMATS:
        assert render_results(runs[0], fmt) == render_results(runs[1], fmt)
    swept = [sweep(small(scenario, trials=3), {"alpha": [alpha]}) for alpha in (2**64, float(2**64))]
    assert render_results(swept[0]) == render_results(swept[1])


def test_the_domain_edges_are_accepted():
    check_domain("alpha", 2**64)
    check_domain("phi0", 2**64)
    check_domain("direction", 10**20)
    check_domain("theta", np.array([0.0, math.pi, math.pi + 1e-12]))
    check_domain("beta", np.array([0.0, math.pi / 2, math.pi / 2 + 1e-12]))
    check_domain("nz", np.array([-0.999, 0.0, 0.999]))
    check_domain("seed", 2**70)
    check_domain("shots", 1)
    check_domain("shots", 2**63 - 1)
    check_domain("trials", 1)
    two_fold_spec(np.full(2, 0.6), np.array([0.0, math.pi]), 0.3, "A")
