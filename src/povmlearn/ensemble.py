"""Hidden two-state qubit ensembles and simulated destructive measurements.

An EnsembleSpec is the ground truth of a simulation: two pure Bloch vectors
with prior probabilities, confined to a declared plane, for one ensemble or
for a batch of rows with one ensemble each.  It is validated once, when it
is built, and is immutable afterwards: its fields are read-only copies of
the caller's values.  Learners never see the ground truth directly; they
only get measurement counts.  Every simulated shot consumes one fresh
ensemble member, so the qubit budget of a procedure is the sum of its
measurement sizes.  A learner sees unlabeled members, each in the mixture
state rho = eta0 rho0 + eta1 rho1, so EnsembleSpec.expectation (and
estimate_pauli) draws a +1 count as one binomial from the ensemble Bloch
vector, which a spec computes once.  Holdout classification
(evaluate.classify_holdout) likewise draws its correct count as one
binomial per row.  Each draw is one array over the rows of a batch.

Randomness is addressed by (seed, stream id): RngStream builds a stream's
generator as PCG64 seeded by numpy's SeedSequence(seed, spawn_key=(id,)),
as in numpy's parallel-RNG guide.  There is no seed-word builder of our
own, and numpy.random is loaded only when a generator is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from povmlearn.bloch import (
    EPS_PHYS,
    UNIT_X,
    UNIT_Y,
    UNIT_Z,
    Plane,
    check_unit,
    every_row,
    first_row,
    prob_plus_unchecked,
    row_norm,
)
from povmlearn.errors import ContractViolation


def check_seed(seed: int) -> None:
    """Refuse a negative seed as a usage error; numpy would raise a
    ValueError."""
    if int(seed) < 0:
        raise ContractViolation(f"seed must be a nonnegative integer, got {seed}")


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream addressed by (seed, stream_id).

    generator() builds a fresh PCG64 generator each call, seeded by numpy's
    SeedSequence(seed, spawn_key=(stream_id,)), so the same stream always
    reproduces the same draws.  Disjoint stream_ids under one seed are
    statistically independent, which keeps parallel trials reproducible.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        k = self.stream_id
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= int(k) < 2**64:
            raise ContractViolation(f"stream ids must be integers in [0, 2^64), got {k!r}")

    def generator(self) -> np.random.Generator:
        # Spelled out rather than default_rng(ss): the same bits, a little
        # cheaper per generator.
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))))


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """Ground truth: the prior eta0 of state 0 (state 1 has eta1 = 1 - eta0),
    two pure in-plane states and the declared plane.

    A spec is one ensemble, or a batch of rows with one ensemble each: then
    eta0 is a 1-D array and psi0 and psi1 hold one state per row.
    Validated once at construction, every row; the fields are read-only
    copies, so the checks hold for the spec's lifetime and measurements
    need not redo them.  Specs compare and hash by identity.
    """

    eta0: float | np.ndarray
    psi0: np.ndarray
    psi1: np.ndarray
    plane: Plane

    def __post_init__(self):
        eta0 = np.array(self.eta0, dtype=float)
        if eta0.ndim > 1 or eta0.size == 0:
            raise ContractViolation(f"priors must be one number or a nonempty 1-D array, got shape {eta0.shape}")
        ok = (0.0 <= eta0) & (eta0 <= 1.0)
        if not every_row(ok):
            raise ContractViolation(f"priors must be in [0, 1], got eta0 = {first_row(np.logical_not(ok), eta0)}")
        if eta0.ndim:
            eta0.flags.writeable = False
        object.__setattr__(self, "eta0", eta0 if eta0.ndim else float(eta0))
        for name in ("psi0", "psi1"):
            psi = np.array(getattr(self, name), dtype=float)
            if psi.shape != eta0.shape + (3,):
                raise ContractViolation(f"{name} must be a Bloch 3-vector per row, got shape {psi.shape}")
            # A failed check names the first row that fails it.
            r = row_norm(psi)
            ok = abs(r - 1.0) <= EPS_PHYS
            if not every_row(ok):
                raise ContractViolation(f"{name} must be pure (unit norm), |n| = {first_row(np.logical_not(ok), r)}")
            ok = self.plane.on_plane(psi)
            if not every_row(ok):
                bad = first_row(np.logical_not(ok), psi)
                raise ContractViolation(f"{name} = {bad} violates the {self.plane.kind} plane constraint")
            psi.flags.writeable = False
            object.__setattr__(self, name, psi)

    @cached_property
    def mixture(self) -> np.ndarray:
        """The ensemble Bloch vector eta0 psi0 + eta1 psi1, one per row for a
        batch: the state of every unlabeled member."""
        eta0 = np.asarray(self.eta0)[..., None]
        n = eta0 * self.psi0 + (1.0 - eta0) * self.psi1
        n.flags.writeable = False
        return n

    def check_measurement(self, axis, shots: int, what: str = "measurement axis"):
        """A unit measurement axis, one 3-vector shared by every row or one
        per row of a batch, and a shot budget of at least 1.  A shared axis
        is checked once; the probabilities broadcast it over the rows."""
        axis = np.asarray(axis, dtype=float)
        if axis.shape != self.psi0.shape and axis.shape != (3,):
            raise ContractViolation(f"{what} must be one 3-vector or one per row, got shape {axis.shape}")
        axis = check_unit(axis, what)
        shots = int(shots)
        if shots < 1:
            raise ContractViolation(f"shots must be >= 1, got {shots}")
        return axis, shots

    def expectation(self, axis, shots: int, rng: np.random.Generator):
        """Empirical expectation (n_plus - n_minus)/shots of `shots` fresh
        unlabeled members measured along a unit axis, per row for a batch.

        Each member is in the mixture state, so the +1 count is one draw of
        Binomial(shots, (1 + axis.n)/2) with n the ensemble Bloch vector
        (mixture): one binomial call on the single generator `rng`, which
        for a batch draws one array over its rows, in row order.
        """
        axis, shots = self.check_measurement(axis, shots)
        return (2 * rng.binomial(shots, prob_plus_unchecked(axis, self.mixture)) - shots) / shots


def role_generators(rng, count: int) -> list:
    """One generator per learning role (axis or setting), in order: a single
    generator serves every role, otherwise `rng` holds `count` generators."""
    if isinstance(rng, np.random.Generator):
        return [rng] * count
    entries = list(rng)
    if len(entries) != count:
        raise ContractViolation(f"expected {count} generators, one per axis, got {len(entries)}")
    return entries


def pauli_axes(plane: Plane) -> list[np.ndarray]:
    """Axes estimate_pauli measures on a plane, in stream order: first plane
    axis, second plane axis, then (constant-z only) the offset axis."""
    if plane.kind == "xz":
        return [UNIT_X, UNIT_Z]
    return [UNIT_X, UNIT_Y, UNIT_Z]


def estimate_pauli(spec: EnsembleSpec, shots_per_axis: int, rng) -> np.ndarray:
    """Estimate the ensemble Bloch vector from per-axis expectation values,
    consuming shots_per_axis members per axis; one estimate per row for a
    batch.

    The x-z plane needs two axes (x, z); the y estimate is pinned to zero by
    the plane constraint.  A constant-z plane measures all of x, y, z and
    retains the measured z alongside the in-plane part.  Each axis draws one
    binomial (EnsembleSpec.expectation).  `rng` is one generator or one per
    axis in axis order (role_generators), which lets callers give each axis
    an independent stream.
    """
    axes = pauli_axes(spec.plane)
    means = [spec.expectation(axis, shots_per_axis, g) for axis, g in zip(axes, role_generators(rng, len(axes)))]
    if spec.plane.kind == "xz":
        means.insert(1, np.zeros_like(means[0]))
    return np.stack(means, axis=-1)
