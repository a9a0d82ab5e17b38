"""Hidden two-state qubit ensembles and simulated destructive measurements.

An EnsembleSpec is the ground truth of a simulation: two pure Bloch vectors
with prior probabilities, confined to a declared plane, for one ensemble or
for a batch of rows with one ensemble each.  It is validated once, when it
is built, and is immutable afterwards: its fields are read-only copies of
the caller's values.  Learners never see the ground truth directly; they
only get measurement counts.  Every simulated shot consumes one fresh
ensemble member, so the qubit budget of a procedure is the sum of its
measurement sizes.  One sampler, EnsembleSpec.sample, draws those members
for learning (expectation, estimate_pauli) and for holdout classification
alike, as one array per draw over the rows of a batch.

Randomness is addressed by (seed, stream id): RngStream builds a stream's
generator as PCG64 seeded by numpy's SeedSequence(seed, spawn_key=(id,)),
as in numpy's parallel-RNG guide.  There is no seed-word builder of our
own, and numpy.random is loaded only when a generator is built.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    copies, so the checks hold for the spec's lifetime and sampling need
    not redo them.  Specs compare and hash by identity.
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

    def sample(self, axis, shots: int, rng, what: str = "measurement axis"):
        """Measure `shots` fresh members along a unit axis; return
        (k0, c0_plus, c1_plus): how many carry label 0, and the +1 outcomes
        among the label-0 and the label-1 members.

        Sampling is exact: the label split is binomial in the priors and each
        label contributes a binomial in its outcome probability, which is
        distribution-identical to drawing qubits one at a time.  `rng` is one
        generator, which takes the three draws in that order, or a triple
        (label split, label-0 count, label-1 count) with one generator per
        draw.  A batch draws each as one array over its rows, in row order,
        along one axis or along one axis per row (every row's axis is
        checked); a single ensemble draws three numbers.
        """
        axis = np.asarray(axis, dtype=float)
        if axis.shape != self.psi0.shape:
            if axis.ndim != 1:
                raise ContractViolation(f"{what} must be one 3-vector or one per row, got shape {axis.shape}")
            axis = np.broadcast_to(axis, self.psi0.shape)
        axis = check_unit(axis, what)
        shots = int(shots)
        if shots < 1:
            raise ContractViolation(f"shots must be >= 1, got {shots}")
        split, label0, label1 = _draw_generators(rng)
        k0 = split.binomial(shots, self.eta0)
        c0_plus = label0.binomial(k0, prob_plus_unchecked(axis, self.psi0))
        return k0, c0_plus, label1.binomial(shots - k0, prob_plus_unchecked(axis, self.psi1))

    def expectation(self, axis, shots: int, rng):
        """Empirical expectation (n_plus - n_minus)/shots of `shots` fresh
        members measured along a unit axis (sample), per row for a batch."""
        _, c0_plus, c1_plus = self.sample(axis, shots, rng)
        return (2 * (c0_plus + c1_plus) - shots) / shots


def _draw_generators(rng) -> tuple:
    """The (label split, label-0 count, label-1 count) generators of one
    measurement: a single generator serves all three draws."""
    if isinstance(rng, np.random.Generator):
        return rng, rng, rng
    gens = tuple(rng)
    if len(gens) != 3:
        raise ContractViolation(f"expected a generator or 3 per-draw generators, got {len(gens)}")
    return gens


def role_generators(rng, count: int) -> list:
    """One entry per measuring role (axis or setting), in order: a single
    generator serves every role, otherwise `rng` holds `count` entries, each
    a generator or a per-draw triple (_draw_generators)."""
    if isinstance(rng, np.random.Generator):
        return [rng] * count
    entries = list(rng)
    if len(entries) != count:
        raise ContractViolation(f"expected {count} generators or triples, one per axis, got {len(entries)}")
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
    retains the measured z alongside the in-plane part.  `rng` is one
    generator or one entry per axis in axis order (role_generators), which
    lets callers give each axis, or each draw, an independent stream.
    """
    axes = pauli_axes(spec.plane)
    means = [spec.expectation(axis, shots_per_axis, g) for axis, g in zip(axes, role_generators(rng, len(axes)))]
    if spec.plane.kind == "xz":
        means.insert(1, np.zeros_like(means[0]))
    return np.stack(means, axis=-1)
