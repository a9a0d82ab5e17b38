"""Hidden two-state qubit ensembles and simulated destructive measurements.

An EnsembleSpec is the ground truth of a simulation: two pure Bloch vectors
with prior probabilities, confined to a declared plane.  Learners never see
the ground truth directly; they only get measurement counts.  Every simulated
shot consumes one fresh ensemble member, so the qubit budget of a procedure
is the sum of its batch totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from povmlearn.bloch import EPS_PHYS, UNIT_X, UNIT_Y, UNIT_Z, Plane, check_unit, norm, prob_plus
from povmlearn.errors import ContractViolation

_CASE_TAGS = (None, "A", "B")


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream addressed by (seed, stream_id).

    generator() builds a fresh generator each call, so the same stream
    always reproduces the same draws.  Disjoint stream_ids under one seed
    are statistically independent, which keeps parallel trials reproducible.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)


@dataclass(frozen=True)
class ShotBatch:
    """Outcome counts of repeated projective measurements along one axis."""

    axis: np.ndarray
    n_plus: int
    n_minus: int
    total: int

    def __post_init__(self):
        if self.n_plus + self.n_minus != self.total:
            raise ContractViolation("shot counts must sum to the batch total")
        if min(self.n_plus, self.n_minus) < 0:
            raise ContractViolation("shot counts must be nonnegative")

    @property
    def mean(self) -> float:
        """Empirical expectation value (n_plus - n_minus) / total."""
        return (self.n_plus - self.n_minus) / self.total


@dataclass
class EnsembleSpec:
    """Ground truth: priors, two pure in-plane states, declared plane, branch tag."""

    eta0: float
    eta1: float
    psi0: np.ndarray
    psi1: np.ndarray
    plane: Plane
    case_tag: str | None = None

    def __post_init__(self):
        self.eta0 = float(self.eta0)
        self.eta1 = float(self.eta1)
        if abs(self.eta0 + self.eta1 - 1.0) > 1e-12 or not (0.0 <= self.eta0 <= 1.0):
            raise ContractViolation(
                f"priors must be in [0, 1] and sum to 1, got ({self.eta0}, {self.eta1})"
            )
        self.psi0 = np.asarray(self.psi0, dtype=float)
        self.psi1 = np.asarray(self.psi1, dtype=float)
        for name, psi in (("psi0", self.psi0), ("psi1", self.psi1)):
            if abs(norm(psi) - 1.0) > EPS_PHYS:
                raise ContractViolation(f"{name} must be pure (unit norm), |n| = {norm(psi):.9g}")
            if not self.plane.contains(psi):
                raise ContractViolation(f"{name} = {psi} violates the {self.plane.kind} plane constraint")
        if self.case_tag not in _CASE_TAGS:
            raise ContractViolation(f"case tag must be one of {_CASE_TAGS}, got {self.case_tag!r}")


@dataclass(frozen=True)
class PauliEstimate:
    """Bloch-vector estimate assembled from per-axis shot batches."""

    n_hat: np.ndarray
    batches: tuple[ShotBatch, ...]

    @property
    def shots_used(self) -> int:
        return sum(b.total for b in self.batches)


def ensemble_bloch(spec: EnsembleSpec) -> np.ndarray:
    """Bloch vector of the ensemble density matrix, eta0*psi0 + eta1*psi1."""
    return spec.eta0 * spec.psi0 + spec.eta1 * spec.psi1


def measure_shots(spec: EnsembleSpec, axis, shots: int, rng: np.random.Generator) -> ShotBatch:
    """Measure `shots` fresh ensemble members along one unit axis.

    Sampling is exact: the label split is binomial in the priors and each
    label contributes a binomial in its outcome probability, which is
    distribution-identical to drawing qubits one at a time.
    """
    axis = check_unit(axis, "measurement axis")
    shots = int(shots)
    if shots < 1:
        raise ContractViolation(f"shots must be >= 1, got {shots}")
    p0 = prob_plus(axis, spec.psi0)
    p1 = prob_plus(axis, spec.psi1)
    k0 = int(rng.binomial(shots, spec.eta0))
    n_plus = int(rng.binomial(k0, p0)) + int(rng.binomial(shots - k0, p1))
    return ShotBatch(axis=axis, n_plus=n_plus, n_minus=shots - n_plus, total=shots)


def pauli_axes(plane: Plane) -> list[np.ndarray]:
    """Axes estimate_pauli measures on a plane, in stream order: first plane
    axis, second plane axis, then (constant-z only) the offset axis."""
    if plane.kind == "xz":
        return [UNIT_X, UNIT_Z]
    return [UNIT_X, UNIT_Y, UNIT_Z]


def _as_rng_list(rng, count: int) -> list[np.random.Generator]:
    if isinstance(rng, np.random.Generator):
        return [rng] * count
    rngs = list(rng)
    if len(rngs) != count:
        raise ContractViolation(f"expected {count} generators, got {len(rngs)}")
    return rngs


def estimate_pauli(
    spec: EnsembleSpec,
    shots_per_axis: int,
    rng: np.random.Generator | Sequence[np.random.Generator],
) -> PauliEstimate:
    """Estimate the ensemble Bloch vector from per-axis expectation values.

    The x-z plane needs two axes (x, z); the y estimate is pinned to zero by
    the plane constraint.  A constant-z plane measures all of x, y, z and
    retains the measured z alongside the in-plane part.  `rng` may be a
    single generator or one generator per axis (in axis order), which lets
    callers give each axis an independent stream.
    """
    axes = pauli_axes(spec.plane)
    rngs = _as_rng_list(rng, len(axes))
    batches = tuple(
        measure_shots(spec, axis, shots_per_axis, g) for axis, g in zip(axes, rngs)
    )
    means = [b.mean for b in batches]
    if spec.plane.kind == "xz":
        n_hat = np.array([means[0], 0.0, means[1]])
    else:
        n_hat = np.array([means[0], means[1], means[2]])
    return PauliEstimate(n_hat=n_hat, batches=batches)
