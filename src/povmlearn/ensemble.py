"""Hidden two-state qubit ensembles and the random streams they are sampled from.

An EnsembleSpec is the ground truth of a simulation: two pure Bloch vectors
with prior probabilities, confined to a declared plane, for one ensemble or
for a batch of rows with one ensemble each.  It is validated once, when it
is built, by bloch's rules, and is immutable afterwards: its fields are
read-only copies of the caller's values.  EnsembleSpec.take gathers rows of
a batch already checked, by index and without a second check, which is how
the engine gives each row its cell's pair.  Learners never see the ground
truth directly; they only get measurement counts, drawn by two functions.
Every simulated shot consumes one fresh ensemble member, so the qubit budget
of a procedure is the sum of its measurement sizes.  A learner sees
unlabeled members, each in the mixture state rho = eta0 rho0 + eta1 rho1, so
decomposition.learn_axis draws the +1 count along each axis of a frame as
one binomial from the ensemble Bloch vector (EnsembleSpec.mixture, which a
spec computes once).  Holdout classification (evaluate.classify_holdout)
draws its correct count of labelled members as one binomial per row.  Each
draw is one array over the rows of a batch.

Randomness is addressed by (seed, stream id): RngStream builds a stream's
generator as PCG64 seeded by numpy's SeedSequence(seed, spawn_key=(id,)),
as in numpy's parallel-RNG guide, once its seed and id pass their rows of
the domain table (bloch.check_domain).  There is no seed-word builder of
our own, and numpy.random is loaded only when a generator is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from povmlearn.bloch import (
    UNIT_X,
    UNIT_Y,
    UNIT_Z,
    Plane,
    check_domain,
    check_unit,
    real_vectors,
)
from povmlearn.errors import ContractViolation


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
        check_domain("seed", self.seed)
        check_domain("stream_id", self.stream_id)

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
    Validated once at construction, every row, the prior as given; the
    fields are read-only copies, so the checks hold for the spec's lifetime
    and the draws need not redo them.  For the same reason take gathers
    rows of a batch into a new batch without checking them again.  Specs
    compare and hash by identity.
    """

    eta0: float | np.ndarray
    psi0: np.ndarray
    psi1: np.ndarray
    plane: Plane

    def __post_init__(self):
        check_domain("prior", self.eta0)
        eta0 = np.array(self.eta0, dtype=float)
        if eta0.ndim > 1 or eta0.size == 0:
            raise ContractViolation(f"priors must be one number or a nonempty 1-D array, got shape {eta0.shape}")
        eta0.flags.writeable = False
        object.__setattr__(self, "eta0", eta0 if eta0.ndim else float(eta0))
        for name in ("psi0", "psi1"):
            psi = real_vectors(getattr(self, name), name).copy()
            if psi.shape != eta0.shape + (3,):
                raise ContractViolation(f"{name} must be a Bloch 3-vector per row, got shape {psi.shape}")
            self.plane.check(check_unit(psi, name), name)
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

    def take(self, rows) -> "EnsembleSpec":
        """The batch of this batch's rows at the indices `rows`, in their
        order, not checked again: each of its rows is, bit for bit, a row
        this spec passed when it was built.  eta0, psi0, psi1, the mixture
        and a plane's nz per row are gathered, all read-only."""
        def gathered(part):
            part = part.take(rows, axis=0)
            part.flags.writeable = False
            return part

        spec, plane = object.__new__(EnsembleSpec), self.plane
        if np.ndim(plane.nz):
            plane = Plane(plane.kind, gathered(plane.nz))
        # Straight into the instance: the fields bypass the frozen
        # __setattr__, and the mixture is the cached_property's value.
        spec.__dict__.update(eta0=gathered(self.eta0), psi0=gathered(self.psi0), psi1=gathered(self.psi1),
                             plane=plane, mixture=gathered(self.mixture))
        return spec


def pauli_axes(plane: Plane) -> list[np.ndarray]:
    """The frame learn_axis reads on a plane, in stream order: first
    plane axis, second plane axis, then (constant-z only) the offset axis.
    On the x-z plane the y estimate is pinned to zero by the plane
    constraint; a constant-z plane also measures z and keeps it alongside
    the in-plane part."""
    if plane.kind == "xz":
        return [UNIT_X, UNIT_Z]
    return [UNIT_X, UNIT_Y, UNIT_Z]
