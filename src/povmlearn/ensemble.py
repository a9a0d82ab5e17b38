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

Randomness is addressed by (seed, stream id): a stream's generator is
PCG64 seeded by SeedSequence(seed, spawn_key=(id,)), as in numpy's
parallel-RNG guide.  stream_states computes those seed words for a whole
array of ids in one vectorised pass of the SeedSequence hash, bit for bit;
RngStream.generator builds each generator from its precomputed words, or
computes its own words with SeedSequence when it has none.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from povmlearn.bloch import (
    EPS_PHYS,
    UNIT_X,
    UNIT_Y,
    UNIT_Z,
    Plane,
    ValueEquality,
    check_unit,
    every_row,
    first_row,
    prob_plus_unchecked,
    row_norm,
)
from povmlearn.errors import ContractViolation

_CASE_TAGS = (None, "A", "B")


# Constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx),
# with its 4-word pool: entropy words are folded into the pool by hashmix
# and mix, then generate_state hashes the pool into the output words.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
# PCG64 takes 4 uint64 seed words, i.e. 8 uint32 output words.
_STATE_WORDS = 4


def _hash_consts(init: int, mult: int, first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The running hash constant before and after each of `count` calls,
    starting after `first` calls: init * mult^k mod 2^32 for k = first + i
    and first + i + 1."""
    before = [init * pow(mult, first + i, 1 << 32) & _MASK32 for i in range(count)]
    after = [init * pow(mult, first + i + 1, 1 << 32) & _MASK32 for i in range(count)]
    return np.array(before, dtype=np.uint32), np.array(after, dtype=np.uint32)


# Mixing the run entropy into the pool takes 16 hashmix calls (4 to fill
# the pool, 12 to cross-mix it) when the seed has at most 4 words; each
# spawn-key word then takes one call per pool word.
_SPAWN_CONSTS = _hash_consts(_INIT_A, _MULT_A, 16, 2 * _POOL_SIZE)
_OUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, 0, 2 * _STATE_WORDS)


def _mix_word(pool: np.ndarray, word: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Fold one spawn-key word per row into each row's pool: for each pool
    word in order, pool = mix(pool, hashmix(word)), with the hash constant
    before and after each hashmix call given.  uint32 arithmetic wraps mod
    2^32, as the hash's C code does."""
    h = (word[:, None] ^ before) * after
    h ^= h >> _XSHIFT
    out = _MIX_MULT_L * pool - _MIX_MULT_R * h
    out ^= out >> _XSHIFT
    return out


def stream_states(seed: int, stream_ids) -> np.ndarray:
    """PCG64 seed words of the streams (seed, id), one row per id.

    Row k equals SeedSequence(seed, spawn_key=(stream_ids[k],))
    .generate_state(4, np.uint64): the pool of SeedSequence(seed) is the
    same with or without a spawn key, so it is computed once, and the
    spawn-key words (one below 2^32, two below 2^64) and the output hash
    run for all ids as uint32 array operations.
    """
    seed = operator.index(seed)
    # numpy reads a list holding ids of 2^63 or more as floats or objects,
    # which are refused here: such ids must come as a uint64 array.
    ids = np.asarray(stream_ids)
    if ids.dtype.kind not in "iu" or (ids.size and ids.min() < 0):
        raise ContractViolation("stream ids must be integers in [0, 2^64); pass ids of 2^63 or more as uint64")
    ids = ids.astype(np.uint64).ravel()
    # Seed words beyond the pool size each add one call per pool word.
    extra = _POOL_SIZE * max(0, -(-seed.bit_length() // 32) - _POOL_SIZE)
    before, after = _SPAWN_CONSTS if extra == 0 else _hash_consts(_INIT_A, _MULT_A, 16 + extra, 2 * _POOL_SIZE)
    low, high = (ids & _MASK32).astype(np.uint32), (ids >> 32).astype(np.uint32)
    pool = _mix_word(np.random.SeedSequence(seed).pool, low, before[:_POOL_SIZE], after[:_POOL_SIZE])
    wide = np.flatnonzero(high)
    if wide.size:
        pool[wide] = _mix_word(pool[wide], high[wide], before[_POOL_SIZE:], after[_POOL_SIZE:])
    before, after = _OUT_CONSTS
    out = np.concatenate((pool, pool), axis=1) ^ before
    out *= after
    out ^= out >> _XSHIFT
    # Pairs of uint32 words read as little-endian uint64, as generate_state does.
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _seed_words_type() -> type:
    """The ISeedSequence that hands PCG64 the precomputed seed words of one
    stream.  It is built on first use, so importing povmlearn does not load
    numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _STATE_WORDS or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
                raise ContractViolation(f"holds {_STATE_WORDS} uint64 seed words, asked for {n_words} {dtype}")
            return self.words

    return SeedWords


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream addressed by (seed, stream_id).

    generator() builds a fresh generator each call, so the same stream
    always reproduces the same draws.  Disjoint stream_ids under one seed
    are statistically independent, which keeps parallel trials reproducible.
    `state` may carry the stream's row of stream_states, computed with
    other streams in one pass; without it the stream computes its own row
    with numpy's SeedSequence, which is what stream_states reproduces.
    """

    seed: int
    stream_id: int = 0
    state: np.ndarray | None = field(default=None, compare=False, repr=False)

    def generator(self) -> np.random.Generator:
        state = self.state
        if state is None:
            state = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,)).generate_state(_STATE_WORDS, np.uint64)
        return np.random.Generator(np.random.PCG64(_seed_words_type()(state)))


@dataclass(frozen=True, eq=False)
class EnsembleSpec(ValueEquality):
    """Ground truth: priors, two pure in-plane states, declared plane, branch tag.

    A spec is one ensemble, or a batch of rows with one ensemble each: then
    eta0 and eta1 are 1-D arrays and psi0 and psi1 hold one state per row.
    Validated once at construction, every row; the fields are read-only
    copies, so the checks hold for the spec's lifetime and sampling need
    not redo them.  Specs compare and hash by value (ValueEquality).
    """

    eta0: float | np.ndarray
    eta1: float | np.ndarray
    psi0: np.ndarray
    psi1: np.ndarray
    plane: Plane
    case_tag: str | None = None

    def __post_init__(self):
        eta0, eta1 = (np.array(getattr(self, name), dtype=float) for name in ("eta0", "eta1"))
        if eta0.ndim > 1 or eta1.shape != eta0.shape or eta0.size == 0:
            raise ContractViolation(
                "priors must be two numbers or two nonempty 1-D arrays of one shape, "
                f"got shapes {eta0.shape}, {eta1.shape}"
            )
        ok = (abs(eta0 + eta1 - 1.0) <= 1e-12) & (0.0 <= eta0) & (eta0 <= 1.0)
        if not every_row(ok):
            bad = np.logical_not(ok)
            raise ContractViolation(
                f"priors must be in [0, 1] and sum to 1, got ({first_row(bad, eta0)}, {first_row(bad, eta1)})"
            )
        for name, eta in (("eta0", eta0), ("eta1", eta1)):
            if eta.ndim:
                eta.flags.writeable = False
            object.__setattr__(self, name, eta if eta.ndim else float(eta))
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
        if self.case_tag not in _CASE_TAGS:
            raise ContractViolation(f"case tag must be one of {_CASE_TAGS}, got {self.case_tag!r}")

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
