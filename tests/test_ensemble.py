"""Ensemble generation, random streams, and the unlabeled draw of learn_axis."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmlearn import decomposition
from povmlearn.bloch import EPS_DEGENERATE, Plane, bloch_from_state_angle, perp_in_plane, prob_plus_unchecked
from povmlearn.decomposition import ensemble_vector, equal_prior_cell, learn_axis, povm_axis_from_phi, two_fold_spec
from povmlearn.ensemble import EnsembleSpec, RngStream, pauli_axes
from povmlearn.errors import ContractViolation

from helpers import frame_generators


def xz_spec(eta0=0.5, g0=0.3, g1=1.1):
    return EnsembleSpec(
        eta0=eta0,
        psi0=bloch_from_state_angle(g0),
        psi1=bloch_from_state_angle(g1),
        plane=Plane.xz(),
    )


def batch(spec, count):
    """The spec repeated on `count` rows."""
    rows = np.full(count, spec.eta0)
    return EnsembleSpec(rows, np.tile(spec.psi0, (count, 1)), np.tile(spec.psi1, (count, 1)), spec.plane)


class BinomialRecorder:
    """Stands in for a learning generator and records each binomial's n."""

    def __init__(self, gen):
        self.gen, self.shots = gen, []

    def binomial(self, n, p):
        self.shots.append(n)
        return self.gen.binomial(n, p)


def recorded(seed, axes):
    """One recording generator per axis."""
    return [BinomialRecorder(g) for g in frame_generators(seed, axes)]


def reading(spec, axis, shots, gen):
    """The reading (n_plus - n_minus)/shots along one axis: learn_axis on
    the one-axis frame, one per row for a batch."""
    return learn_axis(spec, [axis], shots, [gen])[2][..., 0]


class TestEnsembleSpec:
    def test_states_must_be_pure(self):
        with pytest.raises(ContractViolation):
            EnsembleSpec(0.5, [0, 0, 0.9], [1, 0, 0], Plane.xz())

    def test_states_must_lie_in_plane(self):
        with pytest.raises(ContractViolation):
            EnsembleSpec(0.5, [0, 1, 0], [1, 0, 0], Plane.xz())

    def test_states_must_be_three_vectors(self):
        # [1, 0] has unit norm and a zero second component, so only the
        # shape check stops it before a measurement fails on aligned shapes.
        with pytest.raises(ContractViolation, match=r"psi0 .*shape \(2,\)"):
            EnsembleSpec(0.5, [1.0, 0.0], [1.0, 0.0], Plane.xz())
        with pytest.raises(ContractViolation, match=r"psi1 .*shape \(1, 3\)"):
            EnsembleSpec(0.5, [1.0, 0.0, 0.0], [[1.0, 0.0, 0.0]], Plane.xz())

    def test_states_are_read_only(self):
        spec = xz_spec()
        with pytest.raises(ValueError):
            spec.psi0[0] = 0.0

    def test_fields_cannot_be_reassigned(self):
        spec = xz_spec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.psi0 = np.array([0.0, 0.0, 1.0])

    def test_caller_array_is_copied_and_stays_writeable(self):
        psi0 = np.array([0.0, 0.0, 1.0])
        spec = EnsembleSpec(0.5, psi0, [1, 0, 0], Plane.xz())
        assert psi0.flags.writeable
        psi0[2] = -1.0
        assert spec.psi0[2] == 1.0

    def test_batch_checks_every_row(self):
        rows = batch(xz_spec(eta0=0.7), 4)
        assert rows.eta0.tolist() == [0.7] * 4 and rows.psi0.shape == (4, 3)
        assert not rows.psi0.flags.writeable and not rows.eta0.flags.writeable
        bad_state = rows.psi1.copy()
        bad_state[2] = [0.0, 0.0, 0.9]
        with pytest.raises(ContractViolation, match="unit length"):
            EnsembleSpec(rows.eta0, rows.psi0, bad_state, Plane.xz())
        bad_state[2] = [0.0, 1.0, 0.0]
        with pytest.raises(ContractViolation, match=re.escape("psi1 [0. 1. 0.] does not lie in the xz plane")):
            EnsembleSpec(rows.eta0, rows.psi0, bad_state, Plane.xz())
        bad_prior = rows.eta0.copy()
        bad_prior[2] = 1.5
        with pytest.raises(ContractViolation, match=re.escape("prior must lie in [0, 1], got 1.5")):
            EnsembleSpec(bad_prior, rows.psi0, rows.psi1, Plane.xz())
        with pytest.raises(ContractViolation, match="shape"):
            EnsembleSpec(rows.eta0, rows.psi0[:3], rows.psi1, Plane.xz())
        with pytest.raises(ContractViolation, match="nonempty"):
            EnsembleSpec(rows.eta0[:0], rows.psi0[:0], rows.psi1[:0], Plane.xz())

    @pytest.mark.parametrize(
        "count, field, changes, message",
        [
            (1200, "eta0", {600: 1.25, 900: 1.5}, r"prior must lie in \[0, 1\], got 1\.25"),
            (1200, "psi1", {600: [0.0, 0.0, 1.0 + 2e-5], 900: [0.0, 0.0, 0.5]},
             r"psi1 must be unit length, got \|v\| = 1\.00002"),
            (1200, "psi1", {600: [0.6, 0.8, 0.0], 900: [0.0, 1.0, 0.0]},
             r"psi1 \[0\.6 0\.8 0\. \] does not lie in the xz plane"),
            # One impure state (xz_spec's psi0, scaled by 1.001) names that
            # row's norm alone, not one norm per row.
            (400, "psi0", {250: 1.001 * bloch_from_state_angle(0.3)},
             r"psi0 must be unit length, got \|v\| = 1\.00\d+"),
        ],
        ids=["priors", "purity", "plane", "impure-row-of-400"],
    )
    def test_failed_batch_check_names_the_first_failing_row(self, count, field, changes, message):
        # The message is the one the first failing row raises alone, however
        # many rows the batch holds.
        rows = batch(xz_spec(eta0=0.7), count)
        fields = {name: getattr(rows, name).copy() for name in ("eta0", "psi0", "psi1")}
        for row, value in changes.items():
            fields[field][row] = value
        eta0, psi0, psi1 = fields["eta0"], fields["psi0"], fields["psi1"]
        first = min(changes)
        with pytest.raises(ContractViolation) as single:
            EnsembleSpec(eta0[first], psi0[first], psi1[first], Plane.xz())
        with pytest.raises(ContractViolation) as batched:
            EnsembleSpec(eta0, psi0, psi1, Plane.xz())
        assert str(batched.value) == str(single.value)
        assert "..." not in str(batched.value)
        assert re.fullmatch(message, str(batched.value))


class TestDrawRows:
    def test_batch_of_one_matches_single_draw(self):
        # One generator draws a number or an array of one row alike.
        spec = xz_spec(eta0=0.7)
        single = reading(spec, [1, 0, 0], 1000, RngStream(5, 3).generator())
        rows = reading(batch(spec, 1), [1, 0, 0], 1000, RngStream(5, 3).generator())
        assert rows.tolist() == [single]

    def test_rejects_nonunit_axis_and_zero_shots(self):
        with pytest.raises(ContractViolation, match=r"^measurement axis must be unit length, got \|v\| = 0.5$"):
            reading(xz_spec(), [0.5, 0, 0], 10, RngStream(0).generator())
        with pytest.raises(ContractViolation, match=r"^shots must be an integer in \[1, 2\*\*63\), got 0$"):
            reading(xz_spec(), [1, 0, 0], 0, RngStream(0).generator())

    def test_frame_is_k_axes_of_three_components(self):
        # A lone 3-vector, unit 2-vectors and one axis per row are no frame,
        # alone or for a batch; nor is a frame of no axes.
        axes = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        for spec in (xz_spec(), batch(xz_spec(), 2)):
            for bad in (axes[0], axes[:, :2], np.stack([axes, axes]), axes[:0]):
                with pytest.raises(ContractViolation, match="measurement frame must hold one 3-vector per axis"):
                    learn_axis(spec, bad, 10, frame_generators(0, len(bad)))

    def test_frame_is_checked_once(self, monkeypatch):
        # The whole k x 3 frame goes through one unit check, however many
        # axes and rows; the draws still give one reading per axis and row.
        calls = []

        def check_unit(v, what):
            calls.append((v.shape, what))
            return v

        monkeypatch.setattr(decomposition, "check_unit", check_unit)
        spec = batch(xz_spec(), 4)
        _, n_hat, readings = learn_axis(spec, pauli_axes(spec.plane), 10, frame_generators(0, 2))
        assert calls == [((2, 3), "measurement axis")]
        assert n_hat.shape == (4, 3) and readings.shape == (4, 2)

    def test_mixture_is_computed_once_per_spec(self):
        # The ensemble Bloch vector eta0 psi0 + eta1 psi1, one per row, by
        # the expression the learner always used; read-only and kept.
        spec = batch(xz_spec(eta0=0.7), 3)
        eta0 = spec.eta0[:, None]
        assert np.array_equal(spec.mixture, eta0 * spec.psi0 + (1.0 - eta0) * spec.psi1)
        assert spec.mixture is spec.mixture
        with pytest.raises(ValueError):
            spec.mixture[0, 0] = 0.0


def reference_learn(spec, frame, shots, generators):
    """learn_axis's reference, one axis at a time: a binomial of the axis's
    +1 probability (prob_plus_unchecked on the mixture) from that axis's own
    generator, its reading (2 count - shots)/shots, the estimate
    sum_k Delta_k e_k and its in-plane perpendicular."""
    frame = [np.asarray(e, dtype=float) for e in frame]
    readings = [
        (2 * g.binomial(shots, prob_plus_unchecked(e, spec.mixture)) - shots) / shots
        for e, g in zip(frame, generators)
    ]
    n_hat = sum(np.multiply.outer(d, e) for d, e in zip(readings, frame))
    return perp_in_plane(n_hat, spec.plane), n_hat, np.stack(readings, axis=-1)


FRAMES = ("xz-pauli", "const-z-pauli", "equal-prior-turned", "one-axis")


def frame_case(name, t):
    """A spec and the frame it is read on, with parameters set by t: one
    ensemble for a number, one row per entry for an array (the const-z
    rows then lie in one slice each)."""
    if name == "equal-prior-turned":
        phi0 = 1.1
        frame = [povm_axis_from_phi(phi0), povm_axis_from_phi(phi0 + 0.25 * math.pi)]
        return two_fold_spec(*equal_prior_cell(6.0 * t, 1.4 * t)), frame
    case = np.where(np.arange(np.size(t)) % 2, "B", "A") if np.ndim(t) else "A"
    plane = Plane.const_z(0.9 * t - 0.4) if name == "const-z-pauli" else Plane.xz()
    spec = two_fold_spec(0.2 + 0.6 * t, 0.3 + 2.5 * t, 6.0 * t, case, plane)
    return spec, [bloch_from_state_angle(0.9)] if name == "one-axis" else pauli_axes(plane)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestLearnAxisReference:
    """learn_axis draws its whole frame in one pass and equals the per-axis
    loop bit for bit: readings, estimate and perpendicular."""

    @pytest.mark.parametrize("t", [0.37, np.linspace(0.05, 0.95, 7)], ids=["single", "batch"])
    @pytest.mark.parametrize("name", FRAMES)
    def test_matches_the_per_axis_loop(self, name, t):
        spec, frame = frame_case(name, t)
        got = learn_axis(spec, frame, 1000, frame_generators(11, len(frame)))
        want = reference_learn(spec, frame, 1000, frame_generators(11, len(frame)))
        assert all(same_bits(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("name", FRAMES)
    def test_leading_rows_are_a_shorter_batch(self, name):
        # Each axis draws one array in row order, so a batch's leading rows
        # learn exactly what the shorter batch of those rows learns.
        t = np.linspace(0.05, 0.95, 9)
        long_spec, frame = frame_case(name, t)
        short_spec, _ = frame_case(name, t[:5])
        long = learn_axis(long_spec, frame, 500, frame_generators(9, len(frame)))
        short = learn_axis(short_spec, frame, 500, frame_generators(9, len(frame)))
        assert all(same_bits(a[:5], b) for a, b in zip(long, short))


class TestEnsembleBloch:
    """decomposition.ensemble_vector is the Bloch vector eta0 psi0 + eta1 psi1
    of the ensemble density matrix."""

    @staticmethod
    def average(spec):
        return spec.eta0 * spec.psi0 + (1 - spec.eta0) * spec.psi1

    def test_antipodal_average(self):
        spec = EnsembleSpec(0.5, [0, 0, 1], [0, 0, -1], Plane.xz())
        n, r = ensemble_vector(0.5, math.pi, 0.3)
        # cos(pi/2) in floats, not 0: far below any degeneracy threshold.
        assert 0.0 <= r < 1e-9 * EPS_DEGENERATE
        assert np.allclose(n, self.average(spec), atol=1e-15)

    def test_even_average(self):
        spec = EnsembleSpec(0.5, [1, 0, 0], [0, 0, 1], Plane.xz())
        n, _ = ensemble_vector(0.5, math.pi / 2, math.pi / 4)
        assert np.allclose(n, self.average(spec), atol=1e-15)
        assert np.allclose(n, [0.5, 0, 0.5], atol=1e-15)

    def test_weighted_average(self):
        spec = EnsembleSpec(0.7, [1, 0, 0], [0, 0, 1], Plane.xz())
        n, _ = ensemble_vector(0.7, math.pi / 2, math.atan2(0.3, 0.7))
        assert np.allclose(n, self.average(spec), atol=1e-15)
        assert np.allclose(n, [0.7, 0, 0.3], atol=1e-15)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(7, 3).generator().random(5)
        b = RngStream(7, 3).generator().random(5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(7, 3).generator().random(5)
        b = RngStream(7, 4).generator().random(5)
        assert not np.array_equal(a, b)

    def test_is_numpy_spawned_stream(self):
        ref = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(3,)))
        g = RngStream(7, 3).generator()
        assert g.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(g.random(5), ref.random(5))

    def test_bad_seed_is_refused_when_built(self):
        # As a bad stream id is: numpy would refuse the seed only when the
        # generator is built, with a ValueError.
        with pytest.raises(ContractViolation, match=r"^seed must be a nonnegative integer, got -1$"):
            RngStream(-1, 0)
        with pytest.raises(ContractViolation, match=r"^stream_id must be an integer in \[0, 2\*\*64\), got -1$"):
            RngStream(0, -1)


def reference_generator(seed, stream_id):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream_id,)))


# Seeds of one, two to four, and more than four 32-bit words: a seed of more
# than four words shifts the hash constants the spawn key is mixed with.
seeds = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**128 - 1),
    st.integers(2**128, 2**200),
)
# Ids of one and two 32-bit words, the word boundary and the top of uint64.
stream_ids = st.one_of(
    st.sampled_from([0, 1, 1023, 1024, 1025, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1]),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
)


class TestStreamStates:
    """The state of a stream's generator is that of numpy's spawned stream
    SeedSequence(seed, spawn_key=(id,)), bit for bit, for any seed and any
    uint64 id."""

    @given(seeds, st.lists(stream_ids, min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_rows_build_the_numpy_spawned_streams(self, seed, ids):
        for stream_id in ids:
            ref = reference_generator(seed, stream_id)
            g = RngStream(seed, stream_id).generator()
            assert g.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(g.integers(0, 2**63, size=4), ref.integers(0, 2**63, size=4))
            assert g.random() == ref.random()

    @pytest.mark.parametrize(
        "seed, stream_id, words",
        [
            (0, 0, (0x784DFB2CDFF7B411, 0xCA65717F56CF8F57, 0x66BA395B9BB52223, 0x6F9B32110FE1E0A9)),
            (29, 1027, (0xB007272F87A4653C, 0x896209FB88562B47, 0xBD43505BA4FC1194, 0x42EC1EB5603258E3)),
            (2**64 + 7, 2**32, (0xFE4C7F900FDC49B7, 0xE37CF5CF3C25DCE9, 0xF5AB4F673E20FCEB, 0x86F256E183C49C98)),
            (12345, 2**40 + 3, (0xAFEB2724ACD57A10, 0x483CB12500612DD4, 0x958D0D62AA922F97, 0x1813D0CAABE8A85D)),
        ],
    )
    def test_known_answers(self, seed, stream_id, words):
        # The four words PCG64 is seeded with, fixed: every golden file rests
        # on them, so a change in numpy's SeedSequence hash shows here by name.
        seed_seq = RngStream(seed, stream_id).generator().bit_generator.seed_seq
        assert tuple(int(w) for w in seed_seq.generate_state(4, np.uint64)) == words

    def test_rejects_ids_that_are_not_uint64(self):
        # A float id is refused, never rounded; numpy.uint64 ids are taken.
        for stream_id in (-1, 2**64, 1.0, np.float64(3), True, "3"):
            with pytest.raises(ContractViolation, match=r"^stream_id must be an integer in \[0, 2\*\*64\), got "):
                RngStream(1, stream_id)
        assert RngStream(1, np.uint64(2**64 - 1)).stream_id == 2**64 - 1


class TestUnlabeledDraw:
    """learn_axis on a one-axis frame: one measurement batch per row."""

    def test_eigenstate_all_plus(self):
        spec = EnsembleSpec(1.0, [0, 0, 1], [1, 0, 0], Plane.xz())
        assert reading(spec, [0, 0, 1], 100, RngStream(1).generator()) == 1.0

    def test_symmetric_axis_is_chance_level(self):
        mean = reading(xz_spec(), [0, 1, 0], 100_000, RngStream(2).generator())
        assert abs(mean) <= 5 * math.sqrt(1.0 / 100_000)

    def test_counts_lie_within_budget(self):
        plus = (reading(batch(xz_spec(), 50), [1, 0, 0], 997, RngStream(3).generator()) + 1) * 997 / 2
        # A whole count, up to the rounding of (2 k - N) / N and back.
        assert np.all(np.abs(plus - np.rint(plus)) <= 1e-9)
        assert np.all((0 <= np.rint(plus)) & (np.rint(plus) <= 997))

    def test_frequency_matches_two_term_mixture(self):
        # Brute-force oracle: the +1 frequency converges to the prior-weighted
        # sum of the two per-state outcome probabilities, on every row.
        spec = xz_spec(eta0=0.7, g0=0.2, g1=1.3)
        axis = bloch_from_state_angle(0.9)
        p = 0.7 * (0.5 + 0.5 * math.cos(0.9 - 0.2)) + 0.3 * (0.5 + 0.5 * math.cos(0.9 - 1.3))
        freq = (1 + reading(batch(spec, 100), axis, 10_000, RngStream(0, 0).generator())) / 2
        assert np.sum(np.abs(freq - p) <= 5 * math.sqrt(p * (1 - p) / 10_000)) >= 99

    @pytest.mark.parametrize(
        "spec, axis",
        [
            (xz_spec(eta0=0.7, g0=0.2, g1=1.3), bloch_from_state_angle(2.2)),
            (
                EnsembleSpec(0.3, [math.sqrt(0.84), 0, 0.4], [0, math.sqrt(0.84), 0.4], Plane.const_z(0.4)),
                np.array([0.6, -0.8, 0.0]),
            ),
        ],
        ids=["xz", "const-z"],
    )
    def test_mixture_draw_has_the_labelled_distribution(self, spec, axis):
        # The +1 count of N unlabeled members (learn_axis on a one-axis
        # frame, one binomial from the ensemble Bloch vector) is that of N
        # labelled members, Binomial(N, eta0 p0 + eta1 p1).  Over 10^5 rows
        # at N = 8, its histogram's chi-squared against that pmf (9 bins, 8
        # degrees of freedom) stays below 26.12, its 0.1% tail.
        shots, rows = 8, 100_000
        p0, p1 = (0.5 + 0.5 * float(np.dot(axis, psi)) for psi in (spec.psi0, spec.psi1))
        p = spec.eta0 * p0 + (1 - spec.eta0) * p1
        expected = rows * np.array([math.comb(shots, k) * p**k * (1 - p) ** (shots - k) for k in range(shots + 1)])
        assert expected.min() >= 5
        many = batch(spec, rows)
        mixture = np.rint((reading(many, axis, shots, RngStream(21, 0).generator()) + 1) * shots / 2)
        observed = np.bincount(mixture.astype(int), minlength=shots + 1)
        assert float(np.sum((observed - expected) ** 2 / expected)) < 26.12

    def test_determinism(self):
        spec = batch(xz_spec(), 6)
        a = reading(spec, [1, 0, 0], 1000, RngStream(5, 2).generator())
        b = reading(spec, [1, 0, 0], 1000, RngStream(5, 2).generator())
        assert np.array_equal(a, b)

    def test_shots_must_be_positive(self):
        with pytest.raises(ContractViolation):
            reading(xz_spec(), [1, 0, 0], 0, RngStream(0).generator())

    def test_nonunit_axis_rejected(self):
        with pytest.raises(ContractViolation):
            reading(xz_spec(), [0.5, 0, 0], 10, RngStream(0).generator())
        frame = np.array([[1.0, 0, 0], [0.5, 0, 0]])
        with pytest.raises(ContractViolation, match=r"\|v\| = 0.5"):
            learn_axis(batch(xz_spec(), 2), frame, 10, frame_generators(0, 2))


def pauli_estimate(spec, shots, generators):
    """The estimate of learn_axis on the spec's Pauli frame."""
    return learn_axis(spec, pauli_axes(spec.plane), shots, generators)[1]


class TestFrameEstimate:
    def test_pure_z_ensemble_is_exact(self):
        spec = EnsembleSpec(0.5, [0, 0, 1], [0, 0, 1], Plane.xz())
        n_hat = pauli_estimate(spec, 500, frame_generators(0, 2))
        assert n_hat[2] == 1.0
        assert pauli_estimate(batch(spec, 3), 500, frame_generators(0, 2))[:, 2].tolist() == [1.0] * 3

    def test_xz_estimate_zeroes_y(self):
        gens = recorded(1, 2)
        n_hat = pauli_estimate(xz_spec(), 1000, gens)
        assert n_hat[1] == 0.0
        assert [g.shots for g in gens] == [[1000], [1000]]
        assert np.all(pauli_estimate(batch(xz_spec(), 4), 1000, frame_generators(1, 2))[:, 1] == 0.0)

    def test_constz_measures_three_axes(self):
        plane = Plane.const_z(0.4)
        r = math.sqrt(1 - 0.16)
        spec = EnsembleSpec(0.5, [r, 0, 0.4], [0, r, 0.4], plane)
        gens = recorded(2, 3)
        n_hat = pauli_estimate(spec, 1000, gens)
        assert n_hat.shape == (3,)
        assert [g.shots for g in gens] == [[1000]] * 3

    def test_component_error_bound(self):
        spec = xz_spec(eta0=0.5, g0=0.3, g1=1.1)
        n = spec.eta0 * spec.psi0 + (1 - spec.eta0) * spec.psi1
        n_hat = pauli_estimate(batch(spec, 100), 10_000, frame_generators(0, 2, first=1))
        assert np.sum(np.max(np.abs(n_hat - n), axis=1) <= 5.0 / math.sqrt(10_000)) >= 99

    def test_large_shot_limit(self):
        spec = xz_spec(eta0=0.65, g0=0.2, g1=1.4)
        n_hat = pauli_estimate(spec, 10_000_000, frame_generators(9, 2))
        assert float(np.max(np.abs(n_hat - (spec.eta0 * spec.psi0 + (1 - spec.eta0) * spec.psi1)))) <= 2e-3

    def test_per_axis_generators(self):
        spec = xz_spec()
        gens = [RngStream(3, 10).generator(), RngStream(3, 11).generator()]
        est1 = pauli_estimate(spec, 1000, gens)
        gens = [RngStream(3, 10).generator(), RngStream(3, 11).generator()]
        est2 = pauli_estimate(spec, 1000, gens)
        assert np.array_equal(est1, est2)

    def test_wrong_generator_count_rejected(self):
        with pytest.raises(ContractViolation, match=r"^expected 2 generators, one per axis, got 1$"):
            pauli_estimate(xz_spec(), 100, [RngStream(0).generator()])
        # One generator is no longer shared by every axis.
        with pytest.raises(TypeError):
            pauli_estimate(xz_spec(), 100, RngStream(0).generator())

    def test_budget_accounting_is_exact(self):
        # One binomial of the whole per-axis budget on each axis.
        gens = recorded(4, 2)
        pauli_estimate(batch(xz_spec(), 3), 1234, gens)
        assert [g.shots for g in gens] == [[1234], [1234]]

    def test_readings_and_a_turned_frame(self):
        # On the Pauli frame the estimate's plane coordinates are the
        # readings bit for bit; on any frame it is sum_k Delta_k e_k.
        spec = batch(xz_spec(), 5)
        _, n_hat, readings = learn_axis(spec, pauli_axes(spec.plane), 1000, frame_generators(2, 2))
        assert readings.shape == (5, 2) and np.array_equal(spec.plane.coords(n_hat), readings)
        c, s = math.cos(0.4), math.sin(0.4)
        frame = [np.array([c, 0.0, s]), np.array([-s, 0.0, c])]
        _, n_hat, readings = learn_axis(spec, frame, 1000, frame_generators(2, 2))
        assert np.array_equal(n_hat, readings[:, :1] * frame[0] + readings[:, 1:] * frame[1])
