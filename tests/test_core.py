"""Core math: seeded randomness, softmax weights, entropy, divergence, angle."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entrofed import core
from entrofed.core import (
    SeededRng,
    _smallest,
    chi_square_divergence,
    derive_seeds,
    entropy,
    fair_angle,
    next_uniforms,
    ragged_uniforms,
    row_argsort,
    softmax_temperature,
    validate_simplex,
)

# Independent high-precision evaluations (mpmath, 40 digits), frozen.
SOFTMAX_0_45_TAU1 = (0.0109869426305931800, 0.9890130573694068200)
PRIOR_SOFTMAX_0_45 = (0.0908933624090215449, 0.9091066375909784551)
ENTROPY_QUARTER = 0.5623351446188083503

# float64 floors of the softmax underflow contract: the log of the smallest
# normal (~ -708.40) and of the smallest subnormal (~ -744.44).
LOG_TINY = math.log(np.finfo(np.float64).tiny)
LOG_SUBNORMAL_MIN = -1074 * math.log(2.0)


def softmax_exponents(values, tau):
    """The exponents e_i = (v_i - max v) / tau, computed as the softmax does."""
    arr = np.asarray(values, dtype=np.float64)
    return (arr - arr.max()) / tau


def assert_underflow_contract(p, exponents):
    """Positive down to the smallest normal exponent; exactly 0 only below
    the subnormal floor (widened by log n for the normalizing sum)."""
    assert np.all(p[exponents >= LOG_TINY] > 0)
    assert np.all(exponents[p == 0] < LOG_SUBNORMAL_MIN + math.log(p.size))


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(2024)
        b = SeededRng(2024)
        assert [a.next_u64() for _ in range(8)] == [b.next_u64() for _ in range(8)]
        assert np.array_equal(a.uniforms(100), b.uniforms(100))
        assert np.array_equal(a.normals(51), b.normals(51))

    def test_known_first_draw(self):
        # Regression anchor for the documented generator: changing the
        # algorithm would silently invalidate every frozen trajectory.
        assert SeededRng(42).next_u64() == 13679457532755275413

    def test_scalar_and_vector_draws_agree(self):
        a = SeededRng(9)
        b = SeededRng(9)
        singles = np.array([b.uniforms(1)[0] for _ in range(16)])
        assert np.array_equal(a.uniforms(16), singles)

    def test_derive_is_stable_and_distinct(self):
        root = SeededRng(7)
        before = root.derive(1, 3).seed
        root.uniforms(1000)  # consuming the parent stream must not matter
        assert root.derive(1, 3).seed == before
        seeds = {root.derive(i, j).seed for i in range(20) for j in range(20)}
        assert len(seeds) == 400

    def test_uniform_range_and_moments(self):
        u = SeededRng(5).uniforms(50_000)
        assert np.all((u >= 0) & (u < 1))
        assert abs(u.mean() - 0.5) < 0.01

    def test_normal_moments(self):
        z = SeededRng(6).normals(50_000)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    @pytest.mark.parametrize("shape", [0.3, 1.0, 2.5, 7.0])
    def test_gamma_mean(self, shape):
        g = SeededRng(8).gammas(shape, 40_000)
        assert np.all(g > 0)
        assert abs(g.mean() - shape) < 0.06 * max(1.0, shape)

    @pytest.mark.parametrize("shape", [math.inf, math.nan, 0.0, -1.0])
    def test_gamma_and_dirichlet_reject_a_shape_not_finite_and_positive(self, shape):
        # a non-finite shape made every Marsaglia-Tsang candidate's
        # acceptance test NaN, and the draw loop never ended
        with pytest.raises(ValueError, match="shape must be finite and positive"):
            SeededRng(0).gammas(shape, 1)
        with pytest.raises(ValueError, match="shape must be finite and positive"):
            SeededRng(0).dirichlet(shape, 3)

    def test_dirichlet_simplex(self):
        for alpha in (0.1, 1.0, 50.0):
            p = SeededRng(11).dirichlet(alpha, 6)
            assert p.shape == (6,)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-12

    def test_dirichlet_corner_when_every_gamma_underflows(self):
        # at alpha = 1e-5 nearly every seed's gammas all underflow to 0, and
        # the draw falls back to one corner of the simplex
        corners = set()
        for seed in range(40):
            if SeededRng(seed).gammas(1e-5, 3).sum() != 0.0:
                continue
            p = SeededRng(seed).dirichlet(1e-5, 3)
            assert sorted(p.tolist()) == [0.0, 0.0, 1.0] and p.sum() == 1.0
            assert np.array_equal(p, SeededRng(seed).dirichlet(1e-5, 3))
            corners.add(int(p.argmax()))
        assert corners == {0, 1, 2}

    def test_permutation_and_sampling(self):
        rng = SeededRng(12)
        perm = rng.permutation(40)
        assert sorted(perm.tolist()) == list(range(40))
        picked = rng.sample_without_replacement(10, 4)
        assert len(set(picked.tolist())) == 4
        assert np.all((picked >= 0) & (picked < 10))
        with pytest.raises(ValueError):
            rng.sample_without_replacement(3, 5)
        with pytest.raises(ValueError):
            rng.sample_without_replacement(3, -1)

    def test_sampling_is_the_sorted_head_of_a_permutation(self):
        # the ids of np.sort(permutation(m)[:k]), from the same m draws:
        # every k up to m = 64, and at larger m the ends and some between
        for m in range(1, 2001):
            perm = SeededRng(m).permutation(m)
            ks = range(m + 1) if m <= 64 else {0, 1, 2, m // 3, m // 2, m - 1, m, m * 7 // 11}
            for k in ks:
                got = SeededRng(m).sample_without_replacement(m, k)
                want = np.sort(perm[:k])
                assert got.dtype == want.dtype and np.array_equal(got, want), (m, k)

    @given(
        values=st.lists(st.sampled_from([-1.5, 0.0, 0.25, 3.0, np.inf]), min_size=1, max_size=40),
        share=st.floats(0.0, 1.0),
    )
    @example(values=[0.5, 0.25, 0.5, 0.5, 0.0, 0.5], share=0.5)
    @settings(max_examples=300, deadline=None)
    def test_selection_is_the_stable_argsort_head(self, values, share):
        # few distinct values: the k-th smallest ties with others, and the
        # lowest positions among them are taken
        v = np.array(values)
        k = round(share * v.size)
        want = np.sort(np.argsort(v, kind="stable")[:k])
        assert np.array_equal(_smallest(v, k), want)


class TestManyStreams:
    """derive_seeds and ragged_uniforms against SeededRng, stream by stream."""

    @given(
        seed=st.integers(0, 2**64 - 1),
        keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8),
        counts=st.lists(st.sampled_from([0, 1, 2, 7, 300, 513]), min_size=8, max_size=8),
    )
    @example(seed=0, keys=[0, 2**63, 2**64 - 1], counts=[0, 1, 300] + [0] * 5)
    @settings(max_examples=100, deadline=None)
    def test_match_derive_and_uniforms_bit_for_bit(self, seed, keys, counts):
        counts = counts[: len(keys)]
        root = SeededRng(seed)
        seeds = derive_seeds(seed, np.array(keys, dtype=np.uint64))
        assert seeds.dtype == np.uint64
        assert [int(s) for s in seeds] == [root.derive(k).seed for k in keys]
        expected = [SeededRng(root.derive(k).seed).uniforms(n) for k, n in zip(keys, counts)]
        got = ragged_uniforms(seeds, counts)
        assert got.dtype == np.float64
        assert np.array_equal(got, np.concatenate(expected))

    @given(
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
        drawn=st.lists(st.integers(0, 40), min_size=6, max_size=6),
        counts=st.lists(st.sampled_from([0, 1, 5, 64]), min_size=6, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_next_uniforms_read_and_advance_each_stream(self, seeds, drawn, counts):
        # streams part-way through, whose counters wrap mod 2**64 too
        def streams():
            rngs = [SeededRng(seed) for seed in seeds]
            for rng, n in zip(rngs, drawn):
                rng.uniforms(n)
            return rngs

        got_rngs, want_rngs = streams(), streams()
        got = next_uniforms(got_rngs, counts[: len(seeds)])
        want = [rng.uniforms(n) for rng, n in zip(want_rngs, counts)]
        assert got.tobytes() == np.concatenate(want).tobytes()
        for a, b in zip(got_rngs, want_rngs, strict=True):
            assert a.uniforms(3).tobytes() == b.uniforms(3).tobytes()

    def test_signed_keys_wrap_as_derive_does(self):
        assert int(derive_seeds(5, np.array([-1]))[0]) == SeededRng(5).derive(-1).seed
        assert int(derive_seeds(5, np.arange(3))[2]) == SeededRng(5).derive(2).seed

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="integer"):
            derive_seeds(0, [0, 2**63])  # numpy reads this list as floats
        with pytest.raises(ValueError, match="one length"):
            ragged_uniforms(np.zeros(2, dtype=np.uint64), [1])
        with pytest.raises(ValueError, match="nonnegative"):
            ragged_uniforms(np.zeros(2, dtype=np.uint64), [1, -1])


def reference_raw(seed: int, start: int, n: int) -> np.ndarray:
    """Draws start + 1 .. start + n of SeededRng(seed) as 64-bit outputs,
    in the expressions the generator had before it drew in place."""
    idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed) + idx * np.uint64(core._GOLDEN)
        z ^= z >> np.uint64(30)
        z *= np.uint64(core._MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(core._MIX2)
        z ^= z >> np.uint64(31)
    return z


def reference_uniforms(seed: int, start: int, n: int) -> np.ndarray:
    return (reference_raw(seed, start, n) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def reference_uniforms_open(seed: int, start: int, n: int) -> np.ndarray:
    return ((reference_raw(seed, start, n) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53


def reference_normals(seed: int, start: int, n: int) -> np.ndarray:
    u1 = reference_uniforms_open(seed, start, n)
    u2 = reference_uniforms(seed, start + n, n)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


DRAW_SIZES = [0, 1, 2, 80000]
DRAW_SEEDS = [0, 7, 2**64 - 1]


class TestDrawsInPlace:
    """The draws, computed in their own arrays, equal the expressions that
    made them in fresh ones, byte for byte, and advance the stream alike."""

    @pytest.mark.parametrize("n", DRAW_SIZES)
    @pytest.mark.parametrize("seed", DRAW_SEEDS)
    @pytest.mark.parametrize(
        "method,reference,drawn",
        [
            ("uniforms", reference_uniforms, 1),
            ("uniforms_open", reference_uniforms_open, 1),
            ("normals", reference_normals, 2),
        ],
    )
    def test_draws_match_their_reference(self, method, reference, drawn, seed, n):
        rng = SeededRng(seed)
        rng.uniforms(3)  # part-way through the stream
        got = getattr(rng, method)(n)
        want = reference(seed, 3, n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == want.tobytes()
        assert rng.uniforms(2).tobytes() == reference_uniforms(seed, 3 + drawn * n, 2).tobytes()

    @pytest.mark.parametrize("n", DRAW_SIZES)
    def test_ragged_uniforms_match_their_reference(self, n):
        seeds = np.array(DRAW_SEEDS + [12345], dtype=np.uint64)
        counts = [n, 1, 0, 2]
        want = [reference_uniforms(int(s), 0, c) for s, c in zip(seeds, counts)]
        got = ragged_uniforms(seeds, counts)
        assert got.tobytes() == np.concatenate(want).tobytes()

    def test_normals_keep_three_arrays_at_most(self):
        # the first draw, the second's counters and its mix's scratch, each
        # of n 8-byte items, and a few small objects (headers, scalars)
        n = 80000
        tracemalloc.start()
        try:
            SeededRng(0).normals(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * n + 4096


class TestRowArgsort:
    """row_argsort against np.lexsort((u, row)), the row index primary."""

    @given(
        counts=st.lists(st.integers(0, 9) | st.sampled_from([0, 1]), max_size=12),
        key_rows=st.sampled_from([1, 2, 3, 2**10]),
        seed=st.integers(0, 2**64 - 1),
        ties=st.booleans(),
    )
    @example(counts=[], key_rows=2**10, seed=0, ties=False)
    @example(counts=[0], key_rows=2**10, seed=0, ties=False)
    @example(counts=[1], key_rows=2**10, seed=0, ties=True)
    @example(counts=[5, 0, 0, 3, 1], key_rows=2, seed=1, ties=True)
    # one row a chunk, each of whose keys holds row index 0
    @example(counts=[4, 4, 0, 3, 1], key_rows=1, seed=2, ties=False)
    @settings(max_examples=300, deadline=None)
    def test_is_the_lexsort_of_row_and_draw(self, counts, key_rows, seed, ties):
        with mock.patch.object(core, "_KEY_ROWS", key_rows):
            self.assert_is_lexsort(counts, seed, ties)

    def test_rows_past_the_key_limit(self):
        # 2500 rows at the real limit: three chunks, the last part-full
        counts = (SeededRng(4).integers(2500, 6)).tolist()
        self.assert_is_lexsort(counts, 4, True)
        self.assert_is_lexsort(counts, 5, False)

    @staticmethod
    def assert_is_lexsort(counts, seed, ties):
        # Uniforms cut to quarters tie within a row, which only the
        # stable order of equal keys breaks as lexsort does.
        u = SeededRng(seed).uniforms(sum(counts))
        if ties:
            u = np.floor(u * 4.0) / 4.0
        row = np.repeat(np.arange(len(counts)), np.array(counts, dtype=np.int64))
        got = row_argsort(u, counts)
        want = np.lexsort((u, row))
        assert got.dtype == np.int64 and got.tobytes() == want.astype(np.int64).tobytes()

    def test_permutation_is_the_stable_argsort_of_its_draw(self):
        for n in (0, 1, 2, 1500):
            want = np.argsort(SeededRng(n).uniforms(n), kind="stable")
            assert np.array_equal(SeededRng(n).permutation(n), want)


class TestSoftmaxTemperature:
    def test_equal_inputs_are_uniform(self):
        assert np.allclose(softmax_temperature([1.0, 1.0, 1.0], 0.1), [1 / 3] * 3, atol=1e-15)

    def test_frozen_two_point_value(self):
        p = softmax_temperature([0.0, 4.5], 1.0)
        assert p == pytest.approx(SOFTMAX_0_45_TAU1, abs=1e-12)

    def test_huge_tau_degenerates_to_uniform(self):
        p = softmax_temperature([3.0, 7.0], 1e9)
        assert p == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_tiny_tau_concentrates_on_argmax(self):
        p = softmax_temperature([0.1, 0.1 + 1e-3, 0.05], 1e-6)
        assert p[1] > 1 - 1e-6

    @pytest.mark.parametrize(
        "values,tau,err",
        [
            ([1.0, 2.0], 0.0, "tau"),
            ([1.0, 2.0], -1.0, "tau"),
            ([], 1.0, "nonempty"),
            ([1.0, float("nan")], 1.0, "finite"),
        ],
    )
    def test_rejects_bad_inputs(self, values, tau, err):
        with pytest.raises(ValueError, match=err):
            softmax_temperature(values, tau)

    @given(
        values=st.lists(st.floats(-20, 20), min_size=1, max_size=8),
        tau=st.floats(0.05, 1e6),
    )
    # e = -748.3 is below the subnormal floor and rounds to exactly 0;
    # e = -708 is just inside the normal range and must stay positive.
    @example(values=[20.0, -18.0], tau=0.05078125)
    @example(values=[20.0, -15.4], tau=0.05)
    @settings(max_examples=200, deadline=None)
    def test_simplex_invariants(self, values, tau):
        p = softmax_temperature(values, tau)
        validate_simplex(p)
        assert_underflow_contract(p, softmax_exponents(values, tau))

    @given(
        values=st.lists(st.floats(-20, 20), min_size=2, max_size=6),
        tau=st.floats(0.05, 100),
    )
    # Both low entries underflow to 0: order holds, but not strictly.
    @example(values=[20.0, -18.0, -19.0], tau=0.05078125)
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_value(self, values, tau):
        p = softmax_temperature(values, tau)
        e = softmax_exponents(values, tau)
        order = np.argsort(values)
        for lo, hi in zip(order, order[1:]):
            assert p[hi] >= p[lo]
            if values[hi] - values[lo] > 1e-9 and e[lo] >= LOG_TINY:
                assert p[hi] > p[lo]

    @given(
        values=st.lists(st.floats(-20, 20), min_size=1, max_size=6),
        tau=st.floats(0.05, 100),
        shift=st.floats(-50, 50),
    )
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, values, tau, shift):
        base = softmax_temperature(values, tau)
        moved = softmax_temperature(np.asarray(values) + shift, tau)
        assert moved == pytest.approx(base, abs=1e-12)

    def test_extreme_tau_range_keeps_simplex(self):
        rng = SeededRng(3)
        for tau in (1e-6, 1e-3, 1.0, 1e6, 1e12):
            values = 10 * rng.normals(5)
            validate_simplex(softmax_temperature(values, tau))


class TestSoftmaxPrior:
    def test_equal_losses_return_the_prior(self):
        p = softmax_temperature([2.0, 2.0], 1.0, prior=[0.25, 0.75])
        assert p == pytest.approx([0.25, 0.75], abs=1e-15)

    def test_uniform_prior_cancels(self):
        values = [0.3, 1.9, 0.7]
        with_prior = softmax_temperature(values, 0.7, prior=[1 / 3] * 3)
        assert with_prior == pytest.approx(softmax_temperature(values, 0.7), abs=1e-15)

    def test_frozen_skewed_prior_value(self):
        p = softmax_temperature([0.0, 4.5], 1.0, prior=[0.9, 0.1])
        assert p == pytest.approx(PRIOR_SOFTMAX_0_45, abs=1e-12)

    def test_small_prior_underflows_sooner(self):
        # e = -700 stays positive under a uniform prior; a prior entry of
        # 1e-30 adds log(1e-30) ~ -69 and takes it below the subnormal floor.
        assert softmax_temperature([0.0, -700.0], 1.0, prior=[0.5, 0.5])[1] > 0
        assert softmax_temperature([0.0, -700.0], 1.0, prior=[1.0, 1e-30])[1] == 0.0

    @given(
        pairs=st.lists(
            st.tuples(st.floats(-20, 20), st.floats(1e-300, 1.0)), min_size=1, max_size=8
        ),
        tau=st.floats(0.05, 1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_underflow_contract_with_prior(self, pairs, tau):
        values, prior = map(list, zip(*pairs))
        p = softmax_temperature(values, tau, prior=prior)
        validate_simplex(p)
        assert_underflow_contract(p, np.log(prior) + softmax_exponents(values, tau))

    def test_rejects_nonpositive_prior(self):
        with pytest.raises(ValueError, match="positive"):
            softmax_temperature([1.0, 2.0], 1.0, prior=[0.0, 1.0])

    def test_rejects_prior_of_another_length(self):
        with pytest.raises(ValueError, match="same length"):
            softmax_temperature([1.0, 2.0], 1.0, prior=[1.0])


class TestEntropy:
    def test_degenerate_distribution(self):
        assert entropy([1.0, 0.0]) == 0.0

    def test_uniform_two_point(self):
        assert entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-15)

    def test_frozen_quarter_value(self):
        assert entropy([0.25, 0.75]) == pytest.approx(ENTROPY_QUARTER, abs=1e-15)

    def test_bounded_by_log_m(self):
        rng = SeededRng(17)
        for _ in range(200):
            m = 2 + int(rng.integers(1, 7)[0])
            p = rng.dirichlet(1.0, m)
            h = entropy(p)
            assert -1e-12 <= h <= math.log(m) + 1e-12

    def test_uniform_maximizes_entropy(self):
        rng = SeededRng(23)
        for _ in range(1000):
            m = 2 + int(rng.integers(1, 7)[0])
            assert entropy(rng.dirichlet(1.0, m)) <= entropy(np.full(m, 1 / m)) + 1e-12

    def test_concavity_probe(self):
        rng = SeededRng(29)
        for _ in range(500):
            m = 2 + int(rng.integers(1, 7)[0])
            p, q = rng.dirichlet(1.0, m), rng.dirichlet(1.0, m)
            lam = rng.uniform(0.01, 0.99)
            mix = lam * p + (1 - lam) * q
            assert entropy(mix) >= lam * entropy(p) + (1 - lam) * entropy(q) - 1e-12


class TestChiSquare:
    def test_zero_at_equality(self):
        p = np.array([0.2, 0.3, 0.5])
        assert chi_square_divergence(p, p) == 0.0

    def test_frozen_values(self):
        assert chi_square_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(1 / 3, abs=1e-15)
        assert chi_square_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)

    def test_nonnegative_and_definite(self):
        rng = SeededRng(31)
        for _ in range(300):
            m = 2 + int(rng.integers(1, 6)[0])
            w = rng.dirichlet(1.0, m)
            p = rng.dirichlet(1.0, m) * 0.98 + 0.02 / m  # bounded away from 0
            d = chi_square_divergence(w, p)
            assert d >= 0.0
            if d == 0.0:
                assert np.abs(w - p).max() < 1e-12

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError, match="positive"):
            chi_square_divergence([0.5, 0.5], [1.0, 0.0])


class TestFairAngle:
    def test_constant_losses_have_zero_angle(self):
        for c in (0.5, 1.0, 7.25):
            assert fair_angle([c] * 4) == pytest.approx(0.0, abs=1e-7)

    def test_one_hot_two_client_angle(self):
        assert fair_angle([1.0, 0.0]) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_never_exceeds_right_angle(self):
        # nonnegative losses have a cosine >= 0, and acos(0.0) == pi / 2
        rng = SeededRng(37)
        for scale in (1e-300, 1e-150, 1e-5, 10.0, 1e150, 1e300):
            for _ in range(300):
                m = 2 + int(rng.integers(1, 7)[0])
                losses = rng.uniforms(m) * scale
                if np.all(losses == 0):
                    continue
                assert 0.0 <= fair_angle(losses) <= math.pi / 2

    def test_scale_free_over_the_float_range(self):
        # the squares of such losses overflow or underflow: the angle must not
        rng = SeededRng(38)
        for _ in range(50):
            losses = rng.uniforms(2 + int(rng.integers(1, 7)[0]))
            want = fair_angle(losses)
            for scale in (1e300, 1e-300):
                assert fair_angle(losses * scale) == pytest.approx(want, abs=1e-12)
            # subnormal entries keep about 40 bits of the ratios
            assert fair_angle(losses * 1e-312) == pytest.approx(want, abs=1e-9)
        assert fair_angle([1e300, 0.0]) == pytest.approx(math.pi / 4, abs=1e-12)
        assert fair_angle([1e300, 1e300]) == pytest.approx(0.0, abs=1e-7)
        assert fair_angle([5e-324, 0.0]) == pytest.approx(math.pi / 4, abs=1e-12)
        assert fair_angle([5e-324, 5e-324, 0.0]) == pytest.approx(fair_angle([1.0, 1.0, 0.0]))

    @pytest.mark.parametrize("bound", [2.0**-500, 2.0**500])
    def test_rescale_band_edges(self, bound):
        # A peak inside [2**-500, 2**500] takes the direct formula; one ulp
        # outside, the losses are first divided by it. Dividing by a peak
        # that is not a power of two moves the last bits of most angles, so
        # a narrower or wider band fails one side.
        def direct(arr):
            cosine = arr.sum() / (float(np.linalg.norm(arr)) * math.sqrt(arr.size))
            return math.acos(min(1.0, max(-1.0, cosine)))

        rng = SeededRng(39)
        inside = np.nextafter(bound, 1.0)
        outside = np.nextafter(bound, np.inf if bound > 1.0 else 0.0)
        for _ in range(20):
            shape = 0.25 + rng.uniforms(20)
            for peak, rescaled in ((inside, False), (outside, True)):
                arr = shape / shape.max() * peak
                arr[np.argmax(shape)] = peak
                assert arr.max() == peak
                want = fair_angle(arr / peak) if rescaled else direct(arr)
                assert fair_angle(arr) == want, (peak, rescaled)

    @staticmethod
    def wrapper_form(losses):
        """fair_angle as written with numpy's wrappers, np.any and
        np.linalg.norm, which its method forms must match bit for bit."""
        arr = np.asarray(losses, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
            raise ValueError("not a nonempty finite vector")
        if np.any(arr < 0.0):
            raise ValueError("losses must be nonnegative")
        peak = arr.max()
        if peak > 0.0 and not 2.0**-500 <= peak <= 2.0**500:
            arr = arr / peak
        norm = float(np.linalg.norm(arr))
        if norm == 0.0:
            raise ValueError("angle undefined for an all-zero loss vector")
        cosine = arr.sum() / (norm * math.sqrt(arr.size))
        return math.acos(min(1.0, max(-1.0, cosine)))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from([0.0, -0.0, 5e-324, 2.5e-310, 1e-300, 1e300, 1.7e308, math.inf, math.nan])
            | st.floats(0.0, 1e300)
            | st.floats(-1.0, 0.0),
            min_size=1,
            max_size=30,
        )
    )
    # 9 terms, which numpy's sum adds as 8 partial sums and a remainder: the
    # reversed order rounds the cosine differently
    @example([0.1, 0.7, 0.3, 1e-5, 0.9, 0.2, 0.6, 0.8, 3.0])
    def test_is_the_wrapper_form_bit_for_bit(self, losses):
        # signed zeros, subnormals, values near 1e300 and the largest float,
        # whose squares overflow; infinities, NaNs and negatives raise in
        # both forms
        try:
            want = self.wrapper_form(losses)
        except ValueError:
            with pytest.raises(ValueError):
                fair_angle(losses)
            return
        assert np.float64(fair_angle(losses)).tobytes() == np.float64(want).tobytes()

    def test_rejects_degenerate_and_negative(self):
        with pytest.raises(ValueError, match="zero"):
            fair_angle([0.0, 0.0])
        with pytest.raises(ValueError, match="nonnegative"):
            fair_angle([1.0, -0.1])
