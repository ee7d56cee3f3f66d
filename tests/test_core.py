"""Core math: seeded randomness, softmax weights, entropy, divergence, angle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entrofed.core import (
    SeededRng,
    chi_square_divergence,
    derive_seeds,
    entropy,
    fair_angle,
    ragged_uniforms,
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

    def test_dirichlet_simplex(self):
        for alpha in (0.1, 1.0, 50.0):
            p = SeededRng(11).dirichlet(alpha, 6)
            assert p.shape == (6,)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-12

    def test_permutation_and_sampling(self):
        rng = SeededRng(12)
        perm = rng.permutation(40)
        assert sorted(perm.tolist()) == list(range(40))
        picked = rng.sample_without_replacement(10, 4)
        assert len(set(picked.tolist())) == 4
        assert np.all((picked >= 0) & (picked < 10))
        with pytest.raises(ValueError):
            rng.sample_without_replacement(3, 5)


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
        rng = SeededRng(37)
        for _ in range(300):
            m = 2 + int(rng.integers(1, 7)[0])
            losses = rng.uniforms(m) * 10
            if np.all(losses == 0):
                continue
            assert 0.0 <= fair_angle(losses) <= math.pi / 2 + 1e-12

    def test_rejects_degenerate_and_negative(self):
        with pytest.raises(ValueError, match="zero"):
            fair_angle([0.0, 0.0])
        with pytest.raises(ValueError, match="nonnegative"):
            fair_angle([1.0, -0.1])
