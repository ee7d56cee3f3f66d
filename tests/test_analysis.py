"""Fairness statistics and the closed-form executable oracles."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entrofed.aggregation import eba_weights, uniform_weights
from entrofed.analysis import (
    InfeasibleGridError,
    RegressionOracleSetup,
    _tail_means,
    entropy_max_bruteforce,
    evaluate_fairness,
    population_variance,
    regression_variance_oracle,
    softmax_entropy,
    tail_mean,
    toy_case_oracle,
    weighted_variance,
)
from entrofed.core import SeededRng
from entrofed.objectives import ClassifierObjective, QuadraticObjective
from entrofed.stacks import stack_objectives


class TestVariances:
    def test_population_values(self):
        assert population_variance([1.0, 1.0, 1.0]) == 0.0
        assert population_variance([0.0, 2.0]) == 1.0
        assert population_variance([1.0, 2.0, 3.0, 4.0]) == 1.25

    def test_weighted_two_client_identity(self):
        rng = SeededRng(1)
        for _ in range(300):
            a = rng.uniforms(2) * 10
            p = rng.dirichlet(1.0, 2)
            direct = weighted_variance(a, p)
            assert direct == pytest.approx(p[0] * p[1] * (a[0] - a[1]) ** 2, abs=1e-12)

    def test_weighted_uniform_quarter(self):
        a = np.array([1.0, 5.0])
        assert weighted_variance(a, [0.5, 0.5]) == pytest.approx(0.25 * 16, abs=1e-15)

    def test_one_hot_weights_give_zero(self):
        assert weighted_variance([3.0, 9.0], [1.0, 0.0]) == 0.0

    def test_uniform_weights_equal_population_exactly(self):
        rng = SeededRng(2)
        for _ in range(100):
            m = 2 + int(rng.integers(1, 7)[0])
            vals = rng.normals(m) * 4
            assert weighted_variance(vals, uniform_weights(m)) == population_variance(vals)

    @given(values=st.lists(st.floats(allow_nan=False), min_size=1, max_size=50))
    @example(values=[1e308, -1e308, 3.0])
    @example(values=[math.inf, 1.0])
    @example(values=[math.inf, -math.inf])
    @settings(max_examples=200, deadline=None)
    def test_population_is_the_uniform_weighted_form_bit_for_bit(self, values):
        # overflowing squares and infinite values included: the same calls
        # on the same uniform weights, unchecked
        v = np.array(values)
        with np.errstate(all="ignore"):
            want = weighted_variance(v, uniform_weights(v.size))
            got = population_variance(v)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestTailMean:
    def test_worst_of_hundred(self):
        vals = np.arange(100, dtype=float)
        assert tail_mean(vals, 5, "worst") == np.mean([0, 1, 2, 3, 4])
        assert tail_mean(vals, 5, "best") == np.mean([95, 96, 97, 98, 99])

    def test_all_equal(self):
        assert tail_mean([2.0] * 7, 5, "worst") == 2.0
        assert tail_mean([2.0] * 7, 5, "best") == 2.0

    def test_full_percent_is_mean(self):
        rng = SeededRng(3)
        vals = rng.uniforms(13)
        assert tail_mean(vals, 100, "worst") == pytest.approx(vals.mean(), abs=1e-15)
        assert tail_mean(vals, 100, "best") == pytest.approx(vals.mean(), abs=1e-15)

    def test_ceil_count_and_ties(self):
        # 5% of 50 -> ceil(2.5) = 3 entries; ties resolved by index order.
        vals = np.array([0.5] * 50)
        vals[[7, 31]] = 0.1
        assert tail_mean(vals, 5, "worst") == pytest.approx((0.1 + 0.1 + 0.5) / 3)

    @given(
        values=st.lists(
            st.sampled_from([-2.5, -1.0, 0.0, 1.0 / 3.0, 1.0, 7.0, np.nan]), min_size=1, max_size=60
        ),
        k_percent=st.sampled_from([0.5, 5.0, 33.0, 50.0, 99.0, 100.0]),
        side=st.sampled_from(["worst", "best"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_stable_argsort_gather(self, values, k_percent, side):
        # ties, NaNs ranked last, sums that hinge on their order
        v = np.array(values)
        order = np.argsort(v if side == "worst" else -v, kind="stable")
        want = v[order[: math.ceil(k_percent * v.size / 100.0)]].mean()
        got = tail_mean(v, k_percent, side)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @given(
        values=st.lists(st.floats(), min_size=1, max_size=60),
        # down to subnormal shares, whose count underflows to 0
        k_percent=st.floats(0.0, 100.0, exclude_min=True),
    )
    @example(values=[1.0, 2.0], k_percent=5e-324)
    @example(values=[3.0, 1.0 / 3.0, 0.1, 7.0, math.nan], k_percent=80.0)
    @example(values=[1.0, math.nan, math.nan, math.nan, 2.0, 0.1, 0.7], k_percent=30.0)
    @settings(max_examples=300, deadline=None)
    def test_one_sort_gives_both_tails(self, values, k_percent):
        # Against the two sorts of the values and their negations. The
        # best tail sums largest first, so the order of its terms shows in
        # the last bits; NaNs rank last on both sides. Zeros are made +0.0,
        # whose ties would otherwise leave a zero mean's sign to the sort.
        v = np.array(values) + 0.0
        count = max(1, math.ceil(k_percent * v.size / 100.0))
        with np.errstate(all="ignore"):
            want = [np.sort(v)[:count].mean(), (-np.sort(-v)[:count]).mean()]
            got = _tail_means(v, k_percent)
            one = [tail_mean(v, k_percent, side) for side in ("worst", "best")]
        for a, b, c in zip(got, want, one):
            assert np.float64(a).tobytes() == np.float64(math.nan if math.isnan(b) else b).tobytes()
            assert np.float64(c).tobytes() == np.float64(a).tobytes()

    def test_a_positive_share_takes_at_least_one_value(self):
        # 5e-324 * 2 / 100 underflows to 0, which would divide 0 by 0
        with np.errstate(all="raise"):
            assert tail_mean([1.0, 2.0], 5e-324, "worst") == 1.0
            assert tail_mean([1.0, 2.0], 5e-324, "best") == 2.0
            assert _tail_means(np.array([3.0, math.nan, 1.0]), 1e-300) == (1.0, 3.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            tail_mean([], 5, "worst")
        with pytest.raises(ValueError):
            tail_mean([1.0], 0, "worst")
        with pytest.raises(ValueError):
            tail_mean([1.0], 5, "median")


class TestToyCaseOracle:
    def test_local_models_and_fedavg(self):
        rec = toy_case_oracle(0.25, 1.0)
        assert rec.local_models == (2.0, -1.0)
        assert rec.fedavg == 0.5

    def test_qffl_intermediates_exact(self):
        rec = toy_case_oracle(0.25, 1.0, q=1.0)
        assert rec.qffl_deltas == (-16.0, 8.0)
        assert rec.qffl_h == (12.0, 9.0)
        assert abs(rec.qffl) == pytest.approx(8.0 / 21.0, abs=1e-14)

    def test_weight_only_iterate_matches_formula(self):
        # alpha=0 collapses to the pure entropy-weighted combination of the
        # local models, which at tau=1 sits at 3*p1 - 1.
        rec = toy_case_oracle(0.25, 1.0, alpha=0.0)
        assert rec.fedeba == pytest.approx(-0.9670391721082205, abs=1e-12)

    def test_fedavg_variance_value(self):
        rec = toy_case_oracle(0.25, 1.0)
        assert rec.variances["fedavg"] == pytest.approx(2.8125**2, abs=1e-12)

    @pytest.mark.parametrize("tau", [1.0, 5.0])
    def test_fairness_ordering_with_alignment(self, tau):
        rec = toy_case_oracle(0.25, tau, alpha=0.5)
        assert rec.loss_gaps["fedeba"] < rec.loss_gaps["fedavg"]
        assert rec.variances["fedeba"] < rec.variances["fedavg"]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            toy_case_oracle(0.0, 1.0)
        with pytest.raises(ValueError):
            toy_case_oracle(0.25, -1.0)


class TestRegressionOracle:
    def test_identical_params_zero_for_any_weights(self):
        w = np.tile([1.5, -0.5], (4, 1))
        for p in ([0.25] * 4, [0.7, 0.1, 0.1, 0.1]):
            setup = RegressionOracleSetup(w, 2.0, p)
            assert regression_variance_oracle(setup) == 0.0
            assert regression_variance_oracle(setup, weighted=True) == 0.0

    def test_two_client_uniform_identity(self):
        rng = SeededRng(4)
        w = rng.normals(6).reshape(2, 3)
        b = 1.7
        setup = RegressionOracleSetup(w, b, [0.5, 0.5])
        diff = setup.aggregate[None, :] - w
        a = np.einsum("ij,ij->i", diff, diff)
        expected = (b**2 / 4) * 0.25 * (a[0] - a[1]) ** 2
        assert regression_variance_oracle(setup, weighted=True) == pytest.approx(expected, abs=1e-12)

    def test_entropy_weights_never_exceed_uniform_weighted_variance(self):
        # Two clients: weighted variance is p1 p2 (A1-A2)^2 and p1 p2 <= 1/4.
        rng = SeededRng(5)
        for _ in range(1000):
            a = rng.uniforms(2) * 5
            tau = 0.2 + 4.8 * rng.uniform()
            p = eba_weights(a, tau)
            assert weighted_variance(a, p) <= weighted_variance(a, [0.5, 0.5]) + 1e-15
            if abs(a[0] - a[1]) > 1e-9:
                assert weighted_variance(a, p) < weighted_variance(a, [0.5, 0.5])


class TestEntropyGrid:
    def test_equal_losses_pick_uniform(self):
        point, best = entropy_max_bruteforce([2.0, 2.0], 1.0, 0.01, 0.02)
        assert point.tolist() == [0.5, 0.5]
        assert best == pytest.approx(softmax_entropy([2.0, 2.0], 1.0), abs=1e-12)

    def test_two_client_dominance_fine_grid(self):
        losses = [0.0, 4.5]
        _, best = entropy_max_bruteforce(losses, 1.0, 1e-3, 5e-3)
        assert softmax_entropy(losses, 1.0) >= best - 1e-4

    def test_three_client_dominance_random(self):
        rng = SeededRng(6)
        for tau in (0.5, 1.0, 5.0):
            for _ in range(5):
                losses = rng.uniforms(3)
                _, best = entropy_max_bruteforce(losses, tau, 0.01, 0.02)
                assert softmax_entropy(losses, tau) >= best - 1e-3

    def test_infeasible_slack_raises(self):
        # f_target = e/(1+e) ~ 0.731 sits strictly between the 0.25-step
        # grid dots, so a hairline slack leaves no feasible point.
        with pytest.raises(InfeasibleGridError):
            entropy_max_bruteforce([0.0, 1.0], 1.0, 0.25, 1e-9)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            entropy_max_bruteforce([1.0, 2.0], 1.0, 0.7, 0.02)
        with pytest.raises(ValueError):
            entropy_max_bruteforce([1.0, 2.0, 3.0, 4.0], 1.0, 0.01, 0.02)


class TestEvaluateFairness:
    def _classifier(self, rng, label):
        feats = rng.normals(16).reshape(8, 2) + 5.0 * (2 * label - 1)
        labels = np.full(8, label, dtype=np.int64)
        return ClassifierObjective(feats, labels, 2)

    def test_perfect_classifier(self):
        rng = SeededRng(7)
        objs = [self._classifier(rng, 0), self._classifier(rng, 1)]
        # W columns score the classes by feature sum: class 1 wins iff
        # f0 + f1 > 0, which separates the +/-5 blobs decisively.
        x = np.array([-10.0, 10.0, -10.0, 10.0, 0.0, 0.0])
        report = evaluate_fairness(stack_objectives(objs), x, 5.0)
        assert report.accuracy_variance == 0.0
        assert report.worst_tail_accuracy == 1.0
        assert report.best_tail_accuracy == 1.0
        assert report.global_accuracy == 1.0

    def test_known_loss_variance(self):
        stack = stack_objectives([QuadraticObjective(1.0, 0.0), QuadraticObjective(1.0, 2.0)])
        report = evaluate_fairness(stack, np.array([2.0]), 5.0)
        assert stack.evaluate(np.array([2.0]))[0].tolist() == [4.0, 0.0]
        assert report.loss_variance == 4.0
        assert np.isnan(report.global_accuracy)

    def test_tail_ordering(self):
        # Equal-size clients: the sample-weighted global accuracy sits
        # between the worst-k and best-k tail means for any k <= 50.
        rng = SeededRng(8)
        objs = [self._classifier(rng, int(rng.integers(1, 2)[0])) for _ in range(12)]
        x = rng.normals(objs[0].dimension)
        report = evaluate_fairness(stack_objectives(objs), x, 25.0)
        assert report.worst_tail_accuracy <= report.global_accuracy + 1e-12
        assert report.global_accuracy <= report.best_tail_accuracy + 1e-12

    @given(
        levels=st.lists(st.integers(0, 6), min_size=1, max_size=80),
        k_percent=st.sampled_from([0.5, 5.0, 12.5, 33.0, 50.0, 99.0, 100.0]),
    )
    @example(levels=[6, 0, 6, 3, 0, 6, 1, 6, 6, 6, 6, 6], k_percent=50.0)
    @settings(max_examples=200, deadline=None)
    def test_both_tails_are_tail_means_bit_for_bit(self, levels, k_percent):
        # accuracies in sevenths tie often, and their sums depend on the
        # order they are added in
        accs = np.array(levels) / 7.0
        stack = SimpleNamespace(
            evaluate=lambda x: (np.zeros(accs.size), accs), sizes=np.ones(accs.size, np.int64)
        )
        report = evaluate_fairness(stack, np.zeros(1), k_percent)
        tails = {"worst": report.worst_tail_accuracy, "best": report.best_tail_accuracy}
        for side, got in tails.items():
            want = tail_mean(accs, k_percent, side)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), side
