"""Objective families: analytic losses/gradients against independent oracles."""

from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from entrofed import stacks
from entrofed.core import SeededRng
from entrofed.datagen import LabeledDataset
from entrofed.objectives import (
    ClassifierObjective,
    GlrObjective,
    QuadraticObjective,
    finite_diff_gradient,
    glr_least_squares,
)
from entrofed.stacks import (
    STACK_BLOCK_ROWS,
    ObjectiveStack,
    _bind_class_major,
    _bind_class_major_hits,
    _bind_log_softmax,
    _bind_probs_minus_labels,
    _bind_target_log_probs,
    _column_sum_plan,
    _run,
    classifier_stacks,
    stack_objectives,
)


def random_classifier(rng, hidden=0, activation="identity", n=30, d=4, c=3):
    feats = rng.normals(n * d).reshape(n, d)
    labels = rng.integers(n, c)
    return ClassifierObjective(feats, labels, c, hidden, activation)


def random_glr(rng, n=8, d=3):
    design = rng.normals(n * d).reshape(n, d)
    targets = rng.normals(n)
    return GlrObjective(design, targets)


def plan_gradients(stack, xs, subsets=None):
    """Each step's gradients of a step plan at per-client parameters
    ``xs``, in objective order, bound as local SGD binds it: to the stack in
    pass order. ``subsets[k]`` holds the sample indices of the objectives
    with more than r samples at step k, in objective order, as a (K, b, r)
    array; without it, the plan runs one full-set step."""
    ordered, order = stack.in_pass_order()
    xs = np.array(xs, dtype=np.float64)[order]
    out = np.full_like(xs, np.nan)
    steps = 1
    if subsets is not None:
        steps, _, r = subsets.shape
        takers = np.flatnonzero(stack.sizes > r)
        subsets = subsets[:, np.searchsorted(takers, order[ordered.sizes > r])]
    plan = ordered.step_plan(xs, out, subsets)
    back = np.argsort(order)
    grads = []
    for k in range(steps):
        plan(k)
        grads.append(out[back])
    return np.array(grads)


class TestQuadratic:
    def test_loss_values(self):
        assert QuadraticObjective(2, 2).loss([0.0]) == 8.0
        assert QuadraticObjective(0.5, -4).loss([-1.0]) == 4.5

    def test_gradient_values(self):
        assert QuadraticObjective(2, 2).gradient([0.0])[0] == -8.0
        assert QuadraticObjective(0.5, -4).gradient([0.0])[0] == 4.0

    def test_rejects_flat_curvature(self):
        with pytest.raises(ValueError):
            QuadraticObjective(0.0, 1.0)

    def test_k_step_closed_form(self):
        # Oracle for local SGD: K full-batch steps land on c + (1-2as)^K (x-c).
        a, c, s = 0.7, -1.3, 0.11
        obj = QuadraticObjective(a, c)
        x = np.array([2.0])
        for _ in range(6):
            x = x - s * obj.gradient(x)
        expected = c + (1 - 2 * a * s) ** 6 * (2.0 - c)
        assert x[0] == pytest.approx(expected, abs=1e-12)


class TestFiniteDiff:
    def test_exact_for_quadratic(self):
        obj = QuadraticObjective(1, 0)
        fd = finite_diff_gradient(obj, np.array([3.0]), step=1e-5)
        assert fd[0] == pytest.approx(6.0, abs=1e-6)

    def test_zero_at_minimizer(self):
        obj = QuadraticObjective(2.5, 1.0)
        fd = finite_diff_gradient(obj, np.array([1.0]), step=1e-5)
        assert abs(fd[0]) < 1e-7

    def test_oracle_self_check_on_glr(self):
        rng = SeededRng(101)
        obj = random_glr(rng)
        x = rng.normals(3)
        fd = finite_diff_gradient(obj, x)
        analytic = obj.gradient(x)
        assert np.abs(fd - analytic).max() < 1e-6 * (1 + np.abs(analytic).max())


def _gradcheck(obj, x, subset=None):
    analytic = obj.gradient(x, subset)
    fd = finite_diff_gradient(obj, x, subset)
    return np.abs(analytic - fd).max() / (1.0 + np.abs(analytic).max())


class TestGradientCorrectness:
    """Every family matches central finite differences on random probes."""

    def test_quadratic_family(self):
        rng = SeededRng(7)
        worst = 0.0
        for _ in range(200):
            obj = QuadraticObjective(0.1 + 3 * rng.uniform(), rng.uniform(-5, 5))
            worst = max(worst, _gradcheck(obj, rng.normals(1) * 3))
        assert worst < 1e-5

    def test_glr_family(self):
        rng = SeededRng(8)
        worst = 0.0
        for _ in range(200):
            obj = random_glr(rng)
            worst = max(worst, _gradcheck(obj, rng.normals(3)))
        assert worst < 1e-5

    @pytest.mark.parametrize(
        "hidden,activation", [(0, "identity"), (6, "tanh"), (6, "relu")]
    )
    def test_classifier_family(self, hidden, activation):
        rng = SeededRng(9)
        worst = 0.0
        for _ in range(200):
            obj = random_classifier(rng, hidden, activation)
            x = 0.5 * rng.normals(obj.dimension)
            worst = max(worst, _gradcheck(obj, x))
        assert worst < 1e-5

    def test_subset_gradients_match(self):
        rng = SeededRng(10)
        obj = random_classifier(rng, 4, "tanh", n=25)
        x = 0.3 * rng.normals(obj.dimension)
        subset = np.array([0, 3, 7, 11, 19])
        assert _gradcheck(obj, x, subset) < 1e-5


class TestGlr:
    def test_perfect_fit_has_zero_loss(self):
        rng = SeededRng(11)
        design = rng.normals(24).reshape(8, 3)
        w = rng.normals(3)
        obj = GlrObjective(design, design @ w)
        assert obj.loss(w) == pytest.approx(0.0, abs=1e-24)

    def test_convexity(self):
        rng = SeededRng(12)
        obj = random_glr(rng, n=10, d=4)
        for _ in range(200):
            x, y = rng.normals(4), rng.normals(4)
            lam = rng.uniform(0.01, 0.99)
            mix = obj.loss(lam * x + (1 - lam) * y)
            assert mix <= lam * obj.loss(x) + (1 - lam) * obj.loss(y) + 1e-12

    def test_least_squares_identity_design(self):
        y = np.array([3.0, -1.0, 0.5])
        obj = GlrObjective(np.eye(3), y)
        assert glr_least_squares(obj) == pytest.approx(y, abs=1e-12)

    def test_least_squares_scaled_orthogonal_design(self):
        # X^T X = n b I collapses the estimator to X^T y / (n b).
        rng = SeededRng(13)
        n, d, b = 12, 4, 2.5
        q, _ = np.linalg.qr(rng.normals(n * d).reshape(n, d))
        design = q * np.sqrt(n * b)
        y = rng.normals(n)
        expected = design.T @ y / (n * b)
        assert glr_least_squares(GlrObjective(design, y)) == pytest.approx(expected, abs=1e-10)

    def test_noiseless_recovery_and_residual(self):
        rng = SeededRng(14)
        design = rng.normals(60).reshape(15, 4)
        w_true = rng.normals(4)
        y = design @ w_true
        obj = GlrObjective(design, y)
        w_hat = glr_least_squares(obj)
        assert np.abs(w_hat - w_true).max() < 1e-9
        grad_norm = np.linalg.norm(obj.gradient(w_hat))
        assert grad_norm < 1e-8 * (1 + np.linalg.norm(y))

    def test_rank_deficient_design_raises(self):
        design = np.ones((6, 2))  # identical columns
        with pytest.raises(np.linalg.LinAlgError):
            glr_least_squares(GlrObjective(design, np.ones(6)))

    @pytest.mark.filterwarnings("error")
    def test_rejects_a_design_without_rows(self):
        # as a classifier's features: an empty client has no mean loss
        for design in (np.zeros((0, 4)), np.zeros(4), np.zeros((1, 2, 2))):
            with pytest.raises(ValueError, match="nonempty n x d"):
                GlrObjective(design, np.zeros(len(design)))
        assert GlrObjective(np.zeros((1, 4)), np.zeros(1)).loss(np.zeros(4)) == 0.0


class TestClassifier:
    def test_loss_at_zero_params_is_log_c(self):
        rng = SeededRng(15)
        for c in (2, 5, 10):
            obj = random_classifier(rng, c=c, n=20)
            assert obj.loss(np.zeros(obj.dimension)) == pytest.approx(np.log(c), abs=1e-12)

    def test_accuracy_bounds(self):
        rng = SeededRng(16)
        obj = random_classifier(rng, n=40)
        acc = obj.accuracy(rng.normals(obj.dimension))
        assert 0.0 <= acc <= 1.0

    def test_descent_on_separable_blob(self):
        # Two well-separated classes: full-batch steps at a small rate must
        # decrease the loss monotonically.
        rng = SeededRng(17)
        n = 30
        feats = np.vstack(
            [rng.normals(n * 2).reshape(n, 2) + [4, 0], rng.normals(n * 2).reshape(n, 2) - [4, 0]]
        )
        labels = np.array([0] * n + [1] * n)
        obj = ClassifierObjective(feats, labels, 2)
        x = np.zeros(obj.dimension)
        prev = obj.loss(x)
        for _ in range(50):
            x = x - 0.1 * obj.gradient(x)
            cur = obj.loss(x)
            assert cur <= prev + 1e-9
            prev = cur
        assert obj.accuracy(x) == 1.0

    def test_dimension_layout(self):
        rng = SeededRng(18)
        soft = random_classifier(rng, 0, "identity", n=10, d=5, c=4)
        assert soft.dimension == 5 * 4 + 4
        mlp = random_classifier(rng, 8, "tanh", n=10, d=5, c=4)
        assert mlp.dimension == 5 * 8 + 8 + 8 * 4 + 4

    def test_mlp_init_needs_rng(self):
        rng = SeededRng(19)
        mlp = random_classifier(rng, 8, "tanh")
        with pytest.raises(ValueError):
            mlp.init_params()
        x0 = mlp.init_params(SeededRng(1))
        assert x0.shape == (mlp.dimension,)

    def test_rejects_bad_construction(self):
        rng = SeededRng(20)
        feats = rng.normals(12).reshape(6, 2)
        labels = rng.integers(6, 2)
        with pytest.raises(ValueError):
            ClassifierObjective(feats, labels, 2, hidden=100)
        with pytest.raises(ValueError):
            ClassifierObjective(feats, labels, 2, hidden=0, activation="tanh")
        with pytest.raises(ValueError):
            ClassifierObjective(feats, np.array([0, 1, 2, 0, 1, 0]), 2)

    def test_a_hidden_layer_rejects_the_identity(self):
        # it was accepted, and then ran a relu layer
        rng = SeededRng(20)
        feats, labels = rng.normals(12).reshape(6, 2), rng.integers(6, 2)
        with pytest.raises(ValueError, match="hidden layer needs the tanh or relu"):
            ClassifierObjective(feats, labels, 2, hidden=4)
        for activation in ("tanh", "relu"):
            assert ClassifierObjective(feats, labels, 2, 4, activation).activation == activation

    def test_dimension_mismatch_raises(self):
        rng = SeededRng(21)
        obj = random_classifier(rng)
        with pytest.raises(ValueError, match="shape"):
            obj.loss(np.zeros(obj.dimension + 1))


# Rows of logits that break a careless class-axis kernel: tied maxima,
# signed zeros tied at the max, infinities, NaN, and gaps past the point
# (about 745) where exp underflows to zero.
EDGE_ROWS = np.array(
    [
        [3.0, 3.0, 1.0, -2.0],
        [-0.0, 0.0, -1.0, -0.0],
        [0.0, -0.0, -1.0, -800.0],
        [-0.0, -0.0, -0.0, -0.0],
        [np.inf, 1.0, 2.0, np.inf],
        [-np.inf, -np.inf, -np.inf, -np.inf],
        [-np.inf, 0.0, 1.0, -np.inf],
        [np.nan, 1.0, 2.0, -0.0],
        [1.0, np.nan, np.inf, -np.inf],
        [0.0, -746.0, -1000.0, -745.5],
        [900.0, 0.0, 899.0, -900.0],
        [-1e300, 1e300, 0.0, -0.0],
    ]
)


@st.composite
def class_axis_arrays(draw):
    """(r, C) rows or (c, r, C) stacks of edge values and ordinary floats.
    The class axis takes each of _column_sum_plan's branches: below 8
    terms, up to 128, and above. Hypothesis fills most of a large array
    with one value, so entries are taken from it, from normal draws at a
    spread where the sum's order shows, or from a mix of the two."""
    edges = st.sampled_from([0.0, -0.0, 1.0, np.inf, -np.inf, np.nan, -746.0, 800.0])
    classes = st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 300))
    shape = (*draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=5)), draw(classes))
    drawn = draw(hnp.arrays(np.float64, shape, elements=st.one_of(edges, st.floats())))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = rng.normal(0.0, draw(st.sampled_from([1.0, 30.0])), shape)
    return np.where(rng.random(shape) < draw(st.sampled_from([1.0, 0.5, 0.0])), drawn, spread)


def same_bits(a, b):
    """Equal bit patterns, so the sign of a zero counts; NaN matches NaN
    whatever its sign and payload. Numpy's max over a short last axis
    returns the default NaN where an elementwise maximum keeps its input's,
    and a NaN's bits also differ between numpy's row sum and
    _column_sum_plan's, whose finite sums and zeros match it bit for bit."""
    nan = np.isnan(a)
    return (
        a.shape == b.shape
        and np.array_equal(nan, np.isnan(b))
        and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))
    )


def class_major(logits):
    """(rows, z, rowmax, exps): the logits' (rows, classes) view and new
    arrays for the class-major kernels to write, as a pass's arena holds."""
    rows = logits.reshape(-1, logits.shape[-1])
    return rows, np.empty(rows.shape[::-1]), np.empty(len(rows)), np.empty(rows.shape[::-1])


class TestClassAxisKernels:
    """The stacks' bound kernels over the class axis against the plain
    numpy forms that ClassifierObjective computes, bit for bit, run once on
    new arrays from (r, C) rows and (c, r, C) stacks."""

    @given(logits=class_axis_arrays())
    @example(logits=EDGE_ROWS)
    @example(logits=EDGE_ROWS.reshape(3, 4, 4))
    @settings(max_examples=200, deadline=None)
    def test_log_softmax_is_the_max_reduction_form(self, logits):
        with np.errstate(all="ignore"):
            z = logits - logits.max(axis=-1, keepdims=True)
            want = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
            rows, got, rowmax, exps = class_major(logits)
            _run(_bind_log_softmax(rows, got, rowmax, exps))
        assert same_bits(got.T.reshape(logits.shape), want)

    @given(logits=class_axis_arrays(), seed=st.integers(0, 2**32 - 1))
    @example(logits=EDGE_ROWS, seed=0)
    @settings(max_examples=200, deadline=None)
    def test_target_log_probs_are_the_log_softmax_at_the_labels(self, logits, seed):
        rows, z, rowmax, exps = class_major(logits)
        labels = np.random.default_rng(seed).integers(0, rows.shape[1], len(rows))
        at, picked = labels * len(rows) + np.arange(len(rows)), np.empty(len(rows))
        with np.errstate(all="ignore"):
            shifted = rows - rows.max(axis=-1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            _run(_bind_class_major(rows, z, rowmax, exps))
            _run(_bind_target_log_probs(z, exps[0], at, picked))
        assert same_bits(picked, logp[np.arange(len(rows)), labels])

    # 12 columns, one of each kind of term below; 1, 16 and 160 columns,
    # the row widths of the class axis and of the means' segments, around
    # numpy's vector loop lengths; 2048, a pass's rows
    @pytest.mark.parametrize("width", [1, 12, 16, 160, 2048])
    def test_column_sums_are_numpys_row_sums(self, width):
        # Every length up to 300 takes each branch of numpy's pairwise sum
        # at and around its branch points (8, 128 and the halves' multiples
        # of 8); at 2048 columns, the lengths at and around them. The
        # reference is the C-ordered transpose: numpy sums the rows of the
        # a.T view itself in memory order, one term at a time.
        rng = np.random.default_rng(18)

        def terms(n):
            # column j holds terms of kind (j + n) % 12, so that one column
            # takes every kind as n runs
            a = rng.standard_normal((n, width)) * 10.0 ** rng.uniform(-8.0, 8.0, (n, width))
            kind = (np.arange(width) + n) % 12
            a[:, kind == 1] = -0.0
            a[:, kind == 2] = 0.0
            a[:, kind == 3] = rng.choice([0.0, -0.0], (n, 1))
            softmax = (kind == 4) | (kind == 5)  # softmax terms, 0s too
            a[:, softmax] = np.exp(rng.uniform(-800.0, 10.0, (n, softmax.sum())))
            edges = (kind >= 6) & (rng.random((n, width)) < 0.1)
            a[edges] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], edges.sum())
            return a

        lengths = range(1, 301)
        if width > 160:
            lengths = [*range(1, 18), 127, 128, 129, 135, 136, 137, 143, 255, 256, 257, 271, 300]
        for n in lengths:
            # A pass plans its sums once, over views of its arena, and runs
            # them on new contents each time: no run keeps anything of an
            # earlier one.
            bound = np.empty((n, width))
            adds = _column_sum_plan(bound)
            for a in (terms(n), terms(n)):
                bound[...] = a
                with np.errstate(invalid="ignore"):
                    _run(adds)
                    want = np.ascontiguousarray(a.T).sum(axis=-1)
                assert same_bits(bound[0], want), n
                # numpy's sum starts from +0.0
                assert not np.signbit(bound[0, (np.arange(width) + n) % 12 == 1]).any(), n

    @given(logp=class_axis_arrays(), seed=st.integers(0, 2**32 - 1))
    @example(logp=EDGE_ROWS, seed=0)
    @example(logp=EDGE_ROWS.reshape(3, 4, 4), seed=1)
    @settings(max_examples=200, deadline=None)
    def test_probs_minus_labels_is_the_one_hot_form(self, logp, seed):
        labels = np.random.default_rng(seed).integers(0, logp.shape[-1], logp.shape[:-1])
        # a step reads its log-softmax through the transpose of its
        # class-major copy: a strided (rows, classes) view
        rows = logp.reshape(-1, logp.shape[-1])
        strided = np.ascontiguousarray(rows.T).T
        at = np.arange(len(rows)) * rows.shape[1] + labels.ravel()
        got = np.empty(rows.shape)
        with np.errstate(all="ignore"):
            want = np.exp(logp) - np.eye(logp.shape[-1])[labels]
            _run(_bind_probs_minus_labels(strided, at, got, np.empty(len(rows))))
        assert same_bits(got.reshape(logp.shape), want)


    @given(
        logits=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 30), st.integers(2, 12)),
            elements=st.integers(-2, 2).map(float),
        ),
        bias=st.lists(st.integers(-2, 2).map(float), min_size=12, max_size=12),
        odd=st.sampled_from([0.0, 0.05, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_class_major_hits_are_the_argmax_hits(self, logits, bias, odd, seed):
        # Small integers tie often; some entries become infinities or NaN.
        rng = np.random.default_rng(seed)
        odd_at = rng.random(logits.shape) < odd
        logits[odd_at] = rng.choice([np.inf, -np.inf, np.nan], int(odd_at.sum()))
        labels = rng.integers(0, logits.shape[1], len(logits))
        self.assert_hits(logits, labels, np.array(bias[: logits.shape[1]]))

    def test_class_major_hits_take_the_first_of_tied_maxima(self):
        logits = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0], [2.0, 0.0, 2.0], [3.0, 1.0, 3.0]])
        hits = self.assert_hits(logits, np.array([1, 1, 2, 0]), np.array([0.0, 0.0, 0.0]))
        assert hits.tolist() == [0.0, 1.0, 0.0, 1.0]
        # a bias that makes the tie
        hits = self.assert_hits(np.array([[0.0, 1.0, 0.0]]), np.array([1]), np.array([1.0, 0.0, -1.0]))
        assert hits.tolist() == [0.0]

    def test_class_major_hits_leave_non_finite_row_maxima_to_argmax(self):
        logits = np.array([[np.inf, 1.0, 2.0], [np.nan, 1.0, 2.0], [-np.inf] * 3, [1.0, 2.0, 0.0]])
        assert self.assert_hits(logits, np.array([0, 0, 0, 1]), np.zeros(3)) is None

    @staticmethod
    def assert_hits(logits, labels, bias):
        """The class-major hits of logits that leave out ``bias``, against
        argmax(logits + bias) == labels; None where a row max of the biased
        logits is not finite, as the kernel returns."""
        rows = len(logits)
        with np.errstate(all="ignore"):
            biased = logits + bias
            want = biased.argmax(axis=1) == labels
            _, z, rowmax, exps = class_major(logits)
            _run(_bind_class_major(logits, z, rowmax, exps, bias[:, None]))
            assert np.array_equal(rowmax, biased.max(axis=1), equal_nan=True)
            at = labels * rows + np.arange(rows)
            got = _bind_class_major_hits(
                z, rowmax, at, labels, np.empty(rows), np.empty(z.shape, bool)
            )()
        if not np.isfinite(biased.max(axis=1)).all():
            assert got is None
            return None
        assert got.tolist() == want.astype(float).tolist()
        return got


class TestClientMeans:
    """A pass's per-client means: numpy's reduce over each client's own
    rows, divided by n, bit for bit but for a NaN's sign and payload, on
    both sides of the rule (``_sums_by_columns``) by which a segment of c
    clients of n rows sums down the columns of its transpose instead."""

    RUNS = st.lists(st.tuples(st.integers(1, 600), st.integers(1, 20)), min_size=1, max_size=3)

    @given(runs=RUNS, cap=st.sampled_from([64, 2048, 20480]), seed=st.integers(0, 2**32 - 1))
    # wide-softmax's test and train sides; segments of 224 and 223 clients
    # of 7 rows, on either side of the rule
    @example(runs=[(1000, 2)], cap=2048, seed=0)
    @example(runs=[(1000, 8)], cap=2048, seed=1)
    @example(runs=[(447, 7)], cap=224 * 7, seed=2)
    @settings(max_examples=60, deadline=None)
    def test_means_are_each_clients_reduce_over_its_rows(self, runs, cap, seed):
        rng = np.random.default_rng(seed)
        sizes = np.repeat([n for _, n in runs], [c for c, _ in runs])
        sizes.sort()
        values = rng.standard_normal(sizes.sum()) * 10.0 ** rng.uniform(-8.0, 8.0, sizes.sum())
        edges = rng.random(sizes.size) < 0.2  # clients whose rows hold edge values
        rows = np.repeat(edges, sizes)
        values[rows] = rng.choice([0.0, -0.0, -0.0, np.inf, -np.inf, np.nan, 1.5], rows.sum())
        starts = np.cumsum(sizes) - sizes
        with np.errstate(invalid="ignore"):
            want = np.array([np.add.reduce(values[a : a + n]) / n for a, n in zip(starts, sizes)])
            got = np.empty(sizes.size)
            for p in stacks._passes(sizes, cap):
                picked = values[p.rows].copy()
                parts = stacks._segment_views(picked, p.segments, False)
                _run(stacks._mean_calls(p, parts, got[p.clients]))
        assert same_bits(got, want)

    @given(
        runs=RUNS,
        classes=st.integers(2, 4),
        odd=st.sampled_from([0.0, 0.05, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(runs=[(1000, 2)], classes=3, odd=0.0, seed=0)
    @example(runs=[(300, 6), (40, 3)], classes=4, odd=0.0, seed=3)
    @example(runs=[(300, 6), (40, 3)], classes=4, odd=0.3, seed=4)
    @settings(max_examples=20, deadline=None)
    def test_telemetry_means_are_each_clients_own(self, runs, classes, odd, seed):
        # A client's loss is np.mean of its rows' losses, and its accuracy
        # that of its hits: np.add.reduce over its own rows, over n. Features
        # of +-1 and parameters of +-60 make rows certain of their label (a
        # loss of -0.0) or of another (a large loss), and normal parameters
        # losses whose sum's order sets its last bits; infinite and NaN
        # parameters make losses of inf and NaN.
        rng = np.random.default_rng(seed)
        sizes = np.repeat([n for _, n in runs], [c for c, _ in runs])
        objs = [
            ClassifierObjective(
                rng.choice([-1.0, 1.0], (n, 2)), rng.integers(0, classes, n), classes, 0, "identity"
            )
            for n in sizes
        ]
        d = objs[0].dimension
        x = np.where(rng.random(d) < 0.3, 60.0, 1.0) * rng.normal(0.0, 1.0, d)
        odd_at = rng.random(x.size) < odd
        x[odd_at] = rng.choice([np.inf, -np.inf, np.nan], int(odd_at.sum()))
        stack = stack_objectives(objs)
        with np.errstate(all="ignore"):
            losses, accuracies = stack.evaluate(x)
            train_losses = stack.losses(x)
            want = np.array([o.loss(x) for o in objs]), np.array([o.accuracy(x) for o in objs])
        assert same_bits(losses, want[0]) and same_bits(train_losses, want[0])
        assert same_bits(accuracies, want[1])

# family -> factory(rng, n) of one client objective with n samples
STACK_FAMILIES = {
    "quadratic": lambda rng, n: QuadraticObjective(0.1 + 3 * rng.uniform(), rng.uniform(-5, 5)),
    "glr": lambda rng, n: random_glr(rng, n=n, d=3),
    "softmax": lambda rng, n: random_classifier(rng, n=n, d=4, c=3),
    "mlp-tanh": lambda rng, n: random_classifier(rng, 5, "tanh", n=n, d=4, c=3),
    "mlp-relu": lambda rng, n: random_classifier(rng, 5, "relu", n=n, d=4, c=3),
}
# 8 classes, the fewest that the log-softmax's row sum adds as 8 partial
# sums, the workloads' 10 classes, and 130, which take that sum through
# _column_sum_plan's 8-term and halving branches.
WIDE_STACK_FAMILIES = {
    "softmax-c8": lambda rng, n: random_classifier(rng, n=n, d=4, c=8),
    "softmax-c10": lambda rng, n: random_classifier(rng, n=n, d=4, c=10),
    "mlp-tanh-c10": lambda rng, n: random_classifier(rng, 5, "tanh", n=n, d=4, c=10),
    "softmax-c130": lambda rng, n: random_classifier(rng, n=n, d=4, c=130),
}


class TestStackedEvaluation:
    """The stacked evaluator against per-client loss/accuracy/gradient:
    one-pass family stacks for GLR and classifiers, the loop for quadratics.
    At one parameter vector, ``evaluate`` is the test pass (losses and
    accuracies) and ``losses`` the train pass; ``gradients`` there gives the
    fair-angle branch's start gradients."""

    @pytest.mark.parametrize("family", sorted(STACK_FAMILIES))
    @given(
        sizes=st.lists(
            st.one_of(st.integers(1, 4), st.integers(1, 128)), min_size=1, max_size=40
        ),
        block=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    # At the real block size, clients of 8 samples fill several segments,
    # and one client is larger than a pass, in every family. Drawn cases
    # take small blocks, so that few samples span many passes.
    @example(sizes=[8] * (STACK_BLOCK_ROWS * 10 // 24 + 1) + [1] * 300, block=STACK_BLOCK_ROWS, seed=1)
    @example(sizes=[3, 1, 4 * STACK_BLOCK_ROWS, 1], block=STACK_BLOCK_ROWS, seed=2)
    @settings(max_examples=40, deadline=None)
    def test_matches_per_client_calls(self, family, sizes, block, seed):
        self.check_matches_per_client_calls(family, sizes, block, seed)

    @pytest.mark.parametrize("family", sorted(WIDE_STACK_FAMILIES))
    @given(
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=12),
        block=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(sizes=[8] * 330 + [3, 1, 700], block=STACK_BLOCK_ROWS, seed=3)
    @settings(max_examples=8, deadline=None)
    def test_matches_per_client_calls_at_wide_class_axes(self, family, sizes, block, seed):
        self.check_matches_per_client_calls(family, sizes, block, seed)

    @staticmethod
    def check_matches_per_client_calls(family, sizes, block, seed):
        rng = SeededRng(seed)
        objs = [{**STACK_FAMILIES, **WIDE_STACK_FAMILIES}[family](rng, n) for n in sizes]
        x = 0.5 * rng.normals(objs[0].dimension)
        with mock.patch.object(stacks, "STACK_BLOCK_ROWS", block):
            stack = stack_objectives(objs)
            assert (type(stack) is ObjectiveStack) == (family == "quadratic")
            losses, accuracies = stack.evaluate(x)
            train_losses = stack.losses(x)
            gradients = stack.gradients(x)
        if family != "quadratic":
            # the pass cap: the block for GLR; for classifiers, the block of
            # 10-class rows over the wider of the classes and the hidden width
            cap = {
                "glr": block,
                "softmax": block * 10 // 3,
                "softmax-c8": block * 10 // 8,
                "softmax-c10": block,
                "mlp-tanh-c10": block,
                "softmax-c130": max(1, block * 10 // 130),
            }.get(family, block * 10 // 5)
            assert stack._cap == cap
            # a segment holds up to max(1, cap // n) clients of n samples
            runs = Counter(sizes)
            segments = [s for p in stack._chunks for s in p.segments]
            assert len(segments) == sum(-(-c // max(1, cap // n)) for n, c in runs.items())
            # whole segments fill each pass up to the cap, or one segment
            for p in stack._chunks:
                rows = sum(c * n for *_, c, n in p.segments)
                assert p.rows.stop - p.rows.start == rows and (rows <= cap or len(p.segments) == 1)
            if block == STACK_BLOCK_ROWS:
                assert len(segments) > len(runs) or max(sizes) > cap

        want = [o.loss(x) for o in objs]
        assert np.array_equal(losses, want) and np.array_equal(train_losses, want)
        if family in ("quadratic", "glr"):
            assert np.isnan(accuracies).all()
        else:
            assert np.array_equal(accuracies, [o.accuracy(x) for o in objs])
        # at the shared vector too, whatever the pass layout
        assert np.array_equal(gradients, [o.gradient(x) for o in objs])
        assert np.array_equal(stack.sizes, [o.full_size for o in objs])
        # At per-client parameters, full sets and one minibatch step, bit for
        # bit and in objective order, whatever order the stack keeps inside.
        xs = 0.5 * rng.normals(len(objs) * objs[0].dimension).reshape(len(objs), -1)
        assert np.array_equal(stack.losses(xs), [o.loss(x) for o, x in zip(objs, xs)])
        assert np.array_equal(stack.gradients(xs), [o.gradient(x) for o, x in zip(objs, xs)])
        r = 1 + seed % 4
        subsets = [rng.permutation(o.full_size)[:r] if o.full_size > r else None for o in objs]
        drawn = np.array([s for s in subsets if s is not None], dtype=np.int64).reshape(1, -1, r)
        want = [o.gradient(x, s) for o, x, s in zip(objs, xs, subsets)]
        assert np.array_equal(plan_gradients(stack, xs, drawn)[0], want)

    @given(
        sizes=st.lists(st.one_of(st.just(1), st.integers(1, 12)), min_size=1, max_size=30),
        shape=st.sampled_from([(4, 0, 3), (1, 0, 3), (3, 5, 4), (3, 1, 4), (1, 6, 2), (2, 3, 10)]),
        block=st.integers(1, 48),
        shared=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # step-major segments of 9 and 12 rows, whose pairwise sums differ
    # from a strided reduction's
    @example(sizes=[9] * 5 + [12] * 3 + [1, 2], shape=(4, 0, 3), block=64, shared=False, seed=5)
    @settings(max_examples=60, deadline=None)
    def test_a_full_set_plan_gives_the_losses_pass(self, sizes, shape, block, shared, seed):
        # A full-batch round takes its end losses from its plan: a forward
        # pass over the plan's own rows, which lie step-major in segments of
        # several clients of several rows unless features or hidden units
        # are one wide, then put back in client-major order for the means.
        d, hidden, classes = shape
        rng = SeededRng(seed)
        activation = "tanh" if hidden else "identity"
        objs = [random_classifier(rng, hidden, activation, n, d, classes) for n in sizes]
        with mock.patch.object(stacks, "STACK_BLOCK_ROWS", block):
            ordered, _ = stack_objectives(objs).in_pass_order()
        xs = 0.5 * rng.normals(ordered.m * ordered.dimension).reshape(ordered.m, -1)
        if shared:
            xs = xs[0]
        plan = ordered.step_plan(xs, np.empty((ordered.m, ordered.dimension)))
        assert plan.losses().tobytes() == ordered.losses(xs).tobytes()
        # the plan reads xs as it is when called, after steps too
        plan(0)
        xs *= 1.5
        assert plan.losses().tobytes() == ordered.losses(xs).tobytes()

    @pytest.mark.parametrize("family", sorted(STACK_FAMILIES))
    def test_a_full_set_plan_gives_the_losses_of_every_family(self, family):
        rng = SeededRng(43)
        objs = [STACK_FAMILIES[family](rng, n) for n in (5, 3, 8, 3, 1, 6)]
        ordered, _ = stack_objectives(objs).in_pass_order()
        xs = 0.5 * rng.normals(ordered.m * ordered.dimension).reshape(ordered.m, -1)
        plan = ordered.step_plan(xs, np.empty_like(xs))
        assert plan.losses().tobytes() == ordered.losses(xs).tobytes()
        # a minibatch plan's rows are not the full sets
        subsets = np.zeros((1, int((ordered.sizes > 2).sum()), 2), dtype=np.int64)
        assert not hasattr(ordered.step_plan(xs, np.empty_like(xs), subsets), "losses")

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_wide_hidden_layer_runs_straddle_passes(self, activation):
        # At 64 hidden units a pass holds 2048 * 10 // 64 = 320 rows. The 31
        # clients of 13 samples make segments of 24 and 7 clients in two
        # passes, and one client of 400 samples outgrows a pass.
        rng = SeededRng(37)
        sizes = [13] * 30 + [5] * 12 + [1, 400, 2, 13, 5]
        objs = [random_classifier(rng, 64, activation, n=n, d=4, c=3) for n in sizes]
        stack = stack_objectives(objs)
        assert stack._cap == 320
        runs = [{n for *_, n in p.segments} for p in stack._chunks]
        assert any(13 in a and 13 in b for a, b in zip(runs, runs[1:]))
        x = 0.5 * rng.normals(objs[0].dimension)
        want = [o.loss(x) for o in objs]
        losses, accuracies = stack.evaluate(x)
        train_losses = stack.losses(x)
        assert np.array_equal(losses, want) and np.array_equal(train_losses, want)
        assert np.array_equal(accuracies, [o.accuracy(x) for o in objs])
        assert np.array_equal(stack.gradients(x), [o.gradient(x) for o in objs])
        xs = 0.5 * rng.normals(len(objs) * objs[0].dimension).reshape(len(objs), -1)
        assert np.array_equal(stack.losses(xs), [o.loss(x) for o, x in zip(objs, xs)])
        assert np.array_equal(stack.gradients(xs), [o.gradient(x) for o, x in zip(objs, xs)])

    def test_classifier_and_glr_losses_are_bitwise_per_client(self):
        # Exact equality is what keeps pinned round CSVs byte-identical: the
        # train pass's losses are the next round's start losses, and the
        # test pass's feed the loss variance.
        rng = SeededRng(30)
        sizes = [1, 1, 2, 7, 7, 7, 33, 300, 2, 1]
        for family in sorted(STACK_FAMILIES):
            objs = [STACK_FAMILIES[family](rng, n) for n in sizes]
            x = 0.5 * rng.normals(objs[0].dimension)
            stack = stack_objectives(objs)
            test_losses, _ = stack.evaluate(x)
            train_losses = stack.losses(x)
            assert np.array_equal(test_losses, train_losses), family
            assert np.array_equal(train_losses, [o.loss(x) for o in objs]), family

    @pytest.mark.parametrize("model", ["softmax", "relu"])
    @given(
        sizes=st.lists(st.integers(1, 12), min_size=1, max_size=10),
        odd=st.sampled_from([0.0, 0.1, 0.5]),
        block=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
    )
    # ties that decide hits, and non-finite logits in both models; a
    # client whose one row is certain, a loss of exactly 0
    @example(sizes=[4, 6, 1, 3], odd=0.0, block=8, seed=0)
    @example(sizes=[3, 5, 2], odd=0.5, block=24, seed=7)
    @example(sizes=[3, 12, 1, 2, 12, 12], odd=0.5, block=1, seed=2877)
    @settings(max_examples=40, deadline=None)
    def test_accuracies_at_tied_and_non_finite_logits(self, model, sizes, odd, block, seed):
        # Integer features and parameters give integer logits, which tie
        # often, and a relu layer keeps its activations integer; infinite
        # or NaN parameters make infinite and NaN logits. Every pass gets
        # each client's own argmax accuracy and loss.
        rng = np.random.default_rng(seed)
        hidden, activation = (0, "identity") if model == "softmax" else (3, "relu")
        objs = [
            ClassifierObjective(
                rng.integers(-1, 2, (n, 2)).astype(float), rng.integers(0, 4, n), 4, hidden, activation
            )
            for n in sizes
        ]
        x = rng.integers(-1, 2, objs[0].dimension).astype(float)
        odd_at = rng.random(x.size) < odd
        x[odd_at] = rng.choice([np.inf, -np.inf, np.nan], int(odd_at.sum()))
        with mock.patch.object(stacks, "STACK_BLOCK_ROWS", block), np.errstate(all="ignore"):
            losses, accuracies = stack_objectives(objs).evaluate(x)
            want = [o.accuracy(x) for o in objs], np.array([o.loss(x) for o in objs])
        assert accuracies.tolist() == want[0]
        assert same_bits(losses, want[1])

    @pytest.mark.parametrize("loop", [False, True])
    def test_each_pass_returns_only_what_its_caller_reads(self, monkeypatch, loop):
        # The classifier stack makes no per-client call at all; the loop
        # calls accuracy only in the test pass, and neither in the train
        # pass.
        rng = SeededRng(35)
        objs = [random_classifier(rng, n=5), random_classifier(rng, n=6)]
        stack = ObjectiveStack(objs) if loop else stack_objectives(objs)
        calls = []
        for name in ("gradient", "accuracy"):
            original = getattr(ClassifierObjective, name)

            def counted(self, *args, _name=name, _original=original):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(ClassifierObjective, name, counted)
        x = np.zeros(objs[0].dimension)
        losses, accuracies = stack.evaluate(x)
        assert losses.shape == accuracies.shape == (2,)
        assert calls == (["accuracy"] * 2 if loop else [])
        calls.clear()
        assert stack.losses(x).shape == (2,)
        assert calls == []

    @pytest.mark.parametrize("family", sorted(STACK_FAMILIES))
    def test_full_sets_at_own_parameters_are_bitwise_per_client(self, family):
        # Local SGD takes its end losses, and the fair-angle branch its start
        # gradients, through these. The clients of 7 samples fill two
        # blocks, and one client has more samples than a block has rows.
        rng = SeededRng(34)
        sizes = [7] * (STACK_BLOCK_ROWS // 7 + 4) + [1, STACK_BLOCK_ROWS + 44, 2, 1, 7]
        objs = [STACK_FAMILIES[family](rng, n) for n in sizes]
        stack = stack_objectives(objs)
        xs = 0.5 * rng.normals(len(objs) * objs[0].dimension).reshape(len(objs), -1)
        assert np.array_equal(stack.losses(xs), [o.loss(x) for o, x in zip(objs, xs)]), family
        want = [o.gradient(x) for o, x in zip(objs, xs)]
        assert np.array_equal(stack.gradients(xs), want), family

    def test_glr_losses_at_own_parameters_take_no_per_client_call(self, monkeypatch):
        # The x0 train losses and a GLR cohort's end losses come from here.
        rng = SeededRng(36)
        objs = [random_glr(rng, n=n) for n in [5, 1, 5, 9, 2, 5, 1, 40]]
        xs = 0.5 * rng.normals(len(objs) * 3).reshape(len(objs), 3)
        want = [o.loss(x) for o, x in zip(objs, xs)]
        monkeypatch.setattr(GlrObjective, "loss", None)
        with mock.patch.object(stacks, "STACK_BLOCK_ROWS", 10):
            assert np.array_equal(stack_objectives(objs).losses(xs), want)

    @pytest.mark.parametrize("family", [*sorted(STACK_FAMILIES), "softmax-1d"])
    def test_gradients_at_own_parameters_are_bitwise_per_client(self, family):
        # Local SGD steps a cohort through these; a layout of the sample
        # indices that is not C-ordered must not change the BLAS calls.
        make = STACK_FAMILIES.get(family, lambda rng, n: random_classifier(rng, n=n, d=1, c=2))
        rng = SeededRng(32)
        n, m = 9, 4
        objs = [make(rng, n) for _ in range(m)]
        stack = stack_objectives(objs)
        xs = 0.5 * rng.normals(m * objs[0].dimension).reshape(m, -1)
        full = stack.gradients(xs)
        assert np.array_equal(full, [o.gradient(x) for o, x in zip(objs, xs)]), family
        subsets = np.asfortranarray([rng.permutation(n)[:5] for _ in range(m)])
        # quadratics have one sample, fewer than a minibatch: full sets
        takers = stack.sizes > subsets.shape[1]
        got = plan_gradients(stack, xs, subsets[None, takers])[0]
        want = [o.gradient(x, s) for o, x, s in zip(objs, xs, subsets)]
        assert np.array_equal(got, want), family

    @pytest.mark.parametrize("family", sorted(STACK_FAMILIES))
    def test_full_set_gradients_of_mixed_sizes(self, family):
        # Full sets of 5, 3, 8 and 3 samples: one pass of three segments of
        # equal-size clients, and no client reads its neighbours' rows.
        rng = SeededRng(33)
        objs = [STACK_FAMILIES[family](rng, n) for n in (5, 3, 8, 3)]
        stack = stack_objectives(objs)
        xs = 0.5 * rng.normals(4 * objs[0].dimension).reshape(4, -1)
        assert np.array_equal(stack.gradients(xs), [o.gradient(x) for o, x in zip(objs, xs)])
        subsets = np.array([[0, 2], [1, 0], [7, 3], [2, 1]])
        want = [o.gradient(x, s) for o, x, s in zip(objs, xs, subsets)]
        got = plan_gradients(stack, xs, subsets[None, stack.sizes > 2])[0]
        assert np.array_equal(got, want), family

    @pytest.mark.parametrize("family", sorted(STACK_FAMILIES))
    def test_plans_check_takers_when_bound_and_refill_rows_each_step(self, family):
        # of clients of 5, 2, 8 and 1 samples, two have more than 2
        rng = SeededRng(34)
        objs = [STACK_FAMILIES[family](rng, n) for n in (5, 2, 8, 1)]
        ordered, _ = stack_objectives(objs).in_pass_order()
        xs = 0.5 * rng.normals(ordered.m * ordered.dimension).reshape(ordered.m, -1)
        out = np.empty_like(xs)
        takers = int((ordered.sizes > 2).sum())
        with pytest.raises(ValueError, match="more than r samples"):
            ordered.step_plan(xs, out, np.zeros((4, takers + 1, 2), dtype=np.int64))
        if family != "quadratic":
            with pytest.raises(ValueError, match="out of range"):
                ordered.step_plan(xs, out, np.full((4, takers, 2), 5, dtype=np.int64))
            with pytest.raises(ValueError, match="C-ordered"):
                ordered.step_plan(np.asfortranarray(xs), out)
        # each step reads its own rows, in whatever order the steps run
        subsets = np.array(
            [[rng.permutation(int(n))[:2] for n in ordered.sizes if n > 2] for _ in range(4)],
            dtype=np.int64,
        ).reshape(4, takers, 2)
        plan = ordered.step_plan(xs, out, subsets)
        objs = ordered.objectives
        for k in (2, 0, 3, 1, 2):
            rows = iter(subsets[k])
            plan(k)
            want = [
                o.gradient(x, next(rows) if n > 2 else None)
                for o, x, n in zip(objs, xs, ordered.sizes)
            ]
            assert out.tobytes() == np.array(want).tobytes(), (family, k)

    def test_mixed_families_fall_back_to_the_loop(self):
        rng = SeededRng(31)
        objs = [random_classifier(rng, n=5), random_classifier(rng, n=5, d=3)]
        assert type(stack_objectives(objs)) is ObjectiveStack
        # quadratics have no family stack: the loop is exact and cheap
        assert type(stack_objectives([QuadraticObjective(1.0, 0.0)] * 3)) is ObjectiveStack
        objs = [QuadraticObjective(1.0, 0.0), random_glr(rng, n=4, d=1)]
        stack = stack_objectives(objs)
        assert type(stack) is ObjectiveStack
        losses, accuracies = stack.evaluate(np.array([0.5]))
        assert np.array_equal(losses, [o.loss([0.5]) for o in objs])
        assert np.isnan(accuracies).all()
        assert np.array_equal(stack.losses(np.array([0.5])), [o.loss([0.5]) for o in objs])
        assert np.array_equal(stack.gradients(np.array([0.5])), [o.gradient([0.5]) for o in objs])

    @pytest.mark.parametrize("family", sorted(STACK_FAMILIES))
    def test_results_never_alias_the_arena(self, family):
        # A family stack's passes write their temporaries into one arena,
        # which the stacks that take and in_pass_order make of it share.
        # What a public call returns is the caller's: a later pass at
        # another vector leaves it as it was.
        rng = SeededRng(41)
        stack = stack_objectives([STACK_FAMILIES[family](rng, n) for n in (5, 3, 8, 3, 1, 6)])
        cohort = stack.take(np.array([4, 2, 0, 5]))
        ordered, _ = cohort.in_pass_order()
        takers = int((cohort.sizes > 2).sum())

        def results(x):
            # a plan writes into the caller's out, which a later plan at
            # another vector leaves as it was
            xs = x + 0.1 * np.arange(cohort.m)[:, None]
            out = np.empty_like(xs)
            ordered.step_plan(xs, out, np.zeros((1, takers, 2), dtype=np.int64))(0)
            return [
                ordered.step_plan(xs, np.empty_like(xs)).losses(),
                stack.losses(x),
                stack.gradients(x),
                *stack.evaluate(x),
                cohort.losses(xs),
                cohort.gradients(xs),
                ordered.losses(xs),
                ordered.gradients(xs),
                out,
            ]

        first = results(0.5 * rng.normals(stack.dimension))
        kept = [a.copy() for a in first]
        results(0.5 * rng.normals(stack.dimension))
        for a, b in zip(first, kept, strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("first", ["train", "test", "plan"])
    def test_a_federations_sides_share_one_arena(self, first):
        # classifier_stacks builds a federation's train and test sides on
        # one arena, which the cohort's kept full-batch plan shares too.
        # Whichever pass binds first, every pass writes into the same
        # arrays, and what one returns is the caller's, in any order of
        # train losses, test evaluate and the plan's step and losses, at
        # the bytes that stacks of arenas of their own give. A test client
        # outgrows the pass cap, so its pass is the largest: but for the
        # arena's reserve, binding it after the train side would grow
        # arrays that the train side's passes do not see. Each side's
        # clients come in ascending size, as in a federation of equal
        # shards, so that no gather back to client order copies a result.
        rng = SeededRng(44)
        ds = LabeledDataset(rng.normals(500 * 4).reshape(500, 4), rng.integers(500, 3), 3)
        rows = rng.permutation(500)
        sides = [
            (rows[:150], np.array([1, 1, 4, 5] + [6] * 20 + [9])),
            (rows[150:450], np.array([8, 9] + [10] * 20 + [11, 12, 60])),
        ]
        ids = np.array([4, 20, 0, 21, 7])

        with mock.patch.object(stacks, "STACK_BLOCK_ROWS", 24):  # passes of 48 rows
            shared = classifier_stacks(ds, sides, 5, "tanh")
            apart = [classifier_stacks(ds, [side], 5, "tanh")[0] for side in sides]

        def federation(train, test):
            ordered, _ = train.take(ids).in_pass_order()
            xs = np.empty((len(ids), train.dimension))
            out = np.empty_like(xs)
            plan = ordered.step_plan(xs, out)

            def run(x, order):
                got = {}
                xs[...] = x + 0.1 * np.arange(len(ids))[:, None]
                for name in order:
                    if name == "train":
                        got["train"] = train.losses(x)
                    elif name == "test":
                        got["test"], got["accuracies"] = test.evaluate(x)
                    else:
                        plan(0)
                        got["step"], got["plan"] = out.copy(), plan.losses()
                return got

            return run

        orders = {
            "train": [("train", "test", "plan"), ("plan", "test", "train")],
            "test": [("test", "plan", "train"), ("train", "plan", "test")],
            "plan": [("plan", "train", "test"), ("test", "train", "plan")],
        }[first]
        run, alone = federation(*shared), federation(*apart)
        xs = [0.5 * rng.normals(shared[0].dimension) for _ in orders]
        results, kept = [], []
        for x, order in zip(xs, orders):
            results.append(run(x, order))
            kept.append({k: a.copy() for k, a in results[-1].items()})
        views = [s._telemetry[-1].views for s in shared]
        assert np.shares_memory(views[0]["exps"], views[1]["exps"])
        for x, order, got, was in zip(xs, orders, results, kept):
            want = alone(x, order)
            for name, a in got.items():
                assert a.tobytes() == was[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("family", sorted(STACK_FAMILIES))
    def test_in_pass_order_and_a_plan_into_a_given_array(self, family):
        rng = SeededRng(42)
        stack = stack_objectives([STACK_FAMILIES[family](rng, n) for n in (5, 3, 8, 3, 1, 6)])
        xs = 0.5 * rng.normals(stack.m * stack.dimension).reshape(stack.m, -1)
        ordered, order = stack.in_pass_order()
        assert sorted(order.tolist()) == list(range(stack.m))
        if family != "quadratic":
            assert ordered.sizes.tolist() == sorted(stack.sizes.tolist())
        want = stack.gradients(xs)
        assert ordered.gradients(xs[order]).tobytes() == want[order].tobytes()
        assert ordered.losses(xs[order]).tobytes() == stack.losses(xs)[order].tobytes()
        out = np.full_like(xs, np.nan)
        ordered.step_plan(xs[order], out)(0)
        assert out.tobytes() == want[order].tobytes()


class TestStackTake:
    """A round's cohort is ``take`` of the train stack: a gather of the
    picked clients' rows, which must be the stack of their objectives bit
    for bit. A family stack's ``objectives`` are views of its rows."""

    # tied sizes and single-sample clients, picked out of order
    SIZES = [4, 1, 7, 4, 1, 9, 4, 2, 1, 7]
    IDS = [6, 1, 3, 9, 0, 8, 4]

    @pytest.mark.parametrize("family", sorted(STACK_FAMILIES))
    def test_take_is_the_stack_of_the_picked_objectives(self, family):
        rng = SeededRng(38)
        originals = [STACK_FAMILIES[family](rng, n) for n in self.SIZES]
        stack = stack_objectives(originals)
        objs = stack.objectives
        got = stack.take(np.array(self.IDS))
        want = stack_objectives([objs[i] for i in self.IDS])
        assert type(got) is type(want) and got.m == len(self.IDS)
        assert got.sizes.tobytes() == want.sizes.tobytes()
        x = 0.5 * rng.normals(stack.dimension)
        xs = 0.5 * rng.normals(got.m * stack.dimension).reshape(got.m, -1)
        pairs = [
            (got.losses(x), want.losses(x)),
            (got.losses(xs), want.losses(xs)),
            (got.gradients(x), want.gradients(x)),
            (got.gradients(xs), want.gradients(xs)),
            *zip(got.evaluate(x), want.evaluate(x)),
        ]
        r = 2
        drawn = np.array(
            [[rng.permutation(int(n))[:r] for n in got.sizes if n > r] for _ in range(3)],
            dtype=np.int64,
        ).reshape(3, -1, r)
        pairs.append((plan_gradients(got, xs, drawn), plan_gradients(want, xs, drawn)))
        for a, b in pairs:
            assert a.tobytes() == b.tobytes()
        if family != "quadratic":
            assert got.model is stack.model

    @pytest.mark.parametrize("family", sorted(set(STACK_FAMILIES) - {"quadratic"}))
    def test_objectives_are_views_of_the_rows(self, family):
        rng = SeededRng(39)
        originals = [STACK_FAMILIES[family](rng, n) for n in self.SIZES]
        stack = stack_objectives(originals)
        views = stack.objectives
        assert views is not stack.objectives  # made anew on each read
        for original, view in zip(originals, views, strict=True):
            assert type(view) is type(original) and view.dimension == stack.dimension
            for a, b in zip(original._rows(), view._rows()):
                assert a.tobytes() == b.tobytes()
                assert np.shares_memory(b, stack._inputs) or np.shares_memory(b, stack._targets)

    def test_classifier_stack_of_a_split_side(self):
        # client i holds the counts[i] dataset rows that follow those of
        # clients 0..i-1 in indices, as train_test_split_indices gives them
        rng = SeededRng(40)
        ds = LabeledDataset(rng.normals(60 * 4).reshape(60, 4), rng.integers(60, 3), 3)
        counts = np.array(self.SIZES)
        indices = rng.permutation(60)[: counts.sum()]
        (stack,) = classifier_stacks(ds, [(indices, counts)], 5, "tanh")
        ends = np.cumsum(counts)
        clients = [
            ClassifierObjective(ds.features[idx], ds.labels[idx], 3, 5, "tanh")
            for idx in np.split(indices, ends[:-1])
        ]
        want = stack_objectives(clients)
        x = 0.5 * rng.normals(stack.dimension)
        assert stack.sizes.tobytes() == want.sizes.tobytes()
        assert stack.model.full_size == ends[-1]
        for a, b in zip(stack.evaluate(x), want.evaluate(x)):
            assert a.tobytes() == b.tobytes()
        assert stack.gradients(x).tobytes() == want.gradients(x).tobytes()
        # the side's labels are checked once, whatever holds them
        labels = ds.labels.copy()
        labels[indices[-1]] = 3
        bad = SimpleNamespace(features=ds.features, labels=labels, n_classes=3)
        with pytest.raises(ValueError, match="labels out of class range"):
            classifier_stacks(bad, [(indices, counts)])
