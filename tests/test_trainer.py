"""Training rounds: sampling, local SGD, alignment, aggregation, full loops."""

import dataclasses
import math
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entrofed import core, stacks, trainer
from entrofed.aggregation import (
    EbaConfig,
    QfflConfig,
    data_ratio_weights,
    eba_weights,
    qffl_step,
    schedule_tau,
    uniform_weights,
)
from entrofed.analysis import population_variance, tail_mean
from entrofed.core import SeededRng, chi_square_divergence, fair_angle, softmax_temperature
from entrofed.harness import build_federation, parse_config
from entrofed.objectives import (
    ClassifierObjective,
    GlrObjective,
    LocalObjective,
    QuadraticObjective,
)
from entrofed.stacks import stack_objectives
from entrofed.trainer import (
    Federation,
    TrainerConfig,
    aggregate_model_alignment,
    aggregate_plain,
    compute_fair_gradient,
    local_sgd,
    local_sgd_aligned,
    run_round,
    run_training,
    sample_clients,
    server_update,
)

SOFTMAX_0_45_TAU1 = (0.0109869426305931800, 0.9890130573694068200)

# signed zeros, subnormals, values near 1e300 and non-finite values, among
# ordinary ones: what a method form must treat as its wrapper form did
SPECIAL_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-310, 1e-300, 1e300, -1.7e308, math.inf, -math.inf, math.nan]
) | st.floats(-2.0, 2.0)


class FlatObjective(LocalObjective):
    """Zero gradient everywhere; isolates the fair-gradient accumulation."""

    def __init__(self, dim):
        self._dim = dim

    @property
    def dimension(self):
        return self._dim

    @property
    def full_size(self):
        return 1

    def loss(self, x, subset=None):
        return 1.0

    def gradient(self, x, subset=None):
        return np.zeros(self._dim)


def toy_federation():
    return Federation(stack_objectives((QuadraticObjective(2, 2), QuadraticObjective(0.5, -4))))


def quadratic_federation(seed=123, m=10, scale=0.5):
    rng = SeededRng(seed)
    curvatures = 0.3 + 0.5 * rng.uniforms(m)
    centers = scale * (2 * rng.uniforms(m) - 1)
    return Federation(stack_objectives(QuadraticObjective(a, c) for a, c in zip(curvatures, centers)))


def start_losses(federation, x):
    """Every client's train loss at x, as run_round takes them."""
    return np.array([o.loss(x) for o in federation.train.objectives])


class TestSampleClients:
    def test_full_participation(self):
        assert sample_clients(5, 5, SeededRng(0)).tolist() == [0, 1, 2, 3, 4]

    def test_deterministic(self):
        a = sample_clients(20, 7, SeededRng(42))
        b = sample_clients(20, 7, SeededRng(42))
        assert np.array_equal(a, b)

    def test_rejects_oversampling(self):
        with pytest.raises(ValueError):
            sample_clients(3, 4, SeededRng(0))

    def test_single_draw_frequencies(self):
        # 10^4 one-client draws from 10 clients: binomial(10^4, 0.1) says each
        # count lands within 3 sigma = 90 of 1000.
        root = SeededRng(7)
        counts = np.zeros(10, dtype=int)
        for t in range(10_000):
            counts[sample_clients(10, 1, root.derive(101, t))[0]] += 1
        assert counts.min() >= 910 and counts.max() <= 1090


class TestFairGradient:
    def test_equal_losses_average(self):
        g = compute_fair_gradient([np.array([2.0, 0.0]), np.array([0.0, 4.0])], [1.0, 1.0], 0.5)
        assert g == pytest.approx([1.0, 2.0], abs=1e-15)

    def test_basis_vectors_expose_weights(self):
        g = compute_fair_gradient(
            [np.array([1.0, 0.0]), np.array([0.0, 1.0])], [0.0, 4.5], 1.0
        )
        assert g == pytest.approx(SOFTMAX_0_45_TAU1, abs=1e-12)

    def test_single_client_passthrough(self):
        g = compute_fair_gradient([np.array([3.0, -1.0])], [2.0], 1.0)
        assert g == pytest.approx([3.0, -1.0], abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 40), st.sampled_from([1, 2, 3, 8, 81])),
        data=st.data(),
    )
    # 9 rows of one column, which numpy's reduce would sum pairwise, and
    # 4 rows of -0.0, whose sums the loop makes +0.0
    @example(shape=(9, 1), data=None)
    @example(shape=(4, 2), data=None)
    def test_is_the_loop_bit_for_bit(self, shape, data):
        # The reduction against the loop it replaced: from +0.0, w_i * g_i
        # added in row order, with rows of -0.0, signed zeros, infinities,
        # subnormals and values near 1e300 among the entries, and weights of
        # 0, whose products with inf are NaN.
        s, d = shape
        special = [0.0, -0.0, math.inf, -math.inf, 5e-324, -1e300, 1e300]
        rng = SeededRng(sum(shape))
        grads = rng.normals(s * d).reshape(s, d) * 10.0 ** (16 * rng.uniforms(s)[:, None] - 8)
        losses = 3.0 * rng.uniforms(s)
        tau = 0.5
        if data is None:
            grads[:4] = -0.0
        else:
            entries = data.draw(st.lists(st.sampled_from(special), max_size=s * d))
            at = data.draw(st.permutations(range(s * d)))[: len(entries)]
            grads.reshape(-1)[at] = entries
            grads[data.draw(st.lists(st.integers(0, s - 1), max_size=s))] = -0.0
            losses[data.draw(st.lists(st.integers(0, s - 1), max_size=s))] = 800.0
            tau = data.draw(st.sampled_from([0.5, 1.0, 1e-3]))
        with np.errstate(all="ignore"):
            want = np.zeros(d)
            for w, g in zip(eba_weights(losses, tau), grads):
                want += w * g
            got = compute_fair_gradient(grads, losses, tau)
        assert got.tobytes() == want.tobytes()

    def test_dimension_mismatch(self):
        # gradients come as an (s, D) matrix, one row per loss
        for grads in (np.zeros((3, 2)), np.zeros(2)):
            with pytest.raises(ValueError, match="one gradient row per loss"):
                compute_fair_gradient(grads, [1.0, 2.0], 1.0)
        with pytest.raises(ValueError):
            compute_fair_gradient([np.zeros(2), np.zeros(3)], [1.0, 2.0], 1.0)


class TestLocalSgd:
    def test_toy_single_steps(self):
        cohort = stack_objectives([QuadraticObjective(2, 2), QuadraticObjective(0.5, -4)])
        update = local_sgd(cohort, np.zeros(1), 1, 0.25)
        assert update.deltas[0, 0] == 2.0 and update.one_step[0, 0] == 2.0
        assert update.deltas[1, 0] == -1.0
        # one row per client, in cohort order
        assert update.deltas.shape == update.one_step.shape == (2, 1)
        assert update.end_losses.tolist() == [0.0, 4.5]

    def test_one_step_equals_full_delta_at_k1(self):
        cohort = stack_objectives([QuadraticObjective(1.5, 0.7)])
        update = local_sgd(cohort, np.array([3.0]), 1, 0.1)
        assert np.array_equal(update.deltas, update.one_step)

    def test_matches_closed_form_for_k_steps(self):
        a, c, lr, k = 0.8, -2.0, 0.2, 7
        x0 = np.array([1.0])
        update = local_sgd(stack_objectives([QuadraticObjective(a, c)]), x0, k, lr)
        expected = c + (1 - 2 * a * lr) ** k * (x0[0] - c) - x0[0]
        assert update.deltas[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_minibatch_stream_is_seeded(self):
        rng = SeededRng(5)
        feats = rng.normals(60).reshape(30, 2)
        labels = rng.integers(30, 3)
        obj = ClassifierObjective(feats, labels, 3)
        x0 = np.zeros(obj.dimension)
        a = local_sgd(stack_objectives([obj]), x0, 5, 0.1, batch_size=8, rngs=[SeededRng(99)])
        b = local_sgd(stack_objectives([obj]), x0, 5, 0.1, batch_size=8, rngs=[SeededRng(99)])
        assert np.array_equal(a.deltas, b.deltas)
        c = local_sgd(stack_objectives([obj]), x0, 5, 0.1, batch_size=8, rngs=[SeededRng(100)])
        assert not np.array_equal(a.deltas, c.deltas)

    def test_requires_rng_for_minibatches(self):
        rng = SeededRng(6)
        obj = ClassifierObjective(rng.normals(20).reshape(10, 2), rng.integers(10, 2), 2)
        with pytest.raises(ValueError, match="SeededRng"):
            local_sgd(stack_objectives([obj]), np.zeros(obj.dimension), 2, 0.1, batch_size=4)

    def test_rejects_mismatched_cohorts(self):
        obj = QuadraticObjective(1.0, 0.0)
        with pytest.raises(ValueError, match="at least one"):
            local_sgd(stack_objectives([]), np.zeros(1), 1, 0.1)
        with pytest.raises(ValueError, match="dimension"):
            local_sgd(stack_objectives([obj]), np.zeros(2), 1, 0.1)
        with pytest.raises(ValueError):
            local_sgd(stack_objectives([obj, obj]), np.zeros(1), 1, 0.1, rngs=[SeededRng(0)])


class TestLocalSgdAligned:
    def test_alpha_zero_matches_plain(self):
        obj = QuadraticObjective(1.2, 0.5)
        x0 = np.array([2.0])
        plain = local_sgd(stack_objectives([obj]), x0, 4, 0.1)
        aligned = local_sgd_aligned(stack_objectives([obj]), x0, 4, 0.1, 0.0, np.array([9.0]))
        assert np.array_equal(plain.deltas, aligned.deltas)

    def test_alpha_one_ignores_local_data(self):
        obj = QuadraticObjective(3.0, -1.0)
        g_fair = np.array([0.7])
        update = local_sgd_aligned(stack_objectives([obj]), np.array([5.0]), 6, 0.1, 1.0, g_fair)
        assert update.deltas[0, 0] == pytest.approx(-0.1 * 6 * 0.7, abs=1e-12)

    def test_zero_local_gradient_accumulates_fair_share(self):
        obj = FlatObjective(3)
        g_fair = np.array([1.0, -2.0, 0.5])
        update = local_sgd_aligned(stack_objectives([obj]), np.zeros(3), 5, 0.2, 0.5, g_fair)
        assert update.deltas[0] == pytest.approx(-0.2 * 5 * 0.5 * g_fair, abs=1e-15)
        assert update.one_step is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            cohort = stack_objectives([QuadraticObjective(1, 0)])
            local_sgd_aligned(cohort, np.zeros(1), 1, 0.1, 0.5, np.zeros(2))


class _SeedBatchStream:
    """The per-client minibatch stream that local SGD used before cohorts
    trained together: one permutation drawn per epoch, on demand."""

    def __init__(self, n, batch_size, rng):
        self.n = n
        self.batch = None if batch_size is None or batch_size >= n else int(batch_size)
        self.rng = rng
        self._order = None
        self._pos = 0

    def next(self):
        if self.batch is None:
            return None
        if self._order is None or self._pos + self.batch > self.n:
            self._order = self.rng.permutation(self.n)
            self._pos = 0
        out = self._order[self._pos : self._pos + self.batch]
        self._pos += self.batch
        return out


def reference_local_steps(obj, x_start, steps, lr, batch_size, rng, alpha=0.0, fair_grad=None):
    """One client's local SGD as a loop of per-client gradient calls:
    (delta, one_step_delta, end_loss)."""
    x = x_start.copy()
    stream = _SeedBatchStream(obj.full_size, batch_size, rng)
    one_step = None
    for k in range(steps):
        g = obj.gradient(x, stream.next())
        if fair_grad is not None:
            g = (1.0 - alpha) * g + alpha * fair_grad
        x = x - lr * g
        if k == 0 and fair_grad is None:
            one_step = x - x_start
    return x - x_start, one_step, obj.loss(x)


def assert_cohort_matches_reference(objectives, x0, steps, lr, batch_size, seeds, fair_grad):
    def streams():
        return [SeededRng(seed) for seed in seeds]

    cohort = stack_objectives(objectives)
    if fair_grad is None:
        update = local_sgd(cohort, x0, steps, lr, batch_size, streams())
    else:
        update = local_sgd_aligned(cohort, x0, steps, lr, 0.3, fair_grad, batch_size, streams())
    s = len(objectives)
    assert update.deltas.shape == (s, x0.size) and update.end_losses.shape == (s,)
    for i, (obj, rng) in enumerate(zip(objectives, streams())):
        delta, one_step, end_loss = reference_local_steps(
            obj, x0, steps, lr, batch_size, rng, 0.3, fair_grad
        )
        assert update.deltas[i].tobytes() == delta.tobytes()
        if one_step is None:
            assert update.one_step is None
        else:
            assert update.one_step[i].tobytes() == one_step.tobytes()
        assert update.end_losses[i] == end_loss


DEEP_MLP_SIZES = [9, 10, 11, 11, 13, 14, 15, 17, 30, 52]


class TestCohortMatchesPerClientLoop:
    """The batched cohort pass gives every client the bits of its own
    per-client gradient loop."""

    @settings(max_examples=120, deadline=None)
    @given(
        model=st.sampled_from(["softmax", "tanh", "relu"]),
        hidden=st.integers(1, 32),
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=7),
        batch=st.one_of(st.none(), st.integers(1, 45)),
        steps=st.integers(1, 7),
        aligned=st.booleans(),
        seed=st.integers(0, 2**32),
    )
    @example(model="relu", hidden=32, sizes=[3, 6, 13, 40], batch=6, steps=7, aligned=False, seed=1)
    @example(model="tanh", hidden=4, sizes=[5, 5, 9], batch=None, steps=3, aligned=True, seed=2)
    @example(model="softmax", hidden=1, sizes=[1, 2, 40], batch=40, steps=2, aligned=False, seed=3)
    # one feature: (r, 1) sample blocks
    @example(model="softmax", hidden=1, sizes=[4, 4], batch=None, steps=2, aligned=False, seed=0)
    # the deep-mlp benchmark's shape: full sets of 9-15 samples of six
    # sizes, in one pass with the minibatches of the larger clients
    @example(model="tanh", hidden=32, sizes=DEEP_MLP_SIZES, batch=16, steps=20, aligned=False, seed=4)
    @example(model="tanh", hidden=32, sizes=DEEP_MLP_SIZES, batch=16, steps=20, aligned=True, seed=5)
    def test_classifier_cohort(self, model, hidden, sizes, batch, steps, aligned, seed):
        rng = SeededRng(seed)
        d, classes = 1 + seed % 4, 2 + seed % 3
        hidden, activation = (0, "identity") if model == "softmax" else (hidden, model)
        objectives = [
            ClassifierObjective(
                rng.normals(n * d).reshape(n, d), rng.integers(n, classes), classes, hidden, activation
            )
            for n in sizes
        ]
        dim = objectives[0].dimension
        x0 = 0.5 * rng.normals(dim)
        fair_grad = rng.normals(dim) if aligned else None
        assert_cohort_matches_reference(
            objectives, x0, steps, 0.2, batch, [seed + i for i in range(len(sizes))], fair_grad
        )

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 30), min_size=1, max_size=7),
        d=st.integers(1, 5),
        batch=st.one_of(st.none(), st.integers(1, 32)),
        steps=st.integers(1, 6),
        aligned=st.booleans(),
        seed=st.integers(0, 2**32),
    )
    @example(sizes=[7, 3, 7, 1, 12], d=3, batch=3, steps=5, aligned=False, seed=6)
    def test_glr_cohort(self, sizes, d, batch, steps, aligned, seed):
        rng = SeededRng(seed)
        objectives = [GlrObjective(rng.normals(n * d).reshape(n, d), rng.normals(n)) for n in sizes]
        x0, fair_grad = 0.5 * rng.normals(d), rng.normals(d) if aligned else None
        seeds = [seed + i for i in range(len(sizes))]
        assert_cohort_matches_reference(objectives, x0, steps, 0.1, batch, seeds, fair_grad)

    @pytest.mark.parametrize("aligned", [False, True])
    def test_quadratic_and_glr_cohort_loops_per_client(self, aligned):
        rng = SeededRng(8)
        objectives = [
            QuadraticObjective(1.5, -0.5),
            GlrObjective(rng.normals(7).reshape(7, 1), rng.normals(7)),
            GlrObjective(rng.normals(3).reshape(3, 1), rng.normals(3)),
        ]
        fair_grad = np.array([0.4]) if aligned else None
        assert_cohort_matches_reference(objectives, np.array([0.3]), 5, 0.1, 3, [4, 5, 6], fair_grad)


def batch_rows(n, batch_size, steps, rng):
    """One client's minibatch sample indices, one row per step, drawn alone
    from its stream (None for full-batch steps): a stable argsort of n
    uniforms per epoch, all epochs from one draw, each cut to its whole
    batches. Local SGD drew every client's batches this way before it drew
    the cohort's in one pass."""
    if batch_size is None or batch_size >= n:
        return None
    per_epoch = n // batch_size
    epochs = -(-steps // per_epoch)
    orders = np.argsort(rng.uniforms(epochs * n).reshape(epochs, n), axis=1, kind="stable")
    return orders[:, : per_epoch * batch_size].reshape(-1, batch_size)[:steps]


class TestMinibatchOrders:
    """The cohort's minibatch orders, from one draw and one argsort per
    2**10 (client, epoch) rows, are every client's own draws stacked."""

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 60), min_size=1, max_size=8),
        batch=st.one_of(st.none(), st.integers(1, 30)),
        steps=st.integers(1, 25),
        drawn=st.lists(st.integers(0, 100), min_size=8, max_size=8),
        key_rows=st.sampled_from([1, 2, 3, 5, 2**10]),
        seed=st.integers(0, 2**64 - 1),
        ties=st.booleans(),
    )
    # the deep-mlp benchmark's shape
    @example(
        sizes=DEEP_MLP_SIZES, batch=16, steps=20, drawn=[0] * 8, key_rows=2**10, seed=4, ties=False
    )
    # chunk bounds that cut one client's epochs
    @example(
        sizes=[3, 40, 7], batch=2, steps=9, drawn=[5] * 8, key_rows=4, seed=2**64 - 1, ties=True
    )
    def test_one_pass_is_the_per_client_draws(
        self, sizes, batch, steps, drawn, key_rows, seed, ties
    ):
        self.assert_orders_match(sizes, batch, steps, drawn, key_rows, seed, ties)

    def test_rows_past_the_key_limit(self):
        # 1100 + 550 + 367 (client, epoch) rows: two chunks of 2**10 keys
        self.assert_orders_match([3, 5, 7], 2, 1100, [1, 0, 2], 2**10, 9, True)

    @staticmethod
    def assert_orders_match(sizes, batch, steps, drawn, key_rows, seed, ties):
        # streams part-way through, as the same clients' would be
        def streams():
            rngs = [SeededRng(seed).derive(i) for i in range(len(sizes))]
            for rng, n in zip(rngs, drawn):
                rng.uniforms(n)
            return rngs

        # Uniforms cut to quarters tie within an epoch, which only the
        # stable order of equal keys breaks as the per-client argsort does.
        cut = (lambda u: np.floor(u * 4.0) / 4.0) if ties else (lambda u: u)
        draws = trainer.next_uniforms
        got_rngs, want_rngs = streams(), streams()
        with (
            mock.patch.object(core, "_KEY_ROWS", key_rows),
            mock.patch.object(trainer, "next_uniforms", lambda *a: cut(draws(*a))),
        ):
            got = trainer._minibatch_orders(np.array(sizes), batch, steps, got_rngs)
        cut_rngs = [SimpleNamespace(uniforms=lambda n, r=r: cut(r.uniforms(n))) for r in want_rngs]
        want = [batch_rows(n, batch, steps, rng) for n, rng in zip(sizes, cut_rngs)]
        want = [rows for rows in want if rows is not None]
        if not want:
            assert got is None
        else:
            assert got.tobytes() == np.stack(want, axis=1).tobytes()
            assert got.shape == (steps, len(want), batch)
        for a, b in zip(got_rngs, want_rngs, strict=True):
            assert a.uniforms(2).tobytes() == b.uniforms(2).tobytes()

    def test_takers_need_streams(self):
        rngs = [SeededRng(1), None, SeededRng(2)]
        with pytest.raises(ValueError, match="SeededRng"):
            trainer._minibatch_orders(np.array([9, 9, 2]), 4, 3, rngs)
        # a full-batch client needs none
        assert trainer._minibatch_orders(np.array([9, 2, 9]), 4, 3, rngs).shape == (3, 2, 4)


class TestCohortPasses:
    """Local SGD binds one step plan per round and runs it once per step:
    one bound kernel per pass, each a pass over the full sets of several
    sizes below the batch size and the minibatches of the larger clients
    together, and one loss kernel for the end losses, which a full-batch
    round's plan binds over its own rows, and a minibatch round over the
    cohort's passes for the call."""

    @staticmethod
    def counted_round(monkeypatch, steps, aligned, block=None, batch=16, start=False):
        calls = {"step_plan": 0, "_bind": 0, "_bind_step": 0, "kernel": 0, "losses": 0}
        calls.update(_loss_calls=0, gradients=0, _bind_losses=0)
        cls = type(stack_objectives([ClassifierObjective(np.zeros((1, 2)), [0], 2)]))
        for name in set(calls) - {"kernel"}:
            original = getattr(cls, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                result = _original(self, *args)
                if _name != "_bind_step":
                    return result

                def kernel():
                    calls["kernel"] += 1
                    result()

                return kernel

            monkeypatch.setattr(cls, name, counted)
        rng = SeededRng(9)
        sizes = [30, 9, 13, 52, 11, 15, 17, 11]
        objectives = [
            ClassifierObjective(rng.normals(n * 3).reshape(n, 3), rng.integers(n, 4), 4, 8, "tanh")
            for n in sizes
        ]
        x0 = 0.5 * rng.normals(objectives[0].dimension)
        streams = [SeededRng(i) for i in range(len(sizes))]
        with mock.patch.object(stacks, "STACK_BLOCK_ROWS", block or stacks.STACK_BLOCK_ROWS):
            cohort = stack_objectives(objectives)
            calls.update(dict.fromkeys(calls, 0))
            if start:
                cohort.gradients(x0)
            if aligned:
                fair_grad = rng.normals(x0.size)
                local_sgd_aligned(cohort, x0, steps, 0.1, 0.3, fair_grad, batch, streams)
            else:
                local_sgd(cohort, x0, steps, 0.1, batch, streams)
        return calls, len(cohort._chunks)

    @pytest.mark.parametrize("aligned", [False, True])
    def test_one_gradient_pass_per_step(self, monkeypatch, aligned):
        steps = 7
        calls, _ = self.counted_round(monkeypatch, steps, aligned)
        # one binding for the plan's passes, one for the end losses' pass
        assert calls == {
            "step_plan": 1,
            "_bind": 2,
            "_bind_step": 1,
            "kernel": steps,
            "losses": 1,
            "_loss_calls": 1,
            "gradients": 0,
            "_bind_losses": 1,
        }

    @pytest.mark.parametrize("aligned", [False, True])
    def test_a_full_batch_round_binds_its_cohort_once(self, monkeypatch, aligned):
        # the plan's passes hold the cohort's full sets and give its end
        # losses: no second binding and no losses pass
        steps = 3
        calls, _ = self.counted_round(monkeypatch, steps, aligned, batch=None)
        assert calls == {
            "step_plan": 1,
            "_bind": 1,
            "_bind_step": 1,
            "kernel": steps,
            "losses": 0,
            "_loss_calls": 1,
            "gradients": 0,
            "_bind_losses": 1,
        }

    def test_an_aligned_minibatch_round_binds_the_full_sets_once(self, monkeypatch):
        # The start gradients, one step, bind the cohort's full sets, as its
        # telemetry passes, and its end losses run on that binding: besides
        # it, only the plan's passes are bound.
        steps = 3
        calls, _ = self.counted_round(monkeypatch, steps, True, start=True)
        assert calls == {
            "step_plan": 1,
            "_bind": 2,
            "_bind_step": 2,
            "kernel": 1 + steps,
            "losses": 1,
            "_loss_calls": 1,
            "gradients": 1,
            "_bind_losses": 1,
        }

    @pytest.mark.parametrize("steps", [1, 4, 20])
    def test_a_round_binds_its_passes_once_whatever_the_step_count(self, monkeypatch, steps):
        # At 20 rows per pass (a block of 16 at 10 classes, over 8 hidden
        # units), a step's full sets of 9, 11, 11, 13 and 15 samples and its
        # 3 minibatches of 16 rows make 7 passes, 7 bound kernels. The
        # cohort's own 7 passes give its end losses.
        calls, passes = self.counted_round(monkeypatch, steps, False, block=16)
        assert passes == 7
        assert calls["step_plan"] == 1 and calls["_bind"] == 2
        assert calls["_bind_step"] == 7
        assert calls["kernel"] == 7 * steps
        assert calls["_loss_calls"] == passes


class TestRunPlan:
    """A run binds its full-batch step plan once per cohort layout (the
    model and the row counts in pass order): each later cohort of the
    layout of the plan bound last refills it, with its own rows and labels,
    and restarts its parameters at the round's x_start."""

    FAMILIES = {
        "softmax": lambda rng, n: ClassifierObjective(
            rng.normals(n * 3).reshape(n, 3), rng.integers(n, 4), 4
        ),
        "mlp": lambda rng, n: ClassifierObjective(
            rng.normals(n * 3).reshape(n, 3), rng.integers(n, 4), 4, 5, "tanh"
        ),
        "glr": lambda rng, n: GlrObjective(rng.normals(n * 3).reshape(n, 3), rng.normals(n)),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_a_refilled_plan_gives_the_bits_of_fresh_plans(self, monkeypatch, family):
        rng = SeededRng(21)
        # clients 0-7 have 6 rows, 8-11 have 3: the cohorts of 3 and 1
        # share a layout, the cohort of 2 and 2 has another
        train = stack_objectives([self.FAMILIES[family](rng, n) for n in [6] * 8 + [3] * 4])
        cohorts = [[0, 1, 2, 8], [9, 5, 3, 4], [11, 6, 10, 0], [1, 9, 3, 2], [10, 2, 5, 6]]
        binds = []
        step_plan = type(train).step_plan
        monkeypatch.setattr(
            type(train), "step_plan", lambda *a: binds.append(a[0].sizes.tolist()) or step_plan(*a)
        )
        plan = trainer._RunPlan()
        kept, fresh, kept_binds = [], [], []
        for i, ids in enumerate(cohorts):
            cohort = train.take(ids)
            x0 = 0.5 * rng.normals(train.dimension)
            fair_grad = rng.normals(x0.size) if i % 2 else None
            for run_plan, updates in ((plan, kept), (None, fresh)):
                before = len(binds)
                if fair_grad is None:
                    update = local_sgd(cohort, x0, 3, 0.2, None, None, run_plan)
                else:
                    update = local_sgd_aligned(cohort, x0, 3, 0.2, 0.3, fair_grad, None, None, run_plan)
                updates.append(update)
                if run_plan is not None:
                    kept_binds.append(binds[before:])
        # the kept plan is bound for the first cohort, again for the third,
        # of another layout, and for the fourth, back at the first layout
        first, other = [[3, 6, 6, 6]], [[3, 3, 6, 6]]
        assert kept_binds == [first, [], other, first, []]
        # and no later round overwrote what an earlier one returned
        for a, b in zip(kept, fresh, strict=True):
            assert a.deltas.tobytes() == b.deltas.tobytes()
            assert (a.one_step is None) == (b.one_step is None)
            if a.one_step is not None:
                assert a.one_step.tobytes() == b.one_step.tobytes()
            assert a.end_losses.tobytes() == b.end_losses.tobytes()

    def test_a_minibatch_round_binds_its_own_plan(self):
        rng = SeededRng(22)
        train = stack_objectives([self.FAMILIES["softmax"](rng, n) for n in [6] * 6])
        plan = trainer._RunPlan()
        x0 = rng.normals(train.dimension)
        full = local_sgd(train.take([0, 1]), x0, 2, 0.2, None, None, plan)
        streams = [SeededRng(1), SeededRng(2)]
        local_sgd(train.take([2, 3]), x0, 2, 0.2, 4, streams, plan)
        # the full-batch plan is still kept, and refilled
        again = local_sgd(train.take([0, 1]), x0, 2, 0.2, None, None, plan)
        assert again.deltas.tobytes() == full.deltas.tobytes()
        assert again.end_losses.tobytes() == full.end_losses.tobytes()


class _CountedRows(np.ndarray):
    """A stack's source rows that add to ``reads[name]`` the count of rows
    each gather reads from them, by integer index or ``take``; what they
    give is a plain array."""

    def __getitem__(self, key):
        if isinstance(key, np.ndarray) and key.dtype.kind in "iu":
            self.reads[self.name] += key.size
        return super().__getitem__(key).view(np.ndarray)

    def take(self, indices, *args, **kwargs):
        self.reads[self.name] += np.size(indices)
        return super().take(indices, *args, **kwargs)


class TestLazyCohorts:
    """A round's cohort is a take of the train stack that gathers its rows
    only when a pass needs them. A full-batch round whose cohort has the
    run's kept plan's layout refills that plan straight from the train
    rows: it copies no cohort, and no round gathers a cohort row twice.
    Runs of federations of unequal sizes, whose layouts repeat while the
    cohorts come in another order than their passes, keep the bits of the
    per-client loop trainer."""

    SIZES = [3, 6, 6, 3, 6, 3, 3, 6, 6, 3]
    # thresholds, in degrees, that each family's angles cross both ways
    THETA = {"glr": 24.0, "mlp": 1.5, "softmax": 4.0}

    def federation(self, family, seed):
        rng = SeededRng(seed)
        make = TestRunPlan.FAMILIES[family]
        train = [make(rng, n) for n in self.SIZES]
        test = [make(rng, 2 + n % 4) for n in self.SIZES]
        return Federation(stack_objectives(train), stack_objectives(test)), train, test

    def config(self, family, **over):
        base = dict(
            rounds=14, local_steps=2, clients_per_round=3, local_lr=0.3, alpha=0.4,
            theta=math.radians(self.THETA[family]), seed=3,
        )
        return TrainerConfig(**(base | over))

    def traced_run(self, monkeypatch, fed, cfg):
        """run_training on fed, with per round: its branch, the order the
        kept plan refilled with (None if it bound a plan), the count of the
        cohort's gathers into a copy of its own, the rows read from each of
        the train stack's source arrays, and the cohort's row count."""
        reads = {"inputs": 0, "targets": 0}
        rows = []
        for name, a in zip(reads, fed.train._source):
            a = a.view(_CountedRows)
            a.reads, a.name = reads, name
            rows.append(a)
        fed.train._source, fed.train._held = tuple(rows), rows
        events = {"refill": None, "gathers": 0}
        refill, gather = trainer._RunPlan.refill, stacks._RowStack._rows

        def spied_refill(self, cohort, x_start):
            kept = refill(self, cohort, x_start)
            events["refill"] = None if kept is None else kept[1]
            return kept

        def spied_gather(self):
            events["gathers"] += not self._held
            return gather(self)

        monkeypatch.setattr(trainer._RunPlan, "refill", spied_refill)
        monkeypatch.setattr(stacks._RowStack, "_rows", spied_gather)
        rounds = []

        def on_round(report, x):
            rows = int(fed.train.sizes[report.sampled].sum())
            read = (reads["inputs"], reads["targets"])
            rounds.append((report.branch, events["refill"], events["gathers"], read, rows))
            reads.update(inputs=0, targets=0)
            events.update(refill=None, gathers=0)

        run_training(fed, cfg, on_round=on_round)
        return rounds

    @pytest.mark.parametrize("prior", EbaConfig.PRIORS)
    @pytest.mark.parametrize("family", sorted(TestRunPlan.FAMILIES))
    def test_runs_of_repeating_layouts_are_the_loop_trainers(self, family, prior):
        fed, train, test = self.federation(family, 31)
        cfg = self.config(family, eba=EbaConfig(prior=prior))
        x0 = np.zeros(fed.dimension)
        assert_run_matches_loop(fed, cfg, x0, train, test, (family, prior))
        # both branches, and kept plans refilled for cohorts out of pass order
        refills = []
        refill = trainer._RunPlan.refill

        def spied(self, cohort, x_start):
            kept = refill(self, cohort, x_start)
            refills.append(None if kept is None else kept[1].tolist())
            return kept

        with mock.patch.object(trainer._RunPlan, "refill", spied):
            reports, _ = run_training(fed, cfg, x0)
        assert {r.branch for r in reports} == {"plain", "aligned"}
        kept = [order for order in refills if order is not None]
        assert any(order != sorted(order) for order in kept), refills

    @pytest.mark.parametrize("family", sorted(TestRunPlan.FAMILIES))
    def test_a_kept_plan_round_copies_no_cohort(self, monkeypatch, family):
        fed, _, _ = self.federation(family, 33)
        rounds = self.traced_run(monkeypatch, fed, self.config(family))
        assert {branch for branch, *_ in rounds} == {"plain", "aligned"}
        kept = [order.tolist() for _, order, *_ in rounds if order is not None]
        assert any(order != sorted(order) for order in kept), rounds
        for branch, order, gathers, read, rows in rounds:
            # the aligned branch's start gradients run on the cohort's own
            # passes, which its gather makes; a plan reads no other copy
            assert gathers == (branch == "aligned"), (branch, order)
            # every cohort row read from the train rows once: into the
            # cohort's copy or into the plan, never both
            assert read == (rows, rows), (branch, order)

    @pytest.mark.parametrize("family", sorted(TestRunPlan.FAMILIES))
    def test_a_minibatch_round_gathers_its_cohort_once(self, monkeypatch, family):
        # the plan reads the minibatch rows where they lie, step by step;
        # the end losses' pass gathers the cohort once, for the take and
        # its in-pass-order stack alike
        fed, _, _ = self.federation(family, 34)
        rounds = self.traced_run(monkeypatch, fed, self.config(family, batch_size=2))
        assert {branch for branch, *_ in rounds} == {"plain", "aligned"}
        for branch, order, gathers, _, _ in rounds:
            assert order is None and gathers == 1, branch


class TestChiSquareOrInf:
    """A round's chi-square of its weights against uniform weights, which
    it makes itself and does not check."""

    @given(weights=st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_is_the_divergence_from_uniform_weights(self, weights):
        p = np.array(weights) / sum(weights)
        want = chi_square_divergence(uniform_weights(p.size), p)
        assert np.float64(trainer._chi_square_or_inf(p)).tobytes() == np.float64(want).tobytes()

    def test_a_zero_weight_is_infinite_without_a_division(self):
        with np.errstate(all="raise"):
            assert trainer._chi_square_or_inf(np.array([0.5, 0.5, 0.0])) == math.inf

    @given(weights=st.lists(SPECIAL_FLOATS, min_size=1, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_is_the_wrapper_form_bit_for_bit(self, weights):
        # the method forms (.any(), np.add.reduce) against np.any and np.sum
        p = np.array(weights)
        with np.errstate(all="ignore"):
            if np.any(p <= 0.0):
                want = math.inf
            else:
                d = uniform_weights(p.size) - p
                want = float(np.sum(d * d / p))
            if math.isnan(want):
                with pytest.raises(ValueError, match="only finite values"):
                    trainer._chi_square_or_inf(p)
                return
            got = trainer._chi_square_or_inf(p)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weights_are_rejected(self, bad):
        # as chi_square_divergence rejects them; +inf makes inf / inf first
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="only finite values"):
            trainer._chi_square_or_inf(np.array([0.5, bad]))


class TestAggregation:
    def test_plain_uniform_mean(self):
        assert aggregate_plain(np.array([[2.0], [-1.0]]), [0.5, 0.5])[0] == 0.5

    def test_plain_one_hot(self):
        assert aggregate_plain(np.array([[2.0], [-1.0]]), [0.0, 1.0])[0] == -1.0

    def test_plain_toy_entropy_weights(self):
        p = softmax_temperature([0.0, 4.5], 1.0)
        out = aggregate_plain(np.array([[2.0], [-1.0]]), p)
        assert out[0] == pytest.approx(3 * SOFTMAX_0_45_TAU1[0] - 1, abs=1e-12)

    def test_plain_needs_one_weight_per_row(self):
        for deltas, p in ((np.ones((2, 3)), [1.0]), (np.ones(3), [1.0] * 3), (np.ones((0, 3)), [])):
            with pytest.raises(ValueError, match="one weight per row"):
                aggregate_plain(deltas, p)

    def test_model_alignment_blend(self):
        deltas = np.array([[2.0], [-1.0]])
        one_step = np.array([[1.0], [-0.5]])
        assert aggregate_model_alignment(deltas, one_step, [0.5, 0.5], 0.0)[0] == 0.5
        assert aggregate_model_alignment(deltas, one_step, [0.5, 0.5], 1.0)[0] == 0.25
        blended = aggregate_model_alignment(deltas, one_step, [0.9, 0.1], 0.5)
        assert blended[0] == pytest.approx(0.5 * (0.9 * 2 - 0.1) + 0.5 * 0.25, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 5)),
        alpha=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
        data=st.data(),
    )
    def test_model_alignment_is_the_wrapper_form_bit_for_bit(self, shape, alpha, data):
        # the one-step mean as np.add.reduce over the count, against np.mean
        s, d = shape
        entries = st.lists(SPECIAL_FLOATS, min_size=s * d, max_size=s * d)
        deltas = np.array(data.draw(entries)).reshape(s, d)
        one_step = np.array(data.draw(entries)).reshape(s, d)
        p = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=s, max_size=s)))
        with np.errstate(all="ignore"):
            want = (1.0 - alpha) * aggregate_plain(deltas, p) + alpha * np.mean(one_step, axis=0)
            got = aggregate_model_alignment(deltas, one_step, p, alpha)
        assert got.tobytes() == want.tobytes()

    def test_alignment_requires_one_step_deltas(self):
        with pytest.raises(ValueError, match="one-step"):
            aggregate_model_alignment(np.array([[1.0]]), None, [1.0], 0.5)
        with pytest.raises(ValueError, match="one-step"):
            aggregate_model_alignment(np.ones((2, 1)), np.ones((1, 1)), [0.5, 0.5], 0.5)

    def test_weighted_aggregate_bracketing(self):
        rng = SeededRng(11)
        for _ in range(100):
            deltas = rng.normals(5 * 3).reshape(5, 3)
            p = rng.dirichlet(1.0, 5)
            agg = aggregate_plain(deltas, p)
            lo, hi = deltas.min(axis=0), deltas.max(axis=0)
            assert np.all(agg >= lo - 1e-12) and np.all(agg <= hi + 1e-12)

    def test_server_update(self):
        x = np.array([1.0, -1.0])
        assert np.array_equal(server_update(x, np.zeros(2), 1.0), x)
        assert server_update(np.zeros(1), np.array([0.5]), 1.0)[0] == 0.5
        assert server_update(np.zeros(2), np.array([1.0, -1.0]), 2.0).tolist() == [2.0, -2.0]
        with pytest.raises(ValueError):
            server_update(np.zeros(2), np.zeros(3), 1.0)


class TestRunRound:
    def _cfg(self, **over):
        base = dict(
            rounds=1,
            local_steps=2,
            clients_per_round=2,
            local_lr=0.05,
            alpha=0.5,
            theta=math.pi,
            eba=EbaConfig(tau0=1.0),
            method="fedeba_plus",
            seed=3,
        )
        base.update(over)
        return TrainerConfig(**base)

    def test_branch_matches_angle_threshold(self):
        fed = quadratic_federation(scale=1.0)
        for theta in (0.0, 0.2, math.pi / 2, math.pi):
            cfg = self._cfg(theta=theta, clients_per_round=10)
            x = np.zeros(1)
            losses = start_losses(fed, x)
            root = SeededRng(cfg.seed)
            for t in range(1, 12):
                x, losses, report = run_round(fed, x, cfg, t, root, losses)
                assert (report.branch == "aligned") == (report.angle > theta)
                assert report.extra_comm == (report.branch == "aligned")

    def test_wide_thresholds_never_align(self):
        import dataclasses

        fed = quadratic_federation()
        for theta in (math.pi / 2, math.pi):
            cfg = dataclasses.replace(self._cfg(theta=theta, clients_per_round=10), rounds=40)
            reports, _ = run_training(fed, cfg)
            assert sum(r.extra_comm for r in reports) == 0

    def test_identical_clients_reduce_to_single_delta(self):
        fed = Federation(stack_objectives(QuadraticObjective(1.0, 2.0) for _ in range(4)))
        # K=1: full and one-step deltas coincide, so the aggregate equals the
        # common client delta for any alpha.
        cfg = self._cfg(clients_per_round=4, theta=math.pi / 2, local_steps=1)
        x = np.array([0.5])
        x_next, _, report = run_round(fed, x, cfg, 1, SeededRng(0), start_losses(fed, x))
        single = local_sgd(stack_objectives([QuadraticObjective(1.0, 2.0)]), x, 1, 0.05)
        assert report.branch == "plain" and report.angle == 0.0
        assert x_next[0] == pytest.approx(x[0] + single.deltas[0, 0], abs=1e-12)

    def test_identical_clients_blend_matches_single_client(self):
        fed = Federation(stack_objectives(QuadraticObjective(1.0, 2.0) for _ in range(4)))
        cfg = self._cfg(clients_per_round=4, theta=math.pi / 2, local_steps=2)
        x = np.array([0.5])
        x_next, _, _ = run_round(fed, x, cfg, 1, SeededRng(0), start_losses(fed, x))
        single = local_sgd(stack_objectives([QuadraticObjective(1.0, 2.0)]), x, 2, 0.05)
        blended = 0.5 * single.deltas[0, 0] + 0.5 * single.one_step[0, 0]
        assert x_next[0] == pytest.approx(x[0] + blended, abs=1e-12)

    def test_round_weights_are_simplex(self):
        fed = quadratic_federation()
        cfg = self._cfg(clients_per_round=6)
        x = np.zeros(1)
        _, _, report = run_round(fed, x, cfg, 1, SeededRng(1), start_losses(fed, x))
        assert np.all(report.weights > 0)
        assert abs(report.weights.sum() - 1.0) < 1e-9
        assert len(report.sampled) == 6

    @settings(max_examples=100, deadline=None)
    @given(losses=st.lists(SPECIAL_FLOATS | st.floats(0.0, 1e300), min_size=10, max_size=10))
    def test_global_train_loss_is_the_mean_bit_for_bit(self, losses):
        # the report's global train loss, np.add.reduce over the count,
        # against the train losses' mean()
        fed = quadratic_federation()
        fed = Federation(fed.train, quadratic_federation(seed=5).train)
        x = np.zeros(1)
        train = np.array(losses)
        fed.train.losses = lambda xs: train.copy()
        with np.errstate(all="ignore"):
            _, _, report = run_round(fed, x, self._cfg(), 1, SeededRng(3), start_losses(fed, x))
            want = train.mean()
        assert np.float64(report.global_train_loss).tobytes() == want.tobytes()

    def test_start_losses_are_the_given_train_losses(self):
        fed = quadratic_federation(scale=1.0)
        cfg = self._cfg(clients_per_round=6)
        losses = 1.0 + np.arange(fed.m)
        x_next, losses_next, report = run_round(fed, np.zeros(1), cfg, 1, SeededRng(1), losses)
        assert report.angle == fair_angle(losses[report.sampled])
        # the round returns every client's train loss at the new model
        assert np.array_equal(losses_next, start_losses(fed, x_next))
        with pytest.raises(ValueError, match="one train loss per client"):
            run_round(fed, np.zeros(1), cfg, 1, SeededRng(1), losses[:-1])


class TestRunTraining:
    def test_fedavg_toy_converges_to_balanced_minimizer(self):
        # Stationary point of the uniform mean of 2(x-2)^2 and (x+4)^2/2
        # solves 0.5*(4(x-2) + (x+4)) = 0, i.e. x = 0.8.
        cfg = TrainerConfig(
            rounds=2000,
            local_steps=1,
            clients_per_round=2,
            local_lr=0.05,
            alpha=0.0,
            method="fedavg",
            seed=0,
        )
        _, x = run_training(toy_federation(), cfg)
        assert abs(x[0] - 0.8) < 1e-3

    def test_entropy_weighted_stationarity_residual(self):
        # alpha=0, K=1: the fixed point satisfies sum_i p_i(x) grad_i(x) = 0
        # up to the O(local_lr) gap between end-of-round and current losses.
        fed = quadratic_federation(seed=5, scale=1.0)
        cfg = TrainerConfig(
            rounds=6000,
            local_steps=1,
            clients_per_round=10,
            local_lr=0.001,
            alpha=0.0,
            theta=math.pi,
            eba=EbaConfig(tau0=1.0),
            method="fedeba_plus",
            seed=2,
        )
        _, x = run_training(fed, cfg)
        losses = np.array([o.loss(x) for o in fed.train.objectives])
        grads = np.array([o.gradient(x)[0] for o in fed.train.objectives])
        p = softmax_temperature(losses, 1.0)
        assert abs(np.dot(p, grads)) < 1e-3

    def test_bitwise_deterministic_reports(self):
        fed = quadratic_federation()
        cfg = TrainerConfig(
            rounds=30,
            local_steps=3,
            clients_per_round=5,
            local_lr=0.05,
            method="fedeba_plus",
            seed=77,
        )
        r1, x1 = run_training(fed, cfg)
        r2, x2 = run_training(fed, cfg)
        assert np.array_equal(x1, x2)
        for a, b in zip(r1, r2, strict=True):
            for field in dataclasses.fields(a):
                got, want = (np.asarray(getattr(r, field.name)).tobytes() for r in (a, b))
                assert got == want, (a.round_index, field.name)

    @pytest.mark.parametrize("batch_size", [None, 3])
    def test_derives_minibatch_streams_only_for_minibatches(self, monkeypatch, batch_size):
        # a full-batch round derives its sampling stream and no stream per
        # client, which its steps would never read
        derives = []
        derive = SeededRng.derive
        monkeypatch.setattr(SeededRng, "derive", lambda *a: derives.append(a[1]) or derive(*a))
        cfg = TrainerConfig(
            rounds=4, local_steps=2, clients_per_round=5, local_lr=0.5, batch_size=batch_size
        )
        fed = classifier_federation(20)
        reports, _ = run_training(fed, cfg, x0=np.zeros(fed.dimension))
        per_round = [101] if batch_size is None else [101] + [102] * 5
        assert derives == per_round * cfg.rounds
        assert len(reports) == cfg.rounds

    def test_methods_share_sampling_streams(self):
        fed = quadratic_federation()
        kw = dict(rounds=25, local_steps=2, clients_per_round=4, local_lr=0.05, seed=13)
        r_avg, _ = run_training(fed, TrainerConfig(method="fedavg", **kw))
        r_eba, _ = run_training(fed, TrainerConfig(method="fedeba_plus", **kw))
        r_q, _ = run_training(fed, TrainerConfig(method="qffl", **kw))
        for a, b, c in zip(r_avg, r_eba, r_q):
            assert np.array_equal(a.sampled, b.sampled)
            assert np.array_equal(a.sampled, c.sampled)

    def test_degeneracy_chain_small(self):
        fed = quadratic_federation(seed=123)
        kw = dict(rounds=50, local_steps=3, clients_per_round=5, local_lr=0.05, seed=7)
        traj_avg, traj_eba = [], []
        run_training(
            fed,
            TrainerConfig(method="fedavg", alpha=0.0, eba=EbaConfig(prior="uniform"), **kw),
            on_round=lambda rep, x: traj_avg.append(x.copy()),
        )
        run_training(
            fed,
            TrainerConfig(
                method="fedeba_plus",
                alpha=0.0,
                theta=math.pi,
                eba=EbaConfig(tau0=1e9, prior="uniform"),
                **kw,
            ),
            on_round=lambda rep, x: traj_eba.append(x.copy()),
        )
        gap = max(np.abs(a - b).max() for a, b in zip(traj_avg, traj_eba))
        assert gap < 1e-9

    def test_qffl_runs_and_reports(self):
        fed = quadratic_federation(scale=1.0)
        cfg = TrainerConfig(
            rounds=20,
            local_steps=1,
            clients_per_round=10,
            local_lr=0.05,
            method="qffl",
            seed=3,
        )
        reports, x = run_training(fed, cfg)
        assert math.isnan(reports[-1].tau)
        assert all(r.branch == "plain" for r in reports)
        assert np.isfinite(x).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(rounds=0, local_steps=1, clients_per_round=1, local_lr=0.1)
        with pytest.raises(ValueError):
            TrainerConfig(rounds=1, local_steps=1, clients_per_round=1, local_lr=0.1, alpha=1.5)
        with pytest.raises(ValueError):
            TrainerConfig(rounds=1, local_steps=1, clients_per_round=1, local_lr=0.1, theta=4.0)
        with pytest.raises(ValueError):
            TrainerConfig(rounds=1, local_steps=1, clients_per_round=1, local_lr=0.1, method="sgd")

    @pytest.mark.parametrize("name", ["local_lr", "global_lr"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_learning_rates(self, name, value):
        # the config file rejects them too
        kw = dict(rounds=1, local_steps=1, clients_per_round=1, local_lr=0.1)
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            TrainerConfig(**{**kw, name: value})

    @pytest.mark.parametrize(
        "schedule, tau0, decay",
        [
            ("convex", 0.1, 1e103),  # the cube overflows
            ("convex", 0.1, 1e105),
            ("convex", 1e-310, 1e5),  # tau underflows to 0
            ("linear", 5e-324, 1.0),
            ("concave", 1e-320, 1e300),
        ],
    )
    def test_rejects_a_schedule_that_cools_tau_to_zero(self, schedule, tau0, decay):
        # FedEBA+ would stop in its first such round, or with an
        # OverflowError; tau depends on the config alone
        eba = EbaConfig(tau0=tau0, schedule=schedule, decay=decay)
        with pytest.raises(ValueError, match=r"^trainer\.tau_decay: the .* schedule cools tau to 0"):
            TrainerConfig(rounds=3, eba=eba)
        # the other methods take no tau; one round takes tau0
        assert TrainerConfig(rounds=3, eba=eba, method="fedavg").eba == eba
        assert TrainerConfig(rounds=1, eba=eba).rounds == 1

    @pytest.mark.parametrize("k_percent", [0.0, -5.0, 100.5, math.nan])
    def test_rejects_tail_share_before_training(self, k_percent):
        # the tail means of the first round's telemetry would raise only
        # after a round of training
        with pytest.raises(ValueError, match="k_percent"):
            TrainerConfig(
                rounds=1, local_steps=1, clients_per_round=1, local_lr=0.1, k_percent=k_percent
            )

    def test_federation_rejects_test_objectives_of_another_dimension(self):
        # otherwise the first round's telemetry fails, after local training
        rng = SeededRng(9)
        train = GlrObjective(rng.normals(12).reshape(4, 3), rng.normals(4))
        test = GlrObjective(rng.normals(8).reshape(4, 2), rng.normals(4))
        with pytest.raises(ValueError, match="one dimension"):
            Federation(stack_objectives((train, train)), stack_objectives((train, test)))
        # two family stacks, each of one dimension, but not the same one
        with pytest.raises(ValueError, match="client train and test objectives"):
            Federation(stack_objectives((train, train)), stack_objectives((test, test)))
        with pytest.raises(ValueError, match="2 test objectives for 3 clients"):
            Federation(stack_objectives((train, train, train)), stack_objectives((train, train)))
        stack = stack_objectives((train, train))
        assert Federation(stack, stack).dimension == 3
        # a loop stack of mixed dimensions, as a side of its own
        mixed = stack_objectives((QuadraticObjective(1.0, 0.0), train))
        with pytest.raises(ValueError, match="one dimension"):
            Federation(mixed)

    def test_test_stack_is_the_train_stack_without_test_objectives(self):
        # the data are held once when every client evaluates on its
        # training objective, and twice only when the federation holds test
        # objectives, even ones that repeat the training objectives
        rng = SeededRng(9)
        objs = [GlrObjective(rng.normals(12).reshape(4, 3), rng.normals(4)) for _ in range(3)]
        own = Federation(stack_objectives(objs))
        assert own.test is own.train
        held_out = Federation(stack_objectives(objs), stack_objectives(objs))
        assert held_out.test is not held_out.train
        x = rng.normals(3)
        assert np.array_equal(held_out.test.evaluate(x)[0], own.test.evaluate(x)[0])


def classifier_federation(m, seed=0, d=4, classes=3):
    rng = SeededRng(seed)

    def obj(n):
        return ClassifierObjective(rng.normals(n * d).reshape(n, d), rng.integers(n, classes), classes)

    # each client draws its train objective, then its test objective
    pairs = [(obj(1 + i % 7), obj(1 + i % 3)) for i in range(m)]
    return Federation(*map(stack_objectives, zip(*pairs)))


def glr_federation():
    rng = SeededRng(11)

    def obj(n):
        return GlrObjective(rng.normals(n * 3).reshape(n, 3), rng.normals(n))

    # each client draws its train objective, then its test objective
    pairs = [(obj(1 + i % 7), obj(2 + i % 3)) for i in range(30)]
    return Federation(*map(stack_objectives, zip(*pairs)))


class TestTelemetryCallCounts:
    """A round evaluates clients only through objective stacks: the train
    losses at x0 and each round's telemetry through the federation's,
    local SGD's steps and end losses and the fair gradient's start
    gradients through the cohort's. So no round, the first included, makes
    a per-client objective call, whatever the method, the branch, m and
    the local step count are."""

    @staticmethod
    def per_round_calls(monkeypatch, family, fed, method):
        """(branch, per-client call counts) of each round of a run."""
        counts = {name: 0 for name in ("loss", "gradient", "accuracy") if hasattr(family, name)}
        for name in counts:
            original = getattr(family, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(family, name, counted)

        cfg = TrainerConfig(
            rounds=6,
            local_steps=3,
            clients_per_round=5,
            local_lr=0.5 if family is ClassifierObjective else 0.05,
            theta=math.radians(5.0),
            # clients of 1-3 samples take full sets, larger ones minibatches
            batch_size=3,
            method=method,
            seed=4,
        )
        per_round = []

        def on_round(report, x):
            per_round.append((report.branch, dict(counts)))
            counts.update(dict.fromkeys(counts, 0))

        run_training(fed, cfg, x0=np.zeros(fed.dimension), on_round=on_round)
        assert len(per_round) == cfg.rounds
        return per_round

    @pytest.mark.parametrize("m", [20, 50])
    @pytest.mark.parametrize("method", ["fedeba_plus", "fedavg", "qffl"])
    def test_no_per_client_calls_in_telemetry(self, monkeypatch, m, method):
        per_round = self.per_round_calls(
            monkeypatch, ClassifierObjective, classifier_federation(m), method
        )
        branches = {branch for branch, _ in per_round}
        assert branches == ({"plain", "aligned"} if method == "fedeba_plus" else {"plain"})
        for branch, c in per_round:
            assert c == {"loss": 0, "gradient": 0, "accuracy": 0}, branch

    @pytest.mark.parametrize("family", [ClassifierObjective, GlrObjective])
    def test_one_cohort_take_per_round(self, monkeypatch, family):
        # each round takes its cohort from the train stack once and shares
        # it between the aligned branch's start gradients and local SGD; no
        # round constructs an objective or stacks objectives
        fed = classifier_federation(20) if family is ClassifierObjective else glr_federation()
        events = []
        take = fed.train.take

        def counted_take(ids):
            cohort = take(ids)
            gradients = cohort.gradients

            def start_gradients(xs):
                if np.ndim(xs) == 1:
                    events.append(("start", cohort))
                return gradients(xs)

            cohort.gradients = start_gradients
            events.append(("take", cohort))
            return cohort

        monkeypatch.setattr(fed.train, "take", counted_take)
        for name in ("local_sgd", "local_sgd_aligned"):

            def local(cohort, *args, _name=name, _original=getattr(trainer, name)):
                events.append((_name, cohort))
                return _original(cohort, *args)

            monkeypatch.setattr(trainer, name, local)
        for cls in (ClassifierObjective, GlrObjective):

            def built(self, *args, _init=cls.__init__, **kwargs):
                events.append(("build", None))
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", built)
        monkeypatch.setattr(stacks, "stack_objectives", lambda *a: events.append(("stack", None)))
        cfg = TrainerConfig(
            rounds=6,
            local_steps=3,
            clients_per_round=5,
            local_lr=0.5 if family is ClassifierObjective else 0.05,
            theta=math.radians(5.0),
            batch_size=3,
            seed=4,
        )
        per_round = []

        def on_round(report, x):
            per_round.append((report.branch, list(events)))
            events.clear()

        run_training(fed, cfg, x0=np.zeros(fed.dimension), on_round=on_round)
        assert {branch for branch, _ in per_round} == {"plain", "aligned"}
        for branch, round_events in per_round:
            names = [name for name, _ in round_events]
            if branch == "aligned":
                assert names == ["take", "start", "local_sgd_aligned"]
            else:
                assert names == ["take", "local_sgd"]
            assert all(cohort is round_events[0][1] for _, cohort in round_events)

    @pytest.mark.parametrize("method", ["fedeba_plus", "fedavg", "qffl"])
    def test_no_per_client_calls_with_glr_clients(self, monkeypatch, method):
        per_round = self.per_round_calls(monkeypatch, GlrObjective, glr_federation(), method)
        branches = {branch for branch, _ in per_round}
        assert branches == ({"plain", "aligned"} if method == "fedeba_plus" else {"plain"})
        for branch, c in per_round:
            assert c == {"loss": 0, "gradient": 0}, branch

    @pytest.mark.parametrize("family", [ClassifierObjective, GlrObjective])
    def test_one_train_and_one_test_pass_per_round(self, monkeypatch, family):
        # the train side gives losses only, once at x0 and once per round:
        # no round takes a gradient pass over every client
        fed = classifier_federation(20) if family is ClassifierObjective else glr_federation()
        calls = dict.fromkeys(
            [("train", "losses"), ("train", "gradients"), ("eval", "evaluate")], 0
        )
        for side, name in calls:
            stack = fed.train if side == "train" else fed.test
            original = getattr(stack, name)

            def counted(*args, _key=(side, name), _original=original):
                calls[_key] += 1
                return _original(*args)

            monkeypatch.setattr(stack, name, counted)
        per_round = self.per_round_calls(monkeypatch, family, fed, "fedeba_plus")
        assert {branch for branch, _ in per_round} == {"plain", "aligned"}
        rounds = len(per_round)
        assert calls == {
            ("train", "losses"): rounds + 1,
            ("train", "gradients"): 0,
            ("eval", "evaluate"): rounds,
        }


def test_an_equal_size_federation_binds_one_step_plan_per_run(monkeypatch):
    # Every cohort of 5 clients of 4 rows has one layout, so the run binds
    # its full-batch plan, and that plan's loss kernel, once, on both
    # branches, as the train stack binds its telemetry loss kernel once;
    # each cohort is still taken, and its start gradients run on its own
    # passes.
    rng = SeededRng(12)

    def obj(n):
        return ClassifierObjective(rng.normals(n * 3).reshape(n, 3), rng.integers(n, 3), 3)

    fed = Federation(stack_objectives([obj(4) for _ in range(20)]))
    cls = type(fed.train)
    calls = dict.fromkeys(["step_plan", "_bind_losses", "take"], 0)
    for name in calls:

        def counted(self, *args, _name=name, _original=getattr(cls, name)):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(cls, name, counted)
    cfg = TrainerConfig(
        rounds=6, local_steps=3, clients_per_round=5, local_lr=0.5, theta=math.radians(5.0), seed=4
    )
    reports, _ = run_training(fed, cfg)
    assert {r.branch for r in reports} == {"plain", "aligned"}
    assert calls == {"step_plan": 1, "_bind_losses": 2, "take": cfg.rounds}


@pytest.mark.parametrize("batch_size", [None, 2])
def test_passes_plan_their_column_sums_once_per_binding(monkeypatch, batch_size):
    # A pass plans its log-softmax's column sums when it is bound, and its
    # kernel only runs them. At a cap of 13 rows (a block of 4 at 3
    # classes), the train side's 20 clients of 4 rows make 7 passes, the
    # test side's of 2 rows 4, and a cohort's 5 clients 2, or 1 pass of
    # their minibatches of 2 rows. Over 6 rounds on both branches, the
    # telemetry kernels plan once per pass; a full-batch run plans its one
    # plan's step and loss passes once; a minibatch round plans its step
    # passes and its end losses' passes; an aligned round plans its start
    # gradients' passes. More local steps plan nothing more.
    plan = stacks._column_sum_plan
    plans = []
    monkeypatch.setattr(stacks, "_column_sum_plan", lambda a: plans.append(a.shape) or plan(a))
    for steps in (3, 6):
        rng = SeededRng(13)

        def obj(n):
            return ClassifierObjective(rng.normals(n * 3).reshape(n, 3), rng.integers(n, 3), 3)

        cfg = TrainerConfig(
            rounds=6, local_steps=steps, clients_per_round=5, local_lr=0.5,
            batch_size=batch_size, theta=math.radians(5.0), seed=4,
        )
        plans.clear()
        with mock.patch.object(stacks, "STACK_BLOCK_ROWS", 4):
            train = stack_objectives([obj(4) for _ in range(20)])
            test = stack_objectives([obj(2) for _ in range(20)])
            reports, _ = run_training(Federation(train, test), cfg)
        assert {r.branch for r in reports} == {"plain", "aligned"}
        aligned = sum(r.branch == "aligned" for r in reports)
        once = 7 + 4 + (2 + 2 if batch_size is None else 0)
        per_round = 0 if batch_size is None else 1 + 2
        assert len(plans) == once + cfg.rounds * per_round + aligned * 2, steps


class TestReportRetention:
    """A run keeps every round's report, so a report may hold per-client
    vectors only of the sampled cohort: none whose length grows with m."""

    @pytest.mark.parametrize("m", [20, 50])
    def test_no_kept_vector_grows_with_the_client_count(self, m):
        cfg = TrainerConfig(
            rounds=4,
            local_steps=2,
            clients_per_round=5,
            local_lr=0.5,
            theta=math.radians(5.0),
            seed=4,
        )
        fed = classifier_federation(m)
        reports, _ = run_training(fed, cfg, x0=np.zeros(fed.dimension))
        assert len(reports) == cfg.rounds
        for report in reports:
            for field in dataclasses.fields(report):
                value = getattr(report, field.name)
                if isinstance(value, np.ndarray):
                    assert value.size <= cfg.clients_per_round, (report.round_index, field.name)


# --- whole-run differential oracle ----------------------------------------

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = ("blobs-mlp", "glr-qffl", "fedavg-ratio", "eba-ratio-linear", "mlp-cohort")


def loop_training(train, test, cfg, x0):
    """``run_training`` as a loop over per-client objectives: client i trains
    on ``train[i]`` and is evaluated on ``test[i]``, through their own
    ``loss``, ``gradient`` and ``accuracy`` calls only. The sampling and
    minibatch streams are re-derived from the run seed (tags 101 and 102),
    and each client's local steps are :func:`reference_local_steps`.
    Returns each round's fields as ``run_training`` reports them, and the
    final model."""
    root = SeededRng(cfg.seed)
    x = np.asarray(x0, dtype=np.float64).copy()
    losses = np.array([o.loss(x) for o in train])
    rounds = []
    for t in range(1, cfg.rounds + 1):
        sampled = sample_clients(len(train), cfg.clients_per_round, root.derive(101, t))
        start = losses[sampled]
        angle = 0.0 if np.all(start == 0.0) else fair_angle(start)
        eba = cfg.method == "fedeba_plus"
        tau = schedule_tau(cfg.eba, t) if eba else float("nan")
        aligned = eba and angle > cfg.theta
        fair_grad = None
        if aligned:
            grads = np.array([train[i].gradient(x) for i in sampled])
            fair_grad = compute_fair_gradient(grads, start, tau)
        local = [
            reference_local_steps(
                train[i], x, cfg.local_steps, cfg.local_lr, cfg.batch_size,
                root.derive(102, t, int(i)), cfg.alpha, fair_grad,
            )
            for i in sampled
        ]
        deltas = np.array([d for d, _, _ in local])
        server_lr = cfg.global_lr
        if cfg.method == "qffl":
            weights, server_lr = qffl_step(deltas, start, cfg.qffl)
        else:
            prior = None
            if cfg.eba.prior == "data_ratio":
                prior = data_ratio_weights([train[i].full_size for i in sampled])
            if eba:
                weights = eba_weights(np.array([e for _, _, e in local]), tau, prior)
            else:
                weights = uniform_weights(len(sampled)) if prior is None else prior
        if eba and not aligned:
            one_step = np.array([s for _, s, _ in local])
            delta = aggregate_model_alignment(deltas, one_step, weights, cfg.alpha)
        else:
            delta = aggregate_plain(deltas, weights)
        x = server_update(x, delta, server_lr)

        losses = np.array([o.loss(x) for o in train])
        test_losses = np.array([o.loss(x) for o in test])
        accs = np.array([o.accuracy(x) if hasattr(o, "accuracy") else np.nan for o in test])
        sizes = np.array([o.full_size for o in test], dtype=np.float64)
        chi = (
            float("inf")
            if np.any(weights <= 0.0)
            else chi_square_divergence(uniform_weights(weights.size), weights)
        )
        rounds.append(
            dict(
                round_index=t,
                tau=tau,
                angle=angle,
                branch="aligned" if aligned else "plain",
                sampled=sampled,
                weights=weights,
                global_train_loss=float(losses.mean()),
                loss_variance=population_variance(test_losses),
                accuracy_variance=population_variance(accs),
                worst_tail_accuracy=tail_mean(accs, cfg.k_percent, "worst"),
                best_tail_accuracy=tail_mean(accs, cfg.k_percent, "best"),
                global_accuracy=float(np.dot(sizes, accs) / sizes.sum()),
                chi_square=chi,
            )
        )
    return rounds, x


def assert_run_matches_loop(federation, cfg, x0, train, test, label):
    """``run_training`` on the federation has the bits of ``loop_training``
    on its clients' objectives, in every round and in the final model."""
    reports, x = run_training(federation, cfg, x0)
    want, want_x = loop_training(train, test, cfg, x0)
    assert x.tobytes() == want_x.tobytes(), label
    assert len(reports) == len(want)
    for report, fields in zip(reports, want):
        for key, value in fields.items():
            got = np.asarray(getattr(report, key))
            assert got.tobytes() == np.asarray(value).tobytes(), (label, report.round_index, key)


@st.composite
def whole_runs(draw):
    """(federation, config, x0, train objectives, test objectives) of a
    small random run: one family of client objectives, stacked by
    ``stack_objectives``, with or without test objectives of their own. It
    runs at a small stack block size, so passes hold few rows."""
    family = draw(st.sampled_from(["softmax", "tanh", "relu", "glr", "quadratic"]))
    m = draw(st.integers(1, 8))
    rng = SeededRng(draw(st.integers(0, 2**32)))
    d, classes, hidden = draw(st.integers(1, 3)), draw(st.integers(2, 3)), draw(st.integers(1, 6))

    def objective():
        n = draw(st.integers(1, 12))
        if family == "quadratic":
            # centers away from 0, so no loss at x0 = 0 is zero
            a, c = 0.2 + rng.uniforms(2)
            return QuadraticObjective(a, c if rng.uniforms(1)[0] < 0.5 else -c)
        if family == "glr":
            return GlrObjective(rng.normals(n * d).reshape(n, d), rng.normals(n))
        h, act = (0, "identity") if family == "softmax" else (hidden, family)
        return ClassifierObjective(
            rng.normals(n * d).reshape(n, d), rng.integers(n, classes), classes, h, act
        )

    train = [objective() for _ in range(m)]
    test = [objective() for _ in range(m)] if draw(st.booleans()) else None
    federation = Federation(stack_objectives(train), test and stack_objectives(test))
    dim = federation.dimension
    x0 = np.zeros(dim) if family == "quadratic" else 0.5 * rng.normals(dim)
    unit = st.floats(0.0, 1.0)
    cfg = TrainerConfig(
        rounds=draw(st.integers(1, 3)),
        local_steps=draw(st.integers(1, 3)),
        clients_per_round=draw(st.integers(1, m)),
        local_lr=draw(st.floats(0.01, 0.3)),
        global_lr=draw(st.sampled_from([1.0, 0.5])),
        alpha=draw(unit),
        theta=draw(st.sampled_from([0.0, math.pi / 2]) | st.floats(0.0, math.pi / 2)),
        eba=EbaConfig(
            tau0=draw(st.floats(0.05, 2.0)),
            schedule=draw(st.sampled_from(EbaConfig.SCHEDULES)),
            decay=draw(unit),
            prior=draw(st.sampled_from(EbaConfig.PRIORS)),
        ),
        qffl=QfflConfig(
            q=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 3.0)),
            lipschitz=draw(st.floats(0.5, 2.0)),
        ),
        # below, at and above the client sizes of 1-12
        batch_size=draw(st.none() | st.integers(1, 13)),
        method=draw(st.sampled_from(TrainerConfig.METHODS)),
        seed=draw(st.integers(0, 2**32)),
        k_percent=draw(st.sampled_from([5.0, 50.0, 100.0])),
    )
    return federation, cfg, x0, train, train if test is None else test


class TestWholeRunMatchesPerClientLoop:
    """Every golden config's run, round by round and in its final model,
    has the bits of a loop trainer that evaluates each client on its own,
    and so has every run of small random federations. This is where
    sampling streams, stack order, weights, prior, the temperature
    schedule, the q-FFL step and telemetry all meet."""

    @pytest.mark.parametrize("name", GOLDEN_CASES)
    def test_golden_config(self, name):
        cfg = parse_config(GOLDEN / name / "config.cfg")
        assert cfg.seeds == (0, 1)
        for seed in cfg.seeds:
            federation, x0 = build_federation(cfg, seed)
            tcfg = cfg.trainer_config(seed)
            train, test = federation.train.objectives, federation.test.objectives
            assert_run_matches_loop(federation, tcfg, x0, train, test, (name, seed))

    @settings(max_examples=200, deadline=None)
    @given(block=st.integers(1, 16), data=st.data())
    def test_random_runs(self, block, data):
        with mock.patch.object(stacks, "STACK_BLOCK_ROWS", block):
            federation, cfg, x0, train, test = data.draw(whole_runs())
            assert_run_matches_loop(federation, cfg, x0, train, test, cfg)
