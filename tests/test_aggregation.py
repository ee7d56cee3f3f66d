"""Weighting strategies, temperature schedules, and the q-FFL weights and step length."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entrofed.aggregation import (
    EbaConfig,
    QfflConfig,
    data_ratio_weights,
    eba_weights,
    qffl_step,
    schedule_tau,
    uniform_weights,
)
from entrofed.analysis import toy_case_oracle
from entrofed.core import SeededRng, softmax_temperature
from entrofed.trainer import aggregate_plain, server_update


def qffl_reference(x_t, local_models, losses, cfg: QfflConfig) -> np.ndarray:
    """The q-FFL update x_t - sum_i F_i^q g_i / sum_i h_i, client by client,
    with pseudo-gradients g_i = L (x_t - x_i) of the local models x_i and
    h_i = q F_i^(q-1) ||g_i||^2 + L F_i^q; it raises where qffl_step must."""
    x_t = np.asarray(x_t, dtype=np.float64)
    losses = np.asarray(losses, dtype=np.float64)
    if np.any(losses < 0):
        raise ValueError("losses must be nonnegative")
    if 0.0 < cfg.q < 1.0 and np.any(losses == 0):
        raise ValueError("zero loss is outside the domain of fractional loss powers")
    lip = cfg.lipschitz
    delta_sum = np.zeros_like(x_t)
    h_sum = 0.0
    for loss, model in zip(losses, local_models, strict=True):
        grad = lip * (x_t - model)
        powered = loss**cfg.q
        delta_sum += powered * grad
        if cfg.q > 0.0:
            h_sum += cfg.q * loss ** (cfg.q - 1.0) * float(np.dot(grad, grad))
        h_sum += lip * powered
    if h_sum == 0.0:
        raise ZeroDivisionError("degenerate q-FFL step: normalizer sums to zero")
    return x_t - delta_sum / h_sum


def qffl_update(x_t, deltas, losses, cfg: QfflConfig) -> np.ndarray:
    """x_t + step * (p @ deltas), applied as the round applies it."""
    weights, step = qffl_step(deltas, losses, cfg)
    return server_update(x_t, aggregate_plain(deltas, weights), step)


class TestScheduleTau:
    def test_first_round_returns_tau0(self):
        cfg = EbaConfig(tau0=1.0, schedule="linear", decay=0.1)
        assert schedule_tau(cfg, 1) == 1.0

    def test_linear_frozen_value(self):
        cfg = EbaConfig(tau0=1.0, schedule="linear", decay=0.1)
        assert schedule_tau(cfg, 11) == pytest.approx(0.5, abs=1e-15)

    def test_convex_frozen_value(self):
        cfg = EbaConfig(tau0=2.0, schedule="convex", decay=1.0)
        assert schedule_tau(cfg, 2) == pytest.approx(0.25, abs=1e-15)

    def test_concave_value(self):
        cfg = EbaConfig(tau0=1.0, schedule="concave", decay=3.0)
        assert schedule_tau(cfg, 2) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("schedule", ["constant", "linear", "concave", "convex"])
    def test_nonincreasing_and_positive(self, schedule):
        cfg = EbaConfig(tau0=0.7, schedule=schedule, decay=0.25)
        taus = [schedule_tau(cfg, k) for k in range(1, 60)]
        assert all(t > 0 for t in taus)
        assert all(b <= a for a, b in zip(taus, taus[1:]))

    def test_a_cube_past_the_float_range_is_zero(self):
        # base**3 of a float raises OverflowError past about 1.8e308
        assert schedule_tau(EbaConfig(tau0=0.1, schedule="convex", decay=1e103), 2) == 0.0
        assert schedule_tau(EbaConfig(tau0=0.1, schedule="convex", decay=1e102), 2) > 0.0

    def test_zero_decay_is_constant(self):
        for schedule in ("linear", "concave", "convex"):
            cfg = EbaConfig(tau0=0.3, schedule=schedule, decay=0.0)
            assert {schedule_tau(cfg, k) for k in range(1, 20)} == {0.3}

    def test_rejects_zero_based_round(self):
        with pytest.raises(ValueError, match="1-based"):
            schedule_tau(EbaConfig(), 0)


class TestWeights:
    def test_eba_matches_softmax(self):
        losses = [0.0, 4.5]
        assert eba_weights(losses, 1.0) == pytest.approx(
            (0.0109869426305932, 0.9890130573694068), abs=1e-12
        )

    def test_equal_losses_with_data_prior_return_prior(self):
        p = eba_weights([1.0, 1.0], 1.0, prior=data_ratio_weights([10, 30]))
        assert p == pytest.approx([0.25, 0.75], abs=1e-15)

    def test_huge_tau_is_uniform(self):
        p = eba_weights([0.3, 5.2, 1.7], 1e9)
        assert p == pytest.approx([1 / 3] * 3, abs=1e-6)

    def test_uniform_weights(self):
        assert uniform_weights(4).tolist() == [0.25] * 4
        with pytest.raises(ValueError):
            uniform_weights(0)

    def test_data_ratio_weights(self):
        assert data_ratio_weights([1, 3]).tolist() == [0.25, 0.75]
        assert data_ratio_weights([7, 7, 7]) == pytest.approx([1 / 3] * 3)
        with pytest.raises(ValueError):
            data_ratio_weights([])
        with pytest.raises(ValueError):
            data_ratio_weights([2, 0])


class TestQfflStep:
    def test_toy_intermediates_and_step(self):
        # Two quadratic clients, one local step each from x=0, L=1, q=1.
        x = np.zeros(1)
        deltas = np.array([[2.0], [-1.0]])
        losses = np.array([8.0, 8.0])
        out = qffl_update(x, deltas, losses, QfflConfig(q=1.0, lipschitz=1.0))
        assert out[0] == pytest.approx(8.0 / 21.0, abs=1e-15)

    def test_toy_case_oracle(self):
        # F1(0) = 2 (0 - 2)^2 = 8 and F2(0) = (0 + 4)^2 / 2 = 8
        rec = toy_case_oracle(0.25, 1.0, q=1.0)
        deltas = np.array(rec.local_models)[:, None]
        weights, step = qffl_step(deltas, [8.0, 8.0], QfflConfig(q=1.0, lipschitz=1.0))
        assert weights.tolist() == [0.5, 0.5]
        assert step == 16.0 / 21.0
        assert step * (weights @ deltas)[0] == pytest.approx(rec.qffl, abs=1e-15)
        assert rec.qffl == pytest.approx(8.0 / 21.0, abs=1e-15)

    def test_step_scales_the_weighted_mean(self):
        # The round applies the step through
        # server_update(x, aggregate_plain(deltas, p), step); rows given as
        # a list or as one (s, D) matrix give the same bits.
        rng = SeededRng(3)
        x = rng.normals(5)
        deltas = rng.normals(20).reshape(4, 5)
        losses = np.array([0.5, 1.5, 2.5, 0.7])
        cfg = QfflConfig(q=1.5, lipschitz=2.0)
        weights, step = qffl_step(deltas, losses, cfg)
        assert 0.0 < step < 1.0
        assert np.array_equal(qffl_update(x, deltas, losses, cfg), x + step * (weights @ deltas))
        listed = qffl_step(list(deltas), list(losses), cfg)
        assert np.array_equal(listed[0], weights) and listed[1] == step
        np.testing.assert_allclose(
            qffl_update(x, deltas, losses, cfg),
            qffl_reference(x, x + deltas, losses, cfg),
            rtol=1e-12,
            atol=0,
        )

    @pytest.mark.parametrize("lip", [0.1, 0.3, 1.0, 1.7])
    def test_zero_q_is_plain_pseudo_gradient_average(self, lip):
        rng = SeededRng(1)
        x = rng.normals(4)
        deltas = rng.normals(12).reshape(3, 4)
        losses = np.array([0.5, 1.5, 2.5])
        cfg = QfflConfig(q=0.0, lipschitz=lip)
        weights, step = qffl_step(deltas, losses, cfg)
        assert step == 1.0
        assert np.array_equal(weights, uniform_weights(3))
        out = qffl_update(x, deltas, losses, cfg)
        assert out == pytest.approx(x + deltas.mean(axis=0), abs=1e-12)

    def test_zero_q_takes_zero_losses(self):
        # F^0 = 1 needs no negative power, so q = 0 keeps the plain
        # pseudo-gradient average when a client's loss is zero.
        rng = SeededRng(4)
        x = rng.normals(3)
        deltas = rng.normals(9).reshape(3, 3)
        losses = np.array([0.0, 1.5, 0.0])
        out = qffl_update(x, deltas, losses, QfflConfig(q=0.0, lipschitz=1.0))
        assert out == pytest.approx(x + deltas.mean(axis=0), abs=1e-12)

    def test_equal_losses_cancel_weighting(self):
        rng = SeededRng(2)
        x = rng.normals(3)
        deltas = rng.normals(12).reshape(4, 3)
        losses = np.full(4, 2.0)
        lip = 1.3
        for q in (0.5, 1.0, 2.0, 3.0):
            out = qffl_update(x, deltas, losses, QfflConfig(q=q, lipschitz=lip))
            grads = -lip * deltas
            f, g2 = 2.0, np.einsum("ij,ij->i", grads, grads)
            expected = x - f**q * grads.sum(axis=0) / (
                (q * f ** (q - 1) * g2).sum() + 4 * lip * f**q
            )
            assert out == pytest.approx(expected, abs=1e-12)

    def test_identical_clients_symmetry(self):
        x = np.zeros(2)
        model = np.array([0.5, -0.25])
        out = qffl_update(x, np.stack([model, model]), np.array([1.0, 1.0]), QfflConfig(1.0, 1.0))
        grad = -model
        h = float(np.dot(grad, grad)) + 1.0
        assert out == pytest.approx(-2 * grad / (2 * h), abs=1e-15)

    def test_vanishing_powers_fall_back_to_uniform_weights(self):
        # q = 1 with zero losses: no numerator, so the step is 0 and the
        # recorded weights are uniform
        deltas = np.array([[1.0, 0.0], [0.0, 2.0]])
        weights, step = qffl_step(deltas, np.zeros(2), QfflConfig(q=1.0, lipschitz=2.0))
        assert np.array_equal(weights, uniform_weights(2))
        assert step == 0.0

    def test_zero_loss_rejected_for_fractional_powers(self):
        with pytest.raises(ValueError, match="domain|loss"):
            qffl_step(np.ones((1, 1)), np.array([0.0]), QfflConfig(q=0.5))
        with pytest.raises(ValueError, match="domain|loss"):
            qffl_step(np.array([[1.0], [2.0]]), np.array([1.0, 0.0]), QfflConfig(q=0.999))

    def test_degenerate_normalizer(self):
        # q = 1 with zero losses and unmoved clients: both h terms vanish.
        with pytest.raises(ZeroDivisionError, match="degenerate q-FFL step"):
            qffl_step(np.zeros((1, 2)), np.array([0.0]), QfflConfig(q=1.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="row per loss"):
            qffl_step(np.zeros((2, 3)), np.array([1.0]), QfflConfig())
        with pytest.raises(ValueError, match="row per loss"):
            qffl_step(np.zeros(3), np.ones(3), QfflConfig())
        with pytest.raises(ValueError, match="row per loss"):
            qffl_step(np.zeros((0, 3)), np.zeros(0), QfflConfig())

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            qffl_step(np.ones((1, 1)), np.array([-1.0]), QfflConfig())

    @given(
        s=st.integers(1, 6),
        dim=st.integers(1, 5),
        q=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
        lip=st.floats(0.1, 5.0),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_client_formula(self, s, dim, q, lip, seed, data):
        losses = np.array(
            data.draw(
                st.lists(
                    st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), min_size=s, max_size=s
                )
            )
        )
        rng = SeededRng(seed)
        x = rng.normals(dim)
        deltas = rng.normals(s * dim).reshape(s, dim)
        cfg = QfflConfig(q=q, lipschitz=lip)
        try:
            want = qffl_reference(x, x + deltas, losses, cfg)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)):
                qffl_step(deltas, losses, cfg)
            return
        weights, step = qffl_step(deltas, losses, cfg)
        powered = losses**q
        if powered.sum() > 0.0:
            assert np.array_equal(weights, powered / powered.sum())
        else:
            assert np.array_equal(weights, uniform_weights(s))
        # both sides sum signed terms, so scale the tolerance by the
        # operands rather than by a result that may cancel to near zero
        scale = np.abs(x).max() + np.abs(deltas).max()
        np.testing.assert_allclose(
            x + step * (weights @ deltas), want, rtol=1e-12, atol=1e-12 * scale
        )


class TestConfigValidation:
    def test_eba_config_bounds(self):
        with pytest.raises(ValueError):
            EbaConfig(tau0=0.0)
        with pytest.raises(ValueError):
            EbaConfig(schedule="sqrt")
        with pytest.raises(ValueError):
            EbaConfig(decay=-0.1)
        with pytest.raises(ValueError):
            EbaConfig(prior="loss")

    def test_qffl_config_bounds(self):
        with pytest.raises(ValueError):
            QfflConfig(q=-1.0)
        with pytest.raises(ValueError):
            QfflConfig(lipschitz=0.0)

    # the config file's numbers must be finite; so must the dataclasses'
    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda v: EbaConfig(tau0=v), "tau0"),
            (lambda v: EbaConfig(decay=v), "decay"),
            (lambda v: QfflConfig(q=v), "q"),
            (lambda v: QfflConfig(lipschitz=v), "lipschitz"),
        ],
    )
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_settings_are_rejected(self, make, name, value):
        with pytest.raises(ValueError, match=f"^{name} must"):
            make(value)

    def test_eba_weights_inherit_softmax_invariants(self):
        rng = SeededRng(3)
        for _ in range(100):
            losses = rng.uniforms(5) * 10
            p = eba_weights(losses, 0.5)
            assert np.all(p > 0) and abs(p.sum() - 1) < 1e-9
            assert np.array_equal(p, softmax_temperature(losses, 0.5))
