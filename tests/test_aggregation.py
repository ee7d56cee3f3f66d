"""Weighting strategies, temperature schedules, and the q-FFL server displacement."""

import numpy as np
import pytest

from entrofed.aggregation import (
    EbaConfig,
    QfflConfig,
    data_ratio_weights,
    eba_weights,
    qffl_delta,
    schedule_tau,
    uniform_weights,
)
from entrofed.core import SeededRng, softmax_temperature


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
        models = [np.array([2.0]), np.array([-1.0])]
        losses = np.array([8.0, 8.0])
        out = x + qffl_delta(x, models, losses, QfflConfig(q=1.0, lipschitz=1.0))
        assert out[0] == pytest.approx(8.0 / 21.0, abs=1e-15)

    def test_step_is_start_plus_delta(self):
        # The round applies qffl_delta through server_update(x, delta, 1.0):
        # x + (-u) == x - u in IEEE arithmetic, so both give the same bits.
        from entrofed.trainer import server_update

        rng = SeededRng(3)
        x = rng.normals(5)
        models = [x + rng.normals(5) for _ in range(4)]
        losses = np.array([0.5, 1.5, 2.5, 0.7])
        cfg = QfflConfig(q=1.5, lipschitz=2.0)
        delta = qffl_delta(x, models, losses, cfg)
        step = x + qffl_delta(x, models, losses, cfg)
        assert np.array_equal(step, server_update(x, delta, 1.0))
        # the round passes its local models as one (s, D) matrix
        assert np.array_equal(qffl_delta(x, np.stack(models), losses, cfg), delta)
        assert np.array_equal(step, x - (-delta))

    def test_zero_q_is_plain_pseudo_gradient_average(self):
        rng = SeededRng(1)
        x = rng.normals(4)
        models = [x + rng.normals(4) for _ in range(3)]
        losses = np.array([0.5, 1.5, 2.5])
        out = x + qffl_delta(x, models, losses, QfflConfig(q=0.0, lipschitz=1.0))
        grads = np.stack([1.0 * (x - m) for m in models])
        assert out == pytest.approx(x - grads.mean(axis=0), abs=1e-12)

    def test_zero_q_takes_zero_losses(self):
        # F^0 = 1 needs no negative power, so q = 0 keeps the plain
        # pseudo-gradient average when a client's loss is zero.
        rng = SeededRng(4)
        x = rng.normals(3)
        models = [x + rng.normals(3) for _ in range(3)]
        losses = np.array([0.0, 1.5, 0.0])
        out = x + qffl_delta(x, models, losses, QfflConfig(q=0.0, lipschitz=1.0))
        grads = np.stack([1.0 * (x - m) for m in models])
        assert out == pytest.approx(x - grads.mean(axis=0), abs=1e-12)

    def test_equal_losses_cancel_weighting(self):
        rng = SeededRng(2)
        x = rng.normals(3)
        models = [x + rng.normals(3) for _ in range(4)]
        losses = np.full(4, 2.0)
        lip = 1.3
        for q in (0.5, 1.0, 2.0, 3.0):
            out = x + qffl_delta(x, models, losses, QfflConfig(q=q, lipschitz=lip))
            grads = np.stack([lip * (x - m) for m in models])
            f, g2 = 2.0, np.einsum("ij,ij->i", grads, grads)
            expected = x - f**q * grads.sum(axis=0) / (
                (q * f ** (q - 1) * g2).sum() + 4 * lip * f**q
            )
            assert out == pytest.approx(expected, abs=1e-12)

    def test_identical_clients_symmetry(self):
        x = np.zeros(2)
        model = np.array([0.5, -0.25])
        out = x + qffl_delta(x, [model, model], np.array([1.0, 1.0]), QfflConfig(1.0, 1.0))
        grad = -model
        h = float(np.dot(grad, grad)) + 1.0
        assert out == pytest.approx(-2 * grad / (2 * h), abs=1e-15)

    def test_zero_loss_rejected_for_fractional_powers(self):
        x = np.zeros(1)
        with pytest.raises(ValueError, match="domain|loss"):
            qffl_delta(x, [np.ones(1)], np.array([0.0]), QfflConfig(q=0.5))
        with pytest.raises(ValueError, match="domain|loss"):
            qffl_delta(x, [np.ones(1), 2 * np.ones(1)], np.array([1.0, 0.0]), QfflConfig(q=0.999))

    def test_degenerate_normalizer(self):
        # q = 1 with zero losses and unmoved clients: both h terms vanish.
        x = np.zeros(2)
        with pytest.raises(ZeroDivisionError):
            qffl_delta(x, [x.copy()], np.array([0.0]), QfflConfig(q=1.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            qffl_delta(np.zeros(2), [np.zeros(3)], np.array([1.0]), QfflConfig())

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            qffl_delta(np.zeros(1), [np.ones(1)], np.array([-1.0]), QfflConfig())


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

    def test_eba_weights_inherit_softmax_invariants(self):
        rng = SeededRng(3)
        for _ in range(100):
            losses = rng.uniforms(5) * 10
            p = eba_weights(losses, 0.5)
            assert np.all(p > 0) and abs(p.sum() - 1) < 1e-9
            assert np.array_equal(p, softmax_temperature(losses, 0.5))
