"""Server-side weighting strategies and temperature scheduling.

Entropy-based aggregation weights (with or without a prior), uniform and
data-ratio baselines, the temperature annealing schedules, and the q-FFL
server displacement. All functions are stateless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from entrofed.core import softmax_temperature, softmax_with_prior

@dataclass(frozen=True)
class EbaConfig:
    """Entropy-based aggregation settings.

    tau0 is the initial temperature; decay controls how fast the schedule
    cools it. With prior "data_ratio" the weights are tilted by client data
    fractions before normalization.
    """

    SCHEDULES = ("constant", "linear", "concave", "convex")
    PRIORS = ("uniform", "data_ratio")

    tau0: float = 0.1
    schedule: str = "constant"
    decay: float = 0.0
    prior: str = "uniform"

    def __post_init__(self):
        if not self.tau0 > 0:
            raise ValueError("tau0 must be positive")
        if self.schedule not in self.SCHEDULES:
            raise ValueError(f"schedule must be one of {self.SCHEDULES}")
        if self.decay < 0:
            raise ValueError("decay must be >= 0")
        if self.prior not in self.PRIORS:
            raise ValueError(f"prior must be one of {self.PRIORS}")


@dataclass(frozen=True)
class QfflConfig:
    """q-FFL settings: loss power q and the Lipschitz normalizer."""

    q: float = 1.0
    lipschitz: float = 1.0

    def __post_init__(self):
        if self.q < 0:
            raise ValueError("q must be >= 0")
        if not self.lipschitz > 0:
            raise ValueError("lipschitz must be positive")


def schedule_tau(cfg: EbaConfig, k: int) -> float:
    """Temperature for 1-based round k.

    constant: tau0. linear: tau0 / (1 + decay (k-1)). concave: tau0 /
    sqrt(1 + decay (k-1)). convex: tau0 / (1 + decay (k-1))^3. All are
    strictly positive and nonincreasing in k.
    """
    if k < 1:
        raise ValueError("round index is 1-based")
    if cfg.schedule == "constant":
        return cfg.tau0
    base = 1.0 + cfg.decay * (k - 1)
    if cfg.schedule == "linear":
        return cfg.tau0 / base
    if cfg.schedule == "concave":
        return cfg.tau0 / np.sqrt(base)
    return cfg.tau0 / base**3


def eba_weights(losses, tau: float, prior=None) -> np.ndarray:
    """Aggregation weights exp(loss_i / tau), optionally prior-tilted,
    normalized over the participating clients.

    Inherits the float64 underflow contract of
    :func:`~entrofed.core.softmax_temperature` (and, with a prior, of
    :func:`~entrofed.core.softmax_with_prior`): a weight can underflow to
    exactly 0 only once the spread of loss_i / tau (plus log prior_i, with a
    prior) passes ~708."""
    if prior is None:
        return softmax_temperature(losses, tau)
    return softmax_with_prior(losses, tau, prior)


def uniform_weights(m: int) -> np.ndarray:
    if m < 1:
        raise ValueError("need at least one client")
    return np.full(m, 1.0 / m)


def data_ratio_weights(sizes) -> np.ndarray:
    arr = np.asarray(sizes, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one client")
    if np.any(arr <= 0):
        raise ValueError("data sizes must be positive")
    return arr / arr.sum()


def qffl_delta(x_t: np.ndarray, local_models, losses, cfg: QfflConfig) -> np.ndarray:
    """The q-FFL server displacement -sum_i F_i^q grad_i / sum_i h_i.

    Pseudo-gradients are grad_i = L (x_t - x_i) for local models x_i, and
    h_i = q F_i^(q-1) ||grad_i||^2 + L F_i^q. With q = 0 this reduces to a
    plain averaged pseudo-gradient step, zero losses included (F^0 = 1);
    only fractional powers 0 < q < 1 reject a zero loss, whose h_i term
    would need a negative power of zero.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    losses = np.asarray(losses, dtype=np.float64)
    models = [np.asarray(m, dtype=np.float64) for m in local_models]
    if len(models) != losses.size or losses.size == 0:
        raise ValueError("need one local model per loss")
    if any(m.shape != x_t.shape for m in models):
        raise ValueError("local model dimension mismatch")
    if np.any(losses < 0):
        raise ValueError("losses must be nonnegative")
    if 0.0 < cfg.q < 1.0 and np.any(losses == 0):
        raise ValueError("zero loss is outside the domain of fractional loss powers")
    lip = cfg.lipschitz
    delta_sum = np.zeros_like(x_t)
    h_sum = 0.0
    for loss, model in zip(losses, models):
        grad = lip * (x_t - model)
        powered = loss**cfg.q
        delta_sum += powered * grad
        if cfg.q > 0.0:
            h_sum += cfg.q * loss ** (cfg.q - 1.0) * float(np.dot(grad, grad))
        h_sum += lip * powered
    if h_sum == 0.0:
        raise ZeroDivisionError("degenerate q-FFL step: normalizer sums to zero")
    return -(delta_sum / h_sum)
