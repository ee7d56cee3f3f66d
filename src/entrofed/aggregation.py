"""Server-side weighting strategies and temperature scheduling.

Entropy-based aggregation weights (with or without a prior), uniform and
data-ratio baselines, the temperature annealing schedules, and the q-FFL
weights and step length. Every method's server step is one weighted
product of the cohort's displacements, which the trainer applies. All
functions are stateless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from entrofed.core import bounded, check_settings, one_of, setting, softmax_temperature


@dataclass(frozen=True)
class EbaConfig:
    """Entropy-based aggregation settings.

    tau0 is the initial temperature; decay controls how fast the schedule
    cools it. With prior "data_ratio" the weights are tilted by client data
    fractions before normalization.
    """

    SCHEDULES = ("constant", "linear", "concave", "convex")
    PRIORS = ("uniform", "data_ratio")

    tau0: float = setting("trainer", 0.1, bounded(0.0, open_low=True))
    schedule: str = setting("trainer", "constant", one_of(*SCHEDULES), key="tau_schedule")
    decay: float = setting("trainer", 0.0, bounded(0.0), key="tau_decay")
    prior: str = setting("trainer", "uniform", one_of(*PRIORS))

    def __post_init__(self):
        check_settings(self)


@dataclass(frozen=True)
class QfflConfig:
    """q-FFL settings: loss power q and the Lipschitz normalizer."""

    q: float = setting("trainer", 1.0, bounded(0.0), key="qffl_q")
    lipschitz: float = setting("trainer", 1.0, bounded(0.0, open_low=True), key="qffl_lipschitz")

    def __post_init__(self):
        check_settings(self)


def schedule_tau(cfg: EbaConfig, k: int) -> float:
    """Temperature for 1-based round k.

    constant: tau0. linear: tau0 / (1 + decay (k-1)). concave: tau0 /
    sqrt(1 + decay (k-1)). convex: tau0 / (1 + decay (k-1))^3. All are
    nonincreasing in k, and positive but where a fast decay takes them
    below the least float: there they are 0, a convex cube past the
    largest float included.
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
    try:
        return cfg.tau0 / base**3
    except OverflowError:
        return 0.0


def eba_weights(losses, tau: float, prior=None) -> np.ndarray:
    """Aggregation weights exp(loss_i / tau), optionally prior-tilted,
    normalized over the participating clients.

    Inherits the float64 underflow contract of
    :func:`~entrofed.core.softmax_temperature`: a weight can underflow to
    exactly 0 only once the spread of loss_i / tau (plus log prior_i, with a
    prior) passes ~708."""
    return softmax_temperature(losses, tau, prior)


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


def qffl_step(deltas, losses, cfg: QfflConfig) -> tuple[np.ndarray, float]:
    """The q-FFL server step as weights p and a step length: x_t + step *
    (p @ deltas) is x_t - sum_i F_i^q g_i / sum_i h_i.

    With pseudo-gradients g_i = -L d_i of the (s, D) local displacements
    and h_i = q F_i^(q-1) ||g_i||^2 + L F_i^q, the weights are the
    normalized loss powers p_i = F_i^q / sum_j F_j^q (uniform when every
    power vanishes) and step = sum F^q / (sum F^q + q L sum_i F_i^(q-1)
    ||d_i||^2). L sits only in the q-term, so q = 0 gives step 1.0 and the
    uniform mean displacement, zero losses included (F^0 = 1); only
    fractional powers 0 < q < 1 reject a zero loss, whose q-term would need
    a negative power of zero.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    losses = np.asarray(losses, dtype=np.float64)
    if deltas.ndim != 2 or losses.shape != (len(deltas),) or losses.size == 0:
        raise ValueError("need one displacement row per loss")
    if np.any(losses < 0):
        raise ValueError("losses must be nonnegative")
    q = cfg.q
    if 0.0 < q < 1.0 and np.any(losses == 0):
        raise ValueError("zero loss is outside the domain of fractional loss powers")
    powered = losses**q
    total = powered.sum()
    normalizer = total
    if q > 0.0:
        sq_norms = np.einsum("ij,ij->i", deltas, deltas)
        normalizer += q * cfg.lipschitz * float(losses ** (q - 1.0) @ sq_norms)
    if normalizer == 0.0:
        raise ZeroDivisionError("degenerate q-FFL step: normalizer sums to zero")
    weights = powered / total if total > 0.0 else uniform_weights(losses.size)
    return weights, float(total / normalizer)
