"""Fairness metrics and executable oracles.

Variance-based fairness statistics (per-client performance spread, tail
means), the exact two-client toy round, the linear-regression variance
formulas, and a brute-force simplex-grid check that the temperature softmax
solves the constrained maximum-entropy problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from entrofed.core import entropy, softmax_temperature, validate_simplex
from entrofed.aggregation import uniform_weights
from entrofed.stacks import ObjectiveStack


class InfeasibleGridError(RuntimeError):
    """No simplex grid point satisfies the mean-loss constraint; widen the slack."""


def weighted_variance(values, p) -> float:
    """sum_i p_i (v_i - sum_j p_j v_j)^2 for simplex weights p."""
    v = np.asarray(values, dtype=np.float64)
    w = validate_simplex(p)
    if v.shape != w.shape:
        raise ValueError("values and weights must have the same length")
    return _variance(v, w)


def _variance(v: np.ndarray, w: np.ndarray) -> float:
    mean = float(np.dot(w, v))
    return float(np.dot(w, (v - mean) ** 2))


def population_variance(values) -> float:
    """Variance with the 1/m convention: weighted_variance under uniform
    weights, bit for bit, without checking the weights it makes."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("values must be nonempty")
    return _variance(v, uniform_weights(v.size))


def tail_mean(values, k_percent: float, side: str) -> float:
    """Mean of the ceil(k% of m) smallest ("worst") or largest ("best")
    values, NaNs ranked last on either side; a tail that holds a NaN has
    the mean ``math.nan``. Ties may come in any order: equal values have
    equal bits, save +0.0 and -0.0, so only the sign of a zero mean can
    depend on it."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("values must be nonempty")
    if not 0.0 < k_percent <= 100.0:
        raise ValueError("k_percent must be in (0, 100]")
    if side not in ("worst", "best"):
        raise ValueError("side must be 'worst' or 'best'")
    return _tail_means(v, k_percent)[side == "best"]


def _tail_means(v: np.ndarray, k_percent: float) -> tuple[float, float]:
    """The worst and the best tail means of :func:`tail_mean`, from one
    sort: the worst tail is its first values, the best the last values
    before its NaNs, summed largest first. Each is the sum ``mean`` takes,
    over the count, without its Python wrapper. A tail of a positive share
    holds at least one value, also where the share times the count
    underflows to 0."""
    count = max(1, math.ceil(k_percent * v.size / 100.0))
    ranked = np.sort(v)
    end = v.size - np.count_nonzero(np.isnan(ranked))
    worst = float(np.add.reduce(ranked[:count]) / count)
    best = math.nan
    if end >= count:
        best = float(np.add.reduce(ranked[end - count : end][::-1]) / count)
    return (math.nan if math.isnan(worst) else worst), (math.nan if math.isnan(best) else best)


@dataclass(frozen=True)
class FairnessReport:
    """The spread statistics of per-client test performance."""

    loss_variance: float
    accuracy_variance: float
    worst_tail_accuracy: float
    best_tail_accuracy: float
    global_accuracy: float


def evaluate_fairness(
    stack: ObjectiveStack, x: np.ndarray, k_percent: float = 5.0
) -> FairnessReport:
    """Evaluate a model on every client's test objective.

    ``stack`` is a federation's ``test`` stack, which holds the clients'
    test data for the whole run, so no round copies it. Accuracy
    statistics are NaN for objective families without an ``accuracy``
    method (regression clients); the global accuracy is weighted by client
    test-set size.
    """
    losses, accs = stack.evaluate(x)
    sizes = stack.sizes
    if np.all(np.isfinite(accs)):
        acc_var = population_variance(accs)
        worst, best = _tail_means(accs, k_percent)
        global_acc = float(np.dot(sizes, accs) / sizes.sum())
    else:
        acc_var = worst = best = global_acc = float("nan")
    return FairnessReport(
        loss_variance=population_variance(losses),
        accuracy_variance=acc_var,
        worst_tail_accuracy=worst,
        best_tail_accuracy=best,
        global_accuracy=global_acc,
    )


@dataclass(frozen=True)
class ToyCaseRecord:
    """One-round closed-form iterates of the two-client quadratic case."""

    local_models: tuple[float, float]
    fedavg: float
    fedeba: float
    qffl: float
    qffl_deltas: tuple[float, float]
    qffl_h: tuple[float, float]
    loss_gaps: dict[str, float]
    variances: dict[str, float]


def toy_case_oracle(
    eta_l: float, tau: float, q: float = 1.0, alpha: float = 0.5, lipschitz: float = 1.0
) -> ToyCaseRecord:
    """Exact one-round arithmetic for F1 = 2(x-2)^2, F2 = (1/2)(x+4)^2, x_t = 0.

    No trainer involved: local models come from a single gradient step with
    rate eta_l; the averaging iterate is their mean; the entropy-weighted
    iterate blends the weight-aggregated update with the mean one-step
    update via alpha (weights use end-of-round local losses at temperature
    tau); the q-FFL iterate applies the Lipschitz-normalized step
    x - sum(delta)/sum(h). Some write-ups negate the pseudo-gradient sum,
    which flips the q-FFL iterate's sign; its magnitude is the stable
    quantity. Per-iterate loss gaps |F2 - F1| and two-client population
    variances are reported for fairness comparisons.
    """
    if not eta_l > 0:
        raise ValueError("eta_l must be positive")
    if not tau > 0:
        raise ValueError("tau must be positive")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")

    def f1(x: float) -> float:
        return 2.0 * (x - 2.0) ** 2

    def f2(x: float) -> float:
        return 0.5 * (x + 4.0) ** 2

    x_t = 0.0
    g1, g2 = 4.0 * (x_t - 2.0), (x_t + 4.0)
    x1, x2 = x_t - eta_l * g1, x_t - eta_l * g2

    x_avg = 0.5 * (x1 + x2)

    p = softmax_temperature([f1(x1), f2(x2)], tau)
    weighted = float(p[0] * (x1 - x_t) + p[1] * (x2 - x_t))
    one_step = 0.5 * ((x1 - x_t) + (x2 - x_t))
    x_eba = x_t + (1.0 - alpha) * weighted + alpha * one_step

    lip = lipschitz
    grads = (lip * (x_t - x1), lip * (x_t - x2))
    f_now = (f1(x_t), f2(x_t))
    deltas = tuple(f**q * g for f, g in zip(f_now, grads))
    h = tuple(
        (q * f ** (q - 1.0) * g * g if q > 0 else 0.0) + lip * f**q
        for f, g in zip(f_now, grads)
    )
    x_qffl = x_t - sum(deltas) / sum(h)

    iterates = {"fedavg": x_avg, "fedeba": x_eba, "qffl": x_qffl}
    gaps = {k: abs(f2(v) - f1(v)) for k, v in iterates.items()}
    variances = {
        k: population_variance([f1(v), f2(v)]) for k, v in iterates.items()
    }
    return ToyCaseRecord(
        local_models=(x1, x2),
        fedavg=x_avg,
        fedeba=x_eba,
        qffl=x_qffl,
        qffl_deltas=deltas,
        qffl_h=h,
        loss_gaps=gaps,
        variances=variances,
    )


@dataclass(frozen=True)
class RegressionOracleSetup:
    """Aggregated-model variance inputs: per-client true parameters w_i,
    the design scale b, and the aggregation weights p."""

    true_params: np.ndarray  # (m, d)
    design_scale: float
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.true_params, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError("true_params must be an m x d matrix")
        p = validate_simplex(self.weights)
        if p.size != w.shape[0]:
            raise ValueError("one weight per client required")
        if not self.design_scale > 0:
            raise ValueError("design_scale must be positive")
        object.__setattr__(self, "true_params", w)
        object.__setattr__(self, "weights", p)

    @property
    def aggregate(self) -> np.ndarray:
        # a fixed order of products and sums, whose bits no BLAS kernel sets
        return np.add.reduce(self.weights[:, None] * self.true_params, axis=0)


def regression_variance_oracle(setup: RegressionOracleSetup, weighted: bool = False) -> float:
    """Test-loss variance of the aggregated regression model.

    With A_i = ||w_agg - w_i||^2 and w_agg = sum_i p_i w_i, returns
    (b^2/4) * var(A) where var is the population variance, or the p-weighted
    variance sum p_i (A_i - sum p_j A_j)^2 when ``weighted`` is set. For two
    clients the weighted form collapses to p1 p2 (A1 - A2)^2, which is
    maximized by uniform weights.
    """
    diff = setup.aggregate[None, :] - setup.true_params
    a = np.einsum("ij,ij->i", diff, diff)
    scale = setup.design_scale**2 / 4.0
    if weighted:
        return scale * weighted_variance(a, setup.weights)
    return scale * population_variance(a)


def _simplex_grid(m: int, steps: int) -> np.ndarray:
    """All points of the m-simplex with coordinates k/steps."""
    if m == 2:
        i = np.arange(steps + 1)
        return np.stack([i, steps - i], axis=1) / steps
    if m == 3:
        pts = [
            (i, j, steps - i - j)
            for i in range(steps + 1)
            for j in range(steps + 1 - i)
        ]
        return np.asarray(pts, dtype=np.float64) / steps
    raise ValueError("grid enumeration supports at most 3 clients")


def entropy_max_bruteforce(
    losses, tau: float, grid_step: float, slack: float
) -> tuple[np.ndarray, float]:
    """Brute-force check that the temperature softmax maximizes entropy.

    Enumerates the simplex grid at resolution 1/round(1/grid_step) and
    returns the maximum-entropy grid point whose mean loss lies in
    [f_target, f_target + slack], where f_target is the softmax's own mean
    loss. The window sits on the side where the entropy-versus-mean-loss
    curve is nonincreasing, so the grid maximum can never exceed the
    softmax entropy by more than rounding; ties go to the lexicographically
    smallest grid point. Raises InfeasibleGridError when no grid point
    lands in the window (the caller widens the slack).
    """
    if not 0.0 < grid_step <= 0.5:
        raise ValueError("grid_step must be in (0, 0.5]")
    if not slack > 0:
        raise ValueError("slack must be positive")
    arr = np.asarray(losses, dtype=np.float64)
    m = arr.size
    steps = int(round(1.0 / grid_step))
    grid = _simplex_grid(m, steps)

    soft = softmax_temperature(arr, tau)
    f_target = float(soft @ arr)
    dots = grid @ arr
    feasible = (dots >= f_target - 1e-12) & (dots <= f_target + slack)
    if not feasible.any():
        raise InfeasibleGridError(
            f"no grid point with mean loss in [{f_target}, {f_target + slack}]"
        )
    candidates = grid[feasible]
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(candidates > 0, np.log(np.where(candidates > 0, candidates, 1.0)), 0.0)
    entropies = -(candidates * logs).sum(axis=1)
    best = entropies.max()
    # lexicographically smallest among ties
    tied = np.flatnonzero(entropies >= best - 1e-15)
    order = np.lexsort(candidates[tied].T[::-1])
    winner = tied[order[0]]
    return candidates[winner], float(entropies[winner])


def softmax_entropy(losses, tau: float) -> float:
    """Entropy of the temperature softmax itself (the quantity the grid
    oracle is checked against)."""
    return entropy(softmax_temperature(losses, tau))
