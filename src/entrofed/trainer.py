"""Federated training loops.

One round function serves all three methods: sample clients, take their
start-of-round losses from the previous round's telemetry, gate on the fair
angle, run local SGD (plain or gradient-aligned), weight the updates, apply
the server step, and emit telemetry. The methods differ only in the weights
and the server step's length:

* ``fedavg``   -- fixed uniform or data-ratio weights, plain server step;
* ``qffl``     -- normalized loss powers F_i^q, with the q-FFL step length;
* ``fedeba_plus`` -- entropy-based weights from end-of-round losses plus
  model alignment (plain branch) or gradient alignment (fair-angle branch,
  taken by this method only).

All randomness flows through per-(round, client) streams derived from the
run seed, so trajectories are bit-reproducible, identical across methods
that share a seed, and independent of client execution order. The sampled
cohort's local SGD runs as one step loop over a matrix of client
parameters; rounds themselves are sequential. A round evaluates clients only
through objective stacks, never through per-client calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from entrofed.aggregation import (
    EbaConfig,
    QfflConfig,
    data_ratio_weights,
    eba_weights,
    qffl_step,
    schedule_tau,
    uniform_weights,
)
from entrofed.analysis import evaluate_fairness
from entrofed.core import (
    SeededRng,
    bounded,
    check_settings,
    fair_angle,
    next_uniforms,
    one_of,
    or_none,
    row_argsort,
    setting,
)
from entrofed.stacks import ObjectiveStack

# derivation tags for trainer-owned random streams
_TAG_SAMPLING = 101
_TAG_LOCAL = 102


@dataclass(frozen=True)
class TrainerConfig:
    """All federated hyperparameters for one training run.

    theta is the fair-angle threshold in radians; a config file gives it in
    degrees, as ``theta_deg``. The default pi/2 (90 degrees) never aligns:
    the angle of nonnegative losses is at most pi/2, so no theta >= pi/2
    aligns. batch_size None (``full`` in a config file) means full-batch
    local steps. seed is no config key: a run takes each of its seeds.
    """

    METHODS = ("fedavg", "qffl", "fedeba_plus")

    rounds: int = setting("trainer", 50, bounded(1))
    local_steps: int = setting("trainer", 5, bounded(1))
    clients_per_round: int = setting("trainer", 10, bounded(1))
    local_lr: float = setting("trainer", 0.05, bounded(0.0, open_low=True))
    global_lr: float = setting("trainer", 1.0, bounded(0.0, open_low=True))
    alpha: float = setting("trainer", 0.5, bounded(0.0, 1.0))
    theta: float = setting(
        "trainer", math.pi / 2, bounded(0.0, 180.0), "theta_deg", (math.radians, math.degrees)
    )
    eba: EbaConfig = EbaConfig()
    qffl: QfflConfig = QfflConfig()
    batch_size: int | None = setting("trainer", None, or_none(bounded(1)))
    method: str = setting("trainer", "fedeba_plus", one_of(*METHODS))
    seed: int = 0
    k_percent: float = setting("metrics", 5.0, bounded(0.0, 100.0, open_low=True))

    def __post_init__(self):
        check_settings(self)
        # tau depends on the config alone, and the last round's is the least
        if self.method == "fedeba_plus" and schedule_tau(self.eba, self.rounds) == 0.0:
            raise ValueError(
                f"trainer.tau_decay: the {self.eba.schedule} schedule cools tau to 0 within "
                f"{self.rounds} rounds (tau0 = {self.eba.tau0}, tau_decay = {self.eba.decay})"
            )


@dataclass(frozen=True)
class Federation:
    """A fixed set of clients as two objective stacks: client i trains on
    objective i of ``train`` and is tested on objective i of ``test``, of
    one parameter dimension. Without a test stack, ``test`` is ``train``:
    every client is evaluated on its training objective."""

    train: ObjectiveStack
    test: ObjectiveStack | None = None

    def __post_init__(self):
        if not self.train.m:
            raise ValueError("federation needs at least one client")
        if self.test is None:
            object.__setattr__(self, "test", self.train)
        elif self.test.m != self.train.m:
            raise ValueError(f"{self.test.m} test objectives for {self.train.m} clients")
        if self.test.dimension != self.train.dimension:
            raise ValueError("client train and test objectives must share one dimension")

    @property
    def m(self) -> int:
        return self.train.m

    @property
    def dimension(self) -> int:
        return self.train.dimension


@dataclass(frozen=True)
class CohortUpdate:
    """What a sampled cohort sends back after local training, one row per
    client in cohort order."""

    deltas: np.ndarray  # (s, D) displacements after the last step
    one_step: np.ndarray | None  # (s, D) after the first step; None if aligned
    end_losses: np.ndarray  # (s,) full-batch losses after the last step


@dataclass(frozen=True)
class RoundReport:
    """Per-round telemetry. A run keeps every round's report, so no field
    holds a vector that grows with the client count m.

    Angle and weights describe the round's internals (start losses of the
    sampled clients, aggregation weights actually used); the loss/accuracy
    statistics are evaluated at the post-update model. Accuracy fields are
    NaN for federations without classifier clients.
    """

    round_index: int
    tau: float
    angle: float
    branch: str
    sampled: np.ndarray
    weights: np.ndarray
    global_train_loss: float
    loss_variance: float
    accuracy_variance: float
    worst_tail_accuracy: float
    best_tail_accuracy: float
    global_accuracy: float
    chi_square: float

    @property
    def extra_comm(self) -> bool:
        """Whether the round took the aligned branch, whose start gradients
        cost one extra communication."""
        return self.branch == "aligned"


def sample_clients(m: int, n: int, rng: SeededRng) -> np.ndarray:
    """n distinct client ids drawn uniformly without replacement."""
    if not 1 <= n <= m:
        raise ValueError(f"cannot sample {n} of {m} clients")
    return rng.sample_without_replacement(m, n)


def compute_fair_gradient(grads, losses, tau: float) -> np.ndarray:
    """Softmax-weighted combination of start-of-round client gradients,
    one row of ``grads`` per loss."""
    grads = np.asarray(grads, dtype=np.float64)
    losses = np.asarray(losses, dtype=np.float64)
    if grads.ndim != 2 or len(grads) != losses.size or losses.size == 0:
        raise ValueError("need one gradient row per loss")
    out = np.zeros(grads.shape[1])
    for w, g in zip(eba_weights(losses, tau), grads):
        out += w * g
    return out


def _minibatch_orders(sizes, batch_size: int | None, steps: int, rngs) -> np.ndarray | None:
    """The (steps, takers, batch_size) sample indices of local SGD's
    minibatches, for the clients of ``sizes`` with more than batch_size
    samples in client order, or None when no client has (or batch_size is
    None): the others take full-batch steps.

    Each client draws from its own stream in ``rngs``, as it would alone.
    Batches are drawn without replacement from a fresh shuffle each epoch,
    and a ragged final batch is folded into the next epoch's shuffle so
    every step sees the same batch size. Each epoch's shuffle is a stable
    argsort of n uniforms, all epochs from one draw. Here all clients'
    draws come from one pass, and every (client, epoch) row is shuffled by
    one :func:`row_argsort`.
    """
    if batch_size is None:
        return None
    takers = np.flatnonzero(sizes > batch_size)
    if not takers.size:
        return None
    streams = [rngs[i] for i in takers]
    if any(rng is None for rng in streams):
        raise ValueError("minibatching requires a SeededRng")
    n = sizes[takers]
    per_epoch = n // batch_size
    epochs = -(-steps // per_epoch)
    rows = np.repeat(n, epochs)
    starts = np.cumsum(rows) - rows
    # the positions of each row's draws in shuffled order, counted from the
    # row's start
    shuffled = row_argsort(next_uniforms(streams, epochs * n), rows)
    shuffled -= np.repeat(starts, rows)
    # A client's steps take the first steps * batch_size entries of its
    # epochs' shuffles, each cut to its per_epoch whole batches: the first
    # ``kept`` entries of each (client, epoch) row, all in one gather.
    used = np.repeat(per_epoch * batch_size, epochs)
    epoch = np.arange(rows.size) - np.repeat(np.cumsum(epochs) - epochs, epochs)
    kept = np.minimum(steps * batch_size - epoch * used, used)
    at = np.repeat(starts - np.cumsum(kept) + kept, kept) + np.arange(kept.sum())
    return shuffled[at].reshape(takers.size, steps, batch_size).swapaxes(0, 1)


class _RunPlan:
    """A run's local-SGD step plans. ``bind`` gives a round's (plan, x, g):
    a ``step_plan`` of the round's stack bound to a parameter matrix x,
    each row at x_start, and a gradient matrix g. It keeps the full-batch
    plan bound last, with its x and g: a later cohort of its layout (the
    same model and row counts in pass order) refills it, and x restarts at
    x_start; g needs no reset, as each step writes all of it. So a run whose
    cohorts share one layout binds one full-batch plan. A minibatch plan is
    bound for its round and not kept. A run's plans live as long as it."""

    def __init__(self):
        self._kept = None

    def bind(self, stack: ObjectiveStack, x_start: np.ndarray, subsets=None):
        kept = self._kept
        if subsets is None and kept is not None and kept[0].refill(stack):
            kept[1][...] = x_start
            return kept
        x = np.repeat(x_start[None], stack.m, axis=0)
        g = np.empty_like(x)
        bound = stack.step_plan(x, g, subsets), x, g
        if subsets is None:
            self._kept = bound
        return bound


def _local_steps(
    cohort: ObjectiveStack,
    x_start: np.ndarray,
    steps: int,
    lr: float,
    batch_size: int | None,
    rngs,
    alpha: float = 0.0,
    fair_grad: np.ndarray | None = None,
    plan: _RunPlan | None = None,
) -> CohortUpdate:
    """The step loop of both local SGD variants, for a whole cohort.

    Each client starts from x_start, draws its minibatches from its own
    stream in ``rngs``, and at each step moves along its minibatch gradient
    g, or along (1 - alpha) * g + alpha * fair_grad when a fair gradient is
    given; the one-step displacement is recorded only for plain steps. The
    end loss is a full-batch snapshot. The steps keep the clients in the
    stack's pass order (``in_pass_order``) and run one ``step_plan`` of it,
    bound to the round's parameter and gradient matrices, which the loop
    updates in place: every step is one pass of the cohort over its
    minibatches and full sets. The run's ``plan`` (a ``_RunPlan`` of this
    call alone if none is given) binds it, or refills the full-batch plan
    it keeps when the cohort has that plan's layout. A full-batch round
    takes its end losses from the plan; a minibatch round's are one
    ``losses`` pass. The results go back to cohort order once, into new
    arrays."""
    if not cohort.m:
        raise ValueError("need at least one client objective")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x_start = np.asarray(x_start, dtype=np.float64)
    if x_start.shape != (cohort.dimension,):
        raise ValueError("start parameter dimension mismatch")
    if fair_grad is not None and fair_grad.shape != x_start.shape:
        raise ValueError("fair gradient dimension mismatch")
    rngs = [None] * cohort.m if rngs is None else list(rngs)
    if len(rngs) != cohort.m:
        raise ValueError(f"{len(rngs)} minibatch streams for {cohort.m} clients")
    stack, order = cohort.in_pass_order()
    subsets = _minibatch_orders(stack.sizes, batch_size, steps, [rngs[i] for i in order])
    plan = _RunPlan() if plan is None else plan
    step, x, g = plan.bind(stack, x_start, subsets)
    fair_share = None if fair_grad is None else alpha * fair_grad
    back = np.argsort(order)
    one_step = None
    for k in range(steps):
        step(k)
        # in place, x - lr * ((1 - alpha) * g + alpha * fair_grad) rounds
        # each operation exactly as written
        if fair_share is not None:
            g *= 1.0 - alpha
            g += fair_share
        g *= lr
        x -= g
        if k == 0 and fair_grad is None:
            one_step = x[back]
            one_step -= x_start
    # a full-batch plan's passes hold the cohort's full sets already
    end_losses = stack.losses(x) if subsets is not None else step.losses()
    # back to cohort order, into new arrays: the run's plan keeps x and g
    x -= x_start
    return CohortUpdate(x[back], one_step, end_losses[back])


def local_sgd(
    cohort: ObjectiveStack,
    x_start: np.ndarray,
    steps: int,
    lr: float,
    batch_size: int | None = None,
    rngs=None,
    plan: _RunPlan | None = None,
) -> CohortUpdate:
    """K local gradient steps of every client in a cohort (a stack of
    their objectives), each from x_start: the full and one-step
    displacements plus the full-batch loss after the last step, one row per
    client. ``rngs`` holds one minibatch stream per client (needed only for
    minibatches). ``plan`` is the run's :class:`_RunPlan`, which
    :func:`run_training` makes; what is returned are new arrays, which no
    later call overwrites."""
    return _local_steps(cohort, x_start, steps, lr, batch_size, rngs, plan=plan)


def local_sgd_aligned(
    cohort: ObjectiveStack,
    x_start: np.ndarray,
    steps: int,
    lr: float,
    alpha: float,
    fair_grad: np.ndarray,
    batch_size: int | None = None,
    rngs=None,
    plan: _RunPlan | None = None,
) -> CohortUpdate:
    """Local steps along (1 - alpha) * local gradient + alpha * fair
    gradient, for every client in a cohort, with the fair gradient held
    fixed for the whole round. The one-step displacement is not collected
    on this branch; ``plan`` is as in :func:`local_sgd`."""
    fair_grad = np.asarray(fair_grad, dtype=np.float64)
    return _local_steps(cohort, x_start, steps, lr, batch_size, rngs, alpha, fair_grad, plan)


def aggregate_plain(deltas, p) -> np.ndarray:
    """Weighted sum of client displacements, one row of ``deltas`` each."""
    deltas = np.asarray(deltas, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if deltas.ndim != 2 or not len(deltas) or p.shape != (len(deltas),):
        raise ValueError("need one weight per row of a nonempty delta matrix")
    return p @ deltas


def aggregate_model_alignment(deltas, one_step, p, alpha: float) -> np.ndarray:
    """Blend the weighted aggregate of full local updates with the plain
    average of one-step local updates: (1-a) sum p_i d_i + a mean(d1_i)."""
    if one_step is None or np.shape(one_step) != np.shape(deltas):
        raise ValueError("model alignment needs a one-step delta per delta")
    return (1.0 - alpha) * aggregate_plain(deltas, p) + alpha * np.mean(one_step, axis=0)


def server_update(x_t: np.ndarray, delta: np.ndarray, lr: float) -> np.ndarray:
    """x_{t+1} = x_t + lr * delta."""
    x_t = np.asarray(x_t, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != x_t.shape:
        raise ValueError("update dimension mismatch")
    return x_t + lr * delta


def _chi_square_or_inf(weights: np.ndarray) -> float:
    """``chi_square_divergence(uniform_weights(s), weights)``, or inf at a
    weight of 0, without checking the uniform weights it makes."""
    if np.any(weights <= 0.0):
        return float("inf")
    d = uniform_weights(weights.size) - weights
    chi = float(np.sum(d * d / weights))
    if math.isnan(chi):  # a weight is NaN or +inf
        raise ValueError("p must contain only finite values")
    return chi


def run_round(
    federation: Federation,
    x_t: np.ndarray,
    cfg: TrainerConfig,
    round_index: int,
    rng: SeededRng,
    train_losses: np.ndarray,
    plan: _RunPlan | None = None,
) -> tuple[np.ndarray, np.ndarray, RoundReport]:
    """One round of cfg.method from x_t, where ``train_losses`` holds every
    client's train loss at x_t. Returns x_{t+1}, every client's train loss
    there (the next round's ``train_losses``) and the round's report.
    ``plan`` is the run's kept full-batch step plan (see :func:`local_sgd`).

    Start losses of the sampled clients set the fair angle. Under
    fedeba_plus, an angle above the threshold sends clients the fair
    gradient (softmax of start losses applied to full-batch start
    gradients, one extra communication) and they train with gradient
    alignment; otherwise clients run plain local SGD. Then, by method:

    * fedavg aggregates the full updates with the prior (uniform or data
      ratio);
    * fedeba_plus weights them by the end-of-round local losses at the
      scheduled temperature, tilted by the data-ratio prior if configured,
      and on the plain branch blends in the mean one-step update;
    * qffl weights them by the normalized start-loss powers F_i^q and
      takes the q-FFL step length in place of ``global_lr``.

    Every method then applies one weighted product of the cohort's
    displacements through ``server_update``.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    train_losses = np.asarray(train_losses, dtype=np.float64)
    if train_losses.shape != (federation.m,):
        raise ValueError("need one train loss per client")
    sampled = sample_clients(
        federation.m, cfg.clients_per_round, rng.derive(_TAG_SAMPLING, round_index)
    )
    cohort = federation.train.take(sampled)
    start_losses = train_losses[sampled]
    # an all-zero loss vector has no direction; treat it as perfectly fair
    angle = 0.0 if np.all(start_losses == 0.0) else fair_angle(start_losses)
    eba = cfg.method == "fedeba_plus"
    tau = schedule_tau(cfg.eba, round_index) if eba else float("nan")
    aligned = eba and angle > cfg.theta
    # full-batch steps read no stream, and a derive draws nothing from rng
    streams = None if cfg.batch_size is None else [
        rng.derive(_TAG_LOCAL, round_index, int(cid)) for cid in sampled
    ]
    if aligned:
        fair_grad = compute_fair_gradient(cohort.gradients(x_t), start_losses, tau)
        update = local_sgd_aligned(
            cohort, x_t, cfg.local_steps, cfg.local_lr, cfg.alpha, fair_grad,
            cfg.batch_size, streams, plan,
        )
    else:
        update = local_sgd(
            cohort, x_t, cfg.local_steps, cfg.local_lr, cfg.batch_size, streams, plan
        )

    server_lr = cfg.global_lr
    if cfg.method == "qffl":
        weights, server_lr = qffl_step(update.deltas, start_losses, cfg.qffl)
    else:
        prior = None
        if cfg.eba.prior == "data_ratio":
            prior = data_ratio_weights(cohort.sizes)
        if eba:
            weights = eba_weights(update.end_losses, tau, prior)
        else:
            weights = uniform_weights(len(sampled)) if prior is None else prior
    if eba and not aligned:
        delta = aggregate_model_alignment(update.deltas, update.one_step, weights, cfg.alpha)
    else:
        delta = aggregate_plain(update.deltas, weights)
    x_next = server_update(x_t, delta, server_lr)

    train_next = federation.train.losses(x_next)
    fairness = evaluate_fairness(federation.test, x_next, cfg.k_percent)
    report = RoundReport(
        round_index=round_index,
        tau=tau,
        angle=angle,
        branch="aligned" if aligned else "plain",
        sampled=sampled,
        weights=weights,
        global_train_loss=float(train_next.mean()),
        loss_variance=fairness.loss_variance,
        accuracy_variance=fairness.accuracy_variance,
        worst_tail_accuracy=fairness.worst_tail_accuracy,
        best_tail_accuracy=fairness.best_tail_accuracy,
        global_accuracy=fairness.global_accuracy,
        chi_square=_chi_square_or_inf(weights),
    )
    return x_next, train_next, report


def run_training(
    federation: Federation,
    cfg: TrainerConfig,
    x0: np.ndarray | None = None,
    on_round=None,
) -> tuple[list[RoundReport], np.ndarray]:
    """Run cfg.rounds rounds of the configured method from x0 (zeros by
    default). Deterministic under cfg.seed; methods sharing a seed sample
    the same clients and draw the same local batches each round. One
    stacked pass gives the train losses at x0; after that, each round
    returns the next round's, so per-client state lives for one round
    only. A run keeps its last full-batch step plan for the next cohort
    of its layout (``_RunPlan``). When given,
    ``on_round(report, x_next)`` streams each round's telemetry and the
    post-update model to the caller."""
    x = (
        np.zeros(federation.dimension)
        if x0 is None
        else np.asarray(x0, dtype=np.float64).copy()
    )
    if x.shape != (federation.dimension,):
        raise ValueError("x0 dimension mismatch")
    root = SeededRng(cfg.seed)
    reports: list[RoundReport] = []
    train_losses = federation.train.losses(x)
    plan = _RunPlan()
    for t in range(1, cfg.rounds + 1):
        x, train_losses, report = run_round(federation, x, cfg, t, root, train_losses, plan)
        reports.append(report)
        if on_round is not None:
            on_round(report, x)
    return reports, x
