"""Client-side local objectives: loss and gradient contracts.

Three concrete families share one interface:

* :class:`QuadraticObjective` -- exact 1-D quadratics ``a (x - c)^2``,
* :class:`GlrObjective` -- linear regression ``(1/2n) ||X w - y||^2``,
* :class:`ClassifierObjective` -- softmax regression or a one-hidden-layer
  MLP with hand-written backpropagation.

:func:`stack_objectives` evaluates many objectives of one family in
blocked passes (see :class:`ObjectiveStack`).

Model parameters are always a single flat float64 vector; the layout per
architecture is documented on the class. Objectives are immutable after
construction and safe to evaluate concurrently.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property

import numpy as np

from entrofed.core import SeededRng


class LocalObjective(ABC):
    """Subset-mean loss F(x, subset) and its exact analytic gradient.

    ``subset`` is an index array into the local samples; ``None`` means the
    full local set, which makes the evaluation deterministic.
    """

    @property
    @abstractmethod
    def dimension(self) -> int:
        """Number of model parameters."""

    @property
    @abstractmethod
    def full_size(self) -> int:
        """Number of local samples."""

    @abstractmethod
    def loss(self, x: np.ndarray, subset=None) -> float: ...

    @abstractmethod
    def gradient(self, x: np.ndarray, subset=None) -> np.ndarray: ...

    def _check_x(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=np.float64)
        if arr.shape != (self.dimension,):
            raise ValueError(
                f"parameter vector has shape {arr.shape}, expected ({self.dimension},)"
            )
        return arr


class QuadraticObjective(LocalObjective):
    """F(x) = a (x - c)^2 on a single scalar parameter; gradient 2a (x - c).

    The curvature a must be positive, so the loss is nonnegative with
    minimizer c. A gradient step with rate s maps x to c + (1 - 2 a s)(x - c),
    which gives a closed form for K full-batch steps.
    """

    def __init__(self, a: float, c: float):
        if not a > 0:
            raise ValueError("curvature a must be positive")
        self.a = float(a)
        self.c = float(c)

    @property
    def dimension(self) -> int:
        return 1

    @property
    def full_size(self) -> int:
        return 1

    def loss(self, x, subset=None) -> float:
        arr = self._check_x(x)
        return float(self.a * (arr[0] - self.c) ** 2)

    def gradient(self, x, subset=None) -> np.ndarray:
        arr = self._check_x(x)
        return np.array([2.0 * self.a * (arr[0] - self.c)])


class GlrObjective(LocalObjective):
    """Linear regression loss (1/(2 n_s)) ||X_s w - y_s||^2 over a subset s.

    The gradient is (1/n_s) X_s^T (X_s w - y_s). Convex in w for any design.
    """

    def __init__(self, design: np.ndarray, targets: np.ndarray):
        design = np.asarray(design, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if design.ndim != 2:
            raise ValueError("design must be an n x d matrix")
        if targets.shape != (design.shape[0],):
            raise ValueError("targets must have one entry per design row")
        if not (np.all(np.isfinite(design)) and np.all(np.isfinite(targets))):
            raise ValueError("design and targets must be finite")
        self.design = design
        self.targets = targets

    @property
    def dimension(self) -> int:
        return self.design.shape[1]

    @property
    def full_size(self) -> int:
        return self.design.shape[0]

    def _rows(self, subset):
        if subset is None:
            return self.design, self.targets
        idx = np.asarray(subset, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("subset must be nonempty")
        return self.design[idx], self.targets[idx]

    def loss(self, x, subset=None) -> float:
        w = self._check_x(x)
        X, y = self._rows(subset)
        r = X @ w - y
        return float(0.5 * np.dot(r, r) / len(y))

    def gradient(self, x, subset=None) -> np.ndarray:
        w = self._check_x(x)
        X, y = self._rows(subset)
        return X.T @ (X @ w - y) / len(y)


_ACTIVATIONS = ("identity", "tanh", "relu")


class ClassifierObjective(LocalObjective):
    """Mean softmax cross-entropy classifier with an optional hidden layer.

    hidden == 0 is plain softmax regression with flat layout
    ``[W.ravel(), b]`` for W of shape (d, C). hidden == H > 0 adds one layer:
    ``[W1.ravel(), b1, W2.ravel(), b2]`` with W1 (d, H), W2 (H, C) and the
    chosen activation (tanh or relu) between them. The hidden width is
    capped at 64; this is a desk-scale model family.
    """

    MAX_HIDDEN = 64

    def __init__(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        n_classes: int,
        hidden: int = 0,
        activation: str = "identity",
    ):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.ndim != 2 or features.shape[0] == 0:
            raise ValueError("features must be a nonempty n x d matrix")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must have one entry per sample")
        if n_classes < 2:
            raise ValueError("need at least two classes")
        if labels.min() < 0 or labels.max() >= n_classes:
            raise ValueError("labels out of class range")
        if hidden < 0 or hidden > self.MAX_HIDDEN:
            raise ValueError(f"hidden width must be in [0, {self.MAX_HIDDEN}]")
        if activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}")
        if hidden == 0 and activation != "identity":
            raise ValueError("softmax regression (hidden=0) uses the identity activation")
        self.features = features
        self.labels = labels
        self.n_classes = int(n_classes)
        self.hidden = int(hidden)
        self.activation = activation

    @property
    def dimension(self) -> int:
        d, c, h = self.features.shape[1], self.n_classes, self.hidden
        if h == 0:
            return d * c + c
        return d * h + h + h * c + c

    @property
    def full_size(self) -> int:
        return self.features.shape[0]

    def init_params(self, rng: SeededRng | None = None) -> np.ndarray:
        """Zeros for softmax regression; scaled normal draws for the MLP
        (zero init would leave all hidden units identical)."""
        if self.hidden == 0:
            return np.zeros(self.dimension)
        if rng is None:
            raise ValueError("MLP initialization needs a SeededRng")
        d, h, c = self.features.shape[1], self.hidden, self.n_classes
        w1 = rng.normals(d * h) / np.sqrt(d)
        w2 = rng.normals(h * c) / np.sqrt(h)
        return np.concatenate([w1, np.zeros(h), w2, np.zeros(c)])

    def _unpack(self, x: np.ndarray):
        """Weights and biases of a parameter vector, or of a stack of them
        with leading client axes; biases keep a row axis to broadcast over
        samples."""
        d, c, h = self.features.shape[1], self.n_classes, self.hidden
        lead = x.shape[:-1]
        if h == 0:
            return x[..., : d * c].reshape(*lead, d, c), x[..., None, d * c :]
        o1 = d * h
        o2 = o1 + h
        o3 = o2 + h * c
        return (
            x[..., :o1].reshape(*lead, d, h),
            x[..., None, o1:o2],
            x[..., o2:o3].reshape(*lead, h, c),
            x[..., None, o3:],
        )

    def _batch(self, subset):
        if subset is None:
            return self.features, self.labels
        idx = np.asarray(subset, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("subset must be nonempty")
        return self.features[idx], self.labels[idx]

    def _logits(self, x: np.ndarray, feats: np.ndarray):
        if self.hidden == 0:
            w, b = self._unpack(x)
            return feats @ w + b, None, None
        w1, b1, w2, b2 = self._unpack(x)
        pre = feats @ w1 + b1
        act = np.tanh(pre) if self.activation == "tanh" else np.maximum(pre, 0.0)
        return act @ w2 + b2, pre, act

    @staticmethod
    def _log_softmax(logits: np.ndarray) -> np.ndarray:
        # The row max down the columns of a (classes, rows) copy: numpy
        # reduces a short last axis one row at a time. A max is exact, so
        # this is max(axis=-1) bit for bit, but for the sign and payload of
        # a NaN, which max(axis=-1) resets.
        top = logits.reshape(-1, logits.shape[-1]).T.copy().max(axis=0)
        z = logits - top.reshape(*logits.shape[:-1], 1)
        return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))

    @staticmethod
    def _probs_minus_labels(logp: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """exp(logp) minus the one-hot labels: the gradient of each row's
        cross-entropy in its logits. A one-hot matrix would change only the
        label entries (x - 0.0 == x), so one is subtracted there in place,
        through a row view of the C-ordered result."""
        out = np.exp(logp, order="C")
        rows = out.reshape(-1, logp.shape[-1])
        rows[np.arange(rows.shape[0]), labels.ravel()] -= 1.0
        return out

    def loss(self, x, subset=None) -> float:
        arr = self._check_x(x)
        feats, labels = self._batch(subset)
        logp = self._log_softmax(self._logits(arr, feats)[0])
        return float(-logp[np.arange(len(labels)), labels].mean())

    def gradient(self, x, subset=None) -> np.ndarray:
        arr = self._check_x(x)
        return self._gradient(arr, *self._batch(subset))

    def _gradient(self, arr, feats, labels) -> np.ndarray:
        """Mean cross-entropy gradient over the rows of ``feats``. With a
        stack of parameter vectors (g, D), feats is (g, r, d) and labels
        (g, r): one pass gives the g clients' gradients as rows."""
        logits, pre, act = self._logits(arr, feats)
        return self._backprop(
            arr, feats, labels, self._log_softmax(logits), pre, act, labels.shape[-1]
        )

    def _backprop(self, arr, feats, labels, logp, pre, act, divisor) -> np.ndarray:
        """Gradient of the summed cross-entropy of the rows over ``divisor``,
        from the forward pass's log-probabilities and hidden layer. Leading
        axes of ``arr`` are client axes, matched by those of the rows."""
        dlogits = self._probs_minus_labels(logp, labels)
        dlogits /= divisor
        lead = arr.shape[:-1]
        if self.hidden == 0:
            dw = feats.swapaxes(-1, -2) @ dlogits
            db = dlogits.sum(axis=-2)
            return np.concatenate([dw.reshape(*lead, -1), db], axis=-1)
        w2 = self._unpack(arr)[2]
        dw2 = act.swapaxes(-1, -2) @ dlogits
        db2 = dlogits.sum(axis=-2)
        dact = dlogits @ w2.swapaxes(-1, -2)
        if self.activation == "tanh":
            dpre = dact * (1.0 - act**2)
        else:
            dpre = dact * (pre > 0.0)
        dw1 = feats.swapaxes(-1, -2) @ dpre
        db1 = dpre.sum(axis=-2)
        return np.concatenate(
            [dw1.reshape(*lead, -1), db1, dw2.reshape(*lead, -1), db2], axis=-1
        )

    def accuracy(self, x, subset=None) -> float:
        """Fraction of correct argmax predictions, in [0, 1]."""
        arr = self._check_x(x)
        feats, labels = self._batch(subset)
        pred = self._logits(arr, feats)[0].argmax(axis=1)
        return float((pred == labels).mean())


# Rows per block in stacked evaluation. A block holds whole clients of one
# sample count, so a client larger than this gets a block to itself. The
# size is a cache trade: each pass makes a few (rows, classes) temporaries,
# and larger blocks mean fewer numpy calls until those outgrow the cache.
# On 1000 softmax clients of 10 classes, a train and a test pass take
# 55-65% as long at 2048 rows as at 256, and a third longer again at 4096,
# where each temporary reaches 320 KiB.
STACK_BLOCK_ROWS = 2048


class ObjectiveStack:
    """Full-batch passes over many objectives. At one parameter vector,
    :meth:`evaluate` gives losses and accuracies (the test side) and
    :meth:`losses_and_mean_gradient` losses and the client-mean gradient
    (the train side); :meth:`losses` and :meth:`gradients` take each
    objective at a parameter vector of its own.

    This base form calls each objective in turn. :func:`stack_objectives`
    returns a family subclass where one exists. The GLR and classifier
    stacks copy the samples once into blocks of equal-size clients and
    evaluate a whole block per numpy call; each client's rows go through
    the same BLAS calls and the same row reductions as its own
    ``loss``/``accuracy``, so losses and accuracies are bitwise equal to the
    per-client values, from either pass. Other families, quadratic among
    them, use this loop. The mean gradient is one backward pass with every
    row scaled by 1/(m n_i), and agrees with the mean of per-client
    gradients up to summation order. Both stacks also evaluate
    :meth:`losses` one block per pass, and the classifier stack
    :meth:`gradients` one block (or one minibatch) per pass, bitwise equal to
    the per-client ``loss`` and ``gradient`` calls.
    """

    def __init__(self, objectives):
        self.objectives = tuple(objectives)
        self.sizes = np.array([o.full_size for o in self.objectives], dtype=np.float64)

    @property
    def m(self) -> int:
        return len(self.objectives)

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Losses and accuracies (NaN for families without one) at x."""
        objs = self.objectives
        accs = [o.accuracy(x) if hasattr(o, "accuracy") else np.nan for o in objs]
        return np.array([o.loss(x) for o in objs]), np.array(accs)

    def losses_and_mean_gradient(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Losses at x and the mean of the gradients there."""
        objs = self.objectives
        return np.array([o.loss(x) for o in objs]), np.mean([o.gradient(x) for o in objs], axis=0)

    def losses(self, xs: np.ndarray) -> np.ndarray:
        """Entry i is ``objectives[i].loss(xs[i])``: every objective's
        full-set loss at its own parameter vector, an (m, D) input."""
        return np.array([o.loss(x) for o, x in zip(self.objectives, xs)])

    def gradients(self, xs: np.ndarray, subsets: np.ndarray | None = None) -> np.ndarray:
        """Row i is ``objectives[i].gradient(xs[i], subsets[i])``: every
        objective at its own parameter vector, on r sample indices each
        ((m, D) and (m, r) inputs), or on its full set when ``subsets`` is
        None."""
        if subsets is None:
            subsets = [None] * self.m
        return np.array([o.gradient(x, s) for o, x, s in zip(self.objectives, xs, subsets)])


def _size_blocks(objectives, rows) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Blocks ``(ids, inputs, targets)``: runs of c clients of one sample
    count n (ascending n, at most max(1, STACK_BLOCK_ROWS // n) clients per
    run), with their ``rows(objective)`` pairs stacked to (c, n, d) and
    (c, n)."""
    sizes = np.array([o.full_size for o in objectives])
    order = np.argsort(sizes, kind="stable")
    blocks, start = [], 0
    while start < order.size:
        n = sizes[order[start]]
        ids = order[start : start + max(1, STACK_BLOCK_ROWS // n)]
        ids = ids[sizes[ids] == n]
        inputs, targets = zip(*(rows(objectives[i]) for i in ids))
        blocks.append((ids, np.stack(inputs), np.stack(targets)))
        start += ids.size
    return blocks


class _GlrStack(ObjectiveStack):
    @cached_property
    def _blocks(self):
        return _size_blocks(self.objectives, lambda o: (o.design, o.targets))

    def _residuals(self, x):
        w = self.objectives[0]._check_x(x)
        return [(ids, design, design @ w - targets) for ids, design, targets in self._blocks]

    def _losses(self, residuals):
        losses = np.empty(self.m)
        for ids, _, r in residuals:
            # (1, n) @ (n, 1) per client is the BLAS dot GlrObjective.loss uses
            losses[ids] = 0.5 * (r[:, None, :] @ r[:, :, None])[:, 0, 0] / r.shape[1]
        return losses

    def evaluate(self, x):
        return self._losses(self._residuals(x)), np.full(self.m, np.nan)

    def losses(self, xs):
        # (n, d) @ (d, 1) per client is the BLAS gemv GlrObjective.loss uses
        return self._losses(
            [(ids, d, (d @ xs[ids][..., None])[..., 0] - t) for ids, d, t in self._blocks]
        )

    def losses_and_mean_gradient(self, x):
        res = self._residuals(x)
        grad = sum(d.reshape(r.size, -1).T @ r.ravel() / (self.m * r.shape[1]) for _, d, r in res)
        return self._losses(res), grad


class _ClassifierStack(ObjectiveStack):
    def __init__(self, objectives):
        super().__init__(objectives)
        self._model = self.objectives[0]

    @cached_property
    def _blocks(self):
        return _size_blocks(self.objectives, lambda o: (o.features, o.labels))

    @cached_property
    def _rows(self):
        """Every objective's samples end to end, and where each one starts."""
        starts = np.concatenate([[0], np.cumsum(self.sizes[:-1])]).astype(np.int64)
        feats = np.concatenate([o.features for o in self.objectives])
        labels = np.concatenate([o.labels for o in self.objectives])
        return feats, labels, starts

    def _forward(self, x, feats, labels):
        """Logits, hidden layer, log-probabilities and per-client mean
        losses of C-ordered (c, r, d) rows at one parameter vector or c of
        them: matmul makes one BLAS call per client, the one its own makes."""
        logits, pre, act = self._model._logits(x, feats)
        logp = self._model._log_softmax(logits)
        picked = np.take_along_axis(logp, labels[..., None], axis=-1)[..., 0]
        return logits, pre, act, logp, (-picked).mean(axis=1)

    def losses(self, xs):
        out = np.empty(self.m)
        for ids, feats, labels in self._blocks:
            out[ids] = self._forward(xs[ids], feats, labels)[-1]
        return out

    def gradients(self, xs, subsets=None):
        if subsets is None:
            out = np.empty_like(xs)
            for ids, feats, labels in self._blocks:
                out[ids] = self._model._gradient(xs[ids], feats, labels)
            return out
        feats, labels, starts = self._rows
        rows = np.ascontiguousarray(starts[:, None] + subsets)
        return self._model._gradient(xs, feats[rows], labels[rows])

    def evaluate(self, x):
        arr = self._model._check_x(x)
        losses = np.empty(self.m)
        accs = np.empty(self.m)
        for ids, feats, labels in self._blocks:
            logits, _, _, _, losses[ids] = self._forward(arr, feats, labels)
            accs[ids] = (logits.argmax(axis=-1) == labels).mean(axis=1)
        return losses, accs

    def losses_and_mean_gradient(self, x):
        model = self._model
        arr = model._check_x(x)
        losses = np.empty(self.m)
        grad = np.zeros_like(arr)
        for ids, feats, labels in self._blocks:
            _, pre, act, logp, losses[ids] = self._forward(arr, feats, labels)
            # the block's samples as one batch of rows, each scaled by 1/(m n)
            rows = labels.size
            flat = [None if a is None else a.reshape(rows, -1) for a in (feats, logp, pre, act)]
            grad += model._backprop(
                arr, flat[0], labels.ravel(), *flat[1:], self.m * labels.shape[1]
            )
        return losses, grad


def stack_objectives(objectives) -> ObjectiveStack:
    """The stacked evaluator for a sequence of objectives: a one-pass family
    stack when all are of one family and one shape, else the per-objective
    loop."""
    objs = tuple(objectives)
    kinds = {type(o) for o in objs}
    if kinds == {GlrObjective} and len({o.dimension for o in objs}) == 1:
        return _GlrStack(objs)
    if kinds == {ClassifierObjective} and len(
        {(o.features.shape[1], o.n_classes, o.hidden, o.activation) for o in objs}
    ) == 1:
        return _ClassifierStack(objs)
    return ObjectiveStack(objs)


def finite_diff_gradient(
    obj: LocalObjective, x: np.ndarray, subset=None, step: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient estimate, coordinate by coordinate.

    The per-coordinate step is ``step * (1 + |x_j|)``, which keeps the
    relative truncation error roughly uniform across scales. Test oracle:
    independent of every analytic gradient it checks.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for j in range(x.size):
        h = step * (1.0 + abs(x[j]))
        hi = x.copy()
        lo = x.copy()
        hi[j] += h
        lo[j] -= h
        out[j] = (obj.loss(hi, subset) - obj.loss(lo, subset)) / (2.0 * h)
    return out


def glr_least_squares(obj: GlrObjective) -> np.ndarray:
    """Closed-form least squares (X^T X)^{-1} X^T y for a full-rank design."""
    X, y = obj.design, obj.targets
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise np.linalg.LinAlgError("design matrix is rank-deficient")
    return np.linalg.solve(X.T @ X, X.T @ y)
