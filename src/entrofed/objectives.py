"""Client-side local objectives: loss and gradient contracts.

Three concrete families share one interface:

* :class:`QuadraticObjective` -- exact 1-D quadratics ``a (x - c)^2``,
* :class:`GlrObjective` -- linear regression ``(1/2n) ||X w - y||^2``,
* :class:`ClassifierObjective` -- softmax regression or a one-hidden-layer
  MLP with hand-written backpropagation.

:mod:`entrofed.stacks` evaluates many objectives of one family together.

Model parameters are always a single flat float64 vector; the layout per
architecture is documented on the class. Objectives are immutable after
construction and safe to evaluate concurrently.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod

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

    def _rows(self, subset=None):
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


def _run(calls) -> None:
    """Make the numpy calls of a bound kernel in turn: ``(function,
    arguments)`` pairs over views made when it was bound."""
    for function, args in calls:
        function(*args)


def _iadd(dst, src) -> tuple:
    """The numpy call of ``dst += src``."""
    return np.add, (dst, src, dst)


def _column_sum_plan(a: np.ndarray) -> list[tuple]:
    """The in-place adds, as numpy calls in order, that leave in ``a[0]``
    the sums ``a.sum(axis=0)`` in the order numpy's pairwise sum gives each
    row of a C-ordered ``a.T``, so bit for bit that row sum but for the sign
    and payload of a NaN. The adds overwrite ``a``; planned once, they sum
    whatever ``a`` holds each time they run.

    Below 8 terms the sum is sequential. Up to 128 it keeps 8 interleaved
    partial sums, combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, and
    adds the remainder in sequence. Above 128 it sums two halves, split at a
    multiple of 8, into their first rows, then adds the second to the
    first. Numpy's sum starts from +0.0, which only turns a column of -0.0
    to +0.0; adding +0.0 to the first term does the same.
    """
    n = a.shape[0]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return [*_column_sum_plan(a[:half]), *_column_sum_plan(a[half:]), _iadd(a[0], a[half])]
    out = a[0]
    adds = [_iadd(out, 0.0)]
    if n < 8:
        return adds + [_iadd(out, row) for row in a[1:]]
    r = a[:8]
    adds += [_iadd(r, a[i : i + 8]) for i in range(8, n - n % 8, 8)]
    adds += [_iadd(r[::2], r[1::2]), _iadd(r[::4], r[2::4]), _iadd(out, r[4])]
    return adds + [_iadd(out, row) for row in a[n - n % 8 :]]


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

    def _rows(self, subset=None):
        if subset is None:
            return self.features, self.labels
        idx = np.asarray(subset, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("subset must be nonempty")
        return self.features[idx], self.labels[idx]

    def _logits(self, x: np.ndarray, feats: np.ndarray):
        """Logits and hidden activations (None without a hidden layer)."""
        if self.hidden == 0:
            w, b = self._unpack(x)
            return feats @ w + b, None
        w1, b1, w2, b2 = self._unpack(x)
        act = feats @ w1 + b1
        _run(self._activate(act))
        return act @ w2 + b2, act

    def _activate(self, pre: np.ndarray) -> list:
        """The calls that apply the hidden activation to ``pre`` in place."""
        if self.activation == "tanh":
            return [(np.tanh, (pre, pre))]
        # np.maximum takes its out by keyword only
        return [(functools.partial(np.maximum, out=pre), (pre, 0.0))]

    def _through_activation(self, dact: np.ndarray, act: np.ndarray, mask: np.ndarray) -> list:
        """The calls that take the gradient in the activations ``dact`` to
        that in the pre-activations, in place: times 1 - act^2 for tanh,
        which overwrites act, or times the relu mask, which act > 0 gives
        exactly as the pre-activations would, into ``mask``, a bool array
        of act's shape."""
        if self.activation == "tanh":
            slope = [(np.square, (act, act)), (np.subtract, (1.0, act, act))]
            return [*slope, (np.multiply, (dact, act, dact))]
        return [(np.greater, (act, 0.0, mask)), (np.multiply, (dact, mask, dact))]

    # The class-axis kernels come in bind-time forms: each takes the arrays
    # it reads and writes and returns its numpy calls, which a stack's pass
    # makes over views of its arena, call after call. Their per-client forms
    # run them once on fresh arrays.

    @staticmethod
    def _bind_class_major(rows, z, rowmax, exps, bias=None) -> list:
        """The calls that put into the (classes, rows) array ``z`` the
        (rows, classes) logits ``rows`` less each row's max, as one
        class-major copy, and into ``exps[0]`` the log of each row's sum of
        exp(z); ``rowmax`` takes the maxima and ``exps`` the exponentials.
        Numpy reduces a short last axis one row at a time, so the row max
        and row sum run down the columns of the copy. A max is exact, and
        _column_sum_plan keeps numpy's pairwise order, so z - lse is
        z - log(exp(z).sum(axis=-1)) for z = logits - logits.max(axis=-1)
        bit for bit, but for the sign and payload of a NaN. ``bias``, a
        (classes, 1) column, is the last layer's bias if the logits leave
        it out: it is added to the copy, one contiguous add per class, the
        same sums a row-wise add makes."""
        lse = exps[0]
        calls = [(z.__setitem__, (Ellipsis, rows.T))]
        if bias is not None:
            calls.append((np.add, (z, bias, z)))
        return [
            *calls,
            (np.maximum.reduce, (z, 0, None, rowmax)),
            (np.subtract, (z, rowmax, z)),
            (np.exp, (z, exps)),
            *_column_sum_plan(exps),
            (np.log, (lse, lse)),
        ]

    @staticmethod
    def _bind_log_softmax(rows, z, rowmax, exps) -> list:
        """The calls that leave the log-softmax of ``rows`` in ``z``,
        class-major: :meth:`_bind_class_major`'s, less the log-sum."""
        calls = ClassifierObjective._bind_class_major(rows, z, rowmax, exps)
        return [*calls, (np.subtract, (z, exps[0], z))]

    @staticmethod
    def _bind_target_log_probs(z, lse, at, picked) -> list:
        """The calls that put into ``picked`` each row's log-softmax at its
        label: the one entry of its column of :meth:`_bind_class_major`'s
        ``z`` that a loss reads, less the column's log-sum ``lse``, which is
        the subtraction :meth:`_bind_log_softmax` makes there. ``at`` holds
        those entries' flat positions in z, label * rows + row."""
        # positions in range by construction: "clip" takes straight into out
        return [
            (z.reshape(-1).take, (at, None, picked, "clip")),
            (np.subtract, (picked, lse, picked)),
        ]

    @staticmethod
    def _bind_class_major_hits(z, rowmax, at, labels, out, zeros):
        """A kernel that writes whether each row's label is its argmax, as
        1.0 or 0.0, into ``out`` and returns it, from
        :meth:`_bind_class_major`'s ``z`` and ``rowmax``, with ``at`` as in
        :meth:`_bind_target_log_probs`: a row's label entry of z is 0 and no
        lower class's is, numpy's first-max rule. A row holds one 0 unless
        it ties, so only when z holds more zeros than rows are the tied
        rows' lower classes looked at; ``zeros``, a bool array of z's
        shape, takes the mask of them. It returns None, with nothing
        written, when a row max is not finite: z then holds NaN where argmax
        sees a max."""
        flat, rows = z.reshape(-1), z.shape[1]

        def hits():
            if not np.isfinite(rowmax).all():
                return None
            np.equal(z, 0.0, out=zeros)
            np.equal(flat.take(at, out=out, mode="clip"), 0.0, out=out)
            if np.count_nonzero(zeros) > rows:
                tied = np.flatnonzero(np.count_nonzero(zeros, axis=0) > 1)
                out[tied] = zeros[:, tied].argmax(axis=0) == labels[tied]
            return out

        return hits

    @staticmethod
    def _bind_probs_minus_labels(logp, at, probs, spare) -> list:
        """The calls that put into ``probs`` exp(logp) minus the one-hot
        labels: the gradient of each row's cross-entropy in its logits. A
        one-hot matrix would change only the label entries (x - 0.0 == x),
        so one is subtracted there, at their flat positions in the
        C-ordered ``probs``, row * classes + label, which ``at`` holds,
        by way of ``spare``, a vector of one entry per row."""
        flat = probs.reshape(-1)
        return [
            (np.exp, (logp, probs)),
            (flat.take, (at, None, spare, "clip")),
            (np.subtract, (spare, 1.0, spare)),
            (flat.__setitem__, (at, spare)),
        ]

    @staticmethod
    def _fresh_class_major(logits: np.ndarray):
        """(rows, z, rowmax, exps): the logits' (rows, classes) view and new
        arrays for :meth:`_bind_class_major` to write."""
        rows = logits.reshape(-1, logits.shape[-1])
        return rows, np.empty(rows.shape[::-1]), np.empty(len(rows)), np.empty(rows.shape[::-1])

    @staticmethod
    def _log_softmax(logits: np.ndarray) -> np.ndarray:
        rows, z, rowmax, exps = ClassifierObjective._fresh_class_major(logits)
        _run(ClassifierObjective._bind_log_softmax(rows, z, rowmax, exps))
        return z.T.reshape(logits.shape)

    @staticmethod
    def _target_log_probs(logits: np.ndarray, labels) -> np.ndarray:
        rows, z, rowmax, exps = ClassifierObjective._fresh_class_major(logits)
        at = labels.ravel() * len(rows) + np.arange(len(rows))
        picked = np.empty(len(rows))
        _run(ClassifierObjective._bind_class_major(rows, z, rowmax, exps))
        _run(ClassifierObjective._bind_target_log_probs(z, exps[0], at, picked))
        return picked

    @staticmethod
    def _probs_minus_labels(logp: np.ndarray, labels) -> np.ndarray:
        classes = logp.shape[-1]
        rows = logp.size // classes
        probs = np.empty(logp.shape)
        at = np.arange(rows) * classes + labels.ravel()
        _run(ClassifierObjective._bind_probs_minus_labels(logp, at, probs, np.empty(rows)))
        return probs

    def loss(self, x, subset=None) -> float:
        arr = self._check_x(x)
        feats, labels = self._rows(subset)
        return float(-self._target_log_probs(self._logits(arr, feats)[0], labels).mean())

    def gradient(self, x, subset=None) -> np.ndarray:
        arr = self._check_x(x)
        feats, labels = self._rows(subset)
        logits, act = self._logits(arr, feats)
        dlogits = self._probs_minus_labels(self._log_softmax(logits), labels)
        dlogits /= len(labels)
        return self._backprop(arr, feats, dlogits, act)

    def _backprop(self, arr, feats, dlogits, act) -> np.ndarray:
        """Gradient at ``arr`` of the batch's mean cross-entropy, from
        ``dlogits`` (each row's gradient in its logits, over the batch size)
        and the forward pass's hidden activations."""
        if self.hidden == 0:
            return np.concatenate([(feats.T @ dlogits).ravel(), dlogits.sum(axis=0)])
        w2 = self._unpack(arr)[2]
        dw2 = act.T @ dlogits
        db2 = dlogits.sum(axis=0)
        dpre = dlogits @ w2.T
        _run(self._through_activation(dpre, act, np.empty(act.shape, bool)))
        dw1 = feats.T @ dpre
        db1 = dpre.sum(axis=0)
        return np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2])

    def accuracy(self, x, subset=None) -> float:
        """Fraction of correct argmax predictions, in [0, 1]."""
        arr = self._check_x(x)
        feats, labels = self._rows(subset)
        pred = self._logits(arr, feats)[0].argmax(axis=1)
        return float((pred == labels).mean())


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
