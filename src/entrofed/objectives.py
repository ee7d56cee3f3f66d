"""Client-side local objectives: loss and gradient contracts.

Three concrete families share one interface:

* :class:`QuadraticObjective` -- exact 1-D quadratics ``a (x - c)^2``,
* :class:`GlrObjective` -- linear regression ``(1/2n) ||X w - y||^2``,
* :class:`ClassifierObjective` -- softmax regression or a one-hidden-layer
  MLP with hand-written backpropagation.

:mod:`entrofed.stacks` evaluates many objectives of one family together,
bit for bit as their own methods, which are plain numpy: the reference
that the stacks' bound kernels are checked against.

Model parameters are always a single flat float64 vector; the layout per
architecture is documented on the class. Objectives are immutable after
construction and safe to evaluate concurrently.
"""

from __future__ import annotations

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
        if design.ndim != 2 or design.shape[0] == 0:
            raise ValueError("design must be a nonempty n x d matrix")
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


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, shifted by each row's max."""
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


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
        if hidden > 0 and activation == "identity":
            raise ValueError("a hidden layer needs the tanh or relu activation")
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
        pre = feats @ w1 + b1
        act = np.tanh(pre) if self.activation == "tanh" else np.maximum(pre, 0.0)
        return act @ w2 + b2, act

    def loss(self, x, subset=None) -> float:
        arr = self._check_x(x)
        feats, labels = self._rows(subset)
        logp = _log_softmax(self._logits(arr, feats)[0])
        # the mean of the rows' cross-entropies, each minus a log-probability,
        # so that a loss of exactly 0 is +0.0, as numpy's sum from +0.0 gives
        return float(np.mean(-logp[np.arange(len(labels)), labels]))

    def gradient(self, x, subset=None) -> np.ndarray:
        arr = self._check_x(x)
        feats, labels = self._rows(subset)
        logits, act = self._logits(arr, feats)
        # each row's gradient in its logits, over the batch size: the
        # softmax less the one-hot labels
        dlogits = np.exp(_log_softmax(logits))
        dlogits[np.arange(len(labels)), labels] -= 1.0
        dlogits /= len(labels)
        if self.hidden == 0:
            return np.concatenate([(feats.T @ dlogits).ravel(), dlogits.sum(axis=0)])
        dpre = dlogits @ self._unpack(arr)[2].T
        dpre *= 1.0 - act * act if self.activation == "tanh" else act > 0
        dw1, dw2 = feats.T @ dpre, act.T @ dlogits
        return np.concatenate([dw1.ravel(), dpre.sum(axis=0), dw2.ravel(), dlogits.sum(axis=0)])

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
