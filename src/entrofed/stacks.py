"""Stacked evaluation of many client objectives: a federation's data.

:func:`stack_objectives` returns an :class:`ObjectiveStack` for a sequence
of objectives: a family stack for GLR or classifier clients, which copies
their samples once and evaluates them in passes of whole segments of
equal-size clients, or the per-objective loop for other families;
:func:`classifier_stack` builds one from a split side of a dataset. A
federation's telemetry runs on its two stacks, and a round's cohort on a
``take`` of the train stack.

A family stack's passes reuse one scratch arena, which the stacks its
``take`` makes share. So a family stack, and the stacks taken from it,
must not be evaluated from two threads at once; objectives still may be.
What ``losses``, ``gradients`` and ``evaluate`` return is never the
arena's.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from entrofed.objectives import ClassifierObjective, GlrObjective


# Rows per pass in stacked evaluation, at 10 classes. A pass holds whole
# segments: a segment is c clients of one row count n, cut from a run of
# equal counts at max(1, cap // n) clients, so a client larger than the cap
# gets a pass of its own. The cap is a cache trade: each pass makes a few
# per-row temporaries, and larger passes mean fewer numpy calls until those
# outgrow the cache. On 1000 softmax clients of 10 classes, a train and a
# test pass take 55-65% as long at 2048 rows as at 256, and a third longer
# again at 4096, where each temporary reaches 320 KiB. The classifier stack
# holds each temporary to that budget of STACK_BLOCK_ROWS * 10 floats: its
# cap is the budget over the wider of the class count and the hidden width.
STACK_BLOCK_ROWS = 2048


class ObjectiveStack:
    """Full-batch passes over many objectives. :meth:`losses` and
    :meth:`gradients` take each objective at a parameter vector of its own,
    or at one shared vector, and :meth:`gradients` takes a step of
    :meth:`minibatches` for local SGD. A round's telemetry makes two passes
    at one parameter vector: :meth:`losses` on the train side, and
    :meth:`evaluate`, losses and accuracies, on the test side. A round's
    cohort is :meth:`take` of the train side.

    This base form calls each objective in turn; quadratics and mixed
    families use it. A family stack (see :func:`stack_objectives`) holds the
    samples of GLR or classifier clients, not objectives (``objectives``
    makes views of them), and implements ``losses``, ``gradients``,
    ``evaluate`` and ``take``; the classifier stack's ``evaluate`` takes
    losses and accuracies from one forward pass. A family stack copies the
    samples once, in ascending client size, and evaluates them in passes of
    whole segments of equal-size clients (see ``STACK_BLOCK_ROWS``). Within
    a pass, only the matmuls, the per-client bias adds and the per-client
    row sums and means run segment by segment; they make the BLAS calls and
    the row reductions of each client's own ``loss``, ``accuracy`` and
    ``gradient``. The classifier stack runs its activations, softmax and
    other row-wise arithmetic once over all rows of the pass. So losses,
    accuracies and gradients, at one shared vector or at per-client
    parameters, full sets and minibatches alike, are bitwise equal to
    per-client calls. :meth:`in_pass_order` numbers the same clients as the
    passes run them, so local SGD steps them without gathers.
    """

    def __init__(self, objectives):
        self.objectives = tuple(objectives)
        self.sizes = np.array([o.full_size for o in self.objectives], dtype=np.int64)

    @property
    def m(self) -> int:
        return len(self.sizes)

    @property
    def dimension(self) -> int:
        dims = {o.dimension for o in self.objectives}
        if len(dims) != 1:
            raise ValueError("the objectives of a stack must share one dimension")
        return dims.pop()

    def take(self, ids) -> ObjectiveStack:
        """The stack of objectives ``ids``, in that order: a round's cohort."""
        return stack_objectives([self.objectives[i] for i in ids])

    def in_pass_order(self) -> tuple[ObjectiveStack, np.ndarray]:
        """(stack, order): these objectives in the order the passes run
        them, as a stack whose passes read per-client parameters and write
        results without a gather, and order[j], the position here of its
        objective j. Local SGD steps a cohort in that order. The loop runs
        objectives as they come, so this form returns itself."""
        return self, np.arange(self.m)

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Losses and accuracies (NaN for families without one) at x."""
        accs = [o.accuracy(x) if hasattr(o, "accuracy") else np.nan for o in self.objectives]
        return self.losses(x), np.array(accs)

    def losses(self, xs: np.ndarray) -> np.ndarray:
        """Entry i is ``objectives[i].loss(xs[i])``: every objective's
        full-set loss at its own parameter vector, an (m, D) input, or at
        one (D,) vector for all."""
        xs = np.broadcast_to(xs, (self.m, np.shape(xs)[-1]))
        return np.array([o.loss(x) for o, x in zip(self.objectives, xs)])

    def minibatches(self, subsets: np.ndarray):
        """An iterator of the steps of a (K, b, r) array of sample indices,
        in the form :meth:`gradients` takes: at step k, the b objectives with
        more than r samples, in objective order, take the rows
        ``subsets[k]``, and the others their full sets."""
        subsets = np.asarray(subsets, dtype=np.int64)
        takers = np.flatnonzero(self.sizes > subsets.shape[-1])
        return iter([dict(zip(takers, rows, strict=True)) for rows in subsets])

    def gradients(self, xs: np.ndarray, step=None, out=None) -> np.ndarray:
        """Row i is objective i's gradient at its own parameter vector
        ``xs[i]`` (as in :meth:`losses`): on its full set, or on its rows
        of ``step``, one entry of :meth:`minibatches`. Written into ``out``,
        an (m, D) array, when one is given, as local SGD's steps do; only
        a stack in pass order (:meth:`in_pass_order`) takes one."""
        xs = np.broadcast_to(xs, (self.m, np.shape(xs)[-1]))
        out = np.empty(xs.shape) if out is None else out
        step = {} if step is None else step
        for i, (o, x) in enumerate(zip(self.objectives, xs)):
            out[i] = o.gradient(x, step.get(i))
        return out


class _Pass(NamedTuple):
    """Whole segments of a family stack, evaluated together. Each segment
    is c clients of n rows each, as slices of the pass's clients and rows."""

    clients: slice  # positions in size order, segment after segment
    segments: tuple  # (client slice, row slice, c, n) per segment
    rows: slice  # of the stack's, or a step's, rows end to end
    inputs: np.ndarray | None = None  # (rows, d) view of those rows
    targets: np.ndarray | None = None  # (rows,)


def _passes(sizes, cap: int) -> list[_Pass]:
    """Unbound passes over clients of ascending row counts ``sizes``, whose
    clients and rows lie end to end: each run of one count n is cut into
    segments of at most max(1, cap // n) clients, and whole segments fill
    passes of at most cap rows (or of one segment, if it is larger)."""
    passes, first, start, rows = [], 0, 0, cap
    for n, count in zip(*np.unique(sizes, return_counts=True)):
        n, count = int(n), int(count)
        per = max(1, cap // n)
        for c in [per] * (count // per) + [count % per] * (count % per > 0):
            if rows + c * n > cap:
                passes.append((first, start, []))
                clients = rows = 0
            passes[-1][2].append((slice(clients, clients + c), slice(rows, rows + c * n), c, n))
            clients += c
            rows += c * n
            first += c
            start += c * n
    return [
        _Pass(slice(a, a + segs[-1][0].stop), tuple(segs), slice(b, b + segs[-1][1].stop))
        for a, b, segs in passes
    ]


def _bind(passes, inputs: np.ndarray, targets: np.ndarray) -> list[_Pass]:
    return [p._replace(inputs=inputs[p.rows], targets=targets[p.rows]) for p in passes]


def _in_size_order(starts, counts) -> np.ndarray:
    """Row positions of clients whose rows are the ``counts[i]`` from
    ``starts[i]``, end to end in stable ascending client size."""
    order = np.argsort(counts, kind="stable")
    counts = counts[order]
    return np.repeat(starts[order] - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


class _Arena:
    """A stack's scratch: one array per temporary name, which its passes
    overwrite pass after pass, so that a local-SGD step makes none of its
    hidden-width, logit or backprop arrays afresh. An array grows to the
    largest pass it has served, which is the pass cap unless one client
    outgrows it. Passes on stacks that share an arena must not run at
    once."""

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}
        self._views: dict[tuple, np.ndarray] = {}

    def __call__(self, name: str, shape: tuple) -> np.ndarray:
        view = self._views.get((name, shape))
        if view is None:
            size = math.prod(shape)
            flat = self._arrays.get(name)
            if flat is None or flat.size < size:
                flat = self._arrays[name] = np.empty(size)
                self._views.clear()
            view = self._views[name, shape] = flat[:size].reshape(shape)
        return view


class _RowStack(ObjectiveStack):
    """A family stack: one copy of every client's (inputs, targets) rows,
    laid out by ``_in_size_order`` of their ``counts``, in passes of at most
    ``cap`` rows (``_chunks``) whose segments are views of the one copy.
    ``model`` gives the shape, not samples. It and the arena that the
    passes write their temporaries into are shared by :meth:`take` and
    :meth:`in_pass_order`.

    Passes run over consecutive positions in that size order. Per-client
    parameters are gathered into it once per call (``_sorted``), and
    results go back to objective order through ``_inverse``, unless the
    objectives are in size order already."""

    def __init__(self, model, counts, inputs, targets, cap: int, arena, chunks=None):
        self.model = model
        self.sizes = counts
        self._cap = cap
        self._arena = _Arena() if arena is None else arena
        self._order = np.argsort(counts, kind="stable")
        self._inverse = np.argsort(self._order)
        self._ascending = bool(np.all(counts[:-1] <= counts[1:]))
        self._counts = sizes = counts[self._order]
        self._inputs, self._targets = inputs, targets
        self._starts = np.cumsum(sizes) - sizes
        if chunks is None:
            chunks = _bind(_passes(sizes, cap), inputs, targets)
        self._chunks = chunks

    @property
    def dimension(self) -> int:
        return self.model.dimension

    @property
    def objectives(self) -> tuple:
        """Each client's objective over views of its rows, made anew."""
        rows = zip(self._starts, self._starts + self._counts)
        views = [self._view(self._inputs[a:b], self._targets[a:b]) for a, b in rows]
        return tuple(views[i] for i in self._inverse)

    def take(self, ids):
        at = self._inverse[ids]
        counts = self._counts[at]
        rows = _in_size_order(self._starts[at], counts)
        return type(self)(self.model, counts, self._inputs[rows], self._targets[rows], self._arena)

    def in_pass_order(self):
        # the same rows, passes and arena, with objectives in size order
        rows = (self.model, self._counts, self._inputs, self._targets)
        return type(self)(*rows, self._arena, self._chunks), self._order

    def _sorted(self, xs):
        xs = np.asarray(xs, dtype=np.float64)
        return xs if xs.ndim == 1 or self._ascending else xs[self._order]

    def _unsorted(self, out):
        return out if self._ascending else out[self._inverse]

    def minibatches(self, subsets):
        # The clients with more than r samples come last in size order; at
        # each step they form segments of r rows after the full sets. A step
        # is its passes, bound to the stack rows it gathers when it is reached.
        subsets = np.asarray(subsets, dtype=np.int64)
        steps, takes, r = subsets.shape
        sizes = self._counts
        full = int(np.searchsorted(sizes, r, side="right"))
        takers = self._order[full:]
        if takes != takers.size:
            raise ValueError("need sample indices for each objective with more than r samples")
        # subsets[:, j] is the j-th taker in objective order
        drawn = self._starts[full:, None] + subsets[:, np.searchsorted(np.sort(takers), takers)]
        head = np.arange(sizes[:full].sum())
        passes = _passes(np.concatenate([sizes[:full], np.full(takers.size, r)]), self._cap)
        rows = (np.concatenate([head, at]) for at in drawn.reshape(steps, -1))
        return (_bind(passes, self._inputs[at], self._targets[at]) for at in rows)

    # A pass evaluates its clients at one shared vector, or at their rows of
    # xs: views of xs and of the result.

    def losses(self, xs):
        xs = self._sorted(xs)
        out = np.empty(self.m)
        for p in self._chunks:
            out[p.clients] = self._pass_losses(p, xs if xs.ndim == 1 else xs[p.clients])
        return self._unsorted(out)

    def gradients(self, xs, step=None, out=None):
        if out is not None and not self._ascending:
            raise ValueError("out is written in pass order: give it to in_pass_order's stack")
        xs = self._sorted(xs)
        sized = np.empty((self.m, xs.shape[-1])) if out is None else out
        for p in self._chunks if step is None else step:
            self._pass_gradients(p, xs if xs.ndim == 1 else xs[p.clients], sized[p.clients])
        return self._unsorted(sized)


class _GlrStack(_RowStack):
    def __init__(self, model, counts, inputs, targets, arena=None, chunks=None):
        super().__init__(model, counts, inputs, targets, STACK_BLOCK_ROWS, arena, chunks)

    _view = staticmethod(GlrObjective)

    @staticmethod
    def _residuals(p, xs):
        """(segment, design rows (c, n, d), residuals (c, n)) of each
        segment of a pass, at one parameter vector or at one row of xs per
        pass client: a gemv per client, the BLAS call ``GlrObjective``
        makes."""
        for segment in p.segments:
            cs, rs, c, n = segment
            design = p.inputs[rs].reshape(c, n, -1)
            fit = design @ xs if xs.ndim == 1 else (design @ xs[cs, :, None])[..., 0]
            yield segment, design, fit - p.targets[rs].reshape(c, n)

    def _pass_losses(self, p, xs):
        # (1, n) @ (n, 1) per client is the BLAS dot GlrObjective.loss uses
        residuals = self._residuals(p, xs)
        return np.concatenate(
            [0.5 * (r[:, None, :] @ r[:, :, None])[:, 0, 0] / n for (*_, n), _, r in residuals]
        )

    def _pass_gradients(self, p, xs, out):
        for (cs, _, _, n), design, r in self._residuals(p, xs):
            out[cs] = (design.swapaxes(-1, -2) @ r[..., None])[..., 0] / n

    def evaluate(self, x):
        return self.losses(self.model._check_x(x)), np.full(self.m, np.nan)


class _ClassifierStack(_RowStack):
    def __init__(self, model, counts, inputs, targets, arena=None, chunks=None):
        cap = max(1, STACK_BLOCK_ROWS * 10 // max(model.n_classes, model.hidden))
        super().__init__(model, counts, inputs, targets, cap, arena, chunks)

    def _view(self, inputs, targets):
        model = self.model
        return ClassifierObjective(inputs, targets, model.n_classes, model.hidden, model.activation)

    def _affine(self, p, rows, name, w, b=None):
        """``rows @ w + b`` over a pass into the (rows, k) arena array
        ``name``: per segment, one matmul (one BLAS call per client) and,
        for per-client weights, one bias add. ``w`` and ``b`` are one
        layer's, or stacked per pass client ((s, d, k) and (s, 1, k))."""
        out = self._arena(name, (len(rows), w.shape[-1]))
        shared = w.ndim == 2
        for cs, rs, c, n in p.segments:
            seg = out[rs].reshape(c, n, -1)
            np.matmul(rows[rs].reshape(c, n, -1), w if shared else w[cs], out=seg)
            if b is not None and not shared:
                seg += b[cs]
        if b is not None and shared:
            out += b
        return out

    def _layers(self, p, x):
        """Logits and hidden activations of a pass's rows, at one parameter
        vector or at one row of x per pass client."""
        model = self.model
        if model.hidden == 0:
            return self._affine(p, p.inputs, "logits", *model._unpack(x)), None
        w1, b1, w2, b2 = model._unpack(x)
        act = model._activate(self._affine(p, p.inputs, "hidden", w1, b1))
        return self._affine(p, act, "logits", w2, b2), act

    @staticmethod
    def _means(p, values):
        """Each pass client's mean of its rows' values, in pass order: the
        float64 sum over n that ``mean`` takes, without its Python
        wrapper."""
        return np.concatenate(
            [
                np.add.reduce(values[rs].reshape(c, n), axis=1, dtype=np.float64) / n
                for _, rs, c, n in p.segments
            ]
        )

    def _mean_losses(self, p, logits):
        return self._means(p, -self.model._target_log_probs(logits, p.targets, self._arena))

    def _pass_losses(self, p, xs):
        return self._mean_losses(p, self._layers(p, xs)[0])

    @staticmethod
    def _weight_grads(p, rows, delta, dw, db):
        """A layer's weight and bias gradients for each pass client, into
        views of its gradient row: its rows transposed times its deltas, and
        the deltas' column sums."""
        for cs, rs, c, n in p.segments:
            d = delta[rs].reshape(c, n, -1)
            np.matmul(rows[rs].reshape(c, n, -1).swapaxes(-1, -2), d, out=dw[cs])
            np.add.reduce(d, axis=-2, keepdims=True, out=db[cs])

    def _dlogits(self, p, logp):
        """The gradient of each row's cross-entropy in its logits, over its
        client's row count: one division per segment."""
        dlogits = self.model._probs_minus_labels(logp, p.targets, self._arena)
        for _, rs, _, n in p.segments:
            dlogits[rs] /= n
        return dlogits

    def _pass_gradients(self, p, xs, out):
        model = self.model
        logits, act = self._layers(p, xs)
        dlogits = self._dlogits(p, model._log_softmax(logits, self._arena))
        grads = model._unpack(out)
        if model.hidden == 0:
            self._weight_grads(p, p.inputs, dlogits, *grads)
            return
        self._weight_grads(p, act, dlogits, *grads[2:])
        dact = self._affine(p, dlogits, "dhidden", model._unpack(xs)[2].swapaxes(-1, -2))
        self._weight_grads(p, p.inputs, model._through_activation(dact, act), *grads[:2])

    def evaluate(self, x):
        arr = self.model._check_x(x)
        losses = np.empty(self.m)
        accs = np.empty(self.m)
        for p in self._chunks:
            logits = self._layers(p, arr)[0]
            losses[p.clients] = self._mean_losses(p, logits)
            accs[p.clients] = self._means(p, logits.argmax(axis=-1) == p.targets)
        return self._unsorted(losses), self._unsorted(accs)


def stack_objectives(objectives) -> ObjectiveStack:
    """The stacked evaluator for a sequence of objectives: a one-pass family
    stack over a copy of their samples when all are of one family and one
    shape, else the per-objective loop."""
    objs = tuple(objectives)
    kinds = {type(o) for o in objs}
    if kinds == {GlrObjective} and len({o.dimension for o in objs}) == 1:
        family = _GlrStack
    elif kinds == {ClassifierObjective} and len(
        {(o.features.shape[1], o.n_classes, o.hidden, o.activation) for o in objs}
    ) == 1:
        family = _ClassifierStack
    else:
        return ObjectiveStack(objs)
    counts = np.array([o.full_size for o in objs], dtype=np.int64)
    rows = _in_size_order(np.cumsum(counts) - counts, counts)
    inputs, targets = (np.concatenate(side)[rows] for side in zip(*(o._rows() for o in objs)))
    return family(objs[0], counts, inputs, targets)


def classifier_stack(ds, side, hidden: int = 0, activation: str = "identity") -> ObjectiveStack:
    """The stack of one classifier per client of a split side ``(indices,
    counts)`` of a labeled dataset. The side's rows are gathered once,
    straight into the stack's layout, under one ``ClassifierObjective``
    that checks them: the stack's ``model``."""
    indices, counts = side
    rows = indices[_in_size_order(np.cumsum(counts) - counts, counts)]
    features, labels = ds.features[rows], ds.labels[rows]
    model = ClassifierObjective(features, labels, ds.n_classes, hidden, activation)
    return _ClassifierStack(model, counts, model.features, model.labels)
