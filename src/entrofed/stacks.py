"""Stacked evaluation of many client objectives: a federation's data.

:func:`stack_objectives` returns an :class:`ObjectiveStack` for a sequence
of objectives: a family stack for GLR or classifier clients, which copies
their samples once and evaluates them in passes of whole segments of
equal-size clients, or the per-objective loop for other families;
:func:`classifier_stack` builds one from a split side of a dataset, and
:func:`glr_stack` from the stacked rows of regression clients. A
federation's telemetry runs on its two stacks, and a round's cohort on a
``take`` of the train stack, whose local SGD runs one ``step_plan``.

A family stack binds each pass once, to views of what it reads and
writes: a telemetry pass when the stack first runs it, and a local-SGD
round's passes when its plan is made. A classifier pass is bound to one
list of numpy calls over those views, so that a step, a plan's losses and
the telemetry passes at one shared vector make numpy calls and nothing
else. A full-batch plan's passes also give the round's end losses,
and a cohort's start gradients run on its telemetry passes, which its end
losses then share. A run binds a full-batch plan when a cohort of a new
layout (model and row counts in pass order) comes, and refills it for each
later cohort of that layout: one ``take`` of its rows and one of its labels
into the plan's buffers; a minibatch plan is bound for its round. Its
passes reuse one scratch arena, which the stacks its ``take`` makes
share. So a family stack, and the stacks taken from it, must
not be evaluated from two threads at once; objectives still may be. What
``losses``, ``gradients`` and ``evaluate`` return is never the arena's,
and a plan writes only the caller's ``out``.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from entrofed.objectives import ClassifierObjective, GlrObjective


# Rows per pass in stacked evaluation, at 10 classes. A pass holds whole
# segments: a segment is c clients of one row count n, cut from a run of
# equal counts at max(1, cap // n) clients, so a client larger than the cap
# gets a pass of its own. The cap is a cache trade: each pass makes a few
# per-row temporaries and a fixed count of numpy calls, and larger passes
# mean fewer calls until the temporaries outgrow the cache. With every pass
# bound to its numpy calls, caps of 2048, 4096 and 8192 rows trained both
# benchmark workloads within noise of each other (alternating runs on 2
# vCPUs: wide-softmax 14.1%, 12.5% and 14.2% faster than before the
# binding, deep-mlp 9.6%, 10.2% and 8.5%), while the larger caps kept up to
# 0.8 MB more at peak; so the cap stays at 2048. The classifier stack holds
# each temporary to that budget of STACK_BLOCK_ROWS * 10 floats: its cap is
# the budget over the wider of the class count and the hidden width.
STACK_BLOCK_ROWS = 2048


class ObjectiveStack:
    """Full-batch passes over many objectives. :meth:`losses` and
    :meth:`gradients` take each objective at a parameter vector of its own,
    or at one shared vector, and :meth:`step_plan` binds local SGD's steps
    of a round. A round's telemetry makes two passes at one parameter
    vector: :meth:`losses` on the train side, and :meth:`evaluate`, losses
    and accuracies, on the test side. A round's cohort is :meth:`take` of
    the train side.

    This base form calls each objective in turn; quadratics and mixed
    families use it. A family stack (see :func:`stack_objectives`) holds the
    samples of GLR or classifier clients, not objectives (``objectives``
    makes views of them), and implements ``losses``, ``step_plan``,
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

    def gradients(self, xs: np.ndarray) -> np.ndarray:
        """Row i is objective i's full-set gradient at its own parameter
        vector ``xs[i]``, or at one shared vector (as in :meth:`losses`):
        one full-set step of local SGD."""
        out = np.empty((self.m, np.shape(xs)[-1]))
        self.step_plan(xs, out)(0)
        return out

    def step_plan(self, xs: np.ndarray, out: np.ndarray, subsets=None):
        """Local SGD's gradient steps of one round, bound once: ``plan(k)``
        writes into row j of ``out`` the gradient of the stack's j-th
        objective in pass order (the order of :meth:`in_pass_order`'s
        stack) at row j of ``xs``, on its full set, or, at step k of a (K,
        b, r) array ``subsets`` of sample indices, on its rows
        ``subsets[k, i]`` if it is the i-th in pass order of the b
        objectives with more than r samples.

        ``xs`` may also be one (D,) vector for all. The plan keeps views of
        xs and ``out``, C-ordered arrays, and of the stack's arena for as
        long as it lives, which is one round: update xs and out in place
        only, and run a plan, like any pass of the stack, on one thread.
        Without ``subsets``, ``plan.losses()`` returns what :meth:`losses`
        returns at xs as it then is, in pass order: a full-batch round's
        end losses, from the passes the plan has bound. And
        ``plan.refill(stack)`` makes the plan one of ``stack``, an
        ``in_pass_order`` stack of its layout (the same model and row
        counts in pass order), by copying in its rows, and returns True;
        or returns False, and changes nothing, for a stack of another
        layout. A run refills its plan for each cohort of one layout; the
        loop binds nothing, so its plans refill none."""
        takers = _takers(self.sizes, subsets)
        xs = np.broadcast_to(xs, out.shape)

        def plan(k):
            rows = {} if subsets is None else dict(zip(takers, subsets[k]))
            for i, (o, x) in enumerate(zip(self.objectives, xs)):
                out[i] = o.gradient(x, rows.get(i))

        if subsets is None:
            plan.losses = lambda: self.losses(xs)
            plan.refill = lambda stack: False
        return plan


def _takers(sizes, subsets) -> np.ndarray:
    """Positions in ``sizes`` of the objectives with more than r samples,
    which take the minibatch rows of a (K, b, r) ``subsets``: none
    without subsets."""
    if subsets is None:
        return np.arange(0)
    takers = np.flatnonzero(sizes > np.shape(subsets)[-1])
    if takers.size != np.shape(subsets)[1]:
        raise ValueError("need sample indices for each objective with more than r samples")
    return takers


class _Pass(NamedTuple):
    """Whole segments of a family stack, evaluated together. Each segment
    is c clients of n rows each, as slices of the pass's clients and rows.
    A bound pass holds views of what it reads and writes: its rows, the
    arena arrays named in ``views``, and, in ``parts``, the rows of each
    segment of those with a row axis, as (c, n, ...) views."""

    clients: slice  # positions in size order, segment after segment
    segments: tuple  # (client slice, row slice, c, n) per segment
    rows: slice  # of the stack's, or a plan's, rows end to end
    inputs: np.ndarray | None = None  # (rows, d) view of those rows
    targets: np.ndarray | None = None  # (rows,)
    views: dict | None = None  # arena array name -> the pass's view
    parts: dict | None = None  # "inputs", "targets" or a row-major name -> views
    at: np.ndarray | None = None  # flat positions of each row's label entry


def _passes(sizes, cap: int) -> list[_Pass]:
    """Unbound passes over clients of ascending row counts ``sizes``, whose
    clients and rows lie end to end: each run of one count n is cut into
    segments of at most max(1, cap // n) clients, and whole segments fill
    passes of at most cap rows (or of one segment, if it is larger)."""
    passes, first, start, rows = [], 0, 0, cap
    for n, run in itertools.groupby(sizes.tolist()):
        count = len(list(run))
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


def _per_segment(p: _Pass, arrays) -> list[list]:
    """For each of ``arrays``, which hold one row per client of pass p, its
    views at the clients of each segment. Lists, not tuples: a tuple built
    from a generator of a new length lands on its length's free list, and
    tuple free lists of every segment count would hold memory for good."""
    return [[a[cs] for cs, *_ in p.segments] for a in arrays]


def _step_major(passes) -> np.ndarray:
    """For each row of ``passes`` laid out step-major, its position in the
    client-major layout, where a segment of c clients of n rows holds each
    client's rows in turn: step-major, it holds the first row of each of
    its clients, then the second, and so on. The (c, n, ...) view of a
    segment then runs over n as its outer axis, so that a sum over each
    client's rows is one contiguous reduction in the order of theirs."""
    at = np.arange(passes[-1].rows.stop)
    for p in passes:
        for _, rs, c, n in p.segments:
            if c > 1 and n > 1:
                seg = at[p.rows][rs]
                seg[...] = seg.reshape(c, n).T.ravel()
    return at


def _segment_views(a: np.ndarray, segments, step_major: bool) -> list:
    """The (c, n, ...) view of each segment of c clients of n rows in a
    pass's (rows, ...) array ``a``, laid out client-major or step-major."""
    tail = a.shape[1:]
    return [
        a[rs].reshape((n, c) + tail).swapaxes(0, 1)
        if step_major and c > 1 and n > 1
        else a[rs].reshape((c, n) + tail)
        for _, rs, c, n in segments
    ]


def _in_size_order(starts, counts) -> tuple[np.ndarray, np.ndarray]:
    """(order, rows) of clients whose rows are the ``counts[i]`` from
    ``starts[i]``: their stable ascending size order, and their row
    positions end to end in it."""
    order = np.argsort(counts, kind="stable")
    counts = counts[order]
    rows = np.repeat(starts[order] - np.cumsum(counts) + counts, counts)
    return order, rows + np.arange(counts.sum())


class _Arena:
    """A stack's scratch: one array per temporary name, whose views its
    passes bind, so that no pass, and no local-SGD step, makes its
    hidden-width, logit or backprop arrays afresh. An array grows to the
    largest pass bound to it, which is the pass cap unless one client
    outgrows it; a view bound before it grew keeps the array it was made
    of. Passes on stacks that share an arena must not run at once."""

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def __call__(self, name: str, size: int) -> np.ndarray:
        """The flat array ``name``, grown to ``size`` entries if smaller."""
        flat = self._arrays.get(name)
        if flat is None or flat.size < size:
            flat = self._arrays[name] = np.empty(size, bool if name in _MASKS else float)
        return flat


# arena arrays that no segment cuts: class-major copies, a row vector and
# the relu mask
_UNCUT = ("shifted", "exps", "rowmax", "zeros", "mask")
# arena arrays of bools, not floats
_MASKS = ("zeros", "mask")


class _RowStack(ObjectiveStack):
    """A family stack: one copy of every client's (inputs, targets) rows,
    laid out by ``_in_size_order`` of their ``counts``, which gives their
    ``order`` too, in passes of at most ``cap`` rows (``_chunks``), which
    telemetry runs bound to views of the one copy and of the arena
    (``_telemetry``). ``model`` gives the shape, not samples.
    It and the arena that the passes write their temporaries into are
    shared by :meth:`take` and :meth:`in_pass_order`.

    Passes run over consecutive positions in that size order. Per-client
    parameters are gathered into it once per call (``_sorted``), and
    results go back to objective order through ``_inverse``, unless the
    objectives are in size order already."""

    def __init__(self, model, counts, order, inputs, targets, cap: int, arena):
        self.model = model
        self.sizes = counts
        self._cap = cap
        self._arena = _Arena() if arena is None else arena
        self._order = order
        self._inverse = np.argsort(order)
        self._ascending = bool(np.all(counts[:-1] <= counts[1:]))
        self._counts = sizes = counts[self._order]
        self._inputs, self._targets = inputs, targets
        self._starts = np.cumsum(sizes) - sizes
        self._chunks = _passes(sizes, cap)

    @functools.cached_property
    def _telemetry(self) -> list[_Pass]:
        """The passes bound for ``losses``, ``evaluate`` and ``gradients``,
        once, when the stack first runs one."""
        return self._bind(self._chunks, self._inputs, self._targets)

    @functools.cached_property
    def _one_x(self) -> tuple[np.ndarray, dict]:
        """(x, kernels): the parameter vector that the telemetry kernels at
        one shared vector read, and those kernels by name, each bound to
        it, and to the telemetry passes, when the stack first runs it."""
        return np.empty(self.dimension), {}

    def _at_one_x(self, name: str, x):
        """What the telemetry kernel ``name`` (``losses`` or ``evaluate``)
        gives at the one vector x, copied into the kernels' own."""
        bound, kernels = self._one_x
        bound[...] = x
        if name not in kernels:
            kernels[name] = getattr(self, f"_bind_{name}")(self._telemetry, bound)
        return kernels[name]()

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
        order, rows = _in_size_order(self._starts[at], counts)
        taken = (self._inputs[rows], self._targets[rows])
        return type(self)(self.model, counts, order, *taken, self._arena)

    def in_pass_order(self):
        # the same rows, passes, arena and telemetry passes, if bound, with
        # the objectives numbered in size order
        stack = copy.copy(self)
        stack.sizes = self._counts
        stack._order = stack._inverse = np.arange(self.m)
        stack._ascending = True
        return stack, self._order

    def _sorted(self, xs):
        xs = np.asarray(xs, dtype=np.float64)
        return xs if xs.ndim == 1 or self._ascending else xs[self._order]

    def _unsorted(self, out):
        return out if self._ascending else out[self._inverse]

    def _scratch(self, rows: int) -> dict:
        """The shapes of the arena arrays that a pass of ``rows`` rows
        writes, by name, in telemetry and in local-SGD steps alike."""
        return {}

    def _bind(self, passes, inputs, targets, step=False) -> list[_Pass]:
        """``passes`` bound to their rows of ``inputs`` and ``targets``, and
        to views of the arena arrays that they write: in telemetry, or in a
        step, whose segments lie step-major if the family sums the rows of
        its steps' segments (``_step_major``)."""
        # The arena grows first, to the largest pass that these rows, or
        # those of a take, make, so that every pass shares its arrays.
        top = max(min(self._cap, len(inputs)), *(p.rows.stop - p.rows.start for p in passes))
        shapes = self._scratch(top).items()
        flat = {k: self._arena(k, math.prod(shape)) for k, shape in shapes}
        step_major = step and self._interleaved
        bound = []
        for clients, segments, span, *_ in passes:
            shapes = self._scratch(span.stop - span.start).items()
            views = {k: flat[k][: math.prod(shape)].reshape(shape) for k, shape in shapes}
            rows = {"inputs": inputs[span], "targets": targets[span]}
            cut = [(k, rows[k]) for k in self._cut]
            cut += [(k, a) for k, a in views.items() if k not in _UNCUT]
            parts = {k: _segment_views(a, segments, step_major) for k, a in cut}
            bound.append(_Pass(clients, segments, span, *rows.values(), views, parts))
        return bound

    def step_plan(self, xs, out, subsets=None):
        if not (xs.flags.c_contiguous and out.flags.c_contiguous):
            raise ValueError("a plan keeps views of xs and out: give C-ordered arrays")
        passes, rows = self._chunks, None
        if subsets is not None:
            # The clients with more than r samples come last in pass order;
            # at each step they form segments of r rows after the full sets.
            # rows[k] is step k's rows of the stack in client-major order.
            subsets = np.asarray(subsets, dtype=np.int64)
            steps, takes, r = subsets.shape
            full = self.m - _takers(self._counts, subsets).size
            if np.any((subsets < 0) | (subsets >= self._counts[full:, None])):
                raise ValueError("sample indices out of range")
            head = np.arange(self._starts[full] if takes else len(self._inputs))
            drawn = (self._starts[full:, None] + subsets).reshape(steps, -1)
            rows = np.concatenate([np.tile(head, (steps, 1)), drawn], axis=1)
            passes = _passes(np.concatenate([self._counts[:full], np.full(takes, r)]), self._cap)
        # the plan's own rows, refilled at each step by one take
        at = _step_major(passes) if self._interleaved else np.arange(passes[-1].rows.stop)
        rows = at[None] if rows is None else rows[:, at]
        inputs, targets = self._inputs[rows[0]], self._targets[rows[0]]
        bound = self._bind(passes, inputs, targets, True)
        kernels = [self._bind_step(p, xs, out) for p in bound]

        def plan(k):
            if subsets is not None:
                self._inputs.take(rows[k], axis=0, out=inputs, mode="clip")
                self._targets.take(rows[k], out=targets, mode="clip")
            for kernel in kernels:
                kernel()

        def refill(stack):
            # the same model and row counts in pass order: the same passes
            if getattr(stack, "model", None) is not self.model or not np.array_equal(
                stack._counts, self._counts
            ):
                return False
            stack._inputs.take(at, axis=0, out=inputs, mode="clip")
            stack._targets.take(at, out=targets, mode="clip")
            return True

        if subsets is None:
            plan.losses = self._bind_losses(bound, xs, at)
            plan.refill = refill
        return plan

    # A family's ``_bind_losses(passes, xs, at=None)`` gives a kernel that
    # returns the full-set losses in pass order at xs, one shared vector or
    # one row per client, as new arrays: a plan's ``losses``, whose row j
    # is the stack's row ``at[j]``, or, without ``at``, the telemetry
    # passes'. At one shared vector, telemetry binds its kernels once; at
    # per-client parameters, it binds them for the call.

    def losses(self, xs):
        xs = self._sorted(xs)
        if xs.ndim == 1:
            return self._unsorted(self._at_one_x("losses", self.model._check_x(xs)))
        return self._unsorted(self._bind_losses(self._telemetry, xs)())

    def gradients(self, xs):
        # one step on the telemetry passes, whose binding the end losses
        # of a minibatch round share
        xs = np.ascontiguousarray(self._sorted(xs))
        out = np.empty((self.m, xs.shape[-1]))
        for p in self._telemetry:
            self._bind_step(p, xs, out)()
        return self._unsorted(out)


class _GlrStack(_RowStack):
    def __init__(self, model, counts, order, inputs, targets, arena=None):
        super().__init__(model, counts, order, inputs, targets, STACK_BLOCK_ROWS, arena)

    _view = staticmethod(GlrObjective)
    _cut = ("inputs", "targets")
    _interleaved = False

    @staticmethod
    def _residuals(p, ws):
        """(design rows (c, n, d), residuals (c, n)) of each segment of a
        pass, at one parameter vector or, per segment, at a (c, d, 1) view
        of its clients' rows: a gemv per client, the BLAS call
        ``GlrObjective`` makes."""
        shared = isinstance(ws, np.ndarray)
        for i, (design, y) in enumerate(zip(p.parts["inputs"], p.parts["targets"])):
            fit = design @ ws if shared else (design @ ws[i])[..., 0]
            yield design, fit - y

    @staticmethod
    def _pass_losses(p, xs):
        # (1, n) @ (n, 1) per client is the BLAS dot GlrObjective.loss uses
        ws = xs if xs.ndim == 1 else _per_segment(p, [xs[:, :, None]])[0]
        residuals = zip(p.segments, _GlrStack._residuals(p, ws))
        return np.concatenate(
            [0.5 * (r[:, None, :] @ r[:, :, None])[:, 0, 0] / n for (*_, n), (_, r) in residuals]
        )

    def _bind_losses(self, passes, xs, at=None):
        # a GLR plan's rows are client-major: at is the identity. The
        # kernel keeps no reference to the stack, which keeps the kernel.
        bound = [(p, xs if xs.ndim == 1 else xs[p.clients]) for p in passes]

        def losses():
            return np.concatenate([_GlrStack._pass_losses(p, x) for p, x in bound])

        return losses

    def _bind_step(self, p, xs, out):
        gs = _per_segment(p, [out[p.clients]])[0]
        ws = xs if xs.ndim == 1 else _per_segment(p, [xs[p.clients, :, None]])[0]
        kernel = [
            (design.swapaxes(-1, -2), g, n)
            for design, g, (*_, n) in zip(p.parts["inputs"], gs, p.segments)
        ]

        def step():
            for (design_t, g, n), (_, r) in zip(kernel, self._residuals(p, ws)):
                np.divide((design_t @ r[..., None])[..., 0], n, out=g)

        return step

    def evaluate(self, x):
        return self.losses(self.model._check_x(x)), np.full(self.m, np.nan)


# A bound pass is a list of (numpy function, arguments) calls over views
# made when it is bound. The kernels below return such calls for the
# arrays they are given; ClassifierObjective's per-client loss and gradient
# are the plain numpy forms that they are checked against, bit for bit.


def _run(calls) -> None:
    """Make the numpy calls of a bound kernel in turn."""
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


def _activate(activation: str, pre: np.ndarray) -> list:
    """The calls that apply the hidden activation to ``pre`` in place."""
    if activation == "tanh":
        return [(np.tanh, (pre, pre))]
    # np.maximum takes its out by keyword only
    return [(functools.partial(np.maximum, out=pre), (pre, 0.0))]


def _through_activation(activation: str, dact, act, mask) -> list:
    """The calls that take the gradient in the activations ``dact`` to
    that in the pre-activations, in place: times 1 - act^2 for tanh,
    which overwrites act, or times the relu mask, which act > 0 gives
    exactly as the pre-activations would, into ``mask``, a bool array
    of act's shape."""
    if activation == "tanh":
        slope = [(np.square, (act, act)), (np.subtract, (1.0, act, act))]
        return [*slope, (np.multiply, (dact, act, dact))]
    return [(np.greater, (act, 0.0, mask)), (np.multiply, (dact, mask, dact))]


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


def _bind_log_softmax(rows, z, rowmax, exps) -> list:
    """The calls that leave the log-softmax of ``rows`` in ``z``,
    class-major: :func:`_bind_class_major`'s, less the log-sum."""
    return [*_bind_class_major(rows, z, rowmax, exps), (np.subtract, (z, exps[0], z))]


def _bind_target_log_probs(z, lse, at, picked) -> list:
    """The calls that put into ``picked`` each row's log-softmax at its
    label: the one entry of its column of :func:`_bind_class_major`'s
    ``z`` that a loss reads, less the column's log-sum ``lse``, which is
    the subtraction :func:`_bind_log_softmax` makes there. ``at`` holds
    those entries' flat positions in z, label * rows + row."""
    # positions in range by construction: "clip" takes straight into out
    return [
        (z.reshape(-1).take, (at, None, picked, "clip")),
        (np.subtract, (picked, lse, picked)),
    ]


def _bind_class_major_hits(z, rowmax, at, labels, out, zeros):
    """A kernel that writes whether each row's label is its argmax, as
    1.0 or 0.0, into ``out`` and returns it, from
    :func:`_bind_class_major`'s ``z`` and ``rowmax``, with ``at`` as in
    :func:`_bind_target_log_probs`: a row's label entry of z is 0 and no
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


def _affine(rows, out, outs, w, b=None) -> list:
    """The calls of ``rows @ w + b`` over a pass into its arena array
    ``out``, whose segments are ``outs``, from those of ``rows``: per
    segment, one matmul (one BLAS call per client) and, for per-client
    weights, one bias add. ``w`` and ``b`` are one layer's, or its views per
    segment (``_per_segment``) of one row per pass client."""
    shared = isinstance(w, np.ndarray)
    calls = []
    for i, (a, o) in enumerate(zip(rows, outs)):
        calls.append((np.matmul, (a, w if shared else w[i], o)))
        if b is not None and not shared:
            calls.append((np.add, (o, b[i], o)))
    if b is not None and shared:
        calls.append((np.add, (out, b, out)))
    return calls


def _weight_grads(rows_t, deltas, dw, sums) -> list:
    """The calls of a layer's weight gradients per segment, into views of
    its clients' gradient rows: its rows transposed (``rows_t``) times its
    deltas; and the deltas' column sums, the bias gradients, into ``sums``,
    one contiguous (c, k) view per segment."""
    calls = []
    for a, d, w, s in zip(rows_t, deltas, dw, sums):
        calls += [(np.matmul, (a, d, w)), (np.add.reduce, (d, 1, None, s))]
    return calls


def _mean_calls(p, parts, out) -> list:
    """The calls that put into ``out`` each of pass p's clients' mean of its
    rows' values, from their (c, n) views per segment ``parts``: the
    float64 sum over n that ``mean`` takes, then one division of the pass's
    sums by their clients' row counts."""
    counts = np.repeat([float(n) for *_, n in p.segments], [c for *_, c, _ in p.segments])
    sums = [(np.add.reduce, (v, 1, None, out[cs])) for v, (cs, *_) in zip(parts, p.segments)]
    return [*sums, (np.divide, (out, counts, out))]


class _ClassifierStack(_RowStack):
    def __init__(self, model, counts, order, inputs, targets, arena=None):
        cap = max(1, STACK_BLOCK_ROWS * 10 // max(model.n_classes, model.hidden))
        super().__init__(model, counts, order, inputs, targets, cap, arena)

    _cut = ("inputs",)

    @property
    def _interleaved(self) -> bool:
        # A step-major segment's transposed rows are strided vectors when
        # its features or hidden units are one wide; a BLAS call on those
        # need not round as on a client's own rows.
        return self.model.features.shape[1] > 1 and self.model.hidden != 1

    def _view(self, inputs, targets):
        model = self.model
        return ClassifierObjective(inputs, targets, model.n_classes, model.hidden, model.activation)

    def _scratch(self, rows):
        c, h = self.model.n_classes, self.model.hidden
        shapes = {"logits": (rows, c), "shifted": (c, rows), "exps": (c, rows), "rowmax": (rows,)}
        shapes["zeros"] = (c, rows)  # the class-major hits' mask
        shapes["picked"] = (rows,)  # per-row losses or hits, for the means
        shapes["probs"] = (rows, c)
        if h:
            shapes.update(hidden=(rows, h), dhidden=(rows, h))
        if self.model.activation == "relu":
            shapes["mask"] = (rows, h)
        return shapes

    def _bind(self, passes, inputs, targets, step=False):
        bound = super()._bind(passes, inputs, targets, step)
        if step:
            return bound
        # each row's label entry in the class-major copy: label * rows + row
        return [p._replace(at=p.targets * (n := len(p.targets)) + np.arange(n)) for p in bound]

    # Every pass is bound to one list of numpy calls over views of its rows,
    # of the arena and of xs, made once, when it is bound.

    def _unpack(self, p, xs):
        """The layers of one parameter vector, or their views per segment
        (``_per_segment``) of the pass clients' rows of xs."""
        if xs.ndim == 1:
            return self.model._unpack(xs)
        return _per_segment(p, self.model._unpack(xs[p.clients]))

    def _forward(self, p, layers) -> list:
        """The calls that make a pass's logits, and its hidden activations,
        at ``layers`` (from :meth:`_unpack`)."""
        parts, views = p.parts, p.views
        if self.model.hidden == 0:
            return _affine(parts["inputs"], views["logits"], parts["logits"], *layers)
        w1, b1, w2, b2 = layers
        return [
            *_affine(parts["inputs"], views["hidden"], parts["hidden"], w1, b1),
            *_activate(self.model.activation, views["hidden"]),
            *_affine(parts["hidden"], views["logits"], parts["logits"], w2, b2),
        ]

    def _loss_calls(self, p, xs, out, rows=None) -> list:
        """The calls that put into ``out``, a view of a result, the full-set
        losses of pass p's clients at xs: a forward pass, each row's
        log-softmax at its label, and each client's mean. At one shared
        vector, the last layer's bias goes onto the class-major copy, not
        onto the logits. A plan's pass gives each of its rows' position in
        client-major order in ``rows``, and its labels change with each
        refill; a telemetry pass's rows are client-major, its labels fixed."""
        model, views = self.model, p.views
        layers, bias = self._unpack(p, xs), None
        if xs.ndim == 1:
            layers, bias = (*layers[:-1], None), layers[-1].T
        z, lse, picked = views["shifted"], views["exps"][0], views["picked"]
        calls = self._forward(p, layers)
        calls += _bind_class_major(views["logits"], z, views["rowmax"], views["exps"], bias)
        at, parts = p.at, p.parts["picked"]
        if rows is not None:
            # each row's label entry, as in _bind, of the labels the plan
            # holds when it runs
            n = len(p.targets)
            at, base = np.empty(n, dtype=np.int64), np.arange(n)
            calls += [(np.multiply, (p.targets, n, at)), (np.add, (at, base, at))]
        calls += _bind_target_log_probs(z, lse, at, picked)
        calls.append((np.negative, (picked, picked)))
        if rows is not None:
            # A client's loss is the mean of its rows' losses summed in
            # their client-major order, as its own loss sums them; a
            # reduction over a step-major segment's (c, n) view would run in
            # another order. So the pass puts its rows' losses back in
            # client-major order first.
            client_major = np.empty(len(rows))
            calls.append((picked.take, (np.argsort(rows), None, client_major, "clip")))
            parts = _segment_views(client_major, p.segments, False)
        return calls + _mean_calls(p, parts, out)

    def _bind_losses(self, passes, xs, at=None):
        out = np.empty(self.m)
        calls = []
        for p in passes:
            rows = None if at is None else at[p.rows] - p.rows.start
            calls += self._loss_calls(p, xs, out[p.clients], rows)

        def losses():
            _run(calls)
            return out.copy()

        return losses

    def _bind_evaluate(self, passes, x):
        """The test pass's kernel at the one vector x: each pass reads its
        logits once, class-major, for the losses and then the hits."""
        losses, accs = np.empty(self.m), np.empty(self.m)
        bias = self.model._unpack(x)[-1]
        calls = []
        for p in passes:
            views = p.views
            hits = _bind_class_major_hits(
                views["shifted"], views["rowmax"], p.at, p.targets, views["picked"], views["zeros"]
            )

            def argmax_hits(hits=hits, logits=views["logits"], p=p):
                # a row max is not finite: argmax of the biased logits
                if hits() is None:
                    np.add(logits, bias, out=logits)
                    np.equal(logits.argmax(axis=-1), p.targets, out=p.views["picked"])

            calls += self._loss_calls(p, x, losses[p.clients])
            calls.append((argmax_hits, ()))
            calls += _mean_calls(p, p.parts["picked"], accs[p.clients])

        def evaluate():
            _run(calls)
            return losses.copy(), accs.copy()

        return evaluate

    def _bind_step(self, p, xs, out):
        """The gradient kernel of a bound step pass at its clients' rows of
        xs, into theirs of out: every view it reads or writes made here."""
        model, views, parts = self.model, p.views, p.parts
        layers = self._unpack(p, xs)
        grads = model._unpack(out[p.clients])
        # a layer's bias gradients are summed into a (clients, width)
        # buffer, then copied into out once per pass
        biases = [b[:, 0] for b in grads[1::2]]
        sums = [np.empty(b.shape) for b in biases]
        dws, sum_parts = _per_segment(p, grads[::2]), _per_segment(p, sums)
        inputs_t = [a.swapaxes(-1, -2) for a in parts["inputs"]]
        # each row's client's row count, per class, to divide its logit
        # gradient by in one contiguous pass
        counts = np.empty(views["probs"].shape)
        for _, rs, _, n in p.segments:
            counts[rs] = n
        # each row's label entry in the (rows, classes) gradient, at a step
        base = np.arange(len(p.targets)) * model.n_classes
        at = np.empty_like(base)
        z, probs, deltas = views["shifted"], views["probs"], parts["probs"]
        calls = [
            *self._forward(p, layers),
            *_bind_log_softmax(views["logits"], z, views["rowmax"], views["exps"]),
            (np.add, (base, p.targets, at)),
            *_bind_probs_minus_labels(z.T, at, probs, views["picked"]),
            (np.divide, (probs, counts, probs)),
        ]
        if model.hidden:
            w2 = layers[2]
            w2_t = w2.swapaxes(-1, -2) if xs.ndim == 1 else [w.swapaxes(-1, -2) for w in w2]
            hidden_t = [a.swapaxes(-1, -2) for a in parts["hidden"]]
            calls += [
                *_weight_grads(hidden_t, deltas, dws[1], sum_parts[1]),
                *_affine(deltas, views["dhidden"], parts["dhidden"], w2_t),
                *_through_activation(
                    model.activation, views["dhidden"], views["hidden"], views.get("mask")
                ),
            ]
            deltas = parts["dhidden"]
        calls += _weight_grads(inputs_t, deltas, dws[0], sum_parts[0])
        calls += [(b.__setitem__, (Ellipsis, total)) for b, total in zip(biases, sums)]
        return functools.partial(_run, calls)

    def evaluate(self, x):
        losses, accs = self._at_one_x("evaluate", self.model._check_x(x))
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
    order, rows = _in_size_order(np.cumsum(counts) - counts, counts)
    inputs, targets = (np.concatenate(side)[rows] for side in zip(*(o._rows() for o in objs)))
    return family(objs[0], counts, order, inputs, targets)


def glr_stack(design: np.ndarray, targets: np.ndarray) -> ObjectiveStack:
    """The stack of the regression clients ``(design[i], targets[i])`` of
    (m, n, d) designs and (m, n) targets: their rows end to end, under one
    ``GlrObjective`` that checks them, the stack's ``model``."""
    m, n, d = design.shape
    model = GlrObjective(design.reshape(m * n, d), targets.reshape(m * n))
    counts = np.full(m, n, dtype=np.int64)
    return _GlrStack(model, counts, np.arange(m), model.design, model.targets)


def classifier_stack(ds, side, hidden: int = 0, activation: str = "identity") -> ObjectiveStack:
    """The stack of one classifier per client of a split side ``(indices,
    counts)`` of a labeled dataset. The side's rows are gathered once,
    straight into the stack's layout, under one ``ClassifierObjective``
    that checks them: the stack's ``model``."""
    indices, counts = side
    order, rows = _in_size_order(np.cumsum(counts) - counts, counts)
    rows = indices[rows]
    features, labels = ds.features[rows], ds.labels[rows]
    model = ClassifierObjective(features, labels, ds.n_classes, hidden, activation)
    return _ClassifierStack(model, counts, order, model.features, model.labels)
