"""Spans around calls into entrofed, recorded from outside the package.

The package's files are not touched. A :class:`Tracer` rebinds public names
where they are looked up -- module globals of the calling module, or class
attributes for methods -- to wrappers that record a span, and puts the
originals back on :meth:`Tracer.close`.

A span is ``[name, start, end, parent, run]``: ``perf_counter`` seconds, the
index of the enclosing span (-1 for none) and the repetition it belongs to.
Spans stay in memory until :meth:`Tracer.flush` writes them out.

Rounds are cut from the gaps between ``on_round`` callbacks, which the
wrapper around ``run_training`` injects. With ``full=True`` each round is
split into four phase spans cut at consecutive marks, so they tile it
exactly by construction (marks missing or out of order raise
:class:`TraceError`, which fails the repetition): prelude (sampling, start
losses, angle, fair gradient), local (first local-SGD call to the end of
the last), aggregate (to the end of the server step) and telemetry (to the
round's ``on_round``). Calls made inside a round are re-parented to the
phase they started in, so self times add up.

The wrappers' own cost lands mostly in the wrapped call's span, because
the clock is read first and last; ``trace.overhead_ratio`` reports it.
"""

from __future__ import annotations

import gzip
import time
from bisect import bisect_right

import numpy as np

import entrofed.harness as harness
import entrofed.trainer as trainer
from entrofed.core import SeededRng
from entrofed.objectives import ClassifierObjective

NAME, START, END, PARENT, RUN = range(5)

PHASES = ("trainer.prelude", "trainer.local", "trainer.aggregate", "trainer.telemetry")

RNG_METHODS = (
    "next_u64",
    "uniforms",
    "uniforms_open",
    "uniform",
    "normals",
    "integers",
    "permutation",
    "shuffled",
    "sample_without_replacement",
    "gammas",
    "dirichlet",
)


class TraceError(RuntimeError):
    """A round's phase marks are missing or out of order."""


class Tracer:
    """Rebinds entrofed names to span-recording wrappers until closed.

    ``full=False`` wraps only what the end-to-end metrics need: config
    parsing, federation building and training (with per-round marks).
    ``full=True`` adds every layer boundary the per-layer metrics use.
    """

    def __init__(self, full: bool):
        self.full = full
        self.spans: list[list] = []
        self.written = 0  # spans already flushed to a file
        self.rounds: list[tuple[float, str, int]] = []  # (seconds, branch, run)
        self.run = 0
        self.rows = 0
        self.full_evals = {"loss": 0, "gradient": 0}
        self.repeats = {"loss": 0, "gradient": 0}
        self._seen = {"loss": set(), "gradient": set()}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._marks: list[float | None] = [None, None, None]
        self._round_start = 0.0
        self._round_first = 0

    # --- rebinding ------------------------------------------------------

    def install(self) -> None:
        """Rebind every wrapped name; undone by :meth:`close`."""
        self._patch(harness, "parse_config", self._spanned("harness.parse_config"))
        self._patch(harness, "build_federation", self._spanned("harness.build_federation"))
        self._patch(harness, "run_training", self._training)
        if not self.full:
            return
        for attr in ("write_rounds_csv", "write_summary"):
            self._patch(harness, attr, self._spanned("harness." + attr))
        self._patch(harness, "gen_gaussian_blobs", self._spanned("datagen.blobs"))
        self._patch(harness, "partition", self._spanned("datagen.partition"))
        self._patch(harness, "train_test_split_indices", self._spanned("datagen.split"))
        self._patch(ClassifierObjective, "__init__", self._spanned("objectives.build"))
        for attr in ("loss", "gradient", "accuracy"):
            self._patch(ClassifierObjective, attr, self._objective_call(attr))
        self._patch(SeededRng, "derive", self._spanned("core.derive"))
        for attr in RNG_METHODS:
            self._patch(SeededRng, attr, self._spanned("core.rng." + attr))
        for attr in ("local_sgd", "local_sgd_aligned"):
            self._patch(trainer, attr, self._spanned("trainer." + attr, self._mark_local))
        self._patch(trainer, "server_update", self._spanned("trainer.server_update", self._mark_server))
        self._patch(trainer, "eba_weights", self._spanned("aggregation.eba_weights"))
        self._patch(trainer, "evaluate_fairness", self._spanned("analysis.evaluate_fairness"))

    def _patch(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def close(self) -> None:
        """Put every original name back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # --- wrappers -------------------------------------------------------

    def _spanned(self, name: str, on_end=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.run]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    rec[END] = clock()
                    if on_end is not None:
                        on_end(rec)

            return wrapper

        return make

    def _objective_call(self, kind: str):
        """Span plus work counters: rows evaluated, and for full-batch
        loss/gradient calls whether this (objective, parameter vector) pair
        was already evaluated in the same repetition (keyed by a hash of
        the vector's bytes)."""
        name = "objectives." + kind
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        seen = self._seen.get(kind)

        def make(fn):
            def wrapper(obj, x, subset=None):
                rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.run]
                if subset is None:
                    self.rows += obj.full_size
                    if seen is not None:
                        key = (id(obj), hash(np.asarray(x, dtype=np.float64).tobytes()))
                        self.full_evals[kind] += 1
                        if key in seen:
                            self.repeats[kind] += 1
                        else:
                            seen.add(key)
                else:
                    self.rows += len(subset)
                stack.append(len(spans))
                spans.append(rec)
                try:
                    return fn(obj, x, subset)
                finally:
                    stack.pop()
                    rec[END] = clock()

            return wrapper

        return make

    def _training(self, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(federation, cfg, x0=None, on_round=None):
            sid = len(spans)
            rec = ["trainer.run_training", clock(), 0.0, stack[-1] if stack else -1, self.run]
            stack.append(sid)
            spans.append(rec)
            self._round_start = rec[START]
            self._round_first = len(spans)

            def mark(report, x):
                self._close_round(sid, report.branch, clock())
                if on_round is not None:
                    on_round(report, x)

            try:
                return fn(federation, cfg, x0, mark)
            finally:
                stack.pop()
                rec[END] = clock()

        return wrapper

    def _mark_local(self, rec) -> None:
        if self._marks[0] is None:
            self._marks[0] = rec[START]
        self._marks[1] = rec[END]

    def _mark_server(self, rec) -> None:
        self._marks[2] = rec[END]

    def _close_round(self, training: int, branch: str, now: float) -> None:
        spans = self.spans
        start = self._round_start
        rid = len(spans)
        spans.append(["trainer.round", start, now, training, self.run])
        self.rounds.append((now - start, branch, self.run))
        if self.full:
            bounds = [start, *self._marks, now]
            if None in bounds or any(a > b for a, b in zip(bounds, bounds[1:])):
                raise TraceError(f"round phases out of order: {bounds}")
            phase_ids = []
            for name, a, b in zip(PHASES, bounds, bounds[1:]):
                phase_ids.append(len(spans))
                spans.append([name, a, b, rid, self.run])
            inner = bounds[1:4]
            for i in range(self._round_first, rid):
                if spans[i][PARENT] == training:
                    spans[i][PARENT] = phase_ids[bisect_right(inner, spans[i][START])]
        self._marks = [None, None, None]
        self._round_start = now
        self._round_first = len(spans)

    # --- repetitions ----------------------------------------------------

    def call(self, name: str, fn, *args):
        """Run fn(*args) under a root span of its own."""
        return self._spanned(name)(fn)(*args)

    def begin_run(self, run: int) -> int:
        """Start repetition ``run``; returns the index of its first span."""
        self.run = run
        self.rows = 0
        for kind in self._seen:
            self._seen[kind].clear()
            self.full_evals[kind] = 0
            self.repeats[kind] = 0
        return len(self.spans)

    def flush(self, fh) -> None:
        """Write the spans held in memory to a text file and drop them.
        Call between repetitions; ids stay unique across flushes."""
        base = self.written
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            parent = parent + base if parent >= 0 else -1
            fh.write(f"{i + base}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{run}\n")
        self.written += len(self.spans)
        self.spans.clear()


def open_span_file(path):
    """A gzip text file for :meth:`Tracer.flush`, header written."""
    fh = gzip.open(path, "wt", encoding="utf-8")
    fh.write("id\tname\tstart\tend\tparent\trun\n")
    return fh


def layer_metrics(tracer: Tracer, first: int, classes: int) -> dict[str, float]:
    """Per-layer metrics of one repetition: the spans from index ``first``
    on, plus the tracer's counters for that repetition."""
    spans = tracer.spans
    child = {}
    for i in range(first, len(spans)):
        parent = spans[i][PARENT]
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + spans[i][END] - spans[i][START]
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    rng_calls = 0
    useful = 0
    for i in range(first, len(spans)):
        name, start, end, parent, _ = spans[i]
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child.get(i, 0.0)
        parent_name = spans[parent][NAME] if parent >= 0 else ""
        if name.startswith("core.rng.") and not parent_name.startswith("core.rng."):
            rng_calls += 1
        if name == "objectives.gradient" and parent_name.startswith("trainer.local_sgd"):
            useful += 1

    def total(table, *names):
        return sum(table.get(n, 0) for n in names)

    rng_names = ["core.rng." + m for m in RNG_METHODS]
    dirichlet = calls.get("core.rng.dirichlet", 0)
    attempts = dirichlet / classes if dirichlet else calls.get("datagen.partition", 0)
    branches = [b for _, b, run in tracer.rounds if run == tracer.run]
    out = {}
    for kind in ("loss", "gradient", "accuracy"):
        out[f"objectives.{kind}.calls"] = calls.get("objectives." + kind, 0)
        out[f"objectives.{kind}.self_s"] = self_s.get("objectives." + kind, 0.0)
    out["objectives.rows"] = tracer.rows
    grads = calls.get("objectives.gradient", 0)
    out["objectives.gradient.useful_ratio"] = useful / grads if grads else 0.0
    for kind in ("loss", "gradient"):
        evals = tracer.full_evals[kind]
        out[f"objectives.{kind}.repeat_ratio"] = tracer.repeats[kind] / evals if evals else 0.0
    out["objectives.build.self_s"] = self_s.get("objectives.build", 0.0)
    for phase in PHASES:
        out[phase + "_s"] = incl.get(phase, 0.0)
    out["trainer.local_sgd.self_s"] = total(
        self_s, "trainer.local_sgd", "trainer.local_sgd_aligned"
    )
    out["trainer.branch.aligned_share"] = (
        branches.count("aligned") / len(branches) if branches else 0.0
    )
    out["aggregation.eba_weights.self_s"] = self_s.get("aggregation.eba_weights", 0.0)
    out["analysis.evaluate_fairness.self_s"] = self_s.get("analysis.evaluate_fairness", 0.0)
    out["analysis.evaluate_fairness.incl_s"] = incl.get("analysis.evaluate_fairness", 0.0)
    out["core.derive.calls"] = calls.get("core.derive", 0)
    out["core.derive.self_s"] = self_s.get("core.derive", 0.0)
    out["core.rng.calls"] = rng_calls
    out["core.rng.self_s"] = total(self_s, *rng_names)
    for layer in ("blobs", "partition", "split"):
        out[f"datagen.{layer}.self_s"] = self_s.get("datagen." + layer, 0.0)
    out["datagen.partition.attempts"] = attempts
    out["harness.write_csv_s"] = total(incl, "harness.write_rounds_csv", "harness.write_summary")
    out["trainer.train_s"] = incl.get("trainer.run_training", 0.0)
    return out
