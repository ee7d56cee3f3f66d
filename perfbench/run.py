"""Benchmark of ``entrofed run``, in process, on two generated workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload wide-softmax --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 45 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer split from a traced run (see tracer.py). Each prints one line per
metric with its unit, the output-check verdict and a manifest, then one
JSON object as its last line. ``--workload all`` runs every workload in
turn, each in a process of its own.

Load is a closed loop: one ``entrofed run`` at a time from this single
process. Each repetition writes the workload's config (workloads.py), calls
``entrofed.harness.main(["run", "--config", ...])``, and is timed:

* ``setup_s``   -- ``parse_config`` plus ``build_federation``;
* ``train_s``   -- wall time inside ``run_training``;
* ``run_s``     -- the whole ``entrofed run``, CSV and summary writes included;
* ``round_ms``  -- gaps between ``on_round`` callbacks. Every repetition
  replays the same rounds (its outputs are checked byte-identical), so a
  round's time is its median over the repetitions, and a hiccup of the
  host, which hits one repetition, drops out. ``p50`` and ``tail`` are
  taken over those per-round medians; ``tail`` is the highest percentile
  with TAIL_ROUNDS rounds beyond it, p75 for the workloads' 40 rounds;
* ``peak_rss_mb`` -- peak resident memory of this process.

After one warm-up repetition, repetitions continue until ``--seconds`` have
passed and at least MIN_REPS are done; the times reported are medians over
repetitions.

The times are reported at a reference host speed. The speed of a shared
host drifts by a quarter or more over minutes, in stretches longer than a
repetition, so two runs of the same code can differ by that much. A fixed
probe kernel (``speed_probe``: small numpy array operations of the sizes
the workloads use, frozen here so that no change to the package moves it)
runs between repetitions. Each repetition's times are multiplied by
``PROBE_REF_S`` over the mean of the probes just before and after it,
which cancels the host's speed at that moment; a change in the package's
own speed passes through unchanged. The unscaled medians and the probe
times are printed and kept in the results file.

A repetition fails on an exception,
a non-zero exit code, or an output check (outcheck.py); ``failed`` over
``attempted`` is the error rate. Nothing in the package queues or waits --
it is single-threaded with no I/O inside rounds -- so no wait times are
recorded. BLAS is pinned to one thread before numpy loads.
"""

from __future__ import annotations

import os

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / ".results"
REFERENCE_DIR = BENCH_DIR / "reference"

# Rounds that must lie beyond round_ms.tail's percentile.
TAIL_ROUNDS = 10
# Repetitions made even when --seconds has already run out.
MIN_REPS = 5
# No repetition starts after this many seconds, whatever MIN_REPS says.
HARD_STOP_S = 120.0
# Untraced/traced repetition pairs made by --trace 1 even when --seconds
# has already run out.
MIN_TRACED_PAIRS = 3
# Run ids of traced repetitions are offset so that failures count apart.
TRACED_RUN_BASE = 10_000
# Iterations of speed_probe, and about its median time on the host the benchmark
# was tuned on (x86_64 Xeon, 2 vCPUs, Python 3.11.7, numpy 2.4.6). Times
# are reported as if every repetition had run at that host's speed.
PROBE_ITERS = 4000
PROBE_REF_S = 0.1


def load_package():
    """Import entrofed from this checkout's src/, and nowhere else."""
    if not (SRC / "entrofed" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'entrofed'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import entrofed

    if Path(entrofed.__file__).resolve().parent != (SRC / "entrofed").resolve():
        raise SystemExit(f"error: imported entrofed from {entrofed.__file__}, not {SRC}")
    return entrofed


def speed_probe():
    """A fixed kernel that times how fast the host runs right now: one
    tanh-MLP forward and backward pass on a 16-row minibatch, the sizes of
    the workloads' models, PROBE_ITERS times. Returns a function that runs
    it and returns its wall time in seconds."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 8))
    w1 = rng.standard_normal((8, 32))
    w2 = rng.standard_normal((32, 10))
    rows, labels = np.arange(16), rng.integers(0, 10, 16)

    def probe() -> float:
        start = time.perf_counter()
        for _ in range(PROBE_ITERS):
            h = np.tanh(x @ w1)
            z = h @ w2
            z -= z.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            p[rows, labels] -= 1.0
            w2_grad = h.T @ p
            w1_grad = x.T @ ((p @ w2.T) * (1.0 - h * h))
            if not (np.isfinite(w1_grad[0, 0]) and np.isfinite(w2_grad[0, 0])):
                raise RuntimeError("speed probe produced a non-finite value")
        return time.perf_counter() - start

    return probe


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def manifest(workload, seed: int, cfg, trace: int, reps: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload.name,
        "workload_seed": seed,
        "config_seeds": list(cfg.seeds),
        "rounds_per_repetition": cfg.rounds,
        "repetitions": reps,
        "warmup_repetitions": 1,
        "trace": trace,
        "load": "closed loop, one run at a time, one process",
    }


class Bench:
    """Repeated ``entrofed run`` of one workload and seed, with checks."""

    def __init__(self, workload, seed: int):
        from entrofed import harness
        from workloads import REFERENCE_SEED, config_text

        import outcheck

        self.harness = harness
        self.outcheck = outcheck
        self.workload = workload
        self.seed = seed
        work = WORK_DIR / workload.name
        self.out_dir = work / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.cfg_path = work / "bench.cfg"
        self.cfg_path.write_text(
            config_text(workload, seed, str(self.out_dir)), encoding="utf-8"
        )
        self.cfg = harness.parse_config(self.cfg_path)
        os.environ.pop(harness.OUTPUT_DIR_ENV, None)
        self.names = outcheck.output_names(self.cfg.seeds)
        self.reference = None
        if seed == REFERENCE_SEED:
            self.reference = outcheck.read_outputs(REFERENCE_DIR / workload.name, self.cfg.seeds)
            if len(self.reference) != len(self.names):
                raise SystemExit(f"error: reference outputs missing for {workload.name}")
        if self.cfg.rounds < 2 * TAIL_ROUNDS:
            raise SystemExit(f"error: {workload.name} needs at least {2 * TAIL_ROUNDS} rounds")
        self.tail_pct = 100.0 * (1.0 - TAIL_ROUNDS / self.cfg.rounds)
        self.first_outputs: dict[str, bytes] | None = None
        self.last_outputs: dict[str, bytes] = {}
        self.attempted = 0
        self.failed_runs: set[int] = set()
        self.problems: list[str] = []

    def fail(self, run: int, problem: str) -> None:
        self.failed_runs.add(run)
        self.problems.append(f"repetition {run}: {problem}")

    def repetition(self, tracer, run: int):
        """One ``entrofed run``; returns the index of its first span, or
        None when it failed."""
        for name in self.names:
            (self.out_dir / name).unlink(missing_ok=True)
        self.attempted += 1
        first = tracer.begin_run(run)
        try:
            code = tracer.call("harness.run", self.harness.main, ["run", "--config", str(self.cfg_path)])
        except Exception as exc:  # a failed repetition is counted, not fatal
            self.fail(run, f"{type(exc).__name__}: {exc}")
            return None
        found = []
        if code != 0:
            found.append(f"exit code {code}")
        outputs = self.outcheck.read_outputs(self.out_dir, self.cfg.seeds)
        self.last_outputs = outputs
        if self.first_outputs is None:
            self.first_outputs = outputs
            found += self.outcheck.check_ranges(outputs, self.cfg)
            if self.reference is not None:
                found += self.outcheck.compare_to_reference(outputs, self.reference)
        elif outputs != self.first_outputs:
            found.append("outputs differ from the first repetition's bytes")
        for problem in found:
            self.fail(run, problem)
        return None if found else first


def run_reps(bench: Bench, tracer, until: float, probe):
    """Repetitions until ``until`` (perf_counter) and at least MIN_REPS, with
    a speed probe before the first and after each; returns (run id, scale,
    probe seconds) of each successful one, where scale is PROBE_REF_S over
    the mean of the probes on either side of it."""
    done = []
    run = 1
    hard_stop = time.perf_counter() + HARD_STOP_S
    before = probe()
    while (len(done) < MIN_REPS or time.perf_counter() < until) and time.perf_counter() < hard_stop:
        first = bench.repetition(tracer, run)
        after = probe()
        if first is not None:
            mean = (before + after) / 2.0
            done.append((run, PROBE_REF_S / mean, mean))
        before = after
        run += 1
    return done


def span_totals(tracer, runs) -> dict[int, dict[str, float]]:
    """Per repetition, the summed duration of its spans by name."""
    totals: dict[int, dict[str, float]] = {run: {} for run in runs}
    for name, start, end, _, run in tracer.spans:
        if run in totals:
            totals[run][name] = totals[run].get(name, 0.0) + end - start
    return totals


def e2e_metrics(bench: Bench, tracer, done) -> tuple[dict, dict]:
    """The end-to-end metrics at the reference host speed, and, in the
    returned info, the same times unscaled."""
    scale = {run: s for run, s, _ in done}
    values, rounds_ms = scaled_metrics(bench, tracer, scale)
    raw, _ = scaled_metrics(bench, tracer, dict.fromkeys(scale, 1.0))
    info = {
        "round_samples": len(rounds_ms),
        "repetitions_per_round": len(scale),
        "tail_percentile": bench.tail_pct,
        "rounds_beyond_tail": sum(1 for r in rounds_ms if r > values["round_ms.tail"]),
        "probe_ref_s": PROBE_REF_S,
        "probe_s_median": statistics.median(p for _, _, p in done),
        "unscaled": {k: v for k, v in raw.items() if k != "peak_rss_mb"},
    }
    return values, info


def scaled_metrics(bench: Bench, tracer, scale: dict[int, float]) -> tuple[dict, list]:
    """Medians over the repetitions in ``scale``, each repetition's times
    multiplied by its scale; and each round's median time, sorted."""
    import numpy as np

    by_run = [
        {name: scale[run] * t for name, t in totals.items()}
        for run, totals in span_totals(tracer, scale).items()
    ]
    per_run: dict[int, list[float]] = {run: [] for run in scale}
    for dt, _, run in tracer.rounds:
        if run in per_run:
            per_run[run].append(1e3 * dt * scale[run])
    if any(len(times) != bench.cfg.rounds for times in per_run.values()):
        raise RuntimeError("a repetition did not report every round")
    rounds_ms = sorted(statistics.median(times) for times in zip(*per_run.values()))
    values = {
        "setup_s": statistics.median(
            t.get("harness.parse_config", 0.0) + t.get("harness.build_federation", 0.0)
            for t in by_run
        ),
        "train_s": statistics.median(t["trainer.run_training"] for t in by_run),
        "run_s": statistics.median(t["harness.run"] for t in by_run),
        "round_ms.p50": statistics.median(rounds_ms),
        "round_ms.tail": float(np.percentile(rounds_ms, bench.tail_pct)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, rounds_ms


def traced_layers(bench: Bench, tracing, until: float) -> dict | None:
    """Per-layer metrics: medians over traced repetitions, each paired with
    an untraced one run just before it, so that host-speed drift hits both
    sides of ``trace.overhead_ratio`` alike. Pairs continue until ``until``
    and at least MIN_TRACED_PAIRS are done; each traced repetition's spans
    are written out once its metrics are taken."""
    light, full = tracing.Tracer(full=False), tracing.Tracer(full=True)
    with light:
        bench.repetition(light, 0)  # warm-up: checked, not timed
    per_rep, untraced = [], []
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"spans-{bench.workload.name}-seed{bench.seed}.tsv.gz"
    hard_stop = time.perf_counter() + HARD_STOP_S
    run = 1
    with tracing.open_span_file(path) as fh:
        while (len(per_rep) < MIN_TRACED_PAIRS or time.perf_counter() < until) and (
            time.perf_counter() < hard_stop
        ):
            with light:
                plain = bench.repetition(light, run)
            with full:
                first = bench.repetition(full, TRACED_RUN_BASE + run)
            if plain is not None and first is not None:
                per_rep.append(tracing.layer_metrics(full, first, bench.cfg.classes))
                untraced.append(span_totals(light, [run])[run]["trainer.run_training"])
            full.flush(fh)
            run += 1
    if not per_rep:
        return None
    layer = {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
    layer["trace.overhead_ratio"] = layer.pop("trainer.train_s") / statistics.median(untraced)
    # The last traced run's files against the reference, or for a seed
    # without one, against the untraced run's files.
    outputs = bench.last_outputs
    layer["harness.csv_bytes"] = sum(len(b) for b in outputs.values())
    layer["harness.csv_bitwise_match"] = bench.outcheck.bitwise_matches(
        outputs, bench.reference if bench.reference is not None else bench.first_outputs
    )
    return layer


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench_one(workload, seed: int, seconds: float, trace: int) -> int:
    load_package()
    import tracer as tracing
    from workloads import LAYER_MAP

    bench = Bench(workload, seed)
    until = time.perf_counter() + seconds
    info = {}
    if trace:
        metrics = traced_layers(bench, tracing, until)
    else:
        with tracing.Tracer(full=False) as light:
            bench.repetition(light, 0)  # warm-up: checked, not timed
            probe = speed_probe()
            probe()  # warm-up
            done = run_reps(bench, light, until, probe)
        metrics, info = e2e_metrics(bench, light, done) if done else (None, {})
    if metrics is None:
        print(f"error: no repetition of {workload.name} completed", file=sys.stderr)
        for p in bench.problems:
            print("  " + p, file=sys.stderr)
        return 1

    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    if set(units) != set(metrics):
        raise SystemExit(f"error: metrics {sorted(set(units) ^ set(metrics))} "
                         "are not both measured and declared in BENCHMARK.json")
    man = manifest(workload, seed, bench.cfg, trace, bench.attempted)
    error_rate = len(bench.failed_runs) / bench.attempted
    print(f"workload {workload.name}, seed {seed}: {why}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    if trace:
        for layer_name, entry in LAYER_MAP.items():
            moves = entry["moves"].get(workload.name) or entry["moves"].get("all")
            if moves:
                print(f"  layer {layer_name} should move: {', '.join(moves)}")
    else:
        print(f"  round_ms.tail is p{info['tail_percentile']:g} of {info['round_samples']} "
              f"rounds ({info['rounds_beyond_tail']} beyond it), each the median of "
              f"{info['repetitions_per_round']} repetitions")
        print(f"  times above are at the reference speed: the speed probe took "
              f"{info['probe_s_median']:.4g} s (median) against {PROBE_REF_S:g} s; unscaled:")
        for name, value in info["unscaled"].items():
            print(f"    {name:38s} {value:14.6g} {units[name]}")
    ref = "against the reference" if bench.reference is not None else "no reference for this seed"
    print(f"  output check: {'FAIL' if bench.problems else 'PASS'} ({ref}; {bench.attempted} "
          f"runs attempted, {len(bench.failed_runs)} failed, error_rate {error_rate:g})")
    for p in bench.problems:
        print("    " + p)
    print("  manifest: " + json.dumps(man, sort_keys=True))

    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": len(bench.failed_runs),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    record = dict(result, manifest=man, rounds=info, error_rate=error_rate, problems=bench.problems)
    (RESULTS_DIR / f"{workload.name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return bench_one(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, check=False).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
