"""Run-to-run spread of the end-to-end metrics, checked against their bounds.

    python3 perfbench/steadiness.py --out perfbench/evidence/steadiness.json

For each workload in BENCHMARK.json, makes SETS sets of RUNS benchmark
runs, one after another, every run with a seed of its own (set k uses seeds
``k*RUNS .. k*RUNS+RUNS-1``), at BENCHMARK.json's ``run_seconds``. For each
end-to-end metric it reports, per set, the median and the distance between
the first and third quartiles (``statistics.quantiles(n=4)``) as a share
of the median, and each later set's median against the first set's. A
metric is steady when every spread stays below a third of its bound and no
later median is worse than the first by more than the bound; ``setup_s``
is held only to the second rule.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} failed its output check:\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None, help="JSON file for the evidence")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "run_seconds": spec["run_seconds"],
        "runs_per_set": RUNS,
        "sets": SETS,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": {},
    }
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for k in range(SETS):
            runs = []
            for seed in range(k * RUNS, (k + 1) * RUNS):
                runs.append(one_run(workload, seed, spec["run_seconds"]))
                print(f"{workload} set {k} seed {seed}: "
                      + " ".join(f"{n}={v:.5g}" for n, v in runs[-1].items()), flush=True)
            sets.append(runs)
        entry = {}
        for metric, bound in bounds.items():
            per_set = [spread([r[metric] for r in runs]) for runs in sets]
            drift = [m / per_set[0][0] - 1.0 for m, _ in per_set[1:]]
            ok = all(d <= bound for d in drift) and (
                metric == "setup_s" or all(s < bound / 3.0 for _, s in per_set)
            )
            steady &= ok
            entry[metric] = {
                "bound": bound,
                "medians": [m for m, _ in per_set],
                "spreads": [s for _, s in per_set],
                "median_drift": drift,
                "steady": ok,
                "values": [[r[metric] for r in runs] for runs in sets],
            }
            print(f"{workload:13s} {metric:14s} bound {bound:<5g} spreads "
                  + " ".join(f"{s:.3f}" for _, s in per_set)
                  + "  drift " + " ".join(f"{d:+.3f}" for d in drift)
                  + ("  ok" if ok else "  NOT STEADY"), flush=True)
        report["workloads"][workload] = entry
    report["steady"] = steady
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
