"""Checks on the files one ``entrofed run`` wrote.

Three checks back ``failed``/``error_rate``:

* against the stored reference (the reference seed only): ``round``,
  ``branch`` and ``extra_comm`` compare exactly, every other rounds column
  and every summary number within ``RTOL``/``ATOL``; ``nan`` must meet
  ``nan`` and ``inf`` must meet ``inf`` of the same sign;
* every seed: the columns are finite where they must be and in range;
* every repetition after the first: byte-identical to the first.

Byte identity with the reference is counted separately
(``harness.csv_bitwise_match``), because a change may move the last printed
digit without being wrong.
"""

from __future__ import annotations

import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-9

ROUNDS_HEADER = (
    "round,tau,angle_deg,branch,global_train_loss,global_test_acc,"
    "loss_var,acc_var,worst_k,best_k,chi_square,extra_comm"
)
EXACT_COLUMNS = ("round", "branch", "extra_comm")
SUMMARY_TEXT_KEYS = ("method", "dataset", "rounds", "clients", "seeds")


def output_names(seeds) -> list[str]:
    return [f"rounds_seed{s}.csv" for s in seeds] + ["summary.txt"]


def read_outputs(directory: Path, seeds) -> dict[str, bytes]:
    """Bytes of every file ``entrofed run`` writes; missing files are absent."""
    out = {}
    for name in output_names(seeds):
        path = directory / name
        if path.is_file():
            out[name] = path.read_bytes()
    return out


def _rows(data: bytes) -> tuple[list[str], list[dict[str, str]]]:
    lines = data.decode("utf-8").splitlines()
    if len(lines) < 2 or lines[0] != "# schema=rounds-v1" or lines[1] != ROUNDS_HEADER:
        raise ValueError("missing rounds-v1 schema line or header")
    cols = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        cells = line.split(",")
        if len(cells) != len(cols):
            raise ValueError(f"row has {len(cells)} cells, expected {len(cols)}")
        rows.append(dict(zip(cols, cells)))
    return cols, rows


def _summary(data: bytes) -> dict[str, str]:
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != "# schema=summary-v1":
        raise ValueError("missing summary-v1 schema line")
    out = {}
    for line in lines[1:]:
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"summary line without ' = ': {line!r}")
        out[key] = value
    return out


def _close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= ATOL + RTOL * abs(y)


def compare_to_reference(outputs: dict[str, bytes], reference: dict[str, bytes]) -> list[str]:
    """Problems found comparing a run's files with the reference files."""
    problems = []
    for name, ref in sorted(reference.items()):
        if name not in outputs:
            problems.append(f"{name}: not written")
            continue
        try:
            if name == "summary.txt":
                got, want = _summary(outputs[name]), _summary(ref)
                if got.keys() != want.keys():
                    problems.append(f"{name}: keys differ from the reference")
                    continue
                for key, value in want.items():
                    same = got[key] == value if key in SUMMARY_TEXT_KEYS else _close(got[key], value)
                    if not same:
                        problems.append(f"{name}: {key} = {got[key]}, reference {value}")
                continue
            _, got_rows = _rows(outputs[name])
            _, want_rows = _rows(ref)
            if len(got_rows) != len(want_rows):
                problems.append(f"{name}: {len(got_rows)} rounds, reference {len(want_rows)}")
                continue
            for got, want in zip(got_rows, want_rows):
                for col, value in want.items():
                    same = got[col] == value if col in EXACT_COLUMNS else _close(got[col], value)
                    if not same:
                        problems.append(
                            f"{name}: round {want['round']} {col} = {got[col]}, reference {value}"
                        )
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
    return problems


def bitwise_matches(outputs: dict[str, bytes], reference: dict[str, bytes]) -> int:
    return sum(1 for name, ref in reference.items() if outputs.get(name) == ref)


def _in(value: float, low: float, high: float) -> bool:
    return low <= value <= high


def check_ranges(outputs: dict[str, bytes], cfg) -> list[str]:
    """Problems with the values themselves, for a seed without a reference.

    ``cfg`` is the parsed ExperimentConfig the run used: FedEBA+ on a
    classifier, as every workload is.
    """
    problems = []
    for seed in cfg.seeds:
        name = f"rounds_seed{seed}.csv"
        if name not in outputs:
            problems.append(f"{name}: not written")
            continue
        try:
            _, rows = _rows(outputs[name])
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if [r["round"] for r in rows] != [str(k) for k in range(1, cfg.rounds + 1)]:
            problems.append(f"{name}: rounds are not 1..{cfg.rounds}")
            continue
        for r in rows:
            v = {k: float(x) for k, x in r.items() if k not in ("branch", "extra_comm")}
            bad = []
            if not v["tau"] > 0:
                bad.append("tau")
            if not _in(v["angle_deg"], 0.0, 90.0):
                bad.append("angle_deg")
            if r["branch"] not in ("plain", "aligned") or r["extra_comm"] != (
                "1" if r["branch"] == "aligned" else "0"
            ):
                bad.append("branch/extra_comm")
            if not (math.isfinite(v["global_train_loss"]) and v["global_train_loss"] >= 0):
                bad.append("global_train_loss")
            if not (math.isfinite(v["loss_var"]) and v["loss_var"] >= 0):
                bad.append("loss_var")
            if not (v["chi_square"] >= 0):
                bad.append("chi_square")
            acc = ("global_test_acc", "worst_k", "best_k")
            if not all(_in(v[k], 0.0, 1.0) for k in acc) or v["worst_k"] > v["best_k"]:
                bad.append("accuracy columns")
            if not _in(v["acc_var"], 0.0, 0.25):
                bad.append("acc_var")
            if bad:
                problems.append(f"{name}: round {r['round']} out of range: {', '.join(bad)}")
    if "summary.txt" not in outputs:
        problems.append("summary.txt: not written")
        return problems
    try:
        summary = _summary(outputs["summary.txt"])
    except ValueError as exc:
        return problems + [f"summary.txt: {exc}"]
    expect = {
        "method": cfg.method,
        "dataset": cfg.data_kind,
        "rounds": str(cfg.rounds),
        "clients": str(cfg.clients),
        "seeds": ",".join(str(s) for s in sorted(cfg.seeds)),
    }
    for key, value in expect.items():
        if summary.get(key) != value:
            problems.append(f"summary.txt: {key} = {summary.get(key)}, expected {value}")
    for key in ("global_acc", "acc_var", "worst_k", "best_k"):
        for stat in ("mean", "std"):
            value = float(summary.get(f"{key}_{stat}", "nan"))
            if not math.isfinite(value):
                problems.append(f"summary.txt: {key}_{stat} = {value}")
    return problems
