"""Experiment harness: config files, subcommands, CSV persistence.

Configs are flat ``key = value`` text files with ``[section]`` headers and
``#``/``;`` comments (the fields of ``ExperimentConfig`` declare every key
and its default).
Subcommands:

* ``run``       -- train per seed, write per-seed round CSVs and a summary,
* ``oracle``    -- print closed-form oracle records in key=value form,
* ``partition`` -- write a client/sample/label partition CSV.

All numbers are serialized with 9 significant digits; reruns with the same
config produce byte-identical files. ``ENTROFED_OUTPUT_DIR`` overrides the
configured output directory.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from entrofed.aggregation import EbaConfig, QfflConfig, eba_weights, uniform_weights
from entrofed.analysis import (
    RegressionOracleSetup,
    entropy_max_bruteforce,
    regression_variance_oracle,
    softmax_entropy,
    toy_case_oracle,
)
from entrofed.core import SeededRng, softmax_temperature
from entrofed.datagen import (
    GlrFederationSpec,
    PartitionSpec,
    classifier_objectives,
    gen_gaussian_blobs,
    gen_glr_federation,
    partition,
    train_test_split_indices,
    write_partition_csv,
)
from entrofed.objectives import ClassifierObjective
from entrofed.trainer import Client, Federation, RoundReport, TrainerConfig, run_training

OUTPUT_DIR_ENV = "ENTROFED_OUTPUT_DIR"

# derivation tags for harness-owned random streams (disjoint from trainer tags)
_TAG_DATA = 11
_TAG_PARTITION = 12
_TAG_SPLIT = 13
_TAG_INIT = 14
_TAG_GLR_PARAMS = 15
_TAG_GLR_TRAIN = 16
_TAG_GLR_TEST = 17


class ConfigError(Exception):
    """Config file problem, annotated with field name and line number."""


def _fmt(x) -> str:
    """9-significant-digit serialization; stable across reruns."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".9g")


# --- config schema -----------------------------------------------------


def _an_int(minimum):
    def conv(s: str) -> int:
        try:
            v = int(s)
        except ValueError:
            raise ValueError(f"expected an integer, got {s!r}") from None
        if v < minimum:
            raise ValueError(f"must be >= {minimum}, got {v}")
        return v

    return conv


def _a_float(minimum=None, maximum=None, strict_min=False):
    def conv(s: str) -> float:
        try:
            v = float(s)
        except ValueError:
            raise ValueError(f"expected a number, got {s!r}") from None
        if not math.isfinite(v):
            raise ValueError("must be finite")
        above = minimum is None or (v > minimum if strict_min else v >= minimum)
        if above and (maximum is None or v <= maximum):
            return v
        if maximum is None:
            raise ValueError(f"must be {'>' if strict_min else '>='} {minimum}, got {v}")
        low = "(" if strict_min else "["
        raise ValueError(f"must be within {low}{minimum}, {maximum}], got {v}")

    return conv


def _a_choice(*options):
    def conv(s: str) -> str:
        if s not in options:
            raise ValueError(f"must be one of {options}, got {s!r}")
        return s

    return conv


def _batch_size(s: str):
    if s == "full":
        return None
    return _an_int(1)(s)


def _open_unit_interval(s: str) -> float:
    v = _a_float()(s)
    if not 0.0 < v < 1.0:
        raise ValueError(f"must be strictly between 0 and 1, got {v}")
    return v


def _seed_list(s: str) -> tuple[int, ...]:
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise ValueError("need at least one seed")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"seeds must be integers, got {s!r}") from None


def _key(section: str, default, convert, key: str | None = None):
    """Declare a config key: its ``[section]``, its default, and the converter
    that validates its text. The key's name is the field's unless given."""
    meta = {"section": section, "convert": convert}
    if key is not None:
        meta["key"] = key
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment settings, one field per config key; the
    defaults are those of an empty config file."""

    method: str = _key("trainer", "fedeba_plus", _a_choice(*TrainerConfig.METHODS))
    rounds: int = _key("trainer", 50, _an_int(1))
    local_steps: int = _key("trainer", 5, _an_int(1))
    clients_per_round: int = _key("trainer", 10, _an_int(1))
    global_lr: float = _key("trainer", 1.0, _a_float(0.0, strict_min=True))
    local_lr: float = _key("trainer", 0.05, _a_float(0.0, strict_min=True))
    alpha: float = _key("trainer", 0.5, _a_float(0.0, 1.0))
    theta_deg: float = _key("trainer", 90.0, _a_float(0.0, 180.0))
    batch_size: int | None = _key("trainer", None, _batch_size)
    tau0: float = _key("trainer", 0.1, _a_float(0.0, strict_min=True))
    tau_schedule: str = _key("trainer", "constant", _a_choice(*EbaConfig.SCHEDULES))
    tau_decay: float = _key("trainer", 0.0, _a_float(0.0))
    prior: str = _key("trainer", "uniform", _a_choice(*EbaConfig.PRIORS))
    qffl_q: float = _key("trainer", 1.0, _a_float(0.0))
    qffl_lipschitz: float = _key("trainer", 1.0, _a_float(0.0, strict_min=True))
    data_kind: str = _key("data", "blobs", _a_choice("blobs", "glr"), key="kind")
    classes: int = _key("data", 10, _an_int(2))
    per_class: int = _key("data", 200, _an_int(1))
    dim: int = _key("data", 8, _an_int(1))
    spread: float = _key("data", 1.0, _a_float(0.0))
    model: str = _key("data", "softmax", _a_choice("softmax", "mlp"))
    hidden_units: int = _key("data", 32, _an_int(1))
    activation: str = _key("data", "tanh", _a_choice("tanh", "relu"))
    glr_dim: int = _key("data", 4, _an_int(1))
    samples_per_client: int = _key("data", 32, _an_int(1))
    design_scale: float = _key("data", 1.0, _a_float(0.0, strict_min=True))
    noise_std: float = _key("data", 0.1, _a_float(0.0))
    param_scale: float = _key("data", 1.0, _a_float(0.0))
    partition_mode: str = _key(
        "partition", "dirichlet", _a_choice("shards", "dirichlet"), key="mode"
    )
    clients: int = _key("partition", 20, _an_int(1))
    shards_per_client: int = _key("partition", 2, _an_int(1))
    dirichlet_alpha: float = _key("partition", 0.3, _a_float(0.0, strict_min=True))
    min_samples_per_client: int = _key("partition", 1, _an_int(0))
    k_percent: float = _key("metrics", 5.0, _a_float(0.0, 100.0, strict_min=True))
    test_fraction: float = _key("metrics", 0.2, _open_unit_interval)
    seeds: tuple[int, ...] = _key("run", (1,), _seed_list)
    output_dir: str = _key("run", "runs", str)

    def trainer_config(self, seed: int) -> TrainerConfig:
        return TrainerConfig(
            rounds=self.rounds,
            local_steps=self.local_steps,
            clients_per_round=self.clients_per_round,
            local_lr=self.local_lr,
            global_lr=self.global_lr,
            alpha=self.alpha,
            theta=math.radians(self.theta_deg),
            eba=EbaConfig(self.tau0, self.tau_schedule, self.tau_decay, self.prior),
            qffl=QfflConfig(self.qffl_q, self.qffl_lipschitz),
            batch_size=self.batch_size,
            method=self.method,
            seed=seed,
            k_percent=self.k_percent,
        )


# (section, key) -> field, in field order
_KEYS = {
    (f.metadata["section"], f.metadata.get("key", f.name)): f
    for f in fields(ExperimentConfig)
}
_SECTIONS = {section for section, _ in _KEYS}


# "#" or ";" after whitespace starts a comment that runs to the end of the line
_INLINE_COMMENT = re.compile(r"\s[#;].*$")


def parse_config(path) -> ExperimentConfig:
    """Parse and validate a config file; every violation names the
    offending field and line. Comments start with ``#`` or ``;`` at the
    start of a line or after whitespace."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None

    raw: dict[tuple[str, str], tuple[str, int]] = {}
    section = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = _INLINE_COMMENT.sub("", line).strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}] (line {line_no})")
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value' (line {line_no})")
        if section is None:
            raise ConfigError(f"key outside any [section] (line {line_no})")
        key, _, value = stripped.partition("=")
        entry = (section, key.strip())
        if entry not in _KEYS:
            raise ConfigError(f"unknown key {section}.{key.strip()} (line {line_no})")
        if entry in raw:
            raise ConfigError(
                f"duplicate key {section}.{key.strip()} (line {line_no}, "
                f"first set on line {raw[entry][1]})"
            )
        raw[entry] = (value.strip(), line_no)

    values = {}
    for entry, f in _KEYS.items():
        if entry in raw:
            value_str, line_no = raw[entry]
            try:
                values[f.name] = f.metadata["convert"](value_str)
            except ValueError as exc:
                raise ConfigError(
                    f"{entry[0]}.{entry[1]}: {exc} (line {line_no})"
                ) from None

    cfg = ExperimentConfig(**values)
    if cfg.clients_per_round > cfg.clients:
        raise ConfigError(
            "trainer.clients_per_round must not exceed partition.clients "
            f"({cfg.clients_per_round} > {cfg.clients})"
        )
    if cfg.data_kind == "glr" and cfg.glr_dim > cfg.samples_per_client:
        raise ConfigError(
            "data.glr_dim must not exceed data.samples_per_client (rank condition)"
        )
    if cfg.model == "mlp" and cfg.hidden_units > ClassifierObjective.MAX_HIDDEN:
        raise ConfigError(
            f"data.hidden_units must be <= {ClassifierObjective.MAX_HIDDEN}"
        )
    return cfg


# --- federation assembly ------------------------------------------------


def _blob_partition(cfg: ExperimentConfig, root: SeededRng):
    """The blob dataset of a seed's root stream and its client partition."""
    ds = gen_gaussian_blobs(
        cfg.classes, cfg.per_class, cfg.dim, cfg.spread, root.derive(_TAG_DATA).seed
    )
    spec = PartitionSpec(
        mode=cfg.partition_mode,
        client_count=cfg.clients,
        shards_per_client=cfg.shards_per_client,
        dirichlet_alpha=cfg.dirichlet_alpha,
        min_samples_per_client=cfg.min_samples_per_client,
        seed=root.derive(_TAG_PARTITION).seed,
    )
    return ds, partition(ds, spec)


def build_federation(cfg: ExperimentConfig, seed: int) -> tuple[Federation, np.ndarray]:
    """Materialize the federation and initial parameters for one seed."""
    root = SeededRng(seed)
    if cfg.data_kind == "blobs":
        ds, assignment = _blob_partition(cfg, root)
        hidden = cfg.hidden_units if cfg.model == "mlp" else 0
        activation = cfg.activation if cfg.model == "mlp" else "identity"
        sides = train_test_split_indices(assignment, cfg.test_fraction, root.derive(_TAG_SPLIT))
        train, test = (classifier_objectives(ds, side, hidden, activation) for side in sides)
        clients = [Client(a, b) for a, b in zip(train, test)]
        federation = Federation(tuple(clients))
        x0 = clients[0].objective.init_params(root.derive(_TAG_INIT))
        return federation, x0

    w = cfg.param_scale * root.derive(_TAG_GLR_PARAMS).normals(
        cfg.clients * cfg.glr_dim
    ).reshape(cfg.clients, cfg.glr_dim)
    train_spec = GlrFederationSpec(
        client_count=cfg.clients,
        dimension=cfg.glr_dim,
        samples_per_client=cfg.samples_per_client,
        true_params=w,
        design_scale=cfg.design_scale,
        noise_std=cfg.noise_std,
        seed=root.derive(_TAG_GLR_TRAIN).seed,
    )
    test_spec = replace(train_spec, seed=root.derive(_TAG_GLR_TEST).seed)
    train_objs = gen_glr_federation(train_spec)
    test_objs = gen_glr_federation(test_spec)
    clients = [Client(a, b) for a, b in zip(train_objs, test_objs)]
    return Federation(tuple(clients)), np.zeros(cfg.glr_dim)


# --- output writers ------------------------------------------------------


# (column, its text for one round's report), in CSV order
ROUNDS_COLUMNS = (
    ("round", lambda r: str(r.round_index)),
    ("tau", lambda r: _fmt(r.tau)),
    ("angle_deg", lambda r: _fmt(math.degrees(r.angle))),
    ("branch", lambda r: r.branch),
    ("global_train_loss", lambda r: _fmt(r.global_train_loss)),
    ("global_test_acc", lambda r: _fmt(r.global_accuracy)),
    ("loss_var", lambda r: _fmt(r.loss_variance)),
    ("acc_var", lambda r: _fmt(r.accuracy_variance)),
    ("worst_k", lambda r: _fmt(r.worst_tail_accuracy)),
    ("best_k", lambda r: _fmt(r.best_tail_accuracy)),
    ("chi_square", lambda r: _fmt(r.chi_square)),
    ("extra_comm", lambda r: "1" if r.extra_comm else "0"),
)
ROUNDS_SCHEMA = ",".join(name for name, _ in ROUNDS_COLUMNS)


def write_rounds_csv(path, reports: list[RoundReport]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# schema=rounds-v1\n")
        fh.write(ROUNDS_SCHEMA + "\n")
        for r in reports:
            fh.write(",".join(text(r) for _, text in ROUNDS_COLUMNS) + "\n")


_SUMMARY_METRICS = (
    ("global_acc", "global_accuracy"),
    ("acc_var", "accuracy_variance"),
    ("worst_k", "worst_tail_accuracy"),
    ("best_k", "best_tail_accuracy"),
)


def write_summary(path, cfg: ExperimentConfig, finals: dict[int, RoundReport]) -> None:
    """Mean and population std across seeds of the final-round quadruple."""
    seeds = sorted(finals)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# schema=summary-v1\n")
        fh.write(f"method = {cfg.method}\n")
        fh.write(f"dataset = {cfg.data_kind}\n")
        fh.write(f"rounds = {cfg.rounds}\n")
        fh.write(f"clients = {cfg.clients}\n")
        fh.write(f"k_percent = {_fmt(cfg.k_percent)}\n")
        fh.write("seeds = " + ",".join(str(s) for s in seeds) + "\n")
        for name, attr in _SUMMARY_METRICS:
            vals = np.array([getattr(finals[s], attr) for s in seeds], dtype=np.float64)
            fh.write(f"{name}_mean = {_fmt(float(vals.mean()))}\n")
            fh.write(f"{name}_std = {_fmt(float(vals.std()))}\n")


def _write_complete(path: Path, write, *args) -> None:
    """``write(tmp, *args)`` to a temporary name beside ``path``, renamed to
    ``path`` once written: a file under its own name is always complete, and
    a write that fails leaves no file behind."""
    tmp = path.with_name(f".{path.name}.partial")
    try:
        write(tmp, *args)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _resolve_output_dir(cfg: ExperimentConfig) -> Path:
    override = os.environ.get(OUTPUT_DIR_ENV)
    out = Path(override) if override else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- subcommands ----------------------------------------------------------


def cmd_run(cfg: ExperimentConfig) -> int:
    out = _resolve_output_dir(cfg)
    finals: dict[int, RoundReport] = {}
    for seed in cfg.seeds:
        federation, x0 = build_federation(cfg, seed)
        reports: list[RoundReport] = []
        try:
            run_training(federation, cfg.trainer_config(seed), x0, lambda r, _: reports.append(r))
        except (ValueError, RuntimeError, ZeroDivisionError) as exc:
            raise type(exc)(f"{exc} (seed {seed}, round {len(reports) + 1})") from exc
        _write_complete(out / f"rounds_seed{seed}.csv", write_rounds_csv, reports)
        finals[seed] = reports[-1]
    _write_complete(out / "summary.txt", write_summary, cfg, finals)
    return 0


def cmd_partition(cfg: ExperimentConfig) -> int:
    out = _resolve_output_dir(cfg)
    if cfg.data_kind != "blobs":
        raise ConfigError("partition export requires data.kind = blobs")
    ds, assignment = _blob_partition(cfg, SeededRng(cfg.seeds[0]))
    write_partition_csv(out / "partition.csv", assignment, ds.labels)
    return 0


def _print_kv(pairs) -> None:
    for key, value in pairs:
        print(f"{key}={value}")


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.name == "toy":
        rec = toy_case_oracle(args.eta_l, args.tau, q=args.q, alpha=args.alpha)
        _print_kv(
            [
                ("local_model_1", _fmt(rec.local_models[0])),
                ("local_model_2", _fmt(rec.local_models[1])),
                ("fedavg_iterate", _fmt(rec.fedavg)),
                ("fedeba_iterate", _fmt(rec.fedeba)),
                ("qffl_iterate", _fmt(rec.qffl)),
                ("qffl_iterate_magnitude", _fmt(abs(rec.qffl))),
                ("qffl_delta_1", _fmt(rec.qffl_deltas[0])),
                ("qffl_delta_2", _fmt(rec.qffl_deltas[1])),
                ("qffl_h_1", _fmt(rec.qffl_h[0])),
                ("qffl_h_2", _fmt(rec.qffl_h[1])),
                ("loss_gap_fedavg", _fmt(rec.loss_gaps["fedavg"])),
                ("loss_gap_fedeba", _fmt(rec.loss_gaps["fedeba"])),
                ("loss_gap_qffl", _fmt(rec.loss_gaps["qffl"])),
                ("var_fedavg", _fmt(rec.variances["fedavg"])),
                ("var_fedeba", _fmt(rec.variances["fedeba"])),
                ("var_qffl", _fmt(rec.variances["qffl"])),
            ]
        )
        return 0

    if args.name == "glr_variance":
        rng = SeededRng(args.seed)
        w = args.param_scale * rng.normals(args.clients * args.dim).reshape(
            args.clients, args.dim
        )
        uniform = uniform_weights(args.clients)
        base = RegressionOracleSetup(w, args.design_scale, uniform)
        # Entropy weights follow the client losses, which grow affinely with
        # the squared distance to the aggregate under this design family.
        diff = base.aggregate[None, :] - w
        losses = 0.5 * args.design_scale * np.einsum("ij,ij->i", diff, diff)
        eba = RegressionOracleSetup(
            w, args.design_scale, eba_weights(losses, args.tau)
        )
        _print_kv(
            [
                ("uniform_variance", _fmt(regression_variance_oracle(base))),
                ("eba_variance", _fmt(regression_variance_oracle(eba))),
                (
                    "weighted_uniform_variance",
                    _fmt(regression_variance_oracle(base, weighted=True)),
                ),
                (
                    "weighted_eba_variance",
                    _fmt(regression_variance_oracle(eba, weighted=True)),
                ),
            ]
        )
        return 0

    losses = [float(part) for part in args.losses.split(",") if part.strip()]
    point, grid_entropy = entropy_max_bruteforce(
        losses, args.tau, args.grid, args.slack
    )
    soft_entropy = softmax_entropy(losses, args.tau)
    f_target = float(softmax_temperature(losses, args.tau) @ np.asarray(losses))
    _print_kv(
        [
            ("ftilde", _fmt(f_target)),
            ("softmax_entropy", _fmt(soft_entropy)),
            ("grid_entropy", _fmt(grid_entropy)),
            ("grid_point", ",".join(_fmt(v) for v in point)),
            ("dominance", "true" if soft_entropy >= grid_entropy - 1e-9 else "false"),
        ]
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrofed",
        description="Deterministic fairness-aware federated learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train per configured seed, write CSVs")
    run_p.add_argument("--config", required=True, help="path to a key=value config file")

    part_p = sub.add_parser("partition", help="write the client partition CSV")
    part_p.add_argument("--config", required=True, help="path to a key=value config file")

    orc = sub.add_parser("oracle", help="print a closed-form oracle record")
    orc.add_argument("name", choices=["toy", "glr_variance", "entropy_grid"])
    orc.add_argument("--eta-l", dest="eta_l", type=float, default=0.25)
    orc.add_argument("--tau", type=float, default=1.0)
    orc.add_argument("--q", type=float, default=1.0)
    orc.add_argument("--alpha", type=float, default=0.5)
    orc.add_argument("--losses", default="0,4.5", help="comma list for entropy_grid")
    orc.add_argument("--grid", type=float, default=0.01)
    orc.add_argument("--slack", type=float, default=0.02)
    orc.add_argument("--clients", type=int, default=8)
    orc.add_argument("--dim", type=int, default=4)
    orc.add_argument("--design-scale", dest="design_scale", type=float, default=1.0)
    orc.add_argument("--param-scale", dest="param_scale", type=float, default=1.0)
    orc.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(parse_config(args.config))
        if args.command == "partition":
            return cmd_partition(parse_config(args.config))
        return cmd_oracle(args)
    # ZeroDivisionError: a degenerate q-FFL step, whose message says so
    except (ConfigError, ValueError, OSError, RuntimeError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
