"""Experiment harness: config files, subcommands, CSV persistence.

Configs are flat ``key = value`` text files with ``[section]`` headers and
``#``/``;`` comments. Each key is declared once, with its default and its
rule, on the dataclass field it sets (``ExperimentConfig`` and the trainer
configs, blob and GLR settings and partition spec it holds).
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
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from entrofed.aggregation import eba_weights, uniform_weights
from entrofed.analysis import (
    RegressionOracleSetup,
    entropy_max_bruteforce,
    regression_variance_oracle,
    softmax_entropy,
    toy_case_oracle,
)
from entrofed.core import (
    SeededRng,
    check_setting,
    check_settings,
    one_of,
    setting,
    softmax_temperature,
)
from entrofed.datagen import (
    BlobSettings,
    GlrSettings,
    PartitionSpec,
    gen_gaussian_blobs,
    gen_glr_federation,
    partition,
    train_test_split_indices,
    write_partition_csv,
)
from entrofed.stacks import classifier_stacks
from entrofed.trainer import Federation, RoundReport, TrainerConfig, run_training

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


def _number(text: str):
    """An int, or a float that an integer setting's check then rejects."""
    try:
        return int(text)
    except ValueError:
        return float(text)


# the text parser of each type of setting, and what its text must be
_PARSERS = {
    "int": (_number, "an integer"),
    "float": (float, "a number"),
    "str": (str, "text"),
    "int | None": (lambda s: None if s == "full" else _number(s), "an integer or full"),
    "tuple[int, ...]": (
        lambda s: tuple(_number(p) for p in s.split(",") if p.strip()), "comma-separated integers"
    ),
}


def _distinct_seeds(seeds) -> None:
    # each seed names its own rounds_seed<N>.csv and summary row
    if not seeds or len(set(seeds)) < len(seeds):
        raise ValueError(f"must be one or more distinct seeds, got {seeds}")


@dataclass(frozen=True)
class ExperimentConfig:
    """The trainer, blob, GLR and partition settings and one field per other
    data and run key, all validated; the defaults are an empty file's."""

    trainer: TrainerConfig = TrainerConfig()
    data_kind: str = setting("data", "blobs", one_of("blobs", "glr"), key="kind")
    blobs: BlobSettings = BlobSettings()
    glr: GlrSettings = GlrSettings()
    partition: PartitionSpec = PartitionSpec()
    seeds: tuple[int, ...] = setting("run", (1,), _distinct_seeds)
    output_dir: str = setting("run", "runs", None)

    def __post_init__(self):
        if isinstance(self.seeds, list):
            object.__setattr__(self, "seeds", tuple(self.seeds))
        check_settings(self)
        if self.trainer.clients_per_round > self.clients:
            raise ValueError(
                "trainer.clients_per_round must not exceed partition.clients "
                f"({self.trainer.clients_per_round} > {self.clients})"
            )
        if self.data_kind == "glr" and self.glr.dimension > self.glr.samples_per_client:
            raise ValueError(
                "data.glr_dim must not exceed data.samples_per_client (rank condition)"
            )

    # what a run's outputs name, read through to the settings that hold it
    method = property(lambda self: self.trainer.method)
    rounds = property(lambda self: self.trainer.rounds)
    clients = property(lambda self: self.partition.client_count)
    classes = property(lambda self: self.blobs.classes)

    def trainer_config(self, seed: int) -> TrainerConfig:
        return replace(self.trainer, seed=seed)


def _settings(cls, parents):
    """((section, key), (dataclass, field name, type, checker, unit)) for
    each setting of ``cls`` and of the dataclasses it nests, whose holders
    go into ``parents`` as (dataclass, field name), outer ones first."""
    for f in fields(cls):
        if "section" in f.metadata:
            meta = f.metadata
            entry = (meta["section"], meta["key"] or f.name)
            yield entry, (cls, f.name, f.type, meta["check"], meta["unit"])
        elif is_dataclass(f.default):
            parents[type(f.default)] = (cls, f.name)
            yield from _settings(type(f.default), parents)


_PARENTS: dict[type, tuple[type, str]] = {}
_KEYS = dict(_settings(ExperimentConfig, _PARENTS))
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

    first_line: dict[tuple[str, str], int] = {}
    values: dict[type, dict] = {}
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
        key, _, raw = map(str.strip, stripped.partition("="))
        entry = (section, key)
        if entry not in _KEYS:
            raise ConfigError(f"unknown key {section}.{key} (line {line_no})")
        if entry in first_line:
            raise ConfigError(
                f"duplicate key {section}.{key} (line {line_no}, "
                f"first set on line {first_line[entry]})"
            )
        first_line[entry] = line_no
        owner, name, kind, check, unit = _KEYS[entry]
        parse, text = _PARSERS[kind]
        where = f"{section}.{key}"
        try:
            value = parse(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected {text}, got {raw!r} (line {line_no})") from None
        try:
            check_setting(kind, check, value)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc} (line {line_no})") from None
        values.setdefault(owner, {})[name] = value if unit is None else unit[0](value)
    try:
        # inner dataclasses first, each into the one that holds it
        for inner, (outer, name) in reversed(_PARENTS.items()):
            if inner in values:
                values.setdefault(outer, {})[name] = inner(**values.pop(inner))
        return ExperimentConfig(**values.get(ExperimentConfig, {}))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# --- federation assembly ------------------------------------------------


def _blob_partition(cfg: ExperimentConfig, root: SeededRng):
    """The blob dataset of a seed's root stream and its client partition."""
    ds = gen_gaussian_blobs(cfg.blobs, root.derive(_TAG_DATA).seed)
    return ds, partition(ds, replace(cfg.partition, seed=root.derive(_TAG_PARTITION).seed))


def build_federation(cfg: ExperimentConfig, seed: int) -> tuple[Federation, np.ndarray]:
    """Materialize the federation and initial parameters for one seed."""
    root = SeededRng(seed)
    if cfg.data_kind == "blobs":
        ds, assignment = _blob_partition(cfg, root)
        sides = train_test_split_indices(
            assignment, cfg.blobs.test_fraction, root.derive(_TAG_SPLIT)
        )
        train, test = classifier_stacks(ds, sides, *cfg.blobs.layer)
        return Federation(train, test), train.model.init_params(root.derive(_TAG_INIT))

    glr = cfg.glr
    w = glr.param_scale * root.derive(_TAG_GLR_PARAMS).normals(
        cfg.clients * glr.dimension
    ).reshape(cfg.clients, glr.dimension)
    tags = (_TAG_GLR_TRAIN, _TAG_GLR_TEST)
    sides = (gen_glr_federation(w, glr, root.derive(tag).seed) for tag in tags)
    return Federation(*sides), np.zeros(glr.dimension)


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
        fh.write(f"k_percent = {_fmt(cfg.trainer.k_percent)}\n")
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
        reports: list[RoundReport] | None = None
        try:
            federation, x0 = build_federation(cfg, seed)
            reports = []
            run_training(federation, cfg.trainer_config(seed), x0, lambda r, _: reports.append(r))
        except (ValueError, RuntimeError, ZeroDivisionError) as exc:
            at = "" if reports is None else f", round {len(reports) + 1}"
            raise type(exc)(f"{exc} (seed {seed}{at})") from exc
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
