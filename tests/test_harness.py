"""Config parsing, CLI subcommands, and output-file contracts."""

import dataclasses
import hashlib
import importlib
import math
import pkgutil
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import entrofed
from entrofed import harness, trainer
from entrofed.aggregation import EbaConfig, QfflConfig
from entrofed.core import SeededRng
from entrofed.datagen import BlobSettings, GlrSettings, PartitionSpec, train_test_split_indices
from entrofed.harness import (
    ConfigError,
    ROUNDS_SCHEMA,
    build_federation,
    main,
    parse_config,
)
from entrofed.objectives import ClassifierObjective
from entrofed.trainer import TrainerConfig, run_training


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


SMALL_RUN = """
[trainer]
method = fedeba_plus
rounds = 8
local_steps = 2
clients_per_round = 4

[data]
classes = 3
per_class = 40
dim = 3

[partition]
clients = 6
dirichlet_alpha = 0.5
min_samples_per_client = 4

[run]
seeds = 1,2
"""


# Every (section, key) a config file may set: the text of its default, where
# its value lands ("run." on the trainer config of a run, else on the
# experiment config) and the value an empty file gives it.
SCHEMA = {
    ("trainer", "method"): ("fedeba_plus", "run.method", "fedeba_plus"),
    ("trainer", "rounds"): ("50", "run.rounds", 50),
    ("trainer", "local_steps"): ("5", "run.local_steps", 5),
    ("trainer", "clients_per_round"): ("10", "run.clients_per_round", 10),
    ("trainer", "global_lr"): ("1.0", "run.global_lr", 1.0),
    ("trainer", "local_lr"): ("0.05", "run.local_lr", 0.05),
    ("trainer", "alpha"): ("0.5", "run.alpha", 0.5),
    ("trainer", "theta_deg"): ("90", "run.theta", math.pi / 2),
    ("trainer", "batch_size"): ("full", "run.batch_size", None),
    ("trainer", "tau0"): ("0.1", "run.eba.tau0", 0.1),
    ("trainer", "tau_schedule"): ("constant", "run.eba.schedule", "constant"),
    ("trainer", "tau_decay"): ("0", "run.eba.decay", 0.0),
    ("trainer", "prior"): ("uniform", "run.eba.prior", "uniform"),
    ("trainer", "qffl_q"): ("1", "run.qffl.q", 1.0),
    ("trainer", "qffl_lipschitz"): ("1", "run.qffl.lipschitz", 1.0),
    ("data", "kind"): ("blobs", "data_kind", "blobs"),
    ("data", "classes"): ("10", "blobs.classes", 10),
    ("data", "per_class"): ("200", "blobs.per_class", 200),
    ("data", "dim"): ("8", "blobs.dim", 8),
    ("data", "spread"): ("1", "blobs.spread", 1.0),
    ("data", "model"): ("softmax", "blobs.model", "softmax"),
    ("data", "hidden_units"): ("32", "blobs.hidden_units", 32),
    ("data", "activation"): ("tanh", "blobs.activation", "tanh"),
    ("data", "glr_dim"): ("4", "glr.dimension", 4),
    ("data", "samples_per_client"): ("32", "glr.samples_per_client", 32),
    ("data", "design_scale"): ("1", "glr.design_scale", 1.0),
    ("data", "noise_std"): ("0.1", "glr.noise_std", 0.1),
    ("data", "param_scale"): ("1", "glr.param_scale", 1.0),
    ("partition", "mode"): ("dirichlet", "partition.mode", "dirichlet"),
    ("partition", "clients"): ("20", "partition.client_count", 20),
    ("partition", "shards_per_client"): ("2", "partition.shards_per_client", 2),
    ("partition", "dirichlet_alpha"): ("0.3", "partition.dirichlet_alpha", 0.3),
    ("partition", "min_samples_per_client"): ("1", "partition.min_samples_per_client", 1),
    ("metrics", "k_percent"): ("5", "run.k_percent", 5.0),
    ("metrics", "test_fraction"): ("0.2", "blobs.test_fraction", 0.2),
    ("run", "seeds"): ("1", "seeds", (1,)),
    ("run", "output_dir"): ("runs", "output_dir", "runs"),
}


class TestSchema:
    def test_every_key_and_its_empty_file_value_is_pinned(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, ""))
        assert cfg == harness.ExperimentConfig()
        assert len(SCHEMA) == 37 and set(harness._KEYS) == set(SCHEMA)
        run = cfg.trainer_config(0)
        for entry, (_, where, want) in SCHEMA.items():
            got = run if where.startswith("run.") else cfg
            for name in where.removeprefix("run.").split("."):
                got = getattr(got, name)
            assert (got, type(got)) == (want, type(want)), entry

    def test_each_default_text_gives_the_default(self, tmp_path):
        by_section = {}
        for (section, key), (text, _, _) in SCHEMA.items():
            by_section.setdefault(section, []).append(f"{key} = {text}")
        text = "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in by_section.items())
        assert parse_config(write_cfg(tmp_path, text)) == harness.ExperimentConfig()

    def test_every_declared_setting_is_parsed_and_declared_once(self):
        # A dataclass that declares a setting the config does not hold would
        # leave it unparsed, and a second declaration of a key would let two
        # defaults and rules drift apart.
        declared = []
        for info in pkgutil.iter_modules(entrofed.__path__):
            module = importlib.import_module(f"entrofed.{info.name}")
            for cls in vars(module).values():
                if not isinstance(cls, type) or not dataclasses.is_dataclass(cls):
                    continue
                if cls.__module__ != module.__name__:
                    continue
                for f in dataclasses.fields(cls):
                    if "section" in f.metadata:
                        entry = (f.metadata["section"], f.metadata["key"] or f.name)
                        assert harness._KEYS[entry][:2] == (cls, f.name), entry
                        declared.append(entry)
        assert sorted(declared) == sorted(harness._KEYS)


# A bad value of each trainer, partition, blob and GLR data setting:
# (section, key, file text, the dataclass and field the key sets, the
# field's value for that text). Whole floats and zero counts are among them:
# a partition spec once took 2.5 samples, failed in numpy at 3.0 clients,
# and built an empty federation at 0 clients or empty designs at a GLR
# dimension and sample count of 0; a minimum of 0 samples let `partition`
# accept a split that `run` then failed on; the blob generator gave its own
# reasons for 1 class or a spread of nan, and failed in numpy at 2.5 classes.
BAD_SETTINGS = [
    ("trainer", "method", "sgd", TrainerConfig, "method", "sgd"),
    ("trainer", "rounds", "0", TrainerConfig, "rounds", 0),
    ("trainer", "local_steps", "0", TrainerConfig, "local_steps", 0),
    ("trainer", "clients_per_round", "-1", TrainerConfig, "clients_per_round", -1),
    ("trainer", "batch_size", "0", TrainerConfig, "batch_size", 0),
    ("trainer", "batch_size", "2.5", TrainerConfig, "batch_size", 2.5),
    ("trainer", "tau_schedule", "sqrt", EbaConfig, "schedule", "sqrt"),
    ("trainer", "prior", "loss", EbaConfig, "prior", "loss"),
    ("partition", "mode", "iid", PartitionSpec, "mode", "iid"),
    ("partition", "clients", "0", PartitionSpec, "client_count", 0),
    ("partition", "clients", "3.0", PartitionSpec, "client_count", 3.0),
    ("partition", "shards_per_client", "0", PartitionSpec, "shards_per_client", 0),
    ("partition", "shards_per_client", "1.5", PartitionSpec, "shards_per_client", 1.5),
    ("partition", "min_samples_per_client", "-1", PartitionSpec, "min_samples_per_client", -1),
    ("partition", "min_samples_per_client", "0", PartitionSpec, "min_samples_per_client", 0),
    ("partition", "min_samples_per_client", "2.5", PartitionSpec, "min_samples_per_client", 2.5),
    ("data", "classes", "1", BlobSettings, "classes", 1),
    ("data", "classes", "2.5", BlobSettings, "classes", 2.5),
    ("data", "per_class", "0", BlobSettings, "per_class", 0),
    ("data", "dim", "0", BlobSettings, "dim", 0),
    ("data", "dim", "2.0", BlobSettings, "dim", 2.0),
    ("data", "model", "cnn", BlobSettings, "model", "cnn"),
    ("data", "activation", "sigmoid", BlobSettings, "activation", "sigmoid"),
    ("data", "hidden_units", "0", BlobSettings, "hidden_units", 0),
    ("metrics", "test_fraction", "1", BlobSettings, "test_fraction", 1.0),
    ("data", "glr_dim", "0", GlrSettings, "dimension", 0),
    ("data", "glr_dim", "2.0", GlrSettings, "dimension", 2.0),
    ("data", "samples_per_client", "0", GlrSettings, "samples_per_client", 0),
    ("data", "samples_per_client", "inf", GlrSettings, "samples_per_client", math.inf),
    ("run", "seeds", "1.0,2", harness.ExperimentConfig, "seeds", (1.0, 2)),
]
# the float settings, each with an out-of-range value, then non-finite ones
FLOAT_SETTINGS = [
    ("trainer", "global_lr", "0", TrainerConfig, "global_lr", float),
    ("trainer", "local_lr", "-0.5", TrainerConfig, "local_lr", float),
    ("trainer", "alpha", "1.5", TrainerConfig, "alpha", float),
    ("trainer", "theta_deg", "270", TrainerConfig, "theta", lambda t: math.radians(float(t))),
    ("trainer", "tau0", "0", EbaConfig, "tau0", float),
    ("trainer", "tau_decay", "-0.1", EbaConfig, "decay", float),
    ("trainer", "qffl_q", "-1", QfflConfig, "q", float),
    ("trainer", "qffl_lipschitz", "0", QfflConfig, "lipschitz", float),
    ("metrics", "k_percent", "150", TrainerConfig, "k_percent", float),
    ("partition", "dirichlet_alpha", "0", PartitionSpec, "dirichlet_alpha", float),
    ("data", "spread", "-1", BlobSettings, "spread", float),
    ("metrics", "test_fraction", "0", BlobSettings, "test_fraction", float),
    ("data", "design_scale", "0", GlrSettings, "design_scale", float),
    ("data", "noise_std", "-0.1", GlrSettings, "noise_std", float),
    ("data", "param_scale", "-1", GlrSettings, "param_scale", float),
]
BAD_SETTINGS += [
    (section, key, text, cls, name, value(text))
    for section, key, bad, cls, name, value in FLOAT_SETTINGS
    for text in (bad, "inf", "-inf", "nan")
]


@pytest.mark.parametrize(
    "section, key, text, cls, name, value",
    BAD_SETTINGS,
    ids=[f"{key}={text}" for _, key, text, *_ in BAD_SETTINGS],
)
def test_one_rule_reached_from_file_and_dataclass(tmp_path, section, key, text, cls, name, value):
    path = write_cfg(tmp_path, f"[{section}]\n{key} = {text}\n")
    with pytest.raises(ConfigError, match=rf"^{section}\.{key}: .+ \(line 2\)$") as in_file:
        parse_config(path)
    reason = str(in_file.value).split(": ", 1)[1].removesuffix(" (line 2)")
    # theta's reason speaks degrees on both sides, and names the key that does
    where = "theta as theta_deg" if key == "theta_deg" else name
    want = "^" + re.escape(f"{where} {reason}") + "$"
    with pytest.raises(ValueError, match=want):
        cls(**{name: value})
    # gen_gaussian_blobs takes a BlobSettings, built above; the split takes
    # its fraction alone and checks it by the same rule
    if name == "test_fraction":
        with pytest.raises(ValueError, match=want):
            train_test_split_indices((np.arange(3), np.array([3])), value, SeededRng(0))


class TestExperimentConfigChecks:
    """A config built in Python is held to the rules of a config file."""

    @pytest.mark.parametrize(
        "cls, settings, message",
        [
            (
                BlobSettings,
                dict(test_fraction=1.0),
                r"test_fraction must be within \(0\.0, 1\.0\), got 1\.0",
            ),
            (BlobSettings, dict(classes=1), r"classes must be >= 2, got 1"),
            (
                harness.ExperimentConfig,
                dict(data_kind="nope"),
                r"data_kind must be one of \('blobs', 'glr'\), got 'nope'",
            ),
            (
                harness.ExperimentConfig,
                dict(seeds=(3, 3)),
                r"seeds must be one or more distinct seeds, got \(3, 3\)",
            ),
            (
                harness.ExperimentConfig,
                dict(seeds=()),
                r"seeds must be one or more distinct seeds, got \(\)",
            ),
            (BlobSettings, dict(spread=math.nan), r"spread must be finite, got nan"),
        ],
    )
    def test_each_field_is_checked(self, cls, settings, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls(**settings)

    @pytest.mark.parametrize(
        "cls, settings, message",
        [
            (
                harness.ExperimentConfig,
                dict(partition=PartitionSpec(client_count=10),
                     trainer=TrainerConfig(clients_per_round=30)),
                r"trainer\.clients_per_round must not exceed partition\.clients \(30 > 10\)",
            ),
            (
                harness.ExperimentConfig,
                dict(data_kind="glr", glr=GlrSettings(dimension=9, samples_per_client=8)),
                r"data\.glr_dim must not exceed data\.samples_per_client \(rank condition\)",
            ),
            (BlobSettings, dict(model="mlp", hidden_units=65), r"data\.hidden_units must be <= 64"),
        ],
    )
    def test_cross_field_rules(self, cls, settings, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls(**settings)

    def test_rank_rule_holds_for_glr_only(self):
        # blobs ignore the GLR settings, so the rank rule binds at kind = glr
        cfg = harness.ExperimentConfig(glr=GlrSettings(dimension=9, samples_per_client=8))
        assert cfg.data_kind == "blobs"

    def test_bounds_met_exactly_are_accepted(self):
        cfg = harness.ExperimentConfig(
            trainer=TrainerConfig(clients_per_round=10),
            partition=PartitionSpec(client_count=10),
            data_kind="glr",
            glr=GlrSettings(dimension=8, samples_per_client=8),
            blobs=BlobSettings(model="mlp", hidden_units=64),
        )
        assert cfg.trainer_config(3) == TrainerConfig(clients_per_round=10, seed=3)

    def test_a_bad_trainer_setting_fails_at_once(self):
        with pytest.raises(ValueError, match=r"^alpha must be within \[0\.0, 1\.0\], got 5\.0$"):
            harness.ExperimentConfig(trainer=TrainerConfig(alpha=5.0))

    @pytest.mark.parametrize(
        "cls, settings, message",
        [
            (TrainerConfig, dict(rounds=2.5), r"rounds must be an integer, got 2\.5"),
            (TrainerConfig, dict(rounds=True), r"rounds must be an integer, got True"),
            (TrainerConfig, dict(local_steps=3.0), r"local_steps must be an integer, got 3\.0"),
            (
                TrainerConfig,
                dict(batch_size=2.5),
                r"batch_size must be an integer or None, got 2\.5",
            ),
            (BlobSettings, dict(classes=False), r"classes must be an integer, got False"),
            (
                harness.ExperimentConfig,
                dict(seeds=(1, 2.0)),
                r"seeds must be integers, got \(1, 2\.0\)",
            ),
            (harness.ExperimentConfig, dict(seeds=3), r"seeds must be integers, got 3"),
        ],
    )
    def test_integer_settings_take_integers_only(self, cls, settings, message):
        # A config file parses integers as such; a Python caller may pass
        # anything, and a bool or a whole float is no integer.
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls(**settings)
        assert TrainerConfig(rounds=np.int64(3), batch_size=np.int32(4)).rounds == 3

    def test_seeds_are_held_as_a_tuple(self, tmp_path):
        cfg = harness.ExperimentConfig(seeds=[4, 2])
        assert cfg.seeds == (4, 2)
        assert cfg == parse_config(write_cfg(tmp_path, "[run]\nseeds = 4,2\n"))


class TestParseConfig:
    def test_empty_file_fills_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, ""))
        assert cfg.trainer.global_lr == 1.0
        assert cfg.trainer.alpha == 0.5
        assert cfg.trainer.eba.tau0 == 0.1
        assert cfg.method == "fedeba_plus"
        assert cfg.seeds == (1,)

    def test_alpha_out_of_range_names_constraint(self, tmp_path):
        path = write_cfg(tmp_path, "[trainer]\nalpha = 1.5\n")
        with pytest.raises(ConfigError, match=r"trainer\.alpha.*\[0\.?0?, 1\.?0?\].*line 2"):
            parse_config(path)

    @pytest.mark.parametrize("value", ["0", "150"])
    def test_open_lower_bound_names_open_interval(self, tmp_path, value):
        # k_percent = 0 is rejected, so the interval is open at 0
        path = write_cfg(tmp_path, f"[metrics]\nk_percent = {value}\n")
        with pytest.raises(ConfigError, match=r"k_percent: must be within \(0\.0, 100\.0\]"):
            parse_config(path)

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_test_fraction_is_an_open_interval(self, tmp_path, value):
        path = write_cfg(tmp_path, f"[metrics]\ntest_fraction = {value}\n")
        with pytest.raises(
            ConfigError, match=r"metrics\.test_fraction: must be within \(0\.0, 1\.0\).*line 2"
        ):
            parse_config(path)

    def test_glr_dim_must_not_exceed_the_samples(self, tmp_path):
        path = write_cfg(tmp_path, "[data]\nkind = glr\nglr_dim = 9\nsamples_per_client = 8\n")
        with pytest.raises(ConfigError, match=r"data\.glr_dim must not exceed"):
            parse_config(path)

    def test_hidden_units_bound_holds_for_mlp_only(self, tmp_path):
        # softmax ignores hidden_units, so the bound is checked after parsing
        path = write_cfg(tmp_path, "[data]\nmodel = mlp\nhidden_units = 65\n")
        with pytest.raises(ConfigError, match=r"data\.hidden_units must be <= 64"):
            parse_config(path)
        cfg = parse_config(write_cfg(tmp_path, "[data]\nhidden_units = 65\n", "s.cfg"))
        assert (cfg.blobs.model, cfg.blobs.hidden_units) == ("softmax", 65)

    def test_defaults_are_the_trainer_defaults(self):
        for seed in (0, 7):
            assert harness.ExperimentConfig().trainer_config(seed) == trainer.TrainerConfig(
                rounds=50, local_steps=5, clients_per_round=10, local_lr=0.05, seed=seed
            )

    def test_theta_degrees_to_radians(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "[trainer]\ntheta_deg = 45\n"))
        assert cfg.trainer_config(1).theta == pytest.approx(math.pi / 4, abs=1e-15)

    def test_unknown_key_reports_line(self, tmp_path):
        path = write_cfg(tmp_path, "[trainer]\nrounds = 5\nwarmup = 3\n")
        with pytest.raises(ConfigError, match=r"unknown key trainer\.warmup.*line 3"):
            parse_config(path)

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown section \[server\]"):
            parse_config(write_cfg(tmp_path, "[server]\nport = 80\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.cfg")

    def test_duplicate_key(self, tmp_path):
        path = write_cfg(tmp_path, "[trainer]\nrounds = 5\nrounds = 6\n")
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(path)

    def test_repeated_seed_reports_field(self, tmp_path):
        # a repeated seed would train twice and overwrite its own round CSV
        path = write_cfg(tmp_path, "[run]\nseeds = 3, 1, 3\n")
        with pytest.raises(ConfigError, match=r"run\.seeds: must be one or more distinct seeds, got \(3, 1, 3\) \(line 2\)"):
            parse_config(path)

    def test_bad_number_reports_field(self, tmp_path):
        path = write_cfg(tmp_path, "[trainer]\nrounds = soon\n")
        with pytest.raises(ConfigError, match=r"trainer\.rounds.*integer"):
            parse_config(path)

    def test_cross_field_sampling_check(self, tmp_path):
        path = write_cfg(
            tmp_path, "[trainer]\nclients_per_round = 30\n\n[partition]\nclients = 10\n"
        )
        with pytest.raises(ConfigError, match="clients_per_round"):
            parse_config(path)

    def test_batch_size_full_keyword(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "[trainer]\nbatch_size = full\n"))
        assert cfg.trainer.batch_size is None
        cfg = parse_config(write_cfg(tmp_path, "[trainer]\nbatch_size = 16\n", "b.cfg"))
        assert cfg.trainer.batch_size == 16

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = parse_config(
            write_cfg(tmp_path, "# top\n\n[trainer]\n; note\nrounds = 3\n")
        )
        assert cfg.rounds == 3

    def test_inline_comments_stripped(self, tmp_path):
        text = (
            "[trainer]  # section note\n"
            "method = qffl     # fedavg | qffl | fedeba_plus\n"
            "rounds = 7\t; tab then semicolon\n"
            "[run]\n"
            "output_dir = runs#1\n"
        )
        cfg = parse_config(write_cfg(tmp_path, text))
        assert (cfg.method, cfg.rounds) == ("qffl", 7)
        # no whitespace before '#': part of the value
        assert cfg.output_dir == "runs#1"
        # whitespace before '#' or ';' cuts the value there, as the README says
        for value, kept in (("my runs #2", "my runs"), ("a ;b", "a")):
            cfg = parse_config(write_cfg(tmp_path, f"[run]\noutput_dir = {value}\n"))
            assert cfg.output_dir == kept

    def test_readme_ini_example_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.M | re.S)
        assert len(blocks) == 1
        cfg = parse_config(write_cfg(tmp_path, blocks[0]))
        assert (cfg.method, cfg.rounds, cfg.clients, cfg.seeds) == ("fedeba_plus", 200, 50, (1, 2, 3))
        assert (cfg.trainer.theta, cfg.trainer.batch_size, cfg.blobs.model) == (0.0, None, "softmax")


class TestBuildFederation:
    def test_blob_federation_shapes(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, SMALL_RUN))
        fed, x0 = build_federation(cfg, seed=1)
        assert fed.m == 6
        assert x0.shape == (fed.dimension,)
        assert fed.test.m == fed.m

    def test_blob_federation_builds_one_objective_per_side(self, tmp_path, monkeypatch):
        # each side's rows are checked once, by the objective that carries
        # its stack's model; per-client objectives are views made on demand
        built = []
        init = ClassifierObjective.__init__
        monkeypatch.setattr(
            ClassifierObjective, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k)
        )
        cfg = parse_config(write_cfg(tmp_path, SMALL_RUN))
        fed, _ = build_federation(cfg, seed=1)
        assert len(built) == 2
        assert fed.train.model is not fed.test.model
        assert len(fed.train.objectives) == fed.m and len(built) == 2 + fed.m

    def test_glr_federation(self, tmp_path):
        cfg = parse_config(
            write_cfg(
                tmp_path,
                "[trainer]\nclients_per_round = 2\n\n"
                "[data]\nkind = glr\n\n[partition]\nclients = 3\n",
            )
        )
        fed, x0 = build_federation(cfg, seed=5)
        assert fed.m == 3
        assert fed.dimension == cfg.glr.dimension
        # Test targets come from an independent draw on matching truth.
        a = fed.train.objectives[0]
        b = fed.test.objectives[0]
        assert not np.array_equal(a.targets, b.targets)

    def test_same_seed_same_federation(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, SMALL_RUN))
        f1, x1 = build_federation(cfg, seed=2)
        f2, x2 = build_federation(cfg, seed=2)
        assert np.array_equal(x1, x2)
        for a, b in zip(f1.train.objectives, f2.train.objectives, strict=True):
            assert np.array_equal(a.features, b.features)


# sha256 over every client's train and test sizes, features and labels
# (build_federation at seed 3), as built before the federation was
# assembled in whole-federation array passes. Shard configs cover uneven
# shards (n not a multiple of m * s) and, at m = 2000, 1500 single-sample
# clients; test fractions 0.25 and 0.3 meet half-way roundings.
FEDERATION_DIGESTS = {
    "shards-m50": (
        dict(partition=PartitionSpec("shards", client_count=50, shards_per_client=2),
             blobs=BlobSettings(per_class=203)),
        "63a9c29307386545a94a61426805f64bf719601c9a5f7f4c32dbb2bd85121a0f",
    ),
    "shards-m500": (
        dict(partition=PartitionSpec("shards", client_count=500, shards_per_client=3),
             blobs=BlobSettings(per_class=301, test_fraction=0.25)),
        "92803d0ebde95ef94c5a0aa6199aa2a5fa63723712b74a7fb37f0abf7a261214",
    ),
    "shards-m2000": (
        dict(partition=PartitionSpec("shards", client_count=2000, shards_per_client=1),
             blobs=BlobSettings(per_class=250, test_fraction=0.3)),
        "9bc7ee245482f08579d7e31ba2a79eeaec680c556a154d73e76fd1033b53373a",
    ),
    "dirichlet-m50": (
        dict(partition=PartitionSpec("dirichlet", client_count=50, dirichlet_alpha=0.3),
             blobs=BlobSettings(per_class=200)),
        "09c4fa18539816ed718e0a887f2189f49ca5fd714aaf5e41b9ac6f5c3fc4fd19",
    ),
    "dirichlet-m500": (
        dict(partition=PartitionSpec("dirichlet", client_count=500, dirichlet_alpha=1.0),
             blobs=BlobSettings(per_class=500, test_fraction=0.25)),
        "019ab6fd0c5ad33f59b4e2048baf6b1f6c4d85b14122762bbaa762ae949eea9d",
    ),
    "dirichlet-m2000": (
        dict(partition=PartitionSpec("dirichlet", client_count=2000, dirichlet_alpha=5.0),
             blobs=BlobSettings(per_class=3000, test_fraction=0.3)),
        "285161c85f44d437489ce9c5902d61bd3db5b924af62a068ea78788caf87538e",
    ),
}


@pytest.mark.parametrize("name", sorted(FEDERATION_DIGESTS))
def test_federation_digest_is_pinned(name):
    settings, expected = FEDERATION_DIGESTS[name]
    federation, _ = build_federation(harness.ExperimentConfig(**settings), seed=3)
    digest = hashlib.sha256()
    for pair in zip(federation.train.objectives, federation.test.objectives, strict=True):
        for obj in pair:
            digest.update(np.int64(obj.full_size).tobytes())
            digest.update(obj.features.tobytes())
            digest.update(obj.labels.tobytes())
    assert digest.hexdigest() == expected


# sha256 over every client's train and test designs and targets, and the
# start point, as build_federation gives them at seed 3: each GLR side's
# true parameters, designs and noise, and the MLP's initial weights, are
# draws of SeededRng.normals. Odd draw counts (7 * 3 per design, 7 targets,
# 11 * 3 true parameters, 5 * 3 and 3 * 3 weights) cover a ragged tail.
NORMAL_DIGESTS = {
    "glr-m11": (
        dict(data_kind="glr", partition=PartitionSpec(client_count=11),
             glr=GlrSettings(dimension=3, samples_per_client=7, noise_std=0.3,
                             param_scale=2.0),
             trainer=TrainerConfig(clients_per_round=4)),
        "f8da58832a98cb9a48e8541e9d07539d0416080daec55fa17d142d78a21357e5",
    ),
    "mlp-m8": (
        dict(blobs=BlobSettings(model="mlp", hidden_units=3, classes=3, dim=5, per_class=20),
             partition=PartitionSpec(client_count=8),
             trainer=TrainerConfig(clients_per_round=4)),
        "f3b59e4b94ef20eecb6619afd96a3bbd09a52926cc769b8afb6de80b31bc6dcb",
    ),
}


@pytest.mark.parametrize("name", sorted(NORMAL_DIGESTS))
def test_normal_draws_are_pinned(name):
    settings, expected = NORMAL_DIGESTS[name]
    federation, x0 = build_federation(harness.ExperimentConfig(**settings), seed=3)
    digest = hashlib.sha256(x0.tobytes())
    for pair in zip(federation.train.objectives, federation.test.objectives, strict=True):
        for obj in pair:
            for array in obj._rows():
                digest.update(array.tobytes())
    assert digest.hexdigest() == expected


def test_blob_federation_peaks_under_two_mib():
    # wide-softmax's federation: 80000 normals, whose three arrays of
    # 640000 bytes are the peak; a fourth array of them breaks the bound
    cfg = harness.ExperimentConfig(
        blobs=BlobSettings(classes=10, per_class=1000, dim=8),
        partition=PartitionSpec("shards", client_count=1000, shards_per_client=2),
    )
    tracemalloc.start()
    try:
        build_federation(cfg, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


class TestCmdRun:
    def test_outputs_and_schema(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ENTROFED_OUTPUT_DIR", str(tmp_path / "out"))
        cfg_path = write_cfg(tmp_path, SMALL_RUN)
        assert main(["run", "--config", str(cfg_path)]) == 0
        rounds = (tmp_path / "out" / "rounds_seed1.csv").read_text().splitlines()
        assert rounds[0] == "# schema=rounds-v1"
        assert rounds[1] == ROUNDS_SCHEMA
        assert len(rounds) == 2 + 8
        assert (tmp_path / "out" / "rounds_seed2.csv").exists()
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        assert summary[0] == "# schema=summary-v1"
        metric_lines = [l for l in summary if "_mean = " in l or "_std = " in l]
        assert len(metric_lines) == 8  # four metrics, mean and std each

    def test_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        cfg_path = write_cfg(tmp_path, SMALL_RUN)
        monkeypatch.setenv("ENTROFED_OUTPUT_DIR", str(tmp_path / "a"))
        assert main(["run", "--config", str(cfg_path)]) == 0
        monkeypatch.setenv("ENTROFED_OUTPUT_DIR", str(tmp_path / "b"))
        assert main(["run", "--config", str(cfg_path)]) == 0
        for name in ("rounds_seed1.csv", "rounds_seed2.csv", "summary.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_failed_write_leaves_no_complete_looking_file(self, tmp_path, monkeypatch):
        # The 13th row written is round 5 of seed 2, after seed 1's 8 rows.
        rows = []

        def branch(report):
            rows.append(report.round_index)
            if len(rows) == 13:
                raise OSError("disk full")
            return report.branch

        columns = tuple((n, branch if n == "branch" else t) for n, t in harness.ROUNDS_COLUMNS)
        monkeypatch.setattr(harness, "ROUNDS_COLUMNS", columns)
        monkeypatch.setenv("ENTROFED_OUTPUT_DIR", str(tmp_path / "out"))
        assert main(["run", "--config", str(write_cfg(tmp_path, SMALL_RUN))]) == 1
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["rounds_seed1.csv"]
        assert len((tmp_path / "out" / "rounds_seed1.csv").read_text().splitlines()) == 2 + 8

    def test_summary_invariant_to_seed_order(self, tmp_path, monkeypatch):
        cfg_a = write_cfg(tmp_path, SMALL_RUN, "a.cfg")
        cfg_b = write_cfg(tmp_path, SMALL_RUN.replace("seeds = 1,2", "seeds = 2,1"), "b.cfg")
        monkeypatch.setenv("ENTROFED_OUTPUT_DIR", str(tmp_path / "a"))
        main(["run", "--config", str(cfg_a)])
        monkeypatch.setenv("ENTROFED_OUTPUT_DIR", str(tmp_path / "b"))
        main(["run", "--config", str(cfg_b)])
        assert (tmp_path / "a" / "summary.txt").read_bytes() == (
            tmp_path / "b" / "summary.txt"
        ).read_bytes()

    def test_methods_diverge_on_heterogeneous_data(self, tmp_path):
        base = parse_config(write_cfg(tmp_path, SMALL_RUN))
        run = dataclasses.replace(base.trainer, rounds=12, clients_per_round=5)
        partition = dataclasses.replace(base.partition, client_count=10)
        eba_cfg = dataclasses.replace(base, partition=partition, trainer=run)
        avg_cfg = dataclasses.replace(eba_cfg, trainer=dataclasses.replace(run, method="fedavg"))
        fed, x0 = build_federation(eba_cfg, seed=1)
        r_eba, x_eba = run_training(fed, eba_cfg.trainer_config(1), x0)
        r_avg, x_avg = run_training(fed, avg_cfg.trainer_config(1), x0)
        deviated = any(
            np.abs(r.weights - 1.0 / len(r.weights)).max() > 1e-9 for r in r_eba
        )
        assert deviated
        assert not np.array_equal(x_eba, x_avg)

    def test_parse_failure_exits_nonzero(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, "[trainer]\nalpha = 2\n")
        assert main(["run", "--config", str(bad)]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_degenerate_qffl_step_exits_nonzero(self, tmp_path, capsys, monkeypatch):
        # Zero true parameters and no noise make every start loss, and so
        # the q-FFL normalizer, zero.
        monkeypatch.setenv("ENTROFED_OUTPUT_DIR", str(tmp_path / "out"))
        cfg = write_cfg(
            tmp_path,
            "[trainer]\nmethod = qffl\nqffl_q = 1\nclients_per_round = 3\n\n"
            "[data]\nkind = glr\nparam_scale = 0\nnoise_std = 0\n\n"
            "[partition]\nclients = 5\n",
        )
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: degenerate q-FFL step: ")

    @pytest.mark.parametrize(
        "schedule",
        [
            "tau_schedule = convex\ntau_decay = 1e103",  # the cube overflows
            "tau_schedule = linear\ntau0 = 1e-322\ntau_decay = 1000",  # below the least float
        ],
    )
    def test_a_schedule_that_cools_tau_to_zero_exits_before_training(
        self, tmp_path, capsys, monkeypatch, schedule
    ):
        monkeypatch.setenv("ENTROFED_OUTPUT_DIR", str(tmp_path / "out"))
        text = SMALL_RUN.replace("[trainer]\n", f"[trainer]\n{schedule}\n")
        assert main(["run", "--config", str(write_cfg(tmp_path, text))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: trainer.tau_decay: the ") and err.count("\n") == 1
        assert "schedule cools tau to 0 within 8 rounds" in err
        assert not (tmp_path / "out").exists()


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_run_names_its_seed_and_round(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ENTROFED_OUTPUT_DIR", str(tmp_path / "out"))
        text = SMALL_RUN.replace("[trainer]\n", "[trainer]\nlocal_lr = 1e308\n")
        assert main(["run", "--config", str(write_cfg(tmp_path, text))]) == 1
        assert capsys.readouterr().err == (
            "error: values must contain only finite values (seed 1, round 1)\n"
        )
        assert list((tmp_path / "out").iterdir()) == []

    def test_failing_round_is_named(self, tmp_path, capsys, monkeypatch):
        run_round = trainer.run_round

        def fail_at_seed_2_round_3(federation, x, cfg, t, *rest):
            if (cfg.seed, t) == (2, 3):
                raise RuntimeError("boom")
            return run_round(federation, x, cfg, t, *rest)

        monkeypatch.setattr(trainer, "run_round", fail_at_seed_2_round_3)
        monkeypatch.setenv("ENTROFED_OUTPUT_DIR", str(tmp_path / "out"))
        assert main(["run", "--config", str(write_cfg(tmp_path, SMALL_RUN))]) == 1
        assert capsys.readouterr().err == "error: boom (seed 2, round 3)\n"
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["rounds_seed1.csv"]

    def test_a_set_up_error_names_its_seed(self, tmp_path, capsys, monkeypatch):
        # 15 samples cannot fill 8 clients' 2 shards each; `partition` fails
        # on the same split, without a seed to name since it builds only one
        text = (
            "[trainer]\nrounds = 2\nclients_per_round = 2\n\n"
            "[data]\nclasses = 3\nper_class = 5\ndim = 2\n\n"
            "[partition]\nmode = shards\nclients = 8\nshards_per_client = 2\n\n"
            "[run]\nseeds = 3\n"
        )
        cfg = str(write_cfg(tmp_path, text))
        monkeypatch.setenv("ENTROFED_OUTPUT_DIR", str(tmp_path / "out"))
        assert main(["run", "--config", cfg]) == 1
        assert capsys.readouterr().err == "error: 15 samples cannot fill 16 shards (seed 3)\n"
        assert main(["partition", "--config", cfg]) == 1
        assert capsys.readouterr().err == "error: 15 samples cannot fill 16 shards\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_underflowed_weights_write_an_infinite_chi_square(self, tmp_path, monkeypatch):
        # README's example: the participants' losses lie so far apart at
        # tau0 = 0.1 that some weight of every round underflows to 0
        text = (
            "[trainer]\nrounds = 4\ntau0 = 0.1\n\n"
            "[data]\nkind = glr\nparam_scale = 10\n\n[partition]\nclients = 50\n"
        )
        monkeypatch.setenv("ENTROFED_OUTPUT_DIR", str(tmp_path / "out"))
        assert main(["run", "--config", str(write_cfg(tmp_path, text))]) == 0
        lines = (tmp_path / "out" / "rounds_seed1.csv").read_text().splitlines()
        column = lines[1].split(",").index("chi_square")
        assert [line.split(",")[column] for line in lines[2:]] == ["inf"] * 4


class TestCmdPartition:
    def test_writes_deterministic_partition(self, tmp_path, monkeypatch):
        cfg_path = write_cfg(tmp_path, SMALL_RUN)
        monkeypatch.setenv("ENTROFED_OUTPUT_DIR", str(tmp_path / "p1"))
        assert main(["partition", "--config", str(cfg_path)]) == 0
        monkeypatch.setenv("ENTROFED_OUTPUT_DIR", str(tmp_path / "p2"))
        assert main(["partition", "--config", str(cfg_path)]) == 0
        b1 = (tmp_path / "p1" / "partition.csv").read_bytes()
        assert b1 == (tmp_path / "p2" / "partition.csv").read_bytes()
        lines = b1.decode().splitlines()
        assert lines[1] == "client_id,sample_index,label"
        indices = sorted(int(l.split(",")[1]) for l in lines[2:])
        assert indices == list(range(3 * 40))
        clients = {int(l.split(",")[0]) for l in lines[2:]}
        assert clients <= set(range(6))

    def test_min_samples_respected(self, tmp_path, monkeypatch):
        text = SMALL_RUN.replace("min_samples_per_client = 4", "min_samples_per_client = 6")
        cfg_path = write_cfg(tmp_path, text)
        monkeypatch.setenv("ENTROFED_OUTPUT_DIR", str(tmp_path / "p"))
        assert main(["partition", "--config", str(cfg_path)]) == 0
        lines = (tmp_path / "p" / "partition.csv").read_text().splitlines()[2:]
        counts = np.bincount([int(l.split(",")[0]) for l in lines], minlength=6)
        assert counts.min() >= 6

    @pytest.mark.parametrize("mode", ["dirichlet", "shards"])
    def test_partition_matches_federation(self, tmp_path, monkeypatch, mode):
        # Every client holds >= 4 samples, so none reuses a lone sample on
        # both sides of its train/test split.
        text = SMALL_RUN.replace("[partition]\n", f"[partition]\nmode = {mode}\n")
        cfg_path = write_cfg(tmp_path, text)
        monkeypatch.setenv("ENTROFED_OUTPUT_DIR", str(tmp_path / "p"))
        assert main(["partition", "--config", str(cfg_path)]) == 0
        lines = (tmp_path / "p" / "partition.csv").read_text().splitlines()[2:]
        rows = [line.split(",") for line in lines]
        cfg = parse_config(cfg_path)
        federation, _ = build_federation(cfg, cfg.seeds[0])
        assert federation.m == cfg.clients
        sides = zip(federation.train.objectives, federation.test.objectives, strict=True)
        for cid, (train, test) in enumerate(sides):
            labels = sorted(int(label) for c, _, label in rows if int(c) == cid)
            held = np.concatenate([train.labels, test.labels])
            assert len(labels) == train.full_size + test.full_size
            assert labels == sorted(held.tolist())

    @given(
        mode=st.sampled_from(["dirichlet", "shards"]),
        classes=st.integers(2, 4),
        per_class=st.integers(1, 6),
        clients=st.integers(1, 8),
        shards=st.integers(1, 3),
        alpha=st.sampled_from([0.05, 0.1]) | st.floats(0.05, 2.0),
        minimum=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(mode="dirichlet", classes=3, per_class=5, clients=8, shards=1, alpha=0.1,
             minimum=1, seed=3)  # no draw of 100 fills every client
    @example(mode="shards", classes=3, per_class=5, clients=8, shards=2, alpha=0.3,
             minimum=1, seed=0)  # too few samples for the shards
    @settings(max_examples=40, deadline=None)
    def test_partition_accepts_what_run_sets_up(
        self, mode, classes, per_class, clients, shards, alpha, minimum, seed
    ):
        with tempfile.TemporaryDirectory() as out:
            text = (
                "[trainer]\nclients_per_round = 1\n\n"
                f"[data]\nclasses = {classes}\nper_class = {per_class}\ndim = 2\n\n"
                f"[partition]\nmode = {mode}\nclients = {clients}\n"
                f"shards_per_client = {shards}\ndirichlet_alpha = {alpha!r}\n"
                f"min_samples_per_client = {minimum}\n\n"
                f"[run]\nseeds = {seed}\noutput_dir = {out}\n"
            )
            path = write_cfg(Path(out), text)
            exported = main(["partition", "--config", str(path)]) == 0
            try:
                build_federation(parse_config(path), seed)
            except (ValueError, RuntimeError):
                assert not exported
            else:
                assert exported

    def test_infeasible_partition_fails(self, tmp_path, capsys, monkeypatch):
        text = SMALL_RUN.replace("per_class = 40", "per_class = 2").replace(
            "min_samples_per_client = 4", "min_samples_per_client = 3"
        )
        cfg_path = write_cfg(tmp_path, text)
        monkeypatch.setenv("ENTROFED_OUTPUT_DIR", str(tmp_path / "p"))
        assert main(["partition", "--config", str(cfg_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_partition_export_needs_blobs(self, tmp_path, capsys, monkeypatch):
        cfg_path = write_cfg(tmp_path, "[data]\nkind = glr\n")
        monkeypatch.setenv("ENTROFED_OUTPUT_DIR", str(tmp_path / "p"))
        assert main(["partition", "--config", str(cfg_path)]) == 1
        assert "data.kind = blobs" in capsys.readouterr().err


class TestCmdOracle:
    def test_toy_prints_fedavg_iterate(self, capsys):
        assert main(["oracle", "toy", "--eta-l", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "fedavg_iterate=0.5" in out
        assert "qffl_delta_1=-16" in out
        assert "qffl_h_2=9" in out

    def test_entropy_grid_dominance(self, capsys):
        assert main(
            ["oracle", "entropy_grid", "--losses", "0,4.5", "--tau", "1", "--grid", "0.01", "--slack", "0.02"]
        ) == 0
        assert "dominance=true" in capsys.readouterr().out

    def test_glr_variance_identical_params(self, capsys):
        assert main(["oracle", "glr_variance", "--param-scale", "0"]) == 0
        out = capsys.readouterr().out
        assert "uniform_variance=0" in out
        assert "eba_variance=0" in out
        assert "weighted_eba_variance=0" in out

    def test_unknown_oracle_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "fibonacci"])
        assert exc.value.code == 2
