"""Config parsing, CLI subcommands, and output-file contracts."""

import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

from entrofed import harness, trainer
from entrofed.harness import (
    ConfigError,
    ROUNDS_SCHEMA,
    build_federation,
    main,
    parse_config,
)
from entrofed.trainer import run_training


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


class TestParseConfig:
    def test_empty_file_fills_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, ""))
        assert cfg.global_lr == 1.0
        assert cfg.alpha == 0.5
        assert cfg.tau0 == 0.1
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
        assert cfg.batch_size is None
        cfg = parse_config(write_cfg(tmp_path, "[trainer]\nbatch_size = 16\n", "b.cfg"))
        assert cfg.batch_size == 16

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
        assert (cfg.theta_deg, cfg.batch_size, cfg.model) == (0.0, None, "softmax")


class TestBuildFederation:
    def test_blob_federation_shapes(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, SMALL_RUN))
        fed, x0 = build_federation(cfg, seed=1)
        assert fed.m == 6
        assert x0.shape == (fed.dimension,)
        assert all(c.test_objective is not None for c in fed.clients)

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
        assert fed.dimension == cfg.glr_dim
        # Test targets come from an independent draw on matching truth.
        a = fed.clients[0].objective
        b = fed.clients[0].test_objective
        assert not np.array_equal(a.targets, b.targets)

    def test_same_seed_same_federation(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, SMALL_RUN))
        f1, x1 = build_federation(cfg, seed=2)
        f2, x2 = build_federation(cfg, seed=2)
        assert np.array_equal(x1, x2)
        for a, b in zip(f1.clients, f2.clients):
            assert np.array_equal(a.objective.features, b.objective.features)


# sha256 over every client's train and test sizes, features and labels
# (build_federation at seed 3), as built before the federation was
# assembled in whole-federation array passes. Shard configs cover uneven
# shards (n not a multiple of m * s) and, at m = 2000, 1500 single-sample
# clients; test fractions 0.25 and 0.3 meet half-way roundings.
FEDERATION_DIGESTS = {
    "shards-m50": (
        dict(partition_mode="shards", clients=50, per_class=203, shards_per_client=2),
        "63a9c29307386545a94a61426805f64bf719601c9a5f7f4c32dbb2bd85121a0f",
    ),
    "shards-m500": (
        dict(partition_mode="shards", clients=500, per_class=301, shards_per_client=3,
             test_fraction=0.25),
        "92803d0ebde95ef94c5a0aa6199aa2a5fa63723712b74a7fb37f0abf7a261214",
    ),
    "shards-m2000": (
        dict(partition_mode="shards", clients=2000, per_class=250, shards_per_client=1,
             test_fraction=0.3),
        "9bc7ee245482f08579d7e31ba2a79eeaec680c556a154d73e76fd1033b53373a",
    ),
    "dirichlet-m50": (
        dict(partition_mode="dirichlet", clients=50, per_class=200, dirichlet_alpha=0.3),
        "09c4fa18539816ed718e0a887f2189f49ca5fd714aaf5e41b9ac6f5c3fc4fd19",
    ),
    "dirichlet-m500": (
        dict(partition_mode="dirichlet", clients=500, per_class=500, dirichlet_alpha=1.0,
             test_fraction=0.25),
        "019ab6fd0c5ad33f59b4e2048baf6b1f6c4d85b14122762bbaa762ae949eea9d",
    ),
    "dirichlet-m2000": (
        dict(partition_mode="dirichlet", clients=2000, per_class=3000, dirichlet_alpha=5.0,
             test_fraction=0.3),
        "285161c85f44d437489ce9c5902d61bd3db5b924af62a068ea78788caf87538e",
    ),
}


@pytest.mark.parametrize("name", sorted(FEDERATION_DIGESTS))
def test_federation_digest_is_pinned(name):
    settings, expected = FEDERATION_DIGESTS[name]
    federation, _ = build_federation(harness.ExperimentConfig(**settings), seed=3)
    digest = hashlib.sha256()
    for client in federation.clients:
        for obj in (client.objective, client.test_objective):
            digest.update(np.int64(obj.full_size).tobytes())
            digest.update(obj.features.tobytes())
            digest.update(obj.labels.tobytes())
    assert digest.hexdigest() == expected


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
        import dataclasses

        eba_cfg = dataclasses.replace(base, rounds=12, clients=10, clients_per_round=5)
        avg_cfg = dataclasses.replace(eba_cfg, method="fedavg")
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
        for cid, client in enumerate(federation.clients):
            labels = sorted(int(label) for c, _, label in rows if int(c) == cid)
            held = np.concatenate([client.objective.labels, client.test_objective.labels])
            assert len(labels) == client.objective.full_size + client.test_objective.full_size
            assert labels == sorted(held.tolist())

    def test_infeasible_partition_fails(self, tmp_path, capsys, monkeypatch):
        text = SMALL_RUN.replace("per_class = 40", "per_class = 2").replace(
            "min_samples_per_client = 4", "min_samples_per_client = 3"
        )
        cfg_path = write_cfg(tmp_path, text)
        monkeypatch.setenv("ENTROFED_OUTPUT_DIR", str(tmp_path / "p"))
        assert main(["partition", "--config", str(cfg_path)]) == 1
        assert "error" in capsys.readouterr().err


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
