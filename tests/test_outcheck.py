"""The benchmark's output check (perfbench/outcheck.py) reads a run's seeds,
rounds, method, data kind and client count off the ExperimentConfig that
``parse_config`` returns. A small real FedEBA+ run passes its range check,
and a config that disagrees with the run fails it, so none of those
attributes can move away unnoticed."""

import dataclasses
import importlib.util
from pathlib import Path

from entrofed import harness

OUTCHECK = Path(__file__).parents[1] / "perfbench" / "outcheck.py"

RUN = """
[trainer]
method = fedeba_plus
rounds = 4
local_steps = 2
clients_per_round = 4
theta_deg = 9

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


def load_outcheck():
    spec = importlib.util.spec_from_file_location("perfbench_outcheck", OUTCHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_fedeba_run_passes_the_range_check(tmp_path, monkeypatch):
    outcheck = load_outcheck()
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(RUN, encoding="utf-8")
    monkeypatch.setenv(harness.OUTPUT_DIR_ENV, str(tmp_path / "out"))
    assert harness.main(["run", "--config", str(cfg_path)]) == 0
    cfg = harness.parse_config(cfg_path)
    outputs = outcheck.read_outputs(tmp_path / "out", cfg.seeds)
    assert sorted(outputs) == sorted(outcheck.output_names(cfg.seeds))
    assert outcheck.check_ranges(outputs, cfg) == []

    def trained(**settings):
        return dataclasses.replace(cfg, trainer=dataclasses.replace(cfg.trainer, **settings))

    for other in (
        trained(rounds=5),
        trained(method="fedavg"),
        dataclasses.replace(cfg, data_kind="glr"),
        dataclasses.replace(cfg, partition=dataclasses.replace(cfg.partition, client_count=7)),
        dataclasses.replace(cfg, seeds=(1, 3)),
    ):
        assert outcheck.check_ranges(outputs, other), other
