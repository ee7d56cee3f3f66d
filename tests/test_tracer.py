"""The benchmark's tracer (perfbench/tracer.py) times the package from
outside: it rebinds module globals and class attributes to span-recording
wrappers and puts the originals back on close. A round or harness step
that stops looking a wrapped name up where the tracer rebinds it leaves a
layer untimed or the round's phase marks missing (a TraceError); this pins
the contract on a FedEBA+ run that visits both fair-angle branches and on
a q-FFL run of linear regression clients."""

import importlib.util
from pathlib import Path

import pytest

import entrofed.harness as harness
import entrofed.trainer as trainer
from entrofed.core import SeededRng
from entrofed.objectives import ClassifierObjective

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"

EBA_RUN = """
[trainer]
method = fedeba_plus
rounds = 6
local_steps = 2
clients_per_round = 5
batch_size = 4
theta_deg = 9

[data]
classes = 3
per_class = 30
dim = 3
model = mlp
hidden_units = 4

[partition]
clients = 8
min_samples_per_client = 3

[run]
seeds = 2
"""

QFFL_RUN = """
[trainer]
method = qffl
rounds = 4
local_steps = 3
clients_per_round = 4
qffl_q = 1.5

[data]
kind = glr
glr_dim = 3
samples_per_client = 6

[partition]
clients = 8

[run]
seeds = 2
"""

# Spans every traced run has, whatever the method.
SHARED_SPANS = {"trainer.local_sgd", "trainer.server_update", "analysis.evaluate_fairness"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def trace_run(config, tmp_path, monkeypatch):
    """Run ``entrofed run`` on the config text inside a full tracer; check
    that every run has the shared spans and the four phases, and that
    closing the tracer restores every attribute of the patched owners.
    Returns the rounds' branches and the span names."""
    tracing = load_tracer()
    owners = (harness, trainer, ClassifierObjective, SeededRng)
    before = [dict(vars(owner)) for owner in owners]
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(config, encoding="utf-8")
    monkeypatch.setenv("ENTROFED_OUTPUT_DIR", str(tmp_path / "out"))

    tracer = tracing.Tracer(full=True)
    with tracer:
        # cmd_run, unlike main, lets a TraceError through.
        try:
            harness.cmd_run(harness.parse_config(cfg_path))
        except tracing.TraceError as exc:
            pytest.fail(f"round phases not marked: {exc}")

    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert set(now) == set(saved), owner
        moved = [name for name, value in saved.items() if now[name] is not value]
        assert not moved, (owner, moved)
    names = {span[tracing.NAME] for span in tracer.spans}
    wanted = SHARED_SPANS | set(tracing.PHASES)
    assert wanted <= names, sorted(wanted - names)
    return {branch for _, branch, _ in tracer.rounds}, names


def test_full_trace_of_both_branches_restores_every_name(tmp_path, monkeypatch):
    branches, names = trace_run(EBA_RUN, tmp_path, monkeypatch)
    assert branches == {"plain", "aligned"}
    wanted = {
        "trainer.local_sgd_aligned",
        "aggregation.eba_weights",
        "datagen.blobs",
        "datagen.partition",
        "datagen.split",
    }
    assert wanted <= names, sorted(wanted - names)


def test_full_trace_of_qffl_rounds(tmp_path, monkeypatch):
    # The q-FFL round applies its step through server_update, which sets
    # the aggregate phase mark.
    branches, _ = trace_run(QFFL_RUN, tmp_path, monkeypatch)
    assert branches == {"plain"}
