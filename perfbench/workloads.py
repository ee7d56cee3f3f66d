"""The benchmark's workloads: one generated ``entrofed run`` config each.

Each workload stresses a different mix of the package's modules, so a
change to one layer moves one workload and leaves another flat; why each
was chosen is recorded in BENCHMARK.json. The workload seed becomes the
config's ``run.seeds`` entry; nothing else in the config depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass

# Seed whose outputs are stored under perfbench/reference/<workload>/.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    # Config text with {seed} and {output_dir} placeholders.
    config: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide-softmax",
            config="""\
[trainer]
method = fedeba_plus
rounds = 40
local_steps = 5
clients_per_round = 20
batch_size = full

[data]
kind = blobs
classes = 10
per_class = 1000
dim = 8
model = softmax

[partition]
mode = shards
clients = 1000
shards_per_client = 2

[run]
seeds = {seed}
output_dir = {output_dir}
""",
        ),
        Workload(
            name="deep-mlp",
            config="""\
[trainer]
method = fedeba_plus
rounds = 40
local_steps = 20
clients_per_round = 25
batch_size = 16
theta_deg = 9

[data]
kind = blobs
classes = 10
per_class = 200
dim = 8
model = mlp
hidden_units = 32
activation = tanh

[partition]
mode = dirichlet
clients = 50
dirichlet_alpha = 0.3

[run]
seeds = {seed}
output_dir = {output_dir}
""",
        ),
    )
}

# Which per-layer metric should move which end-to-end metric, on which
# workload. Written down before any optimisation, so that a later change
# can be checked against the layer it claims to have sped up.
LAYER_MAP = {
    "objectives": {
        "metrics": [
            "objectives.{loss,gradient,accuracy}.{calls,self_s}",
            "objectives.rows",
            "objectives.gradient.useful_ratio",
            "objectives.{loss,gradient}.repeat_ratio",
        ],
        "moves": {
            "wide-softmax": ["train_s", "round_ms.p50"],
            "deep-mlp": ["train_s (gradient)", "train_s (repeat_ratio)"],
        },
    },
    "trainer": {
        "metrics": [
            "trainer.{prelude_s,local_s,aggregate_s,telemetry_s}",
            "trainer.local_sgd.self_s",
            "trainer.branch.aligned_share",
        ],
        "moves": {
            "wide-softmax": ["train_s (telemetry_s)"],
            "deep-mlp": ["train_s (local_s, local_sgd.self_s)"],
        },
    },
    "aggregation": {
        "metrics": ["aggregation.eba_weights.self_s"],
        "moves": {"deep-mlp": ["round_ms.p50, by under 1% today"]},
    },
    "analysis": {
        "metrics": ["analysis.evaluate_fairness.{self_s,incl_s}"],
        "moves": {"wide-softmax": ["train_s", "round_ms.p50"]},
    },
    "core": {
        "metrics": ["core.derive.{calls,self_s}", "core.rng.{calls,self_s}"],
        "moves": {"deep-mlp": ["train_s (derive, permutations)"]},
    },
    "datagen": {
        "metrics": [
            "datagen.{blobs,partition,split}.self_s",
            "datagen.partition.attempts",
            "objectives.build.self_s",
        ],
        "moves": {
            "wide-softmax": ["setup_s"],
            "deep-mlp": ["nothing: its set-up is small"],
        },
    },
    "harness": {
        "metrics": ["harness.write_csv_s", "harness.csv_bytes", "harness.csv_bitwise_match"],
        "moves": {"all": ["run_s, only when the output schema grows"]},
    },
}


def config_text(workload: Workload, seed: int, output_dir: str) -> str:
    return workload.config.format(seed=seed, output_dir=output_dir)
