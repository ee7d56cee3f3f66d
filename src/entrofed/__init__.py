"""Deterministic federated-learning simulator with entropy-based fair aggregation.

The package implements three training methods over synthetic federations:

* ``fedavg`` -- weighted averaging of local updates (uniform or data-ratio),
* ``qffl`` -- loss-power reweighting with a Lipschitz-normalized server step,
* ``fedeba_plus`` -- entropy-based aggregation weights plus model/gradient
  alignment, gated by a fair-angle threshold.

Everything is seeded and reproducible: reruns with the same configuration
produce bit-identical metric streams and output files.
"""

from entrofed.core import (
    SeededRng,
    chi_square_divergence,
    entropy,
    fair_angle,
    softmax_temperature,
    validate_simplex,
)
from entrofed.objectives import (
    ClassifierObjective,
    GlrObjective,
    LocalObjective,
    QuadraticObjective,
    finite_diff_gradient,
    glr_least_squares,
)
from entrofed.datagen import (
    BlobSettings,
    GlrFederationSpec,
    GlrSettings,
    LabeledDataset,
    PartitionInfeasibleError,
    PartitionSpec,
    gen_gaussian_blobs,
    gen_glr_federation,
    partition_dirichlet,
    partition_shards,
)
from entrofed.aggregation import (
    EbaConfig,
    QfflConfig,
    data_ratio_weights,
    eba_weights,
    qffl_step,
    schedule_tau,
    uniform_weights,
)
from entrofed.trainer import (
    Federation,
    RoundReport,
    TrainerConfig,
    run_round,
    run_training,
)
from entrofed.analysis import (
    FairnessReport,
    InfeasibleGridError,
    RegressionOracleSetup,
    entropy_max_bruteforce,
    evaluate_fairness,
    population_variance,
    regression_variance_oracle,
    tail_mean,
    toy_case_oracle,
    weighted_variance,
)

__all__ = [
    "SeededRng",
    "softmax_temperature",
    "entropy",
    "chi_square_divergence",
    "fair_angle",
    "validate_simplex",
    "LocalObjective",
    "QuadraticObjective",
    "GlrObjective",
    "ClassifierObjective",
    "finite_diff_gradient",
    "glr_least_squares",
    "LabeledDataset",
    "BlobSettings",
    "PartitionSpec",
    "GlrFederationSpec",
    "GlrSettings",
    "PartitionInfeasibleError",
    "gen_gaussian_blobs",
    "partition_shards",
    "partition_dirichlet",
    "gen_glr_federation",
    "EbaConfig",
    "QfflConfig",
    "schedule_tau",
    "eba_weights",
    "uniform_weights",
    "data_ratio_weights",
    "qffl_step",
    "TrainerConfig",
    "Federation",
    "RoundReport",
    "run_round",
    "run_training",
    "FairnessReport",
    "RegressionOracleSetup",
    "InfeasibleGridError",
    "population_variance",
    "weighted_variance",
    "tail_mean",
    "toy_case_oracle",
    "regression_variance_oracle",
    "entropy_max_bruteforce",
    "evaluate_fairness",
]
