"""The mutant register: changes to the source that the tests must catch.

Each entry names a file, a text that occurs in it exactly once, the text
that replaces it, and the tests that must fail once it does. The runner
copies ``src/``, ``tests/`` and ``pyproject.toml`` into a temporary
directory, applies one mutant at a time there, and runs only that mutant's
tests. It exits non-zero when a mutant survives (one of its tests passes),
when its tests cannot run, or when its old text no longer occurs exactly
once. It takes a few seconds per mutant.

Tier-1 does not collect this module (its name is not ``test_*.py``);
``tests/test_mutants.py`` checks only that every old text still occurs
once, so that a refactor updates the register along with the code.

Run from anywhere::

    python tests/mutants.py           # every mutant
    python tests/mutants.py NAME ...  # the mutants whose name contains NAME
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # from the repository root
    old: str  # occurs in the file exactly once
    new: str
    tests: tuple[str, ...]  # pytest ids, each of which must fail


STACKS = "src/entrofed/stacks.py"
OBJECTIVES = "src/entrofed/objectives.py"
TRAINER = "src/entrofed/trainer.py"
ANALYSIS = "src/entrofed/analysis.py"
DATAGEN = "src/entrofed/datagen.py"
AGGREGATION = "src/entrofed/aggregation.py"
TEST_OBJECTIVES = "tests/test_objectives.py::TestStackedEvaluation"
COHORT = "tests/test_trainer.py::TestCohortMatchesPerClientLoop"
TAILS = "tests/test_analysis.py::TestTailMean"
QFFL = "tests/test_aggregation.py::TestQfflStep"
CHI = "tests/test_trainer.py::TestChiSquareOrInf"
WHOLE_RUN = "tests/test_trainer.py::TestWholeRunMatchesPerClientLoop"
KERNELS = "tests/test_objectives.py::TestClassAxisKernels"
MEANS = "tests/test_objectives.py::TestClientMeans"
WIDE = f"{TEST_OBJECTIVES}::test_matches_per_client_calls_at_wide_class_axes"
RUN_PLAN = "tests/test_trainer.py::TestRunPlan::test_a_refilled_plan_gives_the_bits_of_fresh_plans"
LAZY_TAKE = "tests/test_objectives.py::TestStackTake::test_a_lazy_take_is_an_eager_copy"
LAZY_COHORTS = "tests/test_trainer.py::TestLazyCohorts"
FAIR_ANGLE_FORM = "tests/test_core.py::TestFairAngle::test_is_the_wrapper_form_bit_for_bit"
FAIR_GRADIENT_LOOP = "tests/test_trainer.py::TestFairGradient::test_is_the_loop_bit_for_bit"
HARNESS = "src/entrofed/harness.py"
CORE = "src/entrofed/core.py"
ONE_RULE = "tests/test_harness.py::test_one_rule_reached_from_file_and_dataclass"
CONFIG_CHECKS = "tests/test_harness.py::TestExperimentConfigChecks"
PARSE = "tests/test_harness.py::TestParseConfig"
ROW_ARGSORT = "tests/test_core.py::TestRowArgsort"
GLR_SIDE = "tests/test_datagen.py::TestGlrFederation::test_matches_the_per_client_loop"
GLR_DIGEST = "tests/test_harness.py::test_normal_draws_are_pinned[glr-m11]"
GLR_GOLDEN = "tests/test_golden.py::test_run_reproduces_golden_files[glr-qffl]"

MUTANTS = (
    Mutant(
        "plan-without-refill",
        STACKS,
        'inputs_from.take(rows[k], axis=0, out=inputs, mode="clip")',
        'inputs_from.take(rows[0], axis=0, out=inputs, mode="clip")',
        (
            f"{TEST_OBJECTIVES}::test_plans_check_takers_when_bound_and_refill_rows_each_step",
            f"{COHORT}::test_classifier_cohort",
            f"{COHORT}::test_glr_cohort",
        ),
    ),
    Mutant(
        "plan-on-a-copy-of-x",
        TRAINER,
        "bound = stack.step_plan(x, g, subsets), x, g",
        "bound = stack.step_plan(x.copy(), g, subsets), x, g",
        (
            f"{COHORT}::test_classifier_cohort",
            f"{COHORT}::test_glr_cohort",
            f"{WHOLE_RUN}::test_golden_config",
        ),
    ),
    Mutant(
        "row-counts-of-whole-segments",
        STACKS,
        "counts[rs] = n",
        "counts[rs] = rs.stop - rs.start",
        (
            f"{TEST_OBJECTIVES}::test_full_set_gradients_of_mixed_sizes",
            f"{TEST_OBJECTIVES}::test_gradients_at_own_parameters_are_bitwise_per_client",
            f"{COHORT}::test_classifier_cohort",
        ),
    ),
    Mutant(
        "plan-out-from-the-arena",
        STACKS,
        "out = np.empty((self.m, xs.shape[-1]))",
        'out = self._arena("out", self.m * xs.shape[-1]).reshape(self.m, -1)',
        (f"{TEST_OBJECTIVES}::test_results_never_alias_the_arena",),
    ),
    Mutant(
        "test-pass-returns-its-bound-losses",
        STACKS,
        "return losses.copy(), accs.copy()",
        "return losses, accs.copy()",
        (f"{TEST_OBJECTIVES}::test_a_federations_sides_share_one_arena",),
    ),
    Mutant(
        "arena-reserve-ignored",
        STACKS,
        "            size = max(size, self._reserved.get(name, 0))\n",
        "",
        (
            f"{TEST_OBJECTIVES}::test_a_federations_sides_share_one_arena[train]",
            f"{TEST_OBJECTIVES}::test_a_federations_sides_share_one_arena[plan]",
        ),
    ),
    Mutant(
        "streams-not-advanced-by-next-uniforms",
        CORE,
        "rng._count += n",
        "rng._count += 0",
        ("tests/test_core.py::TestManyStreams::test_next_uniforms_read_and_advance_each_stream",),
    ),
    # a take gathers its rows when a pass first needs them, and a kept plan
    # reads a cohort's rows where they lie
    Mutant(
        "refill-without-the-plans-row-map",
        STACKS,
        "rows_from = stack._rows_at(at)",
        "rows_from = stack._rows_at(np.arange(at.size))",
        (
            f"{RUN_PLAN}[softmax]",
            f"{RUN_PLAN}[mlp]",
            f"{LAZY_COHORTS}::test_runs_of_repeating_layouts_are_the_loop_trainers",
        ),
    ),
    Mutant(
        "refill-gathers-the-cohort",
        STACKS,
        "rows_from = stack._rows_at(at)",
        "rows_from = stack._inputs, stack._targets, at",
        (f"{LAZY_COHORTS}::test_a_kept_plan_round_copies_no_cohort", LAZY_TAKE),
    ),
    Mutant(
        "kept-plan-in-cohort-order",
        STACKS,
        "return stack._order",
        "return np.arange(stack.m)",
        (LAZY_TAKE, f"{LAZY_COHORTS}::test_runs_of_repeating_layouts_are_the_loop_trainers"),
    ),
    Mutant(
        "take-of-a-take-without-its-parents-positions",
        STACKS,
        "return rows if parent._positions is None else parent._positions[rows]",
        "return rows",
        (LAZY_TAKE,),
    ),
    Mutant(
        "in-pass-order-stack-gathers-apart",
        STACKS,
        "        stack = copy.copy(self)\n",
        "        stack = copy.copy(self)\n        stack._held = list(self._held)\n",
        (LAZY_TAKE,),
    ),
    Mutant(
        "fair-angle-without-its-square-root",
        CORE,
        "norm = math.sqrt(arr.dot(arr))",
        "norm = arr.dot(arr)",
        (FAIR_ANGLE_FORM, "tests/test_golden.py::test_run_reproduces_golden_files"),
    ),
    Mutant(
        "fair-angle-summed-in-reverse",
        CORE,
        "cosine = arr.sum() / (norm * math.sqrt(arr.size))",
        "cosine = arr[::-1].sum() / (norm * math.sqrt(arr.size))",
        (FAIR_ANGLE_FORM, "tests/test_golden.py::test_run_reproduces_golden_files"),
    ),
    Mutant(
        "fair-gradient-reduced-pairwise-in-a-lone-column",
        TRAINER,
        "    if weighted.shape[1] == 1:\n",
        "    if False:\n",
        (FAIR_GRADIENT_LOOP,),
    ),
    Mutant(
        "narrow-fair-angle-rescale-band",
        "src/entrofed/core.py",
        "not 2.0**-500 <= peak <= 2.0**500",
        "not 2.0**-400 <= peak <= 2.0**400",
        ("tests/test_core.py::TestFairAngle::test_rescale_band_edges",),
    ),
    Mutant(
        "plan-loss-means-over-step-major-views",
        STACKS,
        "parts = _segment_views(client_major, p.segments, False)",
        'parts = p.parts["picked"]',
        (
            f"{TEST_OBJECTIVES}::test_a_full_set_plan_gives_the_losses_pass",
            f"{COHORT}::test_classifier_cohort",
        ),
    ),
    Mutant(
        "sample-ties-from-the-highest-index",
        "src/entrofed/core.py",
        "ties[k - (taken.size - ties.size) :]",
        "ties[: taken.size - k]",
        ("tests/test_core.py::TestSeededRng::test_selection_is_the_stable_argsort_head",),
    ),
    Mutant(
        "best-tail-summed-smallest-first",
        ANALYSIS,
        "np.add.reduce(ranked[end - count : end][::-1])",
        "np.add.reduce(ranked[end - count : end])",
        (f"{TAILS}::test_one_sort_gives_both_tails",),
    ),
    Mutant(
        "cohort-results-gathered-by-order",
        TRAINER,
        "back = order.argsort()",
        "back = order",
        (f"{COHORT}::test_classifier_cohort", f"{COHORT}::test_glr_cohort"),
    ),
    Mutant(
        "orders-gather-at-an-epoch-stride-of-n-plus-1",
        TRAINER,
        "at = np.repeat(starts - np.cumsum(kept) + kept, kept)",
        "at = np.repeat(starts + epoch - np.cumsum(kept) + kept, kept)",
        (
            "tests/test_trainer.py::TestMinibatchOrders::test_one_pass_is_the_per_client_draws",
            "tests/test_trainer.py::TestMinibatchOrders::test_rows_past_the_key_limit",
            f"{COHORT}::test_classifier_cohort",
        ),
    ),
    # mutants the tests were shown to kill before this register existed
    Mutant(
        "tail-count-floored",
        ANALYSIS,
        "math.ceil(k_percent * v.size / 100.0)",
        "math.floor(k_percent * v.size / 100.0)",
        (f"{TAILS}::test_ceil_count_and_ties", f"{TAILS}::test_equals_the_stable_argsort_gather"),
    ),
    Mutant(
        "q-dropped-from-the-qffl-normalizer",
        AGGREGATION,
        "normalizer += q * cfg.lipschitz * float(",
        "normalizer += cfg.lipschitz * float(",
        (
            f"{QFFL}::test_step_scales_the_weighted_mean",
            f"{QFFL}::test_matches_the_per_client_formula",
            "tests/test_golden.py::test_run_reproduces_golden_files[glr-qffl]",
        ),
    ),
    Mutant(
        "convex-schedule-squared",
        AGGREGATION,
        "return cfg.tau0 / base**3",
        "return cfg.tau0 / base**2",
        ("tests/test_aggregation.py::TestScheduleTau::test_convex_frozen_value",),
    ),
    Mutant(
        "chi-square-inf-only-when-every-weight-is-zero",
        TRAINER,
        "if (weights <= 0.0).any():",
        "if (weights <= 0.0).all():",
        (f"{CHI}::test_a_zero_weight_is_infinite_without_a_division",),
    ),
    Mutant(
        "unweighted-global-accuracy",
        ANALYSIS,
        "global_acc = float(np.dot(sizes, accs) / sizes.sum())",
        "global_acc = float(np.mean(accs))",
        (
            "tests/test_golden.py::test_run_reproduces_golden_files[blobs-mlp]",
            f"{WHOLE_RUN}::test_golden_config[fedavg-ratio]",
        ),
    ),
    Mutant(
        "model-alignment-blends-deltas",
        TRAINER,
        "aggregate_model_alignment(update.deltas, update.one_step, weights, cfg.alpha)",
        "aggregate_model_alignment(update.deltas, update.deltas, weights, cfg.alpha)",
        (
            "tests/test_trainer.py::TestRunRound::"
            "test_identical_clients_blend_matches_single_client",
            "tests/test_golden.py::test_run_reproduces_golden_files[eba-ratio-linear]",
        ),
    ),
    Mutant(
        "sample-std-in-the-summary",
        "src/entrofed/harness.py",
        "{_fmt(float(vals.std()))}",
        "{_fmt(float(vals.std(ddof=1)))}",
        ("tests/test_golden.py::test_run_reproduces_golden_files[fedavg-ratio]",),
    ),
    Mutant(
        "floored-train-test-split",
        DATAGEN,
        "np.rint(test_fraction * sizes)",
        "np.floor(test_fraction * sizes)",
        (
            "tests/test_datagen.py::TestTrainTestSplit::test_matches_per_client_reference",
            "tests/test_harness.py::test_federation_digest_is_pinned[dirichlet-m50]",
        ),
    ),
    Mutant(
        "strict-dirichlet-minimum",
        DATAGEN,
        "if counts.min() >= spec.min_samples_per_client:",
        "if counts.min() > spec.min_samples_per_client:",
        (
            "tests/test_acceptance.py::test_criterion_10_cross_method_oracles",
            "tests/test_harness.py::test_federation_digest_is_pinned[dirichlet-m500]",
        ),
    ),
    Mutant(
        "fair-gradient-at-tau0",
        TRAINER,
        "compute_fair_gradient(cohort.gradients(x_t), start_losses, tau)",
        "compute_fair_gradient(cohort.gradients(x_t), start_losses, cfg.eba.tau0)",
        (
            "tests/test_golden.py::test_run_reproduces_golden_files[eba-ratio-linear]",
            f"{WHOLE_RUN}::test_golden_config[eba-ratio-linear]",
        ),
    ),
    Mutant(
        "label-positions-at-binding",
        STACKS,
        "(np.multiply, (p.targets, n, at))",
        "(np.multiply, (p.targets.copy(), n, at))",
        (f"{RUN_PLAN}[softmax]", f"{RUN_PLAN}[mlp]"),
    ),
    Mutant(
        "class-major-hits-without-tie-check",
        STACKS,
        "if np.count_nonzero(zeros) > rows:",
        "if False:",
        (
            f"{KERNELS}::test_class_major_hits_take_the_first_of_tied_maxima",
            f"{TEST_OBJECTIVES}::test_accuracies_at_tied_and_non_finite_logits",
        ),
    ),
    Mutant(
        "class-major-hits-without-non-finite-fallback",
        STACKS,
        "if not np.isfinite(rowmax).all():",
        "if False:",
        (
            f"{KERNELS}::test_class_major_hits_leave_non_finite_row_maxima_to_argmax",
            f"{TEST_OBJECTIVES}::test_accuracies_at_tied_and_non_finite_logits",
        ),
    ),
    # the planned column sums: numpy's pairwise order, branch by branch
    Mutant(
        "column-sums-sequential-at-8-terms",
        STACKS,
        "    if n < 8:\n        return adds",
        "    if n < 9:\n        return adds",
        (f"{KERNELS}::test_column_sums_are_numpys_row_sums", f"{WIDE}[softmax-c8]"),
    ),
    Mutant(
        "column-sums-paired-by-halves",
        STACKS,
        # ((r0+r4)+(r1+r5))+((r2+r6)+(r3+r7)): a whole sum, in another order
        "    adds += [_iadd(r[i], r[i + 1]) for i in (0, 2, 4, 6)]\n"
        "    adds += [_iadd(r[0], r[2]), _iadd(r[4], r[6]), _iadd(out, r[4])]\n",
        "    adds += [_iadd(r[i], r[i + 4]) for i in (0, 1, 2, 3)]\n"
        "    adds += [_iadd(r[0], r[1]), _iadd(r[2], r[3]), _iadd(out, r[2])]\n",
        (
            f"{KERNELS}::test_column_sums_are_numpys_row_sums",
            f"{WIDE}[softmax-c10]",
            f"{WIDE}[softmax-c130]",
        ),
    ),
    Mutant(
        "client-means-summed-in-reverse",
        STACKS,
        "            total = v.T\n",
        "            total = v.T[::-1]\n",
        (
            f"{MEANS}::test_means_are_each_clients_reduce_over_its_rows",
            f"{MEANS}::test_telemetry_means_are_each_clients_own",
        ),
    ),
    Mutant(
        "column-sums-split-off-a-multiple-of-8",
        STACKS,
        "half = n // 2 - n // 2 % 8",
        "half = n // 2",
        (f"{KERNELS}::test_column_sums_are_numpys_row_sums", f"{WIDE}[softmax-c130]"),
    ),
    # the per-client reference that the stacks are checked against
    Mutant(
        "reference-tanh-slope-without-its-square",
        OBJECTIVES,
        "dpre *= 1.0 - act * act if",
        "dpre *= 1.0 - act if",
        (
            f"{TEST_OBJECTIVES}::test_gradients_at_own_parameters_are_bitwise_per_client[mlp-tanh]",
            f"{TEST_OBJECTIVES}::test_matches_per_client_calls[mlp-tanh]",
        ),
    ),
    Mutant(
        "reference-relu-slope-at-zero",
        OBJECTIVES,
        "else act > 0",
        "else act >= 0",
        (
            f"{TEST_OBJECTIVES}::test_gradients_at_own_parameters_are_bitwise_per_client[mlp-relu]",
            f"{TEST_OBJECTIVES}::test_matches_per_client_calls[mlp-relu]",
        ),
    ),
    Mutant(
        "reference-one-hot-at-the-wrong-label",
        OBJECTIVES,
        "dlogits[np.arange(len(labels)), labels] -= 1.0",
        "dlogits[np.arange(len(labels)), labels - 1] -= 1.0",
        (
            f"{TEST_OBJECTIVES}::test_full_set_gradients_of_mixed_sizes[softmax]",
            f"{TEST_OBJECTIVES}::test_gradients_at_own_parameters_are_bitwise_per_client[softmax]",
        ),
    ),
    Mutant(
        "reference-loss-at-the-wrong-label",
        OBJECTIVES,
        "-logp[np.arange(len(labels)), labels])",
        "-logp[np.arange(len(labels)), labels - 1])",
        (
            f"{TEST_OBJECTIVES}::test_classifier_and_glr_losses_are_bitwise_per_client",
            f"{TEST_OBJECTIVES}::test_matches_per_client_calls[softmax]",
        ),
    ),
    Mutant(
        "reference-loss-negated-after-the-mean",
        OBJECTIVES,
        "float(np.mean(-logp[np.arange(len(labels)), labels]))",
        "float(-np.mean(logp[np.arange(len(labels)), labels]))",
        (f"{TEST_OBJECTIVES}::test_accuracies_at_tied_and_non_finite_logits[softmax]",),
    ),
    Mutant(
        "reference-log-softmax-unshifted",
        OBJECTIVES,
        "    z = logits - logits.max(axis=-1, keepdims=True)\n",
        "    z = logits\n",
        (
            f"{TEST_OBJECTIVES}::test_full_sets_at_own_parameters_are_bitwise_per_client[softmax]",
            f"{WIDE}[softmax-c10]",
        ),
    ),
    # bound kernels that would keep, from when they were bound, a value
    # that changes between their calls
    Mutant(
        "step-label-positions-at-binding",
        STACKS,
        "(np.add, (base, p.targets, at)),",
        "(np.add, (base, p.targets.copy(), at)),",
        (
            f"{TEST_OBJECTIVES}::test_plans_check_takers_when_bound_and_refill_rows_each_step",
            f"{COHORT}::test_classifier_cohort",
        ),
    ),
    Mutant(
        "step-layers-of-a-copy-of-x",
        STACKS,
        "        layers = self._unpack(p, xs)\n",
        "        layers = self._unpack(p, xs.copy())\n",
        (f"{COHORT}::test_classifier_cohort", f"{WHOLE_RUN}::test_golden_config"),
    ),
    Mutant(
        "loss-layers-of-a-copy-of-x",
        STACKS,
        "layers, bias = self._unpack(p, xs), None",
        "layers, bias = self._unpack(p, xs.copy()), None",
        (
            f"{TEST_OBJECTIVES}::test_a_full_set_plan_gives_the_losses_pass",
            f"{WHOLE_RUN}::test_golden_config",
        ),
    ),
    Mutant(
        "telemetry-kernels-on-a-copy-of-x",
        STACKS,
        'kernels[name] = getattr(self, f"_bind_{name}")(self._telemetry, bound)',
        'kernels[name] = getattr(self, f"_bind_{name}")(self._telemetry, bound.copy())',
        (f"{WHOLE_RUN}::test_golden_config", "tests/test_golden.py::test_run_reproduces_golden_files"),
    ),
    Mutant(
        "class-major-bias-copied-at-binding",
        STACKS,
        "layers, bias = (*layers[:-1], None), layers[-1].T",
        "layers, bias = (*layers[:-1], None), layers[-1].T.copy()",
        (f"{WHOLE_RUN}::test_golden_config", "tests/test_golden.py::test_run_reproduces_golden_files"),
    ),
    Mutant(
        "trainer-config-unchecked",
        TRAINER,
        "        check_settings(self)\n",
        "        pass\n",
        (
            f"{ONE_RULE}[rounds=0]",
            f"{ONE_RULE}[local_lr=-0.5]",
            f"{CONFIG_CHECKS}::test_a_bad_trainer_setting_fails_at_once",
            f"{CONFIG_CHECKS}::test_integer_settings_take_integers_only",
        ),
    ),
    Mutant(
        "eba-config-unchecked",
        AGGREGATION,
        'prior: str = setting("trainer", "uniform", one_of(*PRIORS))\n\n'
        "    def __post_init__(self):\n        check_settings(self)\n",
        'prior: str = setting("trainer", "uniform", one_of(*PRIORS))\n\n'
        "    def __post_init__(self):\n        pass\n",
        (f"{ONE_RULE}[tau0=0]", f"{ONE_RULE}[tau_schedule=sqrt]", f"{ONE_RULE}[prior=loss]"),
    ),
    Mutant(
        "experiment-config-unchecked",
        HARNESS,
        "        check_settings(self)\n",
        "        pass\n",
        (
            f"{CONFIG_CHECKS}::test_each_field_is_checked",
            f"{CONFIG_CHECKS}::test_integer_settings_take_integers_only",
        ),
    ),
    Mutant(
        "partition-spec-unchecked",
        DATAGEN,
        "    seed: int = 0\n\n    def __post_init__(self):\n        check_settings(self)\n",
        "    seed: int = 0\n\n    def __post_init__(self):\n        pass\n",
        (
            f"{ONE_RULE}[clients=0]",
            f"{ONE_RULE}[clients=3.0]",
            f"{ONE_RULE}[min_samples_per_client=2.5]",
            f"{ONE_RULE}[dirichlet_alpha=inf]",
        ),
    ),
    Mutant(
        "glr-settings-unchecked",
        DATAGEN,
        'param_scale: float = setting("data", 1.0, bounded(0.0))\n\n'
        "    def __post_init__(self):\n        check_settings(self)\n",
        'param_scale: float = setting("data", 1.0, bounded(0.0))\n\n'
        "    def __post_init__(self):\n        pass\n",
        (
            f"{ONE_RULE}[glr_dim=0]",
            f"{ONE_RULE}[samples_per_client=0]",
            f"{ONE_RULE}[noise_std=-0.1]",
        ),
    ),
    Mutant(
        "blob-settings-unchecked",
        DATAGEN,
        "open_high=True))\n\n    def __post_init__(self):\n        check_settings(self)\n",
        "open_high=True))\n\n    def __post_init__(self):\n        pass\n",
        (
            f"{ONE_RULE}[classes=1]",
            f"{ONE_RULE}[dim=2.0]",
            f"{ONE_RULE}[spread=nan]",
            f"{ONE_RULE}[test_fraction=0]",
            f"{ONE_RULE}[classes=2.5]",
            f"{CONFIG_CHECKS}::test_each_field_is_checked",
        ),
    ),
    Mutant(
        "min-samples-rule-zero",
        DATAGEN,
        'setting("partition", 1, bounded(1))',
        'setting("partition", 1, bounded(0))',
        (f"{ONE_RULE}[min_samples_per_client=0]",),
    ),
    Mutant(
        "split-takes-any-test-fraction",
        DATAGEN,
        '    check_field(BlobSettings, "test_fraction", test_fraction)\n',
        "",
        (
            f"{ONE_RULE}[test_fraction=0]",
            f"{ONE_RULE}[test_fraction=1]",
            "tests/test_datagen.py::TestTrainTestSplit::test_rejects_empty_client_and_bad_fraction",
        ),
    ),
    Mutant(
        "cohort-above-clients-accepted",
        HARNESS,
        "if self.trainer.clients_per_round > self.clients:",
        "if False:",
        (f"{CONFIG_CHECKS}::test_cross_field_rules",),
    ),
    Mutant(
        "rank-rule-dropped",
        HARNESS,
        'if self.data_kind == "glr" and self.glr.dimension > self.glr.samples_per_client:',
        "if False:",
        (f"{CONFIG_CHECKS}::test_cross_field_rules", f"{PARSE}::test_glr_dim_must_not_exceed_the_samples"),
    ),
    Mutant(
        "rank-rule-for-every-kind",
        HARNESS,
        'if self.data_kind == "glr" and self.glr.dimension > self.glr.samples_per_client:',
        "if self.glr.dimension > self.glr.samples_per_client:",
        (f"{CONFIG_CHECKS}::test_rank_rule_holds_for_glr_only",),
    ),
    Mutant(
        "width-rule-dropped",
        DATAGEN,
        'if self.model == "mlp" and self.hidden_units > ClassifierObjective.MAX_HIDDEN:',
        "if False:",
        (f"{CONFIG_CHECKS}::test_cross_field_rules", f"{PARSE}::test_hidden_units_bound_holds_for_mlp_only"),
    ),
    Mutant(
        "width-rule-for-every-model",
        DATAGEN,
        'if self.model == "mlp" and self.hidden_units > ClassifierObjective.MAX_HIDDEN:',
        "if self.hidden_units > ClassifierObjective.MAX_HIDDEN:",
        (f"{PARSE}::test_hidden_units_bound_holds_for_mlp_only",),
    ),
    Mutant(
        "row-argsort-unstable",
        CORE,
        'np.argsort(keys[a:b], kind="stable")',
        "np.argsort(keys[a:b])",
        (
            f"{ROW_ARGSORT}::test_rows_past_the_key_limit",
            "tests/test_trainer.py::TestMinibatchOrders::test_rows_past_the_key_limit",
        ),
    ),
    Mutant(
        "row-argsort-chunks-of-twice-the-rows",
        CORE,
        "(np.cumsum(counts) - counts)[::_KEY_ROWS]",
        "(np.cumsum(counts) - counts)[:: 2 * _KEY_ROWS]",
        (
            f"{ROW_ARGSORT}::test_is_the_lexsort_of_row_and_draw",
            f"{ROW_ARGSORT}::test_rows_past_the_key_limit",
            "tests/test_trainer.py::TestMinibatchOrders::test_rows_past_the_key_limit",
            "tests/test_trainer.py::TestMinibatchOrders::test_one_pass_is_the_per_client_draws",
        ),
    ),
    Mutant(
        "shard-partition-key-without-its-owner-scale",
        DATAGEN,
        "np.sort(owner * ds.n + samples) % ds.n",
        "np.sort(owner + samples) % ds.n",
        (
            "tests/test_datagen.py::TestShardPartition::test_uneven_shards_match_array_split",
            "tests/test_harness.py::test_federation_digest_is_pinned[shards-m50]",
            "tests/test_harness.py::test_federation_digest_is_pinned[shards-m500]",
        ),
    ),
    # a GLR side, built straight into its stack
    Mutant(
        "glr-noise-drawn-before-the-design",
        DATAGEN,
        "        raw = client_rng.normals(n * d).reshape(n, d)\n        noise = client_rng.normals(n)\n",
        "        noise = client_rng.normals(n)\n        raw = client_rng.normals(n * d).reshape(n, d)\n",
        (GLR_SIDE, GLR_DIGEST, GLR_GOLDEN),
    ),
    Mutant(
        "glr-targets-without-noise",
        DATAGEN,
        "x @ w_i + glr.noise_std * noise",
        "x @ w_i",
        (GLR_SIDE, GLR_DIGEST, GLR_GOLDEN),
    ),
    Mutant(
        "glr-design-without-rows-accepted",
        OBJECTIVES,
        "if design.ndim != 2 or design.shape[0] == 0:",
        "if design.ndim != 2:",
        ("tests/test_objectives.py::TestGlr::test_rejects_a_design_without_rows",),
    ),
    Mutant(
        "bounded-takes-non-finite",
        CORE,
        "        if not math.isfinite(v):\n",
        "        if False:\n",
        (
            f"{ONE_RULE}[global_lr=inf]",
            f"{ONE_RULE}[dirichlet_alpha=inf]",
            f"{ONE_RULE}[noise_std=inf]",
            f"{CONFIG_CHECKS}::test_each_field_is_checked",
        ),
    ),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    return (root / mutant.path).read_text(encoding="utf-8").count(mutant.old)


def survivors(mutant: Mutant) -> list[str]:
    """The tests of ``mutant`` that do not fail with it applied to a copy
    of the repository (all of them if they cannot run)."""
    with tempfile.TemporaryDirectory(prefix="entrofed-mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / mutant.path
        target.write_text(
            target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8"
        )
        command = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider"]
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        result = subprocess.run(
            [*command, *mutant.tests], cwd=copy, env=env, capture_output=True, text=True
        )
    if result.returncode != 1:  # 1: some tests failed; else passed or broke
        return list(mutant.tests)
    failed = re.findall(r"^FAILED (\S+)", result.stdout, flags=re.MULTILINE)
    return [t for t in mutant.tests if not any(f == t or f.startswith(t + "[") for f in failed)]


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or any(a in m.name for a in argv)]
    status = 0
    for mutant in chosen:
        count = occurrences(mutant)
        if count != 1:
            print(f"STALE    {mutant.name}: its old text occurs {count} times in {mutant.path}")
            status = 1
            continue
        alive = survivors(mutant)
        print(f"{'SURVIVED' if alive else 'killed'}   {mutant.name}")
        for test in alive:
            print(f"    passes: {test}")
        status |= bool(alive)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
