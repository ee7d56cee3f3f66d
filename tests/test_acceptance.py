"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and prints a
single pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see
them inline). Runtime budgets are part of the criteria and are enforced.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from entrofed.aggregation import EbaConfig, QfflConfig, eba_weights
from entrofed.analysis import (
    entropy_max_bruteforce,
    softmax_entropy,
    toy_case_oracle,
    weighted_variance,
)
from entrofed.core import SeededRng
from entrofed.harness import build_federation, main, parse_config
from entrofed.objectives import (
    ClassifierObjective,
    GlrObjective,
    QuadraticObjective,
    finite_diff_gradient,
)
from entrofed.stacks import stack_objectives
from entrofed.trainer import Federation, TrainerConfig, run_training


class _Criterion:
    """Prints '[acceptance] criterion N (<name>): PASS|FAIL (elapsed)'."""

    def __init__(self, num, name, budget_seconds=None):
        self.num = num
        self.name = name
        self.budget = budget_seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and (self.budget is None or elapsed <= self.budget)
        print(
            f"[acceptance] criterion {self.num} ({self.name}): "
            f"{'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)"
        )
        if exc_type is None and not ok:
            raise AssertionError(
                f"criterion {self.num} exceeded its {self.budget}s runtime budget "
                f"({elapsed:.2f}s)"
            )
        return False


def heterogeneous_quadratics(seed=123, m=10, center_scale=0.5):
    rng = SeededRng(seed)
    curvatures = 0.3 + 0.5 * rng.uniforms(m)
    centers = center_scale * (2 * rng.uniforms(m) - 1)
    return Federation(stack_objectives(QuadraticObjective(a, c) for a, c in zip(curvatures, centers)))


def test_criterion_1_toy_case_exactness():
    with _Criterion(1, "toy-case exactness", budget_seconds=1.0):
        rec = toy_case_oracle(0.25, 1.0, q=1.0, alpha=0.5)
        assert rec.local_models == (2.0, -1.0)
        assert rec.fedavg == 0.5
        assert rec.qffl_deltas == (-16.0, 8.0)
        assert rec.qffl_h == (12.0, 9.0)
        assert abs(abs(rec.qffl) - 8.0 / 21.0) <= 1e-12
        for tau in (1.0, 5.0):
            trial = toy_case_oracle(0.25, tau, q=1.0, alpha=0.5)
            assert trial.loss_gaps["fedeba"] < trial.loss_gaps["fedavg"]
            assert trial.variances["fedeba"] < trial.variances["fedavg"]


def test_criterion_2_max_entropy_dominance():
    with _Criterion(2, "max-entropy dominance", budget_seconds=30.0):
        rng = SeededRng(2024)
        for m in (2, 3):
            for tau in (0.5, 1.0, 5.0):
                for _ in range(20):
                    losses = rng.uniforms(m)
                    _, grid_best = entropy_max_bruteforce(losses, tau, 0.01, 0.02)
                    assert softmax_entropy(losses, tau) >= grid_best - 1e-3


def test_criterion_3_weighted_variance_identity_and_direction():
    with _Criterion(3, "weighted-variance identity and direction", budget_seconds=5.0):
        rng = SeededRng(31)
        uniform = np.array([0.5, 0.5])
        for _ in range(1000):
            a = rng.uniforms(2) * 5.0
            tau = 0.2 + 4.8 * rng.uniform()
            p = eba_weights(a, tau)
            identity = p[0] * p[1] * (a[0] - a[1]) ** 2
            assert abs(weighted_variance(a, p) - identity) <= 1e-12
            assert weighted_variance(a, p) <= weighted_variance(a, uniform) + 1e-15
            if a[0] != a[1]:
                assert weighted_variance(a, p) < weighted_variance(a, uniform)


def test_criterion_4_degeneracy_chain():
    with _Criterion(4, "degeneracy chain", budget_seconds=10.0):
        fed = heterogeneous_quadratics()
        kw = dict(rounds=100, local_steps=3, clients_per_round=5, local_lr=0.05, seed=7)
        traj_avg, traj_eba = [], []
        run_training(
            fed,
            TrainerConfig(method="fedavg", alpha=0.0, eba=EbaConfig(prior="uniform"), **kw),
            on_round=lambda rep, x: traj_avg.append(x.copy()),
        )
        run_training(
            fed,
            TrainerConfig(
                method="fedeba_plus",
                alpha=0.0,
                theta=math.pi,
                eba=EbaConfig(tau0=1e9, prior="uniform"),
                **kw,
            ),
            on_round=lambda rep, x: traj_eba.append(x.copy()),
        )
        assert len(traj_avg) == len(traj_eba) == 100
        gap = max(np.abs(a - b).max() for a, b in zip(traj_avg, traj_eba))
        assert gap < 1e-9


def test_criterion_5_convergence_smoke():
    with _Criterion(5, "convergence smoke", budget_seconds=10.0):
        # Convex quadratics with a shared minimizer and spread curvatures:
        # the stationary point is exact, so the gradient norm must vanish.
        fed = Federation(stack_objectives(QuadraticObjective(0.5 + 0.1 * i, 1.5) for i in range(10)))
        cfg = TrainerConfig(
            rounds=500,
            local_steps=5,
            clients_per_round=10,
            local_lr=0.05,
            alpha=0.5,
            theta=math.pi,
            eba=EbaConfig(tau0=0.5),
            method="fedeba_plus",
            seed=1,
        )
        norms = []
        run_training(
            fed,
            cfg,
            on_round=lambda rep, x: norms.append(
                np.linalg.norm(fed.train.gradients(x).mean(axis=0))
            ),
        )
        norms_sq = np.array(norms) ** 2
        assert norms[-1] < 1e-3
        running_min = np.minimum.accumulate(norms_sq)
        assert np.all(np.diff(running_min) <= 0)


def test_criterion_6_fair_angle_ablation():
    with _Criterion(6, "fair-angle ablation semantics", budget_seconds=10.0):
        fed = heterogeneous_quadratics(seed=5, center_scale=1.0)
        kw = dict(
            rounds=50,
            local_steps=3,
            clients_per_round=5,
            local_lr=0.05,
            alpha=0.5,
            eba=EbaConfig(tau0=1.0),
            method="fedeba_plus",
            seed=11,
        )
        trajectories = {}
        reports = {}
        for theta_deg in (90.0, 180.0):
            traj = []
            reps, _ = run_training(
                fed,
                TrainerConfig(theta=math.radians(theta_deg), **kw),
                on_round=lambda rep, x, t=traj: t.append(x.copy()),
            )
            trajectories[theta_deg] = traj
            reports[theta_deg] = reps
        for a, b in zip(trajectories[90.0], trajectories[180.0]):
            assert np.array_equal(a, b)
        assert sum(r.extra_comm for r in reports[90.0]) == 0
        assert sum(r.extra_comm for r in reports[180.0]) == 0

        zero_reports, _ = run_training(fed, TrainerConfig(theta=0.0, **kw))
        assert all(r.branch == "aligned" for r in zero_reports)
        assert all(r.angle > 0 for r in zero_reports)
        assert sum(r.extra_comm for r in zero_reports) == len(zero_reports)


def test_criterion_7_gradient_checks():
    with _Criterion(7, "finite-difference gradient checks", budget_seconds=10.0):
        rng = SeededRng(71)

        def check(obj, x):
            analytic = obj.gradient(x)
            fd = finite_diff_gradient(obj, x)
            return np.abs(analytic - fd).max() / (1.0 + np.abs(analytic).max())

        worst = 0.0
        for _ in range(200):
            quad = QuadraticObjective(0.1 + 3 * rng.uniform(), rng.uniform(-5, 5))
            worst = max(worst, check(quad, 3 * rng.normals(1)))

            design = rng.normals(24).reshape(8, 3)
            glr = GlrObjective(design, rng.normals(8))
            worst = max(worst, check(glr, rng.normals(3)))
        for hidden, act in ((0, "identity"), (6, "tanh"), (6, "relu")):
            for _ in range(200):
                feats = rng.normals(60).reshape(20, 3)
                labels = rng.integers(20, 3)
                clf = ClassifierObjective(feats, labels, 3, hidden, act)
                worst = max(worst, check(clf, 0.5 * rng.normals(clf.dimension)))
        assert worst < 1e-5


TREND_CONFIG = """
[trainer]
method = fedeba_plus
rounds = 200
local_steps = 5
clients_per_round = 10
local_lr = 0.05
alpha = 0.5
theta_deg = 0
batch_size = full
tau0 = 0.1
prior = uniform

[data]
kind = blobs
classes = 10
per_class = 500
dim = 8
spread = 1.2

[partition]
mode = dirichlet
clients = 50
dirichlet_alpha = 0.1
min_samples_per_client = 5

[run]
seeds = 1,2,3
"""


def test_criterion_8_directional_fairness_trend(tmp_path):
    with _Criterion(8, "directional fairness trend", budget_seconds=180.0):
        cfg_path = tmp_path / "trend.cfg"
        cfg_path.write_text(TREND_CONFIG, encoding="utf-8")
        base = parse_config(cfg_path)
        results = {}
        for method, alpha in (("fedavg", 0.0), ("fedeba_plus", 0.5)):
            run = dataclasses.replace(base.trainer, method=method, alpha=alpha)
            cfg = dataclasses.replace(base, trainer=run)
            acc, var, worst = [], [], []
            for seed in cfg.seeds:
                federation, x0 = build_federation(cfg, seed)
                reports, _ = run_training(federation, cfg.trainer_config(seed), x0)
                final = reports[-1]
                acc.append(final.global_accuracy)
                var.append(final.accuracy_variance)
                worst.append(final.worst_tail_accuracy)
            results[method] = (np.mean(acc), np.mean(var), np.mean(worst))
        avg_acc, avg_var, avg_worst = results["fedavg"]
        eba_acc, eba_var, eba_worst = results["fedeba_plus"]
        assert eba_var <= avg_var
        assert eba_worst >= avg_worst
        assert eba_acc >= avg_acc - 0.005  # half a percentage point


DETERMINISM_CONFIG = """
[trainer]
method = fedeba_plus
rounds = 10
local_steps = 2
clients_per_round = 4
batch_size = 16

[data]
classes = 3
per_class = 50
dim = 3

[partition]
clients = 6
dirichlet_alpha = 0.5
min_samples_per_client = 4

[run]
seeds = 3,5
"""


def test_criterion_9_byte_identical_outputs(tmp_path, monkeypatch, capsys):
    with _Criterion(9, "byte-identical reruns"):
        cfg_path = tmp_path / "det.cfg"
        cfg_path.write_text(DETERMINISM_CONFIG, encoding="utf-8")

        monkeypatch.setenv("ENTROFED_OUTPUT_DIR", str(tmp_path / "run_a"))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert main(["partition", "--config", str(cfg_path)]) == 0
        monkeypatch.setenv("ENTROFED_OUTPUT_DIR", str(tmp_path / "run_b"))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert main(["partition", "--config", str(cfg_path)]) == 0

        for name in ("rounds_seed3.csv", "rounds_seed5.csv", "summary.txt", "partition.csv"):
            a = (tmp_path / "run_a" / name).read_bytes()
            b = (tmp_path / "run_b" / name).read_bytes()
            assert a == b, f"{name} differs between identical reruns"

        capsys.readouterr()
        main(["oracle", "toy", "--tau", "1"])
        first = capsys.readouterr().out
        main(["oracle", "toy", "--tau", "1"])
        assert capsys.readouterr().out == first


GOLDEN = Path(__file__).parent / "golden"


def golden_setup(name):
    cfg = parse_config(GOLDEN / name / "config.cfg")
    federation, x0 = build_federation(cfg, 0)
    return federation, x0, cfg.trainer_config(0)


def assert_same_runs(run_a, run_b, skip=()):
    """Finite, bitwise equal final models (up to the sign of a zero, since
    x + 0.0 turns -0.0 into +0.0) and equal report fields, NaN equal to NaN,
    except the fields named in ``skip``."""
    (reports_a, x_a), (reports_b, x_b) = run_a, run_b
    assert np.isfinite(x_a).all()
    assert np.array_equal(x_a, x_b)
    for a, b in zip(reports_a, reports_b, strict=True):
        for field in dataclasses.fields(a):
            if field.name in skip:
                continue
            got, want = getattr(a, field.name), getattr(b, field.name)
            same = got == want if isinstance(got, str) else np.array_equal(got, want, equal_nan=True)
            assert same, (a.round_index, field.name)


def qffl_zero_power_twin(fedavg: TrainerConfig, lipschitz: float) -> TrainerConfig:
    """q-FFL with q = 0: every F_i^q is 1, so its weights are uniform and its
    step length sum F^q / sum F^q is 1.0 whatever L is."""
    return dataclasses.replace(fedavg, method="qffl", qffl=QfflConfig(q=0.0, lipschitz=lipschitz))


def test_criterion_10_cross_method_oracles():
    with _Criterion(10, "cross-method oracles", budget_seconds=3.0):
        # alpha = 0 makes the fair-angle gate inert: the aligned step adds
        # 0 * fair_grad to each local gradient and model alignment adds
        # 0 * mean(one_step), so theta = 0 (align whenever the angle is
        # positive) and theta = pi (never align) train the same models.
        for name in ("blobs-mlp", "glr-qffl"):
            federation, x0, base = golden_setup(name)
            base = dataclasses.replace(base, method="fedeba_plus", alpha=0.0)
            gated = run_training(federation, dataclasses.replace(base, theta=0.0), x0)
            plain = run_training(federation, dataclasses.replace(base, theta=math.pi), x0)
            assert len(gated[0]) > 1
            assert "aligned" in {r.branch for r in gated[0]}
            assert {r.branch for r in plain[0]} == {"plain"}
            assert_same_runs(gated, plain, skip=("branch", "extra_comm"))

        for name in ("glr-qffl", "blobs-mlp", "fedavg-ratio"):
            federation, x0, base = golden_setup(name)
            # q-FFL with q = 0 is uniform FedAvg with global_lr = 1, bit for bit
            fedavg = dataclasses.replace(
                base, method="fedavg", global_lr=1.0, eba=EbaConfig(prior="uniform")
            )
            averaged = run_training(federation, fedavg, x0)
            for lipschitz in (1.0, 0.1):
                qffl = run_training(federation, qffl_zero_power_twin(fedavg, lipschitz), x0)
                assert_same_runs(qffl, averaged)

            # FedEBA+ with the data-ratio prior at tau0 = 1e12 is data-ratio
            # FedAvg: loss / tau0 ~ 1e-12 leaves the prior's weights to
            # rounding, and alpha = 0 makes both fair-angle branches plain
            # steps. Largest gap measured: 4.4e-13.
            fedavg = dataclasses.replace(base, method="fedavg", eba=EbaConfig(prior="data_ratio"))
            eba = dataclasses.replace(
                base, method="fedeba_plus", alpha=0.0, eba=EbaConfig(tau0=1e12, prior="data_ratio")
            )
            r_avg, x_avg = run_training(federation, fedavg, x0)
            r_eba, x_eba = run_training(federation, eba, x0)
            if name == "blobs-mlp":
                assert {r.branch for r in r_eba} == {"plain", "aligned"}
            for a, b in zip(r_avg, r_eba, strict=True):
                np.testing.assert_allclose(b.weights, a.weights, rtol=1e-11, atol=0)
            np.testing.assert_allclose(x_eba, x_avg, rtol=0, atol=2e-12)


def random_federation(family, m, seed):
    """m clients of 1-6 samples, 3 features and (for classifiers) 3 classes:
    GLR, softmax or tanh-MLP, and a small start model."""
    rng = SeededRng(seed)
    d, classes = 3, 3

    def objective(n):
        feats = rng.normals(n * d).reshape(n, d)
        if family == "glr":
            return GlrObjective(feats, rng.normals(n))
        hidden, act = (4, "tanh") if family == "tanh-mlp" else (0, "identity")
        return ClassifierObjective(feats, rng.integers(n, classes), classes, hidden, act)

    sizes = 1 + rng.integers(m, 6)
    federation = Federation(stack_objectives(objective(int(n)) for n in sizes))
    return federation, 0.1 * rng.normals(federation.dimension)


def random_rounds(method, m, share, local_steps, batch_size, seed):
    """Three rounds of the method with a random cohort size and local SGD."""
    return TrainerConfig(
        rounds=3,
        local_steps=local_steps,
        clients_per_round=1 + int(share * (m - 1)),
        local_lr=0.1,
        batch_size=batch_size,
        method=method,
        seed=seed,
    )


RANDOM_RUNS = dict(
    family=st.sampled_from(["glr", "softmax", "tanh-mlp"]),
    m=st.integers(2, 8),
    share=st.floats(0.0, 1.0),
    local_steps=st.integers(1, 3),
    batch_size=st.sampled_from([None, 2]),
    seed=st.integers(0, 2**32 - 1),
)


@given(**RANDOM_RUNS, lipschitz=st.floats(0.05, 5.0))
@settings(max_examples=50, deadline=None)
def test_criterion_10_zero_power_qffl_is_fedavg_on_random_federations(
    family, m, share, local_steps, batch_size, seed, lipschitz
):
    federation, x0 = random_federation(family, m, seed)
    fedavg = random_rounds("fedavg", m, share, local_steps, batch_size, seed)
    assert_same_runs(
        run_training(federation, qffl_zero_power_twin(fedavg, lipschitz), x0),
        run_training(federation, fedavg, x0),
    )


@given(**RANDOM_RUNS, tau0=st.floats(0.01, 10.0), prior=st.sampled_from(EbaConfig.PRIORS))
@settings(max_examples=50, deadline=None)
def test_criterion_10_inert_fair_angle_gate_on_random_federations(
    family, m, share, local_steps, batch_size, seed, tau0, prior
):
    # alpha = 0: theta = 0 aligns whenever the angle is positive, theta = pi
    # never does, and both train the same models
    federation, x0 = random_federation(family, m, seed)
    base = dataclasses.replace(
        random_rounds("fedeba_plus", m, share, local_steps, batch_size, seed),
        alpha=0.0,
        eba=EbaConfig(tau0=tau0, prior=prior),
    )
    plain = run_training(federation, dataclasses.replace(base, theta=math.pi), x0)
    assert {r.branch for r in plain[0]} == {"plain"}
    gated = run_training(federation, dataclasses.replace(base, theta=0.0), x0)
    assert_same_runs(gated, plain, skip=("branch", "extra_comm"))


@given(**RANDOM_RUNS, theta=st.floats(0.0, math.pi))
@settings(max_examples=50, deadline=None)
def test_criterion_10_hot_entropy_weights_are_fedavg_on_random_federations(
    family, m, share, local_steps, batch_size, seed, theta
):
    # tau0 = 1e12 leaves the data-ratio prior's weights to rounding, at the
    # tolerances of the fixed-config check above
    federation, x0 = random_federation(family, m, seed)
    base = random_rounds("fedavg", m, share, local_steps, batch_size, seed)
    fedavg = dataclasses.replace(base, eba=EbaConfig(prior="data_ratio"))
    eba = dataclasses.replace(
        base,
        method="fedeba_plus",
        alpha=0.0,
        theta=theta,
        eba=EbaConfig(tau0=1e12, prior="data_ratio"),
    )
    r_avg, x_avg = run_training(federation, fedavg, x0)
    r_eba, x_eba = run_training(federation, eba, x0)
    for a, b in zip(r_avg, r_eba, strict=True):
        np.testing.assert_allclose(b.weights, a.weights, rtol=1e-11, atol=0)
    np.testing.assert_allclose(x_eba, x_avg, rtol=0, atol=2e-12)
