"""Pinned outputs: `entrofed run` on fixed configs must reproduce the
checked-in round CSVs and summary byte for byte.

The files under ``tests/golden/<name>/`` were written by earlier code:
``blobs-mlp`` and ``glr-qffl`` before per-round telemetry moved to stacked
evaluation, ``fedavg-ratio`` and ``eba-ratio-linear`` before the three
methods' rounds merged into one, ``mlp-cohort`` before local SGD trained
the sampled cohort in one batched pass per step. Together they cover every
method, both priors, both fair-angle branches, a cooling temperature, and
minibatches of clients with fewer, as many and more samples than the batch
size. Any change in
summation order that moves a printed digit shows up here as a diff against
them, not merely as a difference between two reruns of the same code.
"""

from pathlib import Path

import pytest

from entrofed.harness import build_federation, main, parse_config

GOLDEN = Path(__file__).parent / "golden"
CASES = ("blobs-mlp", "glr-qffl", "fedavg-ratio", "eba-ratio-linear", "mlp-cohort")


@pytest.mark.parametrize("name", CASES)
def test_run_reproduces_golden_files(name, tmp_path, monkeypatch):
    case = GOLDEN / name
    monkeypatch.setenv("ENTROFED_OUTPUT_DIR", str(tmp_path))
    assert main(["run", "--config", str(case / "config.cfg")]) == 0
    expected = sorted(p.name for p in case.iterdir() if p.name != "config.cfg")
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for fname in expected:
        got = (tmp_path / fname).read_text(encoding="utf-8").splitlines()
        want = (case / fname).read_text(encoding="utf-8").splitlines()
        diff = [(i + 1, w, g) for i, (w, g) in enumerate(zip(want, got)) if w != g]
        assert len(got) == len(want) and not diff, f"{name}/{fname} moved: {diff[:5]}"


def test_blob_golden_config_has_unequal_and_single_sample_clients():
    cfg = parse_config(GOLDEN / "blobs-mlp" / "config.cfg")
    for seed in cfg.seeds:
        federation, _ = build_federation(cfg, seed)
        sizes = federation.train.sizes.tolist()
        assert min(sizes) == 1
        assert max(sizes) >= 10


def test_eba_golden_rounds_visit_both_branches():
    for name in ("eba-ratio-linear", "mlp-cohort"):
        for csv in sorted((GOLDEN / name).glob("rounds_seed*.csv")):
            rows = csv.read_text(encoding="utf-8").splitlines()[2:]
            assert {row.split(",")[3] for row in rows} == {"plain", "aligned"}, (name, csv.name)


def test_cohort_golden_config_spans_the_batch_size():
    # Clients below, at and above the batch size, some of them with a
    # ragged last batch; the local steps outlast one epoch of the clients
    # above it.
    cfg = parse_config(GOLDEN / "mlp-cohort" / "config.cfg")
    batch = cfg.trainer.batch_size
    blobs = cfg.blobs
    assert blobs.model == "mlp" and blobs.activation == "relu" and blobs.hidden_units == 32
    for seed in cfg.seeds:
        federation, _ = build_federation(cfg, seed)
        sizes = federation.train.sizes.tolist()
        assert min(sizes) < batch and batch in sizes
        assert any(n > batch and n % batch for n in sizes)
        assert cfg.trainer.local_steps > max(n // batch for n in sizes)
