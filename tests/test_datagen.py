"""Dataset generation and client partitioning."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from entrofed.core import SeededRng
from entrofed.datagen import (
    BlobSettings,
    GlrFederationSpec,
    GlrSettings,
    LabeledDataset,
    PartitionInfeasibleError,
    PartitionSpec,
    _lattice_means,
    gen_gaussian_blobs,
    gen_glr_federation,
    partition_dirichlet,
    partition_shards,
    train_test_split_indices,
    write_partition_csv,
)
from entrofed.objectives import glr_least_squares


def assert_is_partition(assignment, n):
    indices, counts = assignment
    assert counts.dtype == np.int64 and counts.sum() == len(indices) == n
    assert np.array_equal(np.sort(indices), np.arange(n))


def per_client(assignment):
    """A partition or split side (indices, counts) as one index array per
    client."""
    indices, counts = assignment
    return np.split(indices, np.cumsum(counts)[:-1])


def label_histogram(labels, idx, n_classes):
    return np.bincount(labels[idx], minlength=n_classes) / len(idx)


class TestBlobs:
    def test_balanced_construction(self):
        ds = gen_gaussian_blobs(BlobSettings(2, 10, 2, 1.0), seed=0)
        assert ds.n == 20
        assert set(ds.labels.tolist()) == {0, 1}
        assert np.bincount(ds.labels).tolist() == [10, 10]

    def test_determinism(self):
        a = gen_gaussian_blobs(BlobSettings(3, 7, 4, 0.5), seed=9)
        b = gen_gaussian_blobs(BlobSettings(3, 7, 4, 0.5), seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_zero_spread_collapses_to_means(self):
        ds = gen_gaussian_blobs(BlobSettings(4, 5, 3, 0.0), seed=1)
        for c in range(4):
            block = ds.features[ds.labels == c]
            assert np.all(block == block[0])
        means = {tuple(ds.features[ds.labels == c][0]) for c in range(4)}
        assert len(means) == 4  # distinct lattice means

    @pytest.mark.parametrize(
        "classes,per_class,dim,spread",
        [(2, 1, 1, 1.0), (3, 1, 2, 0.3), (2, 5, 3, 0.0), (10, 1000, 8, 1.7)],
    )
    def test_features_are_the_means_plus_scaled_noise(self, classes, per_class, dim, spread):
        # the expression the features had before they were built in the
        # noise's array: 2, 6, 30 and 80000 draws
        ds = gen_gaussian_blobs(BlobSettings(classes, per_class, dim, spread), seed=6)
        n = classes * per_class
        noise = SeededRng(6).normals(n * dim).reshape(n, dim) * spread
        want = _lattice_means(classes, dim)[ds.labels] + noise
        assert ds.features.tobytes() == want.tobytes()

    def test_all_finite(self):
        ds = gen_gaussian_blobs(BlobSettings(5, 20, 6, 3.0), seed=2)
        assert np.all(np.isfinite(ds.features))

    def test_rejects_dim_zero(self):
        # no lattice of dimension 0 holds 3 distinct means: the search for
        # its side never ended
        with pytest.raises(ValueError, match="dim must be >= 1"):
            gen_gaussian_blobs(BlobSettings(3, 10, 0, 1.0), 0)


class TestShardPartition:
    def test_single_shard_clients_cover_everything(self):
        ds = gen_gaussian_blobs(BlobSettings(2, 8, 2, 1.0), seed=3)
        spec = PartitionSpec("shards", client_count=2, shards_per_client=1, seed=4)
        assignment = partition_shards(ds, spec)
        assert_is_partition(assignment, ds.n)
        for idx in per_client(assignment):
            assert len(set(ds.labels[idx])) == 1  # one contiguous label run each

    def test_two_shards_bound_label_diversity(self):
        # 100 clients x 2 shards over a 200-shard split of balanced labels.
        ds = gen_gaussian_blobs(BlobSettings(10, 200, 2, 1.0), seed=5)
        spec = PartitionSpec("shards", client_count=100, shards_per_client=2, seed=6)
        assignment = partition_shards(ds, spec)
        assert_is_partition(assignment, ds.n)
        for idx in per_client(assignment):
            assert len(set(ds.labels[idx].tolist())) <= 2

    def test_determinism(self):
        ds = gen_gaussian_blobs(BlobSettings(4, 25, 2, 1.0), seed=7)
        spec = PartitionSpec("shards", client_count=10, shards_per_client=2, seed=8)
        a = partition_shards(ds, spec)
        b = partition_shards(ds, spec)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_infeasible_when_samples_run_out(self):
        ds = gen_gaussian_blobs(BlobSettings(2, 3, 2, 1.0), seed=9)
        spec = PartitionSpec("shards", client_count=4, shards_per_client=2, seed=0)
        with pytest.raises(ValueError, match="shards"):
            partition_shards(ds, spec)

    @given(
        classes=st.integers(2, 5),
        per_class=st.integers(1, 60),
        clients=st.integers(1, 40),
        shards=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 2**32),
    )
    @example(classes=3, per_class=1, clients=1, shards=2, seed=0)  # n = m s + 1
    @example(classes=5, per_class=3, clients=7, shards=2, seed=1)  # one-sample shards
    @settings(max_examples=200, deadline=None)
    def test_uneven_shards_match_array_split(self, classes, per_class, clients, shards, seed):
        ds = gen_gaussian_blobs(BlobSettings(classes, per_class, 1, 1.0), seed=seed)
        total = clients * shards
        assume(ds.n >= total and ds.n % total)
        spec = PartitionSpec("shards", client_count=clients, shards_per_client=shards, seed=seed)
        # the per-client formula the partition had before it gathered by index
        cut = np.array_split(np.argsort(ds.labels, kind="stable"), total)
        drawn = SeededRng(seed).permutation(total)
        expected = [
            np.sort(np.concatenate([cut[k] for k in drawn[i * shards : (i + 1) * shards]]))
            for i in range(clients)
        ]
        got = per_client(partition_shards(ds, spec))
        assert len(got) == clients
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestDirichletPartition:
    def test_is_partition(self):
        ds = gen_gaussian_blobs(BlobSettings(5, 40, 2, 1.0), seed=10)
        spec = PartitionSpec("dirichlet", client_count=8, dirichlet_alpha=0.5, seed=11)
        assignment = partition_dirichlet(ds, spec)
        assert_is_partition(assignment, ds.n)

    def test_determinism(self):
        ds = gen_gaussian_blobs(BlobSettings(5, 40, 2, 1.0), seed=10)
        spec = PartitionSpec("dirichlet", client_count=8, dirichlet_alpha=0.3, seed=12)
        a = partition_dirichlet(ds, spec)
        b = partition_dirichlet(ds, spec)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_huge_alpha_matches_global_histogram(self):
        # Near-uniform allocation: every client's label histogram within 10%
        # relative deviation of the global one, checked over 5 seeds.
        global_hist = np.full(4, 0.25)
        for seed in range(5):
            ds = gen_gaussian_blobs(BlobSettings(4, 2500, 2, 1.0), seed=100 + seed)
            spec = PartitionSpec(
                "dirichlet", client_count=5, dirichlet_alpha=1e6, seed=200 + seed
            )
            for idx in per_client(partition_dirichlet(ds, spec)):
                hist = label_histogram(ds.labels, idx, 4)
                assert np.abs(hist - global_hist).max() <= 0.1 * global_hist.max()

    def test_small_alpha_skews_label_distributions(self):
        def mean_entropy(alpha, seed):
            ds = gen_gaussian_blobs(BlobSettings(4, 500, 2, 1.0), seed=300 + seed)
            spec = PartitionSpec(
                "dirichlet",
                client_count=10,
                dirichlet_alpha=alpha,
                min_samples_per_client=1,
                seed=400 + seed,
            )
            ents = []
            for idx in per_client(partition_dirichlet(ds, spec)):
                hist = label_histogram(ds.labels, idx, 4)
                nz = hist > 0
                ents.append(float(-(hist[nz] * np.log(hist[nz])).sum()))
            return np.mean(ents)

        skewed = np.mean([mean_entropy(0.1, s) for s in range(5)])
        flat = np.mean([mean_entropy(1e6, s) for s in range(5)])
        assert skewed < flat

    def test_min_samples_enforced(self):
        ds = gen_gaussian_blobs(BlobSettings(4, 250, 2, 1.0), seed=13)
        spec = PartitionSpec(
            "dirichlet", client_count=6, dirichlet_alpha=0.2, min_samples_per_client=5, seed=14
        )
        _, counts = partition_dirichlet(ds, spec)
        assert counts.min() >= 5

    def test_retry_budget_exhaustion(self):
        ds = gen_gaussian_blobs(BlobSettings(2, 5, 2, 1.0), seed=15)
        spec = PartitionSpec(
            "dirichlet",
            client_count=5,
            dirichlet_alpha=0.05,
            min_samples_per_client=2,  # 10 samples cannot give 5 skewed clients 2 each reliably
            seed=16,
        )
        with pytest.raises(PartitionInfeasibleError):
            partition_dirichlet(ds, spec)

    def test_a_class_without_samples_takes_no_draw(self):
        # class 2 of 4 holds no sample: it is skipped without a Dirichlet
        # draw, so the partition is that of the same samples labelled 0, 1
        # and 2 out of 3 classes
        labels = SeededRng(17).integers(60, 3)
        features = np.zeros((60, 2))
        spec = PartitionSpec("dirichlet", client_count=4, dirichlet_alpha=0.5, seed=18)
        got = partition_dirichlet(LabeledDataset(features, np.where(labels == 2, 3, labels), 4), spec)
        want = partition_dirichlet(LabeledDataset(features, labels, 3), spec)
        assert_is_partition(got, 60)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want, strict=True))


def split_one_client(indices, test_fraction, rng):
    """The per-client split that train_test_split_indices does for every
    client at once, kept as its reference."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 1:
        return indices, indices
    shuffled = indices[np.argsort(rng.uniforms(indices.size), kind="stable")]
    n_test = max(1, int(round(test_fraction * indices.size)))
    n_test = min(n_test, indices.size - 1)
    return np.sort(shuffled[n_test:]), np.sort(shuffled[:n_test])


class TestTrainTestSplit:
    def test_eighty_twenty(self):
        rng = SeededRng(17)
        assignment = (np.arange(10), np.array([10]))
        (train, n_train), (test, n_test) = train_test_split_indices(assignment, 0.2, rng)
        assert n_train.tolist() == [8] and n_test.tolist() == [2]
        assert_is_partition((np.concatenate([train, test]), n_train + n_test), 10)

    def test_single_sample_client_reuses_it(self):
        assignment = (np.array([5, 1, 2]), np.array([1, 2]))
        train, test = train_test_split_indices(assignment, 0.2, SeededRng(0))
        (lone_train, pair_train), (lone_test, pair_test) = per_client(train), per_client(test)
        assert lone_train.tolist() == [5] and lone_test.tolist() == [5]
        assert len(pair_train) == len(pair_test) == 1
        assert sorted([*pair_train, *pair_test]) == [1, 2]

    def test_deterministic(self):
        assignment = (np.concatenate([np.arange(40, 90), np.arange(7)]), np.array([50, 7]))
        a = train_test_split_indices(assignment, 0.2, SeededRng(3))
        b = train_test_split_indices(assignment, 0.2, SeededRng(3))
        for x, y in zip(a, b):
            assert np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1])

    def test_rejects_empty_client_and_bad_fraction(self):
        with pytest.raises(ValueError, match="^cannot split an empty client: client 2 has no"):
            train_test_split_indices((np.arange(5), np.array([3, 2, 0, 0])), 0.2, SeededRng(0))
        with pytest.raises(ValueError, match="test_fraction"):
            train_test_split_indices((np.arange(3), np.array([3])), 1.0, SeededRng(0))

    @given(
        sizes=st.lists(st.integers(1, 40) | st.sampled_from([1, 2]), min_size=1, max_size=60),
        seed=st.integers(0, 2**64 - 1),
        # products that fall half-way (0.25 * 2, 0.5 * 5, 0.3 * 5) round to even
        test_fraction=st.sampled_from([0.25, 0.5, 0.3]) | st.floats(0.01, 0.99),
    )
    @example(sizes=[1, 2, 5, 5, 6], seed=0, test_fraction=0.25)
    @example(sizes=[5, 2, 1, 10], seed=7, test_fraction=0.5)
    @example(sizes=[5, 5, 1, 40], seed=2**64 - 1, test_fraction=0.3)
    @settings(max_examples=200, deadline=None)
    def test_matches_per_client_reference(self, sizes, seed, test_fraction):
        # unsorted, disjoint clients, as a partition of range(sum(sizes))
        assignment = (SeededRng(seed ^ 1).permutation(sum(sizes)), np.array(sizes))
        root = SeededRng(seed)
        train, test = train_test_split_indices(assignment, test_fraction, root)
        got = list(zip(per_client(train), per_client(test)))
        assert len(got) == len(sizes)
        for cid, (idx, (tr, te)) in enumerate(zip(per_client(assignment), got)):
            ref_tr, ref_te = split_one_client(idx, test_fraction, root.derive(cid))
            assert tr.dtype == np.int64 and te.dtype == np.int64
            assert np.array_equal(tr, ref_tr) and np.array_equal(te, ref_te)


class TestGlrFederation:
    def _spec(self, w, noise=0.0, seed=0, n=16, b=2.0):
        w = np.asarray(w, dtype=np.float64)
        glr = GlrSettings(w.shape[1], n, design_scale=b, noise_std=noise)
        return GlrFederationSpec(w, glr, seed)

    def test_design_gram_structure(self):
        rng = SeededRng(18)
        w = rng.normals(12).reshape(3, 4)
        objs = gen_glr_federation(self._spec(w, n=20, b=3.0))
        for obj in objs:
            gram = obj.design.T @ obj.design
            target = 20 * 3.0 * np.eye(4)
            assert np.abs(gram - target).max() < 1e-6 * 20 * 3.0

    def test_noiseless_recovery(self):
        rng = SeededRng(19)
        w = rng.normals(8).reshape(2, 4)
        spec = self._spec(w, noise=0.0, seed=5)
        objs = gen_glr_federation(spec)
        for obj, w_true in zip(objs, spec.true_params, strict=True):
            assert np.abs(glr_least_squares(obj) - w_true).max() < 1e-8

    def test_rank_condition(self):
        w = np.zeros((2, 5))
        with pytest.raises(ValueError, match="rank"):
            gen_glr_federation(
                GlrFederationSpec(w, GlrSettings(dimension=5, samples_per_client=3))
            )

    def test_one_client_per_row_of_true_params(self):
        glr = GlrSettings(dimension=4, samples_per_client=6)
        assert len(gen_glr_federation(GlrFederationSpec(np.zeros((3, 4)), glr))) == 3
        for shape in [(0, 4), (4,), (3, 5), (1, 3, 4)]:
            with pytest.raises(ValueError, match=r"shape \(clients, dimension\), clients >= 1"):
                GlrFederationSpec(np.zeros(shape), glr)

    def test_determinism(self):
        rng = SeededRng(20)
        w = rng.normals(6).reshape(2, 3)
        a = gen_glr_federation(self._spec(w, noise=0.5, seed=21))
        b = gen_glr_federation(self._spec(w, noise=0.5, seed=21))
        for x, y in zip(a, b):
            assert np.array_equal(x.design, y.design)
            assert np.array_equal(x.targets, y.targets)


def per_client_csv(assignment, labels):
    """The partition CSV as a loop over each client's indices: the writer
    before partitions became one (indices, counts) pair."""
    lines = ["# schema=partition-v1", "client_id,sample_index,label"]
    for cid, idx in enumerate(per_client(assignment)):
        lines += [f"{cid},{int(j)},{int(labels[j])}" for j in idx]
    return "".join(line + "\n" for line in lines).encode()


class TestPartitionCsv:
    @pytest.mark.parametrize("mode", ["shards", "dirichlet"])
    def test_matches_a_per_client_loop(self, tmp_path, mode):
        ds = gen_gaussian_blobs(BlobSettings(4, 30, 2, 1.0), seed=24)
        spec = PartitionSpec(mode, client_count=7, shards_per_client=3, dirichlet_alpha=0.3, seed=25)
        assignment = partition_shards(ds, spec) if mode == "shards" else partition_dirichlet(ds, spec)
        path = tmp_path / "partition.csv"
        write_partition_csv(path, assignment, ds.labels)
        assert path.read_bytes() == per_client_csv(assignment, ds.labels)

    def test_round_trip_and_determinism(self, tmp_path):
        ds = gen_gaussian_blobs(BlobSettings(3, 20, 2, 1.0), seed=22)
        spec = PartitionSpec("shards", client_count=4, shards_per_client=3, seed=23)
        assignment = partition_shards(ds, spec)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_partition_csv(p1, assignment, ds.labels)
        write_partition_csv(p2, assignment, ds.labels)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "# schema=partition-v1"
        assert lines[1] == "client_id,sample_index,label"
        assert len(lines) == 2 + ds.n
        seen = sorted(int(line.split(",")[1]) for line in lines[2:])
        assert seen == list(range(ds.n))
