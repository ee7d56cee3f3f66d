"""Synthetic dataset generation and non-IID partitioning.

Gaussian blob classification data, label-shard and Dirichlet client splits,
and linear-regression federations with known ground-truth parameters. Every
generator is a pure function of its seed. A partition, and each side of its
train/test split, is a pair ``(indices, counts)``: client i's sorted sample
indices are the ``counts[i]`` entries of ``indices`` after those of clients
0..i-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from entrofed.core import (
    SeededRng, bounded, check_field, check_settings, derive_seeds, one_of, ragged_uniforms,
    row_argsort, setting,
)
from entrofed.objectives import ClassifierObjective, GlrObjective

_LATTICE_SEPARATION = 4.0
_DIRICHLET_RETRIES = 100


class PartitionInfeasibleError(RuntimeError):
    """Raised when a partition cannot satisfy its constraints."""


@dataclass(frozen=True)
class LabeledDataset:
    """n samples (features row-wise) with integer labels in [0, n_classes)."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be a nonempty n x d matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must have one entry per sample")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise ValueError("labels out of range")

    @property
    def n(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class PartitionSpec:
    """How to split a dataset across clients: a config's ``[partition]``.

    mode "shards": label-sorted samples cut into client_count *
    shards_per_client contiguous shards, each client drawing
    shards_per_client of them at random. mode "dirichlet": per class, a
    symmetric Dirichlet(dirichlet_alpha) draw over clients allocates that
    class's samples; allocations leaving any client below
    min_samples_per_client are redrawn.
    """

    mode: str = setting("partition", "dirichlet", one_of("shards", "dirichlet"))
    client_count: int = setting("partition", 20, bounded(1), key="clients")
    shards_per_client: int = setting("partition", 2, bounded(1))
    dirichlet_alpha: float = setting("partition", 0.3, bounded(0.0, open_low=True))
    # at least 1: the train/test split takes no empty client
    min_samples_per_client: int = setting("partition", 1, bounded(1))
    seed: int = 0

    def __post_init__(self):
        check_settings(self)


@dataclass(frozen=True)
class BlobSettings:
    """The ``[data]`` keys of a Gaussian blob federation and its classifier,
    and the share of each client's samples it tests on (``[metrics]``)."""

    classes: int = setting("data", 10, bounded(2))
    per_class: int = setting("data", 200, bounded(1))
    dim: int = setting("data", 8, bounded(1))
    spread: float = setting("data", 1.0, bounded(0.0))
    model: str = setting("data", "softmax", one_of("softmax", "mlp"))
    hidden_units: int = setting("data", 32, bounded(1))
    activation: str = setting("data", "tanh", one_of("tanh", "relu"))
    test_fraction: float = setting("metrics", 0.2, bounded(0.0, 1.0, open_low=True, open_high=True))

    def __post_init__(self):
        check_settings(self)
        if self.model == "mlp" and self.hidden_units > ClassifierObjective.MAX_HIDDEN:
            raise ValueError(f"data.hidden_units must be <= {ClassifierObjective.MAX_HIDDEN}")

    @property
    def layer(self) -> tuple[int, str]:
        """The classifier's hidden width and activation: none for softmax."""
        return (self.hidden_units, self.activation) if self.model == "mlp" else (0, "identity")


@dataclass(frozen=True)
class GlrSettings:
    """The ``[data]`` keys of a linear-regression federation."""

    dimension: int = setting("data", 4, bounded(1), key="glr_dim")
    samples_per_client: int = setting("data", 32, bounded(1))
    design_scale: float = setting("data", 1.0, bounded(0.0, open_low=True))
    noise_std: float = setting("data", 0.1, bounded(0.0))
    param_scale: float = setting("data", 1.0, bounded(0.0))

    def __post_init__(self):
        check_settings(self)


@dataclass(frozen=True)
class GlrFederationSpec:
    """Linear-regression federation with per-client true parameters, one
    client per row of true_params.

    Designs are built with orthonormal columns scaled so that X^T X equals
    samples_per_client * design_scale * I exactly (up to rounding); targets
    are X w_i plus Gaussian noise of standard deviation noise_std, all from
    ``settings``, whose param_scale is for the caller who draws true_params.
    """

    true_params: np.ndarray  # (clients, settings.dimension)
    settings: GlrSettings = GlrSettings()
    seed: int = 0

    def __post_init__(self):
        w = np.asarray(self.true_params, dtype=np.float64)
        if w.ndim != 2 or not len(w) or w.shape[1] != self.settings.dimension:
            raise ValueError("true_params must have shape (clients, dimension), clients >= 1")
        object.__setattr__(self, "true_params", w)


def _lattice_means(classes: int, dim: int) -> np.ndarray:
    """First `classes` points of the integer grid in `dim` dimensions,
    enumerated deterministically and scaled by a fixed separation."""
    side = 1
    while side**dim < classes:
        side += 1
    means = np.zeros((classes, dim))
    for c in range(classes):
        rem = c
        for j in range(dim):
            means[c, j] = rem % side
            rem //= side
    return means * _LATTICE_SEPARATION


def gen_gaussian_blobs(blobs: BlobSettings, seed: int) -> LabeledDataset:
    """Isotropic Gaussian clusters with distinct lattice means, class-major order."""
    rng = SeededRng(seed)
    means = _lattice_means(blobs.classes, blobs.dim)
    n = blobs.classes * blobs.per_class
    # each sample's mean plus its noise, in the noise's array
    features = rng.normals(n * blobs.dim).reshape(n, blobs.dim)
    features *= blobs.spread
    labels = np.repeat(np.arange(blobs.classes, dtype=np.int64), blobs.per_class)
    features += means[labels]
    return LabeledDataset(features, labels, blobs.classes)


def partition_shards(ds: LabeledDataset, spec: PartitionSpec) -> tuple[np.ndarray, np.ndarray]:
    """Label-sorted shard partition; every sample assigned exactly once."""
    m, s = spec.client_count, spec.shards_per_client
    total = m * s
    if ds.n < total:
        raise ValueError(f"{ds.n} samples cannot fill {total} shards")
    order = np.argsort(ds.labels, kind="stable")
    drawn = SeededRng(spec.seed).permutation(total)
    # shard k is np.array_split(order, total)[k]: the first n mod total
    # shards hold one sample more than the rest
    q, r = divmod(ds.n, total)
    lengths = q + (drawn < r)
    starts = drawn * q + np.minimum(drawn, r)
    offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    samples = order[np.arange(ds.n) + offsets]
    # each client's samples in ascending order, by one sort of the key
    # owner * n + sample, as the train/test split sorts its two halves
    owner = np.repeat(np.arange(m).repeat(s), lengths)
    return np.sort(owner * ds.n + samples) % ds.n, lengths.reshape(m, s).sum(axis=1)


def partition_dirichlet(ds: LabeledDataset, spec: PartitionSpec) -> tuple[np.ndarray, np.ndarray]:
    """Class-wise Dirichlet allocation of samples across clients.

    For each class, one symmetric Dirichlet(alpha) draw fixes the client
    proportions and each sample of the class lands in a client by an
    independent categorical draw. Whole allocations are redrawn (at most 100
    times) until every client holds min_samples_per_client samples.
    """
    m = spec.client_count
    rng = SeededRng(spec.seed)
    for _ in range(_DIRICHLET_RETRIES):
        owners = np.empty(ds.n, dtype=np.int64)
        for c in range(ds.n_classes):
            idx = np.flatnonzero(ds.labels == c)
            if idx.size == 0:
                continue
            probs = rng.dirichlet(spec.dirichlet_alpha, m)
            cut = np.cumsum(probs)
            cut[-1] = 1.0
            owners[idx] = np.searchsorted(cut, rng.uniforms(idx.size), side="right")
        counts = np.bincount(owners, minlength=m)
        if counts.min() >= spec.min_samples_per_client:
            return np.argsort(owners, kind="stable"), counts
    raise PartitionInfeasibleError(
        f"no allocation with >= {spec.min_samples_per_client} samples per client "
        f"after {_DIRICHLET_RETRIES} draws"
    )


def partition(ds: LabeledDataset, spec: PartitionSpec) -> tuple[np.ndarray, np.ndarray]:
    if spec.mode == "shards":
        return partition_shards(ds, spec)
    return partition_dirichlet(ds, spec)


def train_test_split_indices(
    assignment: tuple[np.ndarray, np.ndarray], test_fraction: float, rng: SeededRng
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Seeded-shuffle split of every client of a partition at once.

    Client i shuffles its indices by the stream ``rng.derive(i)`` (a stable
    argsort of its uniforms) and puts the first round(test_fraction * n_i)
    of them, at least 1 and at most n_i - 1, in its test set. A
    single-sample client reuses its sample on both sides rather than losing
    its test set. Returns the two sides ``(train, test)``.
    """
    check_field(BlobSettings, "test_fraction", test_fraction)
    indices, sizes = assignment
    if not sizes.all():
        raise ValueError(f"cannot split an empty client: client {sizes.argmin()} has no samples")
    m = sizes.size
    owner = np.repeat(np.arange(m), sizes)
    u = ragged_uniforms(derive_seeds(rng.seed, np.arange(m)), sizes)
    shuffled = indices[row_argsort(u, sizes)]
    rank = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    n_test = np.minimum(np.maximum(1, np.rint(test_fraction * sizes).astype(np.int64)), sizes - 1)
    in_test = rank < n_test[owner]
    # a single-sample client (n_test 0) puts its sample on both sides
    train, test = ~in_test, in_test | (sizes == 1)[owner]
    # both halves sorted by one sort, train clients first, then test: a
    # client's indices are distinct, so key * n + index orders them all
    keys = np.concatenate([owner[train], owner[test] + m])
    values = np.concatenate([shuffled[train], shuffled[test]])
    n = int(values.max()) + 1
    values = np.sort(keys * n + values) % n
    n_train = sizes - n_test
    cut = int(n_train.sum())
    return (values[:cut], n_train), (values[cut:], np.maximum(n_test, 1))


def gen_glr_federation(spec: GlrFederationSpec) -> list[GlrObjective]:
    """Per-client regression objectives with X^T X = n * b * I designs; the
    spec holds their ground truth."""
    glr = spec.settings
    n, d = glr.samples_per_client, glr.dimension
    if d > n:
        raise ValueError("dimension cannot exceed samples_per_client (rank condition)")
    rng = SeededRng(spec.seed)
    objectives = []
    for i, w in enumerate(spec.true_params):
        client_rng = rng.derive(1, i)
        raw = client_rng.normals(n * d).reshape(n, d)
        q, _ = np.linalg.qr(raw)
        design = q * np.sqrt(n * glr.design_scale)
        noise = glr.noise_std * client_rng.normals(n)
        targets = design @ w + noise
        objectives.append(GlrObjective(design, targets))
    return objectives


def write_partition_csv(path, assignment: tuple[np.ndarray, np.ndarray], labels) -> None:
    """Serialize a partition as `client_id,sample_index,label` rows."""
    indices, counts = assignment
    owners = np.repeat(np.arange(len(counts)), counts).tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# schema=partition-v1\n")
        fh.write("client_id,sample_index,label\n")
        for cid, j, label in zip(owners, indices.tolist(), np.asarray(labels)[indices].tolist()):
            fh.write(f"{cid},{j},{label}\n")
