#!/usr/bin/env python3
"""Label-shard versus Dirichlet client splits, side by side.

Generates a balanced 5-class blob dataset, partitions it both ways, and
prints each client's label histogram as a small ASCII bar chart so the
heterogeneity is visible at a glance.
"""

import numpy as np

from entrofed.datagen import (
    BlobSettings,
    PartitionSpec,
    gen_gaussian_blobs,
    partition_dirichlet,
    partition_shards,
)

CLASSES = 5


def bars(hist):
    return " ".join(f"{c}:{'#' * int(round(10 * v)):<10}" for c, v in enumerate(hist))


def describe(name, ds, assignment):
    indices, counts = assignment
    owners = np.repeat(np.arange(counts.size), counts)
    hists = np.bincount(owners * CLASSES + ds.labels[indices], minlength=counts.size * CLASSES)
    print(f"\n{name}")
    for cid, (n, hist) in enumerate(zip(counts.tolist(), hists.reshape(-1, CLASSES))):
        labels = np.count_nonzero(hist)
        print(f"  client {cid} ({n:>4} samples, {labels} labels) {bars(hist / max(1, n))}")


def main():
    ds = gen_gaussian_blobs(BlobSettings(CLASSES, per_class=400, dim=2, spread=1.0), seed=7)
    print(f"Dataset: {ds.n} samples, {CLASSES} balanced classes")

    shard_spec = PartitionSpec("shards", client_count=5, shards_per_client=2, seed=1)
    describe("Shard split (2 label shards per client):", ds, partition_shards(ds, shard_spec))

    for alpha in (1000.0, 0.1):
        spec = PartitionSpec(
            "dirichlet",
            client_count=5,
            dirichlet_alpha=alpha,
            min_samples_per_client=10,
            seed=2,
        )
        describe(f"Dirichlet split, alpha={alpha}:", ds, partition_dirichlet(ds, spec))

    print("\nLarge alpha reproduces the global label mix on every client;")
    print("small alpha hands each client a few dominant classes.")


if __name__ == "__main__":
    main()
