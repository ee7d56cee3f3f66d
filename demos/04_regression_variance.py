#!/usr/bin/env python3
"""Variance of per-client test losses under different aggregation weights.

Uses the linear-regression federation where everything is analytic: client
i's test loss grows with ||w_agg - w_i||^2, so the spread of those squared
distances is the fairness story. Entropy weights tilt the aggregate toward
far-away clients. Whether that lowers the variance depends on the
temperature. In this draw, at tau = 10 the weights stay near uniform and both
variances fall just below uniform's (1.543 and 1.547 against 1.577). At
tau = 2 only the weighted variance does (1.187), while the unweighted one
rises (1.721). At tau = 0.5 nearly all the weight lands on the farthest
client, and both rise far above uniform's. So the weights lower the
unweighted variance only near uniform, the weighted one down to a moderate
temperature, and neither once they concentrate on one client.

The two-client check holds the squared distances A fixed, as it computes
them. Once A moves with the aggregate, two clients can lose too.
"""

import numpy as np

from entrofed.aggregation import eba_weights, uniform_weights
from entrofed.analysis import RegressionOracleSetup, regression_variance_oracle
from entrofed.core import SeededRng

CLIENTS, DIM, SCALE = 6, 3, 2.0


def main():
    rng = SeededRng(42)
    w = rng.normals(CLIENTS * DIM).reshape(CLIENTS, DIM)

    uniform = RegressionOracleSetup(w, SCALE, uniform_weights(CLIENTS))
    diff = uniform.aggregate[None, :] - w
    sq_dist = np.einsum("ij,ij->i", diff, diff)
    losses = 0.5 * SCALE * sq_dist  # per-client test loss, up to a shared offset

    print("Squared distances to the uniform aggregate per client:")
    print("  " + "  ".join(f"{a:.3f}" for a in sq_dist))

    print("\n tau | entropy weights (rounded)          | var      | weighted var")
    for tau in (10.0, 2.0, 0.5):
        p = eba_weights(losses, tau)
        setup = RegressionOracleSetup(w, SCALE, p)
        print(
            f"{tau:4} | "
            + " ".join(f"{x:.3f}" for x in p)
            + f" | {regression_variance_oracle(setup):.5f}"
            + f" | {regression_variance_oracle(setup, weighted=True):.5f}"
        )
    base = regression_variance_oracle(uniform)
    base_w = regression_variance_oracle(uniform, weighted=True)
    print(f"unif | {'0.167 ' * CLIENTS}| {base:.5f} | {base_w:.5f}")

    print("\nTwo-client sanity check: weighted variance is p1*p2*(A1-A2)^2,")
    print("and p1*p2 peaks at the uniform 1/4, so entropy weights can only")
    print("shrink it:")
    a = np.array([1.0, 4.0])
    for tau in (5.0, 1.0, 0.25):
        p = eba_weights(a, tau)
        print(
            f"  tau={tau:>4}: p={p.round(4).tolist()}  "
            f"p1*p2={p[0] * p[1]:.4f}  weighted var={p[0] * p[1] * 9:.4f}"
        )


if __name__ == "__main__":
    main()
