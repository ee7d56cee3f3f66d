"""Deterministic numerical primitives.

Seeded randomness, simplex weight vectors, temperature softmax, Shannon
entropy, chi-square divergence, and the fair-angle computation. All functions
operate on 1-D float64 numpy arrays and are pure; :class:`SeededRng` is the
only stateful object and must not be shared across concurrent tasks.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# |sum(p) - 1| tolerated for a valid weight vector.
SIMPLEX_ATOL = 1e-9


def _mix64(z: int) -> int:
    """splitmix64 finalizer on python ints (mod 2**64)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer; uint64 arithmetic wraps mod 2**64."""
    z = z.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
    return z


def _unit_interval(raw: np.ndarray) -> np.ndarray:
    """The top 53 bits of each 64-bit output as a double on [0, 1)."""
    return (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53


class SeededRng:
    """Counter-based splitmix64 generator.

    The i-th 64-bit output is ``mix64(seed + i * GOLDEN)``, so the stream is
    a pure function of (seed, draw index): identical seeds give identical
    draws on every platform, and batches of draws can be produced with
    vectorized uint64 arithmetic.

    ``derive(*keys)`` builds a child generator whose seed depends only on the
    parent *seed* (not on how much of the parent stream was consumed), which
    keeps derivation trees stable no matter the call order. Instances are
    single-owner: never share one across concurrent tasks.
    """

    __slots__ = ("seed", "_count")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._count = 0

    def derive(self, *keys: int) -> "SeededRng":
        s = self.seed
        for k in keys:
            s = _mix64(((s + _GOLDEN) & _MASK64) ^ (int(k) & _MASK64))
        return SeededRng(s)

    def next_u64(self) -> int:
        self._count += 1
        return _mix64((self.seed + self._count * _GOLDEN) & _MASK64)

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        with np.errstate(over="ignore"):
            states = np.uint64(self.seed) + idx * np.uint64(_GOLDEN)
        return _mix64_array(states)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1)."""
        return _unit_interval(self._raw(n))

    def uniforms_open(self, n: int) -> np.ndarray:
        """n doubles uniform on (0, 1]; safe as a log() argument."""
        return ((self._raw(n) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return low + (high - low) * float(self.uniforms(1)[0])

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller (one per pair of uniforms)."""
        u1 = self.uniforms_open(n)
        u2 = self.uniforms(n)
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def integers(self, n: int, upper: int) -> np.ndarray:
        """n ints uniform on [0, upper). Floor-of-uniform; the O(2^-53)
        modulo bias is irrelevant at simulation scale."""
        if upper <= 0:
            raise ValueError("upper must be positive")
        return np.minimum((self.uniforms(n) * upper).astype(np.int64), upper - 1)

    def permutation(self, n: int) -> np.ndarray:
        """Random permutation of range(n) by sorting a uniform draw."""
        return np.argsort(self.uniforms(n), kind="stable")

    def shuffled(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        return values[self.permutation(len(values))]

    def sample_without_replacement(self, m: int, k: int) -> np.ndarray:
        """k distinct ints from range(m), sorted ascending."""
        if not 0 <= k <= m:
            raise ValueError(f"cannot sample {k} from {m}")
        return np.sort(self.permutation(m)[:k])

    def gammas(self, shape: float, n: int) -> np.ndarray:
        """n gamma(shape, 1) variates via Marsaglia-Tsang squeeze."""
        if shape <= 0:
            raise ValueError("shape must be positive")
        if shape < 1.0:
            # boost: gamma(a) = gamma(a+1) * U^(1/a)
            g = self.gammas(shape + 1.0, n)
            u = self.uniforms_open(n)
            return g * u ** (1.0 / shape)
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        out = np.empty(n, dtype=np.float64)
        todo = np.arange(n)
        while todo.size:
            x = self.normals(todo.size)
            v = (1.0 + c * x) ** 3
            u = self.uniforms_open(todo.size)
            ok = (v > 0) & (np.log(u) < 0.5 * x * x + d - d * v + d * np.log(np.where(v > 0, v, 1.0)))
            out[todo[ok]] = d * v[ok]
            todo = todo[~ok]
        return out

    def dirichlet(self, alpha: float, m: int) -> np.ndarray:
        """One draw from the symmetric Dirichlet(alpha * ones(m))."""
        g = self.gammas(float(alpha), m)
        total = g.sum()
        if total <= 0.0:  # all gammas underflowed (tiny alpha); pick one corner
            out = np.zeros(m)
            out[int(self.integers(1, m)[0])] = 1.0
            return out
        return g / total


def derive_seeds(seed: int, keys) -> np.ndarray:
    """``SeededRng(seed).derive(k).seed`` for every key k, as uint64.

    Takes a seed, not a generator, and advances none. Signed keys are taken
    mod 2**64, as ``derive`` takes them; keys of 2**63 and up need a uint64
    array.
    """
    keys = np.asarray(keys)
    # numpy makes floats of a list mixing ints below and above 2**63
    if keys.dtype.kind not in "iu":
        raise ValueError("keys must be an integer array")
    base = np.uint64(((int(seed) & _MASK64) + _GOLDEN) & _MASK64)
    return _mix64_array(base ^ keys.astype(np.uint64))


def ragged_uniforms(seeds: np.ndarray, counts) -> np.ndarray:
    """The first ``counts[i]`` draws of ``SeededRng(seeds[i]).uniforms`` for
    every i, concatenated in stream order, from one vectorized pass.

    Takes seeds, not generators, and advances none.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    counts = np.asarray(counts, dtype=np.int64)
    if seeds.ndim != 1 or counts.shape != seeds.shape:
        raise ValueError("seeds and counts must be 1-D arrays of one length")
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    starts = np.cumsum(counts) - counts
    # 1-based index of every draw within its own stream
    draw = np.arange(1, int(counts.sum()) + 1, dtype=np.int64) - np.repeat(starts, counts)
    with np.errstate(over="ignore"):
        states = np.repeat(seeds, counts) + draw.astype(np.uint64) * np.uint64(_GOLDEN)
    return _unit_interval(_mix64_array(states))


def _as_floats(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


def validate_simplex(p, atol: float = SIMPLEX_ATOL) -> np.ndarray:
    """Check the weight-vector invariants: entries >= 0, sum within atol of 1."""
    arr = _as_floats(p, "weights")
    if np.any(arr < 0.0):
        raise ValueError("weights must be nonnegative")
    if abs(arr.sum() - 1.0) > atol:
        raise ValueError(f"weights sum to {arr.sum()!r}, not 1 within {atol}")
    return arr


def softmax_temperature(values, tau: float, prior=None) -> np.ndarray:
    """Temperature softmax p_i = q_i exp(v_i / tau) / sum_j q_j exp(v_j / tau),
    with q_i = 1 when no prior is given.

    Computed in the max-subtracted form, so weights are overflow-free for
    large values or small tau and exactly shift-invariant in real
    arithmetic. In real arithmetic every weight is positive and, without a
    prior, a higher input gets a strictly higher weight; tau -> inf flattens
    toward the prior, tau -> 0+ concentrates on the argmax. Prior entries
    must be strictly positive (the relative-entropy form is undefined at a
    zero prior); a uniform prior cancels in real arithmetic.

    float64 contract. With exponents e_i = (v_i - max v) / tau, plus log q_i
    with a prior whose entries lie in (0, 1] (any normalized prior), and n
    entries:

    * every entry with e_i >= log(finfo.tiny) ~ -708.40 is strictly positive;
    * an entry is exactly 0 only when e_i < log(2**-1074) + log(n)
      ~ -744.44 + log(n), i.e. only when its true weight is at most the
      smallest subnormal; 0 is then the correctly rounded weight;
    * without a prior, order is never reversed (v_i < v_j gives p_i <= p_j),
      and it is strict between entries whose exponents are >= log(finfo.tiny)
      and differ by more than rounding error.

    So strict positivity can fail only once (max - min) / tau, less log q_i,
    exceeds ~708: a small prior entry underflows sooner. Where q_i exp(...)
    falls below finfo.tiny the product loses low bits, so an entry that the
    prior-free softmax keeps at a subnormal value may come out 0 under a
    uniform prior.
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    arr = _as_floats(values, "values")
    z = np.exp((arr - arr.max()) / tau)
    if prior is not None:
        q = _as_floats(prior, "prior")
        if q.shape != arr.shape:
            raise ValueError("prior and values must have the same length")
        if np.any(q <= 0.0):
            raise ValueError("prior entries must be strictly positive")
        z = q * z
    return z / z.sum()


def entropy(p) -> float:
    """Shannon entropy -sum p_i ln p_i with the 0 ln 0 = 0 convention."""
    arr = validate_simplex(p)
    nz = arr > 0.0
    return float(-np.sum(arr[nz] * np.log(arr[nz])))


def chi_square_divergence(w, p) -> float:
    """Chi-square divergence sum_i (w_i - p_i)^2 / p_i.

    Argument order matters: the second argument sits in the denominator and
    must be strictly positive. Zero iff the vectors are equal.
    """
    w_arr = _as_floats(w, "w")
    p_arr = _as_floats(p, "p")
    if w_arr.shape != p_arr.shape:
        raise ValueError("w and p must have the same length")
    if np.any(p_arr <= 0.0):
        raise ValueError("denominator weights must be strictly positive")
    d = w_arr - p_arr
    return float(np.sum(d * d / p_arr))


def fair_angle(losses) -> float:
    """Angle (radians) between the loss vector and the all-ones direction.

    arccos(<L, 1> / (||L|| * ||1||)). For nonnegative losses the result lies
    in [0, pi/2]; zero iff all losses are equal. The all-zero vector has no
    direction and is rejected.
    """
    arr = _as_floats(losses, "losses")
    if np.any(arr < 0.0):
        raise ValueError("losses must be nonnegative")
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValueError("angle undefined for an all-zero loss vector")
    cosine = arr.sum() / (norm * math.sqrt(arr.size))
    return math.acos(min(1.0, max(-1.0, cosine)))
