"""Deterministic numerical primitives.

Seeded randomness, simplex weight vectors, temperature softmax, Shannon
entropy, chi-square divergence, and the fair-angle computation. All functions
operate on 1-D float64 numpy arrays and are pure; :class:`SeededRng` is the
only stateful object and must not be shared across concurrent tasks. Last,
the declaration of config settings that the settings' dataclasses share.
"""

from __future__ import annotations

import functools
import math
from dataclasses import field, fields

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
    """Vectorized splitmix64 finalizer; uint64 arithmetic wraps mod 2**64.
    A uint64 input is mixed in place, through one scratch array."""
    z = z.astype(np.uint64, copy=False)
    shifted = z >> np.uint64(30)
    with np.errstate(over="ignore"):
        z ^= shifted
        z *= np.uint64(_MIX1)
        z ^= np.right_shift(z, np.uint64(27), out=shifted)
        z *= np.uint64(_MIX2)
        z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def _unit_interval(raw: np.ndarray, open_low: bool = False) -> np.ndarray:
    """The top 53 bits of each 64-bit output as a double on [0, 1), or one
    step of 2**-53 higher, on (0, 1], if ``open_low``. Shifts ``raw`` in
    place."""
    raw >>= np.uint64(11)
    out = raw.astype(np.float64)
    if open_low:
        out += 1.0
    out *= 2.0**-53
    return out


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
        states = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        with np.errstate(over="ignore"):
            states *= np.uint64(_GOLDEN)
            states += np.uint64(self.seed)
        return _mix64_array(states)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1)."""
        return _unit_interval(self._raw(n))

    def uniforms_open(self, n: int) -> np.ndarray:
        """n doubles uniform on (0, 1]; safe as a log() argument."""
        return _unit_interval(self._raw(n), open_low=True)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return low + (high - low) * float(self.uniforms(1)[0])

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller (one per pair of uniforms):
        sqrt(-2 log u1) * cos(2 pi u2), computed in the two draws' arrays."""
        radius = self.uniforms_open(n)
        angle = self.uniforms(n)
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle *= 2.0 * np.pi
        np.cos(angle, out=angle)
        radius *= angle
        return radius

    def integers(self, n: int, upper: int) -> np.ndarray:
        """n ints uniform on [0, upper). Floor-of-uniform; the O(2^-53)
        modulo bias is irrelevant at simulation scale."""
        if upper <= 0:
            raise ValueError("upper must be positive")
        return np.minimum((self.uniforms(n) * upper).astype(np.int64), upper - 1)

    def permutation(self, n: int) -> np.ndarray:
        """Random permutation of range(n): the stable argsort of n uniforms."""
        return row_argsort(self.uniforms(n), [n])

    def shuffled(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        return values[self.permutation(len(values))]

    def sample_without_replacement(self, m: int, k: int) -> np.ndarray:
        """k distinct ints from range(m), sorted ascending: the first k of
        ``permutation(m)``, from the same m draws."""
        if not 0 <= k <= m:
            raise ValueError(f"cannot sample {k} from {m}")
        return _smallest(self.uniforms(m), k)

    def gammas(self, shape: float, n: int) -> np.ndarray:
        """n gamma(shape, 1) variates via Marsaglia-Tsang squeeze."""
        # at a non-finite shape every candidate's acceptance test is NaN
        if not (math.isfinite(shape) and shape > 0):
            raise ValueError(f"shape must be finite and positive, got {shape}")
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


# Rows that row_argsort sorts at once: a key holds a row's index above a
# uniform's 53 bits, and an int64 has 10 bits to spare.
_KEY_ROWS = 2**10


def row_argsort(u: np.ndarray, counts) -> np.ndarray:
    """``np.lexsort((u, row))`` for the rows of ``counts[i]`` consecutive
    entries of ``u``: each row's stable argsort, offset by the row's start.

    ``u`` holds multiples of 2**-53 on [0, 1), as every uniform draw here
    does. Each is exactly its 53-bit integer, so one stable argsort of
    int64 keys, the row's index above those 53 bits, sorts ``_KEY_ROWS``
    rows at a time; each chunk's keys give way to their argsort.
    """
    counts = np.asarray(counts, dtype=np.int64)
    keys = np.empty(u.shape, dtype=np.int64)
    np.multiply(u, 2.0**53, out=keys, casting="unsafe")
    keys |= np.repeat((np.arange(counts.size) % _KEY_ROWS) << 53, counts)
    bounds = [*(np.cumsum(counts) - counts)[::_KEY_ROWS].tolist(), keys.size]
    for a, b in zip(bounds, bounds[1:]):
        np.add(np.argsort(keys[a:b], kind="stable"), a, out=keys[a:b])
    return keys


def _smallest(values: np.ndarray, k: int) -> np.ndarray:
    """The ascending positions of the k smallest of ``values``, the lowest
    positions first among ties: those of ``np.sort(np.argsort(values,
    kind="stable")[:k])``, for values without NaN, by selection, not by a
    sort of all of them. Every value up to the k-th smallest is taken, less
    the highest-positioned of those equal to it if they are too many."""
    if k == 0:
        return np.arange(0)
    threshold = np.partition(values, k - 1)[k - 1]
    taken = np.flatnonzero(values <= threshold)
    if taken.size > k:
        ties = np.flatnonzero(values[taken] == threshold)
        taken = np.delete(taken, ties[k - (taken.size - ties.size) :])
    return taken


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
    # 1-based index of every draw within its own stream, then its counter
    states = np.arange(1, int(counts.sum()) + 1, dtype=np.uint64)
    states -= np.repeat(starts.astype(np.uint64), counts)
    with np.errstate(over="ignore"):
        states *= np.uint64(_GOLDEN)
        states += np.repeat(seeds, counts)
    return _unit_interval(_mix64_array(states))


def next_uniforms(rngs, counts) -> np.ndarray:
    """The next ``counts[i]`` draws of ``rngs[i].uniforms`` for every i,
    concatenated in stream order, from one :func:`ragged_uniforms` pass.
    Advances each generator as that ``uniforms`` call would."""
    counts = np.asarray(counts, dtype=np.int64)
    # a stream that has made c draws goes on as the fresh stream whose
    # seed lies c steps of the counter further
    seeds = [(rng.seed + rng._count * _GOLDEN) & _MASK64 for rng in rngs]
    out = ragged_uniforms(np.array(seeds, dtype=np.uint64), counts)
    for rng, n in zip(rngs, counts.tolist(), strict=True):
        rng._count += n
    return out


def _as_floats(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D array")
    if not np.isfinite(arr).all():
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
    in [0, pi/2]. It is zero when the rounded cosine is 1, which equal losses
    need not give: near a cosine of 1, arccos resolves no angle below about
    sqrt(machine epsilon), so equal or near-equal losses give either 0 or
    about 1e-8, never their true angle (20 equal losses of log 10 give
    2.58e-8; 5 losses of 1.0 give 2.1e-8). The all-zero vector has no
    direction and is rejected. The angle is scale-free, so a vector whose
    largest loss lies outside [2**-500, 2**500], where the squares in the
    norm would overflow or underflow, is first divided by that loss.
    """
    arr = _as_floats(losses, "losses")
    if (arr < 0.0).any():
        raise ValueError("losses must be nonnegative")
    peak = arr.max()
    if peak > 0.0 and not 2.0**-500 <= peak <= 2.0**500:
        arr = arr / peak
    norm = math.sqrt(arr.dot(arr))  # np.linalg.norm's dot and square root
    if norm == 0.0:
        raise ValueError("angle undefined for an all-zero loss vector")
    cosine = arr.sum() / (norm * math.sqrt(arr.size))
    return math.acos(min(1.0, max(-1.0, cosine)))


# --- config settings ------------------------------------------------------


def setting(section: str, default, check, key: str | None = None, unit=None):
    """A dataclass field that a config file sets as ``key = value`` under
    ``[section]`` (the key is the field's name unless given). ``unit``, if
    given, is the pair of maps from the file's value to the field's and
    back. ``check``, given the value as the file gives it, raises a
    ValueError saying what is wrong with it; ``None`` checks nothing."""
    meta = {"section": section, "key": key, "check": check, "unit": unit}
    return field(default=default, metadata=meta)


@functools.cache
def _checked(cls) -> tuple:
    return tuple(f for f in fields(cls) if f.metadata.get("check"))


# what a setting of each integer type holds, as a config file gives it
_WHOLE = {"int": "an integer", "int | None": "an integer or None", "tuple[int, ...]": "integers"}


def _whole(kind: str, value) -> bool:
    """Whether a setting of annotated type ``kind`` holds integers where
    its type says so: a bool or a float that is whole is none."""
    if kind == "tuple[int, ...]":
        return isinstance(value, tuple) and all(_whole("int", v) for v in value)
    if kind == "int" or (kind == "int | None" and value is not None):
        return isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return True


def check_setting(kind: str, check, value) -> None:
    """Check that ``value``, a setting of type ``kind`` in a config file's
    unit, holds the integers its type says, then run ``check`` on it."""
    if not _whole(kind, value):
        raise ValueError(f"must be {_WHOLE[kind]}, got {value!r}")
    if check is not None:
        check(value)


def check_field(cls, name: str, value) -> None:
    """:func:`check_setting` on ``value`` as the setting ``name`` of dataclass
    ``cls``; the ValueError names the field (as its key, if in another unit)."""
    f = cls.__dataclass_fields__[name]
    check, unit = f.metadata["check"], f.metadata["unit"]
    try:
        check_setting(f.type, check, value if unit is None else unit[1](value))
    except ValueError as exc:
        where = name if unit is None else f"{name} as {f.metadata['key']}"
        raise ValueError(f"{where} {exc}") from None


def check_settings(obj) -> None:
    """:func:`check_field` on each setting of the dataclass ``obj``."""
    for f in _checked(type(obj)):
        check_field(type(obj), f.name, getattr(obj, f.name))


def bounded(low=None, high=None, open_low=False, open_high=False):
    """Checker of a finite number within [low, high]; either bound may be
    open or absent."""

    def check(v) -> None:
        if not math.isfinite(v):
            raise ValueError(f"must be finite, got {v}")
        above = low is None or (v > low if open_low else v >= low)
        below = high is None or (v < high if open_high else v <= high)
        if above and below:
            return
        if high is None:
            raise ValueError(f"must be {'>' if open_low else '>='} {low}, got {v}")
        left, right = "(" if open_low else "[", ")" if open_high else "]"
        raise ValueError(f"must be within {left}{low}, {high}{right}, got {v}")

    return check


def one_of(*options):
    """Checker of a value among ``options``."""

    def check(v) -> None:
        if v not in options:
            raise ValueError(f"must be one of {options}, got {v!r}")

    return check


def or_none(check):
    """``check``, with None also allowed."""
    return lambda v: v is None or check(v)
