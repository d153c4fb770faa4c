"""Deterministic random numbers and normal-distribution helpers.

The generator is xoshiro256++ seeded through splitmix64, implemented directly
on 64-bit integer arithmetic so that streams are reproducible bit for bit on
any platform, independent of numpy's generator versioning. Substreams are
derived from a (seed, index) pair, which lets a simulation assign one
independent stream per row: row i of an n-row run does not change when n does.

The inverse normal c.d.f. is the classic rational approximation with fixed
coefficients, sharpened by one Halley step against math.erfc. The refined
value is accurate to about 1e-15 absolute, comfortably below the 1e-9 the
rest of the package assumes. Below p of about 1e-310 the step's
exp(x**2 / 2) would overflow, and the approximation is returned unrefined.

Two implementations give the same bits. The scalar one (`Xoshiro256pp`,
`normal_inverse_cdf`, `normal_cdf`) is the reference. The array one
(`substream_states`, `normals_from_states`, `normal_inverse_cdf_array`,
`normal_cdf_array`) runs every substream at once:

- splitmix64 and xoshiro256++ run on numpy `uint64` arrays, where wrapping
  `* ^ << >>` are exact. Every operand is cast to `np.uint64` explicitly,
  because numpy 1.x promotes `uint64` mixed with a Python int to float64.
- `normal()` redraws when its uniform is exactly 0 (probability 2**-53 per
  draw). A row that hits this is recomputed by the scalar generator from
  its starting state, so its stream stays in step with the reference.
- The inverse uses the same coefficients, branches and Halley step in numpy
  arithmetic (`+ - * / sqrt` are correctly rounded in both), in two parts
  that can run apart: `acklam_array` (the rational value) and
  `halley_step_array`. Their `log`, `exp` and `erfc` go through `math`
  element by element: numpy's own `log` and `exp` are not correctly rounded
  and differ from `math` on some inputs. Each element is passed to `math`
  as a Python float from `tolist()`, and `np.fromiter` collects the results
  in the input's shape, with no object array in between; a domain or range
  error raises as the scalar call does.

`normal_tail_array` is the one function here that is not bit-equal to a
scalar one: Numerical Recipes' erfcc in numpy arithmetic, numpy's `exp`
included, with a published fractional error below 1.2e-7. The copula uses
it with that bound to skip the exact path where the bound settles a rank.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_MASK64 = (1 << 64) - 1

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64_mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def splitmix64_stream(seed: int, count: int) -> list[int]:
    """First `count` outputs of splitmix64 for the given seed."""
    state = seed & _MASK64
    out = []
    for _ in range(count):
        state = (state + _SPLITMIX_GAMMA) & _MASK64
        out.append(_splitmix64_mix(state))
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256pp:
    """xoshiro256++ with splitmix64 state expansion."""

    def __init__(self, seed: int):
        # Four distinct splitmix64 states (its increment is odd) through a
        # bijection: at most one output is 0, never the invalid all-zero state.
        self._s = splitmix64_stream(seed, 4)

    @classmethod
    def from_state(cls, state: list[int]) -> "Xoshiro256pp":
        rng = cls.__new__(cls)
        rng._s = [w & _MASK64 for w in state]
        if not any(rng._s):  # the all-zero state is invalid
            rng._s = [1, 2, 3, 4]
        return rng

    @classmethod
    def substream(cls, seed: int, index: int) -> "Xoshiro256pp":
        """Independent stream for (seed, index), stable in the index."""
        mixed = _splitmix64_mix((seed ^ (index * _SPLITMIX_GAMMA)) & _MASK64)
        return cls(mixed)

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s0 + s3) & _MASK64, 23) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def normal(self) -> float:
        """Standard normal via inversion (keeps substreams synchronized)."""
        # random() can return exactly 0, which inversion rejects.
        u = self.random()
        while u <= 0.0:
            u = self.random()
        return normal_inverse_cdf(u)


# -- normal distribution ------------------------------------------------------

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Rational-approximation coefficients (central region and tails). These are
# fixed by value on purpose: results must not drift with library versions.
_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)

_P_LOW = 0.02425
# exp(y) is finite exactly for y <= _LOG_MAX
_LOG_MAX = math.log(sys.float_info.max)


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def _acklam(p: float) -> float:
    # lower half only: normal_inverse_cdf reflects p > 0.5 first
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return (
            ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (
        (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5])
        * q
        / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
    )


def normal_inverse_cdf(p: float) -> float:
    """Inverse standard normal c.d.f., |error| near machine precision."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p!r}")
    if p > 0.5:
        # 1 - p is exact here, and the lower tail is where erfc (and hence
        # the Halley correction) keeps full relative accuracy
        return -normal_inverse_cdf(1.0 - p)
    x = _acklam(p)
    if 0.5 * x * x > _LOG_MAX:
        # exp(x**2 / 2) overflows (p below about 1e-310): keep Acklam's value
        return x
    # One Halley step against the exact c.d.f.
    err = normal_cdf(x) - p
    u = err * _SQRT_2PI * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


# -- every substream at once ----------------------------------------------------

_U64 = np.uint64


def _splitmix64_mix_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def _rotl_array(x: np.ndarray, k: int) -> np.ndarray:
    return (x << _U64(k)) | (x >> _U64(64 - k))


def substream_states(seed: int, rows) -> np.ndarray:
    """(4, len(rows)) uint64: column r is the state that
    `Xoshiro256pp.substream(seed, rows[r])` starts from."""
    index = np.asarray(rows, dtype=_U64)
    state = _U64(seed & _MASK64) ^ (index * _U64(_SPLITMIX_GAMMA))
    state = _splitmix64_mix_array(state)
    words = np.empty((4,) + index.shape, dtype=_U64)
    for k in range(4):
        state = state + _U64(_SPLITMIX_GAMMA)
        words[k] = _splitmix64_mix_array(state)
    # splitmix64 is a bijection on consecutive states, so no column is all
    # zero and the scalar constructor's guard never applies here
    return words


def next_u64_array(states: np.ndarray) -> np.ndarray:
    """Advance every column of `states` in place; return the outputs."""
    s0, s1, s2, s3 = states
    result = _rotl_array(s0 + s3, 23) + s0
    t = s1 << _U64(17)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    states[3] = _rotl_array(s3, 45)
    return result


def uniforms_from_states(states: np.ndarray, count: int) -> np.ndarray:
    """(columns, count) array: row r holds the first `count` `random()` draws
    of `Xoshiro256pp.from_state(states[:, r])`. `states` is not modified."""
    work = np.array(states, dtype=_U64)
    u = np.empty((work.shape[1], count))
    for k in range(count):
        u[:, k] = (next_u64_array(work) >> _U64(11)).astype(float) * 2.0**-53
    return u


def normals_from_states(states: np.ndarray, count: int) -> np.ndarray:
    """(columns, count) array: row r holds the first `count` `normal()` draws
    of `Xoshiro256pp.from_state(states[:, r])`. `states` is not modified."""
    u = uniforms_from_states(states, count)
    redraw = np.flatnonzero((u == 0.0).any(axis=1))
    u[redraw] = 0.5
    out = normal_inverse_cdf_array(u)
    for r in redraw:
        rng = Xoshiro256pp.from_state([int(w) for w in states[:, r]])
        out[r] = [rng.normal() for _ in range(count)]
    return out


def _via_math(fn):
    # one `math` call per element: the array results equal the scalar ones
    def apply(x):
        x = np.asarray(x, dtype=float)
        return np.fromiter(map(fn, x.ravel().tolist()), float, count=x.size).reshape(x.shape)

    return apply


_log = _via_math(math.log)
_erfc = _via_math(math.erfc)
exp_array = _via_math(math.exp)


def normal_cdf_array(x) -> np.ndarray:
    """`normal_cdf` element by element, bit for bit."""
    return 0.5 * _erfc(-np.asarray(x, dtype=float) / _SQRT2)


# Numerical Recipes' erfcc (Press et al., Numerical Recipes in C, 2nd ed.,
# 1992, section 6.2), lowest order first: a Chebyshev fit whose fractional
# error they bound below 1.2e-7 for every argument
_ERFCC = (
    -1.26551223,
    1.00002368,
    0.37409196,
    0.09678418,
    -0.18628806,
    0.27886807,
    -1.13520398,
    1.48851587,
    -0.82215223,
    0.17087277,
)


def normal_tail_array(x) -> np.ndarray:
    """Phi(-|x|) = 0.5 * erfc(|x| / sqrt(2)) element by element, from erfcc in
    numpy arithmetic: fractional error below 1.2e-7, and not bit-equal to
    `normal_cdf`."""
    a = np.abs(np.asarray(x, dtype=float)) / _SQRT2
    t = 1.0 / (1.0 + 0.5 * a)
    poly = _ERFCC[-1] * t
    for c in _ERFCC[-2:0:-1]:
        poly = (poly + c) * t
    return 0.5 * t * np.exp(poly + _ERFCC[0] - a * a)


def acklam_array(p) -> np.ndarray:
    """The scalar inverse's rational value before its Halley step, element by
    element and bit for bit, for every p in (0, 1). Acklam bounds its
    relative error, |x0 / x - 1|, below 1.15e-9 (in exact arithmetic)."""
    p = np.asarray(p, dtype=float)
    # 1 - p is exact on the upper half, which then takes the lower branch of
    # the scalar function and the sign of p - 0.5
    q = np.minimum(p, 1.0 - p)
    # the central branch on every element (each value is its own), then the
    # few tail elements overwritten
    r = q - 0.5
    rr = r * r
    x = np.asarray(
        (((((_A[0] * rr + _A[1]) * rr + _A[2]) * rr + _A[3]) * rr + _A[4]) * rr + _A[5])
        * r
        / (((((_B[0] * rr + _B[1]) * rr + _B[2]) * rr + _B[3]) * rr + _B[4]) * rr + 1.0)
    )
    tail = q < _P_LOW
    t = np.sqrt(-2.0 * _log(q[tail]))
    x[tail] = (
        ((((_C[0] * t + _C[1]) * t + _C[2]) * t + _C[3]) * t + _C[4]) * t + _C[5]
    ) / ((((_D[0] * t + _D[1]) * t + _D[2]) * t + _D[3]) * t + 1.0)
    return np.copysign(x, p - 0.5)


def halley_step_array(x0, p) -> np.ndarray:
    """The scalar inverse's Halley step from `x0 = acklam_array(p)`, element
    by element and bit for bit."""
    p = np.asarray(p, dtype=float)
    # x0 has the sign of p - 0.5, so -|x0| is the lower half's value
    x = np.asarray(-np.abs(x0))
    q = np.minimum(p, 1.0 - p)
    halley = 0.5 * x * x <= _LOG_MAX
    xh = x[halley]
    err = normal_cdf_array(xh) - q[halley]
    u = err * _SQRT_2PI * exp_array(0.5 * xh * xh)
    x[halley] = xh - u / (1.0 + 0.5 * xh * u)
    return np.copysign(x, p - 0.5)


def normal_inverse_cdf_array(p) -> np.ndarray:
    """`normal_inverse_cdf` element by element, bit for bit; raises the same
    ValueError for the first value outside (0, 1)."""
    p = np.asarray(p, dtype=float)
    bad = ~((p > 0.0) & (p < 1.0))
    if bad.any():
        normal_inverse_cdf(float(p[bad].flat[0]))
    return halley_step_array(acklam_array(p), p)
