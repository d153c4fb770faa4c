"""Piecewise-linear curves on a uniform grid over [0, 1].

Everything downstream (Lorenz operators, iteration, risk measures) works with
nondecreasing piecewise-linear interpolants stored as their values at the
nodes k/M; the constructor checks that they are nondecreasing, and nothing
writes into them afterwards. The nodes themselves are one read-only array
per M, shared by every curve of that size: `curve.grid` cannot be written
into, and a caller that needs its own copy takes one. The three primitive
operations are evaluation, the generalized inverse

    f^{-1}(u) = inf { y : f(y) >= u },

which returns the left endpoint of a flat segment, and the exact prefix
integral of the interpolant. All three are vectorized.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    BadParameter,
    EmptySample,
    NonFinite,
    NonMonotone,
    OutOfDomain,
    OutOfRange,
    ParseError,
)
from .rng import exp_array, normal_inverse_cdf_array

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

DEFAULT_GRID = 4096

_ENDPOINT_TOL = 1e-12

# Grid sizes kept alive at once; a run uses one or two.
_GRID_CACHE_SIZE = 8


def format_float(x: float) -> str:
    """Shortest 17-significant-digit form, stable across runs."""
    return format(float(x), ".17g")


def _as_scalar_or_array(result: np.ndarray, scalar_input: bool):
    # callers run atleast_1d first, so a scalar input yields shape (1,)
    return float(result[0]) if scalar_input else result


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _shared_grid(m: int) -> np.ndarray:
    grid = np.linspace(0.0, 1.0, m + 1)
    grid.flags.writeable = False
    return grid


def _uniform_grid(grid_size: int) -> np.ndarray:
    """The nodes k/M, k = 0..M, of the uniform grid with M = grid_size >= 1.

    One read-only array per M is shared by every caller.
    """
    m = int(grid_size)
    if m < 1:
        raise BadParameter("grid_size must be at least 1")
    return _shared_grid(m)


def _nondecreasing(a: np.ndarray) -> bool:
    # False for NaN, which compares false both ways
    return bool(np.all(a[1:] >= a[:-1]))


def _sorted_searchsorted(nodes: np.ndarray, targets: np.ndarray, side: str) -> np.ndarray:
    """np.searchsorted(nodes, targets, side) for 1-d nodes, bit for bit.

    When the targets are 1-d and both arrays are nondecreasing, the targets
    are merged into the nodes by one stable sort of their concatenation,
    which finds two sorted runs and merges them in linear time instead of
    searching every target. Ties keep the side's order: a 'left' target
    goes before the nodes equal to it, a 'right' one after them, so a
    target's index is its merged position minus its own rank. Anything else
    takes the binary search, including nodes that rounding left a hair out
    of order, where only the search defines the answer.
    """
    if targets.ndim != 1 or not (_nondecreasing(targets) and _nondecreasing(nodes)):
        return np.searchsorted(nodes, targets, side=side)
    n = targets.size
    if side == "left":
        order = np.argsort(np.concatenate([targets, nodes]), kind="stable")
        merged = np.flatnonzero(order < n)
    else:
        order = np.argsort(np.concatenate([nodes, targets]), kind="stable")
        merged = np.flatnonzero(order >= nodes.size)
    return merged - np.arange(n)


def _sample(samples) -> np.ndarray:
    """samples as a 1-d float array; any other shape is BadParameter."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise BadParameter("samples must be one-dimensional")
    return x


def _sorted_sample(x: np.ndarray) -> np.ndarray:
    if not np.isfinite(x).all():
        raise NonFinite("samples must be finite")
    return np.sort(x)


def _unit_points(x, what: str) -> tuple[np.ndarray, bool]:
    """x clipped to [0, 1] as a 1-d array, and whether x is a scalar; NaN is OutOfDomain."""
    x_arr = np.asarray(x, dtype=float)
    if not np.all((x_arr >= -_ENDPOINT_TOL) & (x_arr <= 1.0 + _ENDPOINT_TOL)):
        raise OutOfDomain(f"{what} outside [0, 1]")
    return np.clip(np.atleast_1d(x_arr), 0.0, 1.0), x_arr.ndim == 0


@dataclass(frozen=True, eq=False)
class MonotoneCurve:
    """Nondecreasing piecewise-linear function sampled at k/M, k = 0..M."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        self._validate()

    def _validate(self):
        values = self.values
        if values.ndim != 1 or values.size < 2:
            raise BadParameter("a curve needs a 1-d array of at least two node values")
        if not np.isfinite(values).all():
            raise NonFinite("curve values must be finite")
        if np.any(np.diff(values) < 0.0):
            raise NonMonotone("curve values must be nondecreasing")

    @property
    def grid_size(self) -> int:
        """M: the number of segments."""
        return self.values.size - 1

    @property
    def grid(self) -> np.ndarray:
        """The nodes k/M: the read-only array shared by every curve of size M."""
        return _uniform_grid(self.grid_size)

    @cached_property
    def _prefix(self) -> np.ndarray:
        # Exact trapezoid prefix integral at the nodes.
        v = self.values
        h = 1.0 / self.grid_size
        seg = 0.5 * h * (v[1:] + v[:-1])
        out = np.empty_like(v)
        out[0] = 0.0
        np.cumsum(seg, out=out[1:])
        return out

    def evaluate(self, x):
        """Interpolated value at x (scalar or array); domain is [0, 1]."""
        x_arr, scalar = _unit_points(x, "evaluation point")
        out = np.interp(x_arr, self.grid, self.values)
        return _as_scalar_or_array(out, scalar)

    def __call__(self, x):
        return self.evaluate(x)

    def generalized_inverse(self, u, clamp: bool = False):
        """inf { y : f(y) >= u }; flat segments map to their left endpoint.

        With clamp=True, u below f(0) maps to 0 and u above f(1) maps to 1;
        otherwise such u raise OutOfRange.
        """
        v = self.values
        u_arr = np.asarray(u, dtype=float)
        scalar = u_arr.ndim == 0
        u_arr = np.atleast_1d(u_arr)
        if np.isnan(u_arr).any() or not clamp and (np.any(u_arr < v[0]) or np.any(u_arr > v[-1])):
            raise OutOfRange("inverse argument outside the curve's range")
        u_clip = np.clip(u_arr, v[0], v[-1])
        # First node index k with v[k] >= u; 'left' guarantees v[k-1] < u.
        k = _sorted_searchsorted(v, u_clip, "left")
        h = 1.0 / self.grid_size
        out = np.zeros_like(u_clip)
        interior = k > 0
        ki = k[interior]
        lo = v[ki - 1]
        hi = v[ki]
        frac = (u_clip[interior] - lo) / (hi - lo)
        out[interior] = ((ki - 1) + frac) * h
        return _as_scalar_or_array(out, scalar)

    def prefix_integral(self, x):
        """Exact integral of the interpolant over [0, x]."""
        x_arr, scalar = _unit_points(x, "integration endpoint")
        m = self.grid_size
        pos = x_arr * m
        k = np.minimum(pos.astype(int), m - 1)
        t = (pos - k) / m  # length of the partial segment
        left = self.values[k]
        at_x = np.interp(x_arr, self.grid, self.values)
        out = self._prefix[k] + 0.5 * t * (left + at_x)
        return _as_scalar_or_array(out, scalar)

    @property
    def total_integral(self) -> float:
        return float(self._prefix[-1])


@dataclass(frozen=True, eq=False)
class QuantileCurve(MonotoneCurve):
    """A quantile function sampled on the uniform grid."""

    @property
    def mean(self) -> float:
        return self.total_integral


# -- empirical and analytic quantile curves -----------------------------------


def empirical_quantile(samples, grid_size: int = DEFAULT_GRID) -> QuantileCurve:
    """Order-statistic quantile Q(p) = x_(ceil(p n)) sampled at the grid nodes.

    Q(0) is the sample minimum. The ceiling is taken in exact integer
    arithmetic, so node k picks order statistic ceil(k*n/M) with no float
    edge cases.
    """
    x = _sample(samples)
    if x.size == 0:
        raise EmptySample("empirical quantile of an empty sample")
    x = _sorted_sample(x)
    n = x.size
    m = _uniform_grid(grid_size).size - 1  # checks grid_size
    ks = np.arange(1, m + 1, dtype=np.int64)
    idx = -((-ks * n) // m)  # ceil(k*n/m)
    values = np.empty(m + 1)
    values[0] = x[0]
    values[1:] = x[idx - 1]
    return QuantileCurve(values)


@dataclass(frozen=True)
class AnalyticFamily:
    """A named quantile family with closed-form Q(p)."""

    kind: str
    params: tuple = ()

    @classmethod
    def uniform01(cls):
        return cls("uniform01")

    @classmethod
    def power(cls, a: float):
        if not a > 0.0:
            raise BadParameter("power family needs a > 0")
        return cls("power", (float(a),))

    @classmethod
    def kumaraswamy_limit(cls):
        """Distribution whose c.d.f. is 1-(1-x)^phi on [0, 1]."""
        return cls("kumaraswamy_limit")

    @classmethod
    def pareto(cls, scale: float, shape: float):
        if not scale > 0.0:
            raise BadParameter("pareto scale must be positive")
        if not shape > 1.0:
            raise BadParameter("pareto shape must exceed 1 for a finite mean")
        return cls("pareto", (float(scale), float(shape)))

    @classmethod
    def lognormal(cls, mean: float, sd: float):
        """Parameterized by the mean and standard deviation of the variable."""
        if not mean > 0.0 or not sd > 0.0:
            raise BadParameter("lognormal needs positive mean and sd")
        return cls("lognormal", (float(mean), float(sd)))

    @classmethod
    def lognormal_logscale(cls, mu: float, sigma: float):
        """Parameterized by the mean and sd of the underlying normal."""
        if not sigma > 0.0:
            raise BadParameter("lognormal needs positive sigma")
        mean = math.exp(mu + 0.5 * sigma * sigma)
        sd = mean * math.sqrt(math.expm1(sigma * sigma))
        return cls("lognormal", (mean, sd))

    @classmethod
    def point_mass(cls, c: float):
        if not math.isfinite(c):
            raise BadParameter("point mass location must be finite")
        return cls("point_mass", (float(c),))

    def quantile(self, p):
        """Q(p) for p in [0, 1]; may be +inf at p = 1 for heavy tails."""
        p_arr = np.asarray(p, dtype=float)
        scalar = p_arr.ndim == 0
        p_arr = np.atleast_1d(p_arr)
        if self.kind == "uniform01":
            out = p_arr.copy()
        elif self.kind == "power":
            (a,) = self.params
            out = p_arr ** (1.0 / a)
        elif self.kind == "kumaraswamy_limit":
            out = 1.0 - (1.0 - p_arr) ** GOLDEN
        elif self.kind == "pareto":
            scale, shape = self.params
            with np.errstate(divide="ignore"):
                out = scale * (1.0 - p_arr) ** (-1.0 / shape)
        elif self.kind == "lognormal":
            mean, sd = self.params
            sigma2 = math.log1p((sd / mean) ** 2)
            sigma = math.sqrt(sigma2)
            mu = math.log(mean) - 0.5 * sigma2
            out = np.where(p_arr <= 0.0, 0.0, math.inf)
            # NaN stays inside, so the inverse rejects it
            inside = ~((p_arr <= 0.0) | (p_arr >= 1.0))
            z = normal_inverse_cdf_array(p_arr[inside])
            out[inside] = exp_array(mu + sigma * z)
        elif self.kind == "point_mass":
            (c,) = self.params
            out = np.full_like(p_arr, c)
        else:
            raise BadParameter(f"unknown analytic family {self.kind!r}")
        return _as_scalar_or_array(out, scalar)

    @property
    def mean(self) -> float:
        if self.kind == "uniform01":
            return 0.5
        if self.kind == "power":
            (a,) = self.params
            return a / (a + 1.0)
        if self.kind == "kumaraswamy_limit":
            # integral of 1 - (1-p)^phi over [0, 1]: phi/(1+phi) = phi - 1
            return GOLDEN - 1.0
        if self.kind == "pareto":
            scale, shape = self.params
            return scale * shape / (shape - 1.0)
        if self.kind == "lognormal":
            return self.params[0]
        if self.kind == "point_mass":
            return self.params[0]
        raise BadParameter(f"unknown analytic family {self.kind!r}")


def analytic_quantile(family: AnalyticFamily, grid_size: int = DEFAULT_GRID) -> QuantileCurve:
    """Sample a closed-form quantile on the grid.

    An infinite top node Q(1) (pareto, lognormal) is replaced by
    Q(1 - 1/(2M)).
    """
    m = int(grid_size)
    if m < 2:
        raise BadParameter("grid_size must be at least 2")
    ps = _uniform_grid(m)
    values = np.asarray(family.quantile(ps), dtype=float)
    if values[-1] == math.inf:
        values[-1] = family.quantile(1.0 - 0.5 / m)
    return QuantileCurve(values)


# -- CSV round trip ------------------------------------------------------------


@contextmanager
def _open_text(path):
    """`path` open for reading as UTF-8 text, with csv's newline handling; a
    byte that is not UTF-8 is a ParseError naming the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})"
        ) from exc


def write_curve_csv(curve: MonotoneCurve, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "value"])
        for u, v in zip(curve.grid, curve.values):
            writer.writerow([format_float(u), format_float(v)])


def read_curve_csv(path) -> MonotoneCurve:
    """Read a 'u,value' curve file; every rejection is a ParseError."""
    us, vs, linenos = [], [], []
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["u", "value"]:
            raise ParseError(f"{path}:1: expected a 'u,value' header")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                u, v = float(row[0]), float(row[1])
            except (ValueError, IndexError) as exc:
                raise ParseError(f"{path}:{lineno}: malformed row ({exc})") from exc
            if not (math.isfinite(u) and math.isfinite(v)):
                raise ParseError(f"{path}:{lineno}: non-finite value in {row!r}")
            us.append(u)
            vs.append(v)
            linenos.append(lineno)
    if len(us) < 2:
        raise ParseError(f"{path}: a curve file needs at least two rows")
    grid = _uniform_grid(len(us) - 1)
    off_grid = np.flatnonzero(np.abs(np.array(us) - grid) > 1e-9)
    if off_grid.size:
        raise ParseError(
            f"{path}:{linenos[off_grid[0]]}: u is not the uniform grid on [0, 1]"
        )
    drops = np.flatnonzero(np.diff(vs) < 0.0)
    if drops.size:
        raise ParseError(f"{path}:{linenos[drops[0] + 1]}: value decreases")
    return MonotoneCurve(np.array(vs))
