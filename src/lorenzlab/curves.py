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
from datetime import date
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


def _trapezoid_prefix(width, v: np.ndarray) -> np.ndarray:
    """Integrals from the first node to each node of the polyline with node
    values v and cell widths `width` (a scalar or one per cell)."""
    out = np.empty_like(v)
    out[0] = 0.0
    np.cumsum(0.5 * width * (v[1:] + v[:-1]), out=out[1:])
    return out


def _nondecreasing(a: np.ndarray) -> bool:
    # False for NaN, which compares false both ways
    return bool((a[1:] >= a[:-1]).all())


def _sorted_searchsorted(
    nodes: np.ndarray, targets: np.ndarray, side: str, guess: np.ndarray | None = None
) -> np.ndarray:
    """np.searchsorted(nodes, targets, side) for 1-d nodes, bit for bit.

    `guess` is an optional index per target, such as the cells the same
    search found the last time. It is trusted only when the nodes are
    nondecreasing, and then checked exactly for each target: k is the
    'left' answer iff nodes[k-1] < t <= nodes[k], and the 'right' one iff
    nodes[k-1] <= t < nodes[k], with the nodes taken as -inf before the
    first and +inf after the last. Targets that miss are searched again when
    they are few; when more miss, the guess is dropped.

    Without a usable guess, 1-d nondecreasing targets are merged into
    nondecreasing nodes by one stable sort of their concatenation, which
    finds two sorted runs and merges them in linear time instead of
    searching every target. Ties keep the side's order: a 'left' target
    goes before the nodes equal to it, a 'right' one after them, so a
    target's index is its merged position minus its own rank. Anything else
    takes the binary search, including nodes that rounding left a hair out
    of order, where only the search defines the answer.
    """
    if targets.ndim != 1 or not _nondecreasing(nodes):
        return np.searchsorted(nodes, targets, side=side)
    if guess is not None and np.shape(guess) == targets.shape:
        k = _checked_guess(nodes, targets, side, guess)
        if k is not None:
            return k
    if not _nondecreasing(targets):
        return np.searchsorted(nodes, targets, side=side)
    n = targets.size
    if side == "left":
        order = np.argsort(np.concatenate([targets, nodes]), kind="stable")
        merged = np.flatnonzero(order < n)
    else:
        order = np.argsort(np.concatenate([nodes, targets]), kind="stable")
        merged = np.flatnonzero(order >= nodes.size)
    return merged - np.arange(n)


# A guess is dropped when more than one target in this many misses its cell:
# past that, searching the misses again costs more than the merge.
_GUESS_MISS_RATIO = 8


def _checked_guess(nodes, targets, side, guess):
    """`guess` with each target that misses its cell in the nondecreasing
    `nodes` searched again, or None when too many miss."""
    k = np.clip(np.asarray(guess, dtype=np.intp), 0, nodes.size)
    padded = np.concatenate([[-np.inf], nodes, [np.inf]])
    below = padded[k]
    above = padded[1:][k]
    if side == "left":
        hit = below < targets
        hit &= targets <= above
    else:
        hit = below <= targets
        hit &= targets < above
    if hit.all():
        return k
    miss = np.flatnonzero(~hit)
    if miss.size * _GUESS_MISS_RATIO > targets.size:
        return None
    k[miss] = np.searchsorted(nodes, targets[miss], side=side)
    return k


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
    # min and max carry a NaN through, and compare false with it
    if x_arr.size and not (x_arr.min() >= -_ENDPOINT_TOL and x_arr.max() <= 1.0 + _ENDPOINT_TOL):
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
        if not _nondecreasing(values):
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
        return _trapezoid_prefix(1.0 / self.grid_size, self.values)

    def evaluate(self, x):
        """Interpolated value at x (scalar or array); domain is [0, 1]."""
        x_arr, scalar = _unit_points(x, "evaluation point")
        out = np.interp(x_arr, self.grid, self.values)
        return _as_scalar_or_array(out, scalar)

    def generalized_inverse(self, u, clamp: bool = False, *, cells: dict | None = None):
        """inf { y : f(y) >= u }; flat segments map to their left endpoint.

        With clamp=True, u below f(0) maps to 0 and u above f(1) maps to 1;
        otherwise such u raise OutOfRange. With a dict `cells`, the cell
        search takes the cells it stored there on the last call as its guess
        and stores the ones it finds; see _sorted_searchsorted. It never
        changes the result.
        """
        v = self.values
        u_arr = np.asarray(u, dtype=float)
        scalar = u_arr.ndim == 0
        u_arr = np.atleast_1d(u_arr)
        # min and max carry a NaN through, and compare false with it
        lo, hi = (u_arr.min(), u_arr.max()) if u_arr.size else (v[0], v[-1])
        inside = v[0] <= lo and hi <= v[-1]
        if not inside and (not clamp or np.isnan(lo)):
            raise OutOfRange("inverse argument outside the curve's range")
        u_clip = u_arr if inside else np.clip(u_arr, v[0], v[-1])
        # First node index k with v[k] >= u; 'left' guarantees v[k-1] < u.
        k = _sorted_searchsorted(v, u_clip, "left", None if cells is None else cells.get("inverse"))
        if cells is not None:
            cells["inverse"] = k
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


def _primal_power(x, a):
    """x**a: the primal power family; a = phi gives the primal limit."""
    return x**a


def _reflected_power(x, a):
    """1 - (1 - x)**(1/a): the reflected power family; a = phi gives the
    reflected limit, and f(., 1/a) is the inverse of f(., a)."""
    return 1.0 - (1.0 - x) ** (1.0 / a)


def _pareto_quantile(p, scale, shape):
    with np.errstate(divide="ignore"):
        return scale * (1.0 - p) ** (-1.0 / shape)


def _lognormal_quantile(p, mean, sd):
    sigma2 = math.log1p((sd / mean) ** 2)
    mu = math.log(mean) - 0.5 * sigma2
    out = np.where(p <= 0.0, 0.0, math.inf)
    inside = (p > 0.0) & (p < 1.0)
    out[inside] = exp_array(mu + math.sqrt(sigma2) * normal_inverse_cdf_array(p[inside]))
    return out


def _pareto_problem(scale, shape):
    if not scale > 0.0:
        return "pareto scale must be positive"
    if not shape > 1.0:
        return "pareto shape must exceed 1 for a finite mean"
    return None


# Each law's (Q(p, *params), mean(*params), problem(*params)), by kind; p is a
# 1-d array in [0, 1], and problem says what is wrong with the parameters, or
# returns None.
_LAWS = {
    "uniform01": (lambda p: p, lambda: 0.5, lambda: None),
    "power": (
        lambda p, a: _primal_power(p, 1.0 / a),
        lambda a: a / (a + 1.0),
        lambda a: None if a > 0.0 else "power family needs a > 0",
    ),
    # Q is the inverse of the reflected limit; its mean phi/(1+phi) is phi - 1
    "kumaraswamy_limit": (
        lambda p: _reflected_power(p, 1.0 / GOLDEN),
        lambda: GOLDEN - 1.0,
        lambda: None,
    ),
    "pareto": (_pareto_quantile, lambda scale, shape: scale * shape / (shape - 1.0), _pareto_problem),
    "lognormal": (
        _lognormal_quantile,
        lambda mean, sd: mean,
        lambda mean, sd: None if mean > 0.0 and sd > 0.0 else "lognormal needs positive mean and sd",
    ),
    "point_mass": (
        lambda p, c: np.full_like(p, c),
        lambda c: c,
        lambda c: None if math.isfinite(c) else "point mass location must be finite",
    ),
}


@dataclass(frozen=True)
class AnalyticFamily:
    """A named quantile family with closed-form Q(p) and mean: uniform01,
    power, kumaraswamy_limit, pareto, lognormal (also built by
    lognormal_logscale) or point_mass, each by the constructor of its name.
    Built directly or by a constructor, the parameters are checked the same
    way and stored as floats."""

    kind: str
    params: tuple = ()

    def __post_init__(self):
        problem = self._law()[2]
        try:
            params = tuple(map(float, self.params))
            message = problem(*params)
        except (TypeError, ValueError):
            # not numbers, or not as many as the family takes
            raise BadParameter(f"bad {self.kind} parameters {self.params!r}") from None
        if message is not None:
            raise BadParameter(message)
        object.__setattr__(self, "params", params)

    @classmethod
    def uniform01(cls):
        return cls("uniform01")

    @classmethod
    def power(cls, a: float):
        return cls("power", (a,))

    @classmethod
    def kumaraswamy_limit(cls):
        """Distribution on [0, 1] with quantile 1-(1-p)^phi, so c.d.f.
        1-(1-x)^(1/phi): the paper's Kumaraswamy law with conjugate
        coefficient 1/phi."""
        return cls("kumaraswamy_limit")

    @classmethod
    def pareto(cls, scale: float, shape: float):
        return cls("pareto", (scale, shape))

    @classmethod
    def lognormal(cls, mean: float, sd: float):
        """Parameterized by the mean and standard deviation of the variable."""
        return cls("lognormal", (mean, sd))

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
        return cls("point_mass", (c,))

    def _law(self):
        try:
            return _LAWS[self.kind]
        except KeyError:
            raise BadParameter(f"unknown analytic family {self.kind!r}") from None

    def quantile(self, p):
        """Q(p) for p in [0, 1]; may be +inf at p = 1 for heavy tails."""
        p_arr, scalar = _unit_points(p, "probability")
        return _as_scalar_or_array(self._law()[0](p_arr, *self.params), scalar)

    @property
    def mean(self) -> float:
        return self._law()[1](*self.params)


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
    byte that is not UTF-8, or a csv reader error such as a cell over csv's
    field size limit, is a ParseError naming the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})"
        ) from exc
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _write_table(path, names, values, text=()) -> None:
    """The one writer of a table: a header of `names` (one per column) as
    csv quotes them, then a row per row of `values`. Each `(position,
    cells)` of `text`, in ascending order of position, puts a column of text
    cells at that position of the written row, one cell per row, as given
    and unquoted: ISO dates, iteration numbers, `true`/`false`. Rows end in
    `\\r\\n`. Each distinct bit pattern of `values` is formatted once, as a
    simulated matrix repeats each historical value many times; bit patterns
    keep -0.0 apart from 0.0, and every NaN prints `nan`."""
    values = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    formatted = np.array(list(map(format_float, bits.view(float).tolist())), dtype=object)
    rows = formatted[inverse.reshape(values.shape)].tolist()
    for position, cells in text:
        for row, cell in zip(rows, cells):
            row.insert(position, cell)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(names)
        fh.writelines(",".join(row) + "\r\n" for row in rows)


def _read_table(path, problem=None, missing=False):
    """The one reader of the curve, price and scenario tables that
    `_write_table` writes: (names, linenos, dates, values), the stripped
    header cells of the value columns, each data row's line number, the ISO
    dates of column 0 when the header starts with `date` (any case) or else
    None, and the values. A row with no cells, or only blank ones, is
    skipped. `problem(header)` names a fault of the stripped header, or is
    None; a header with no value column is refused too, and so is one that
    names a column twice. Each fault is one ParseError naming the file and
    line: `duplicate column '<name>'`, `expected N cells, got M`, `bad date
    '<cell>'`, `bad value '<cell>' for <column>`, and, once every row has
    parsed, `non-finite value <value> for <column>`. With `missing`, a blank
    cell reads as NaN and no value is refused; the caller checks them."""
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        header = [cell.strip() for cell in next(reader, [])]
        has_dates = bool(header) and header[0].lower() == "date"
        names, linenos, dates, rows = header[has_dates:], [], [], []
        first = {}
        repeated = [name for i, name in enumerate(names) if first.setdefault(name, i) != i]
        message = problem(header) if problem else None
        if repeated and not message:
            message = f"duplicate column {repeated[0]!r}"
        if message or not names:
            raise ParseError(f"{path}:1: {message or 'no value columns'}")
        for lineno, row in enumerate(reader, start=2):
            if not any(map(str.strip, row)):
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            if has_dates:
                day = row.pop(0)
                try:
                    dates.append(date.fromisoformat(day.strip()))
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: bad date {day!r}") from None
            try:
                rows.append(list(map(float, row)))
            except ValueError:
                rows.append([_cell(path, lineno, *pair, missing) for pair in zip(names, row)])
            linenos.append(lineno)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    values = np.array(rows)
    if not missing and not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise ParseError(
            f"{path}:{linenos[i]}: non-finite value {float(values[i, j])!r} for {names[j]}"
        )
    return names, linenos, dates if has_dates else None, values


def _cell(path, lineno, name, cell, missing):
    """One cell of a row that `float` did not take whole."""
    try:
        return float(cell)
    except ValueError:
        if missing and not cell.strip():
            return math.nan
        raise ParseError(f"{path}:{lineno}: bad value {cell!r} for {name}") from None


def write_curve_csv(curve: MonotoneCurve, path) -> None:
    _write_table(path, ["u", "value"], np.column_stack([curve.grid, curve.values]))


def read_curve_csv(path) -> MonotoneCurve:
    """Read a 'u,value' curve file; every rejection is a ParseError."""
    _, linenos, _, table = _read_table(
        path, lambda header: None if header == ["u", "value"] else "expected a 'u,value' header"
    )
    if len(linenos) < 2:
        raise ParseError(f"{path}: a curve file needs at least two rows")
    us, vs = table.T
    off_grid = np.flatnonzero(np.abs(us - _uniform_grid(len(us) - 1)) > 1e-9)
    if off_grid.size:
        raise ParseError(f"{path}:{linenos[off_grid[0]]}: u is not the uniform grid on [0, 1]")
    drops = np.flatnonzero(np.diff(vs) < 0.0)
    if drops.size:
        raise ParseError(f"{path}:{linenos[drops[0] + 1]}: value decreases")
    return MonotoneCurve(vs.copy())
