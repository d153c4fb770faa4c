"""Lorenz curves and the operators that act on them.

The primal operator takes a quantile function Q with positive mean to

    L(x) = (1/mu) * integral_0^x Q(u) du,

computed in exact piecewise-linear arithmetic on the grid. The reflected
operator is the equilibrium-transform analogue

    L_ref(x) = sup { t in [0, 1] : E[min(Q, t)] <= mu x },

restricted to distributions supported in [0, 1]. Both operators return
convex curves through (0, 0) and (1, 1), and both are inverted in closed
form. For a piecewise-linear Q each inversion inverts a continuous G that
is quadratic on each cell, with a slope linear between known nodes:
_prefix_inverse finds each target's cell and takes one stable quadratic
root. The reflected inverse E[min(Q, u)] / mu needs only Q's generalized
inverse at u and the prefix integral there. The iteration inverts at all
grid nodes, whose targets are sorted. Their cells barely move from one
round to the next, so run_iteration keeps each search's cells (the primal
inverse's, the two reflected routes', and the reflected inverse's search
of Q's node values) for the next round, which takes them as a guess: every
guessed cell is checked exactly against its two node values, and only the
targets that miss are searched again. A search with no guess, or with too
many misses, merges the sorted targets with the node values in linear
time; unsorted targets take a binary search each. Either way the cells are
np.searchsorted's, bit for bit. Sampling a curve at the nodes and
inverting the polyline would instead lose accuracy where it is steep.

reflected_transform evaluates L_ref on two routes built from different
data: a concave-cell inversion of m(t) = E[min(Q, t)], and a convex-cell
inversion of psi, the normalized integral of the inverse of 1 - Q(1 - y),
in L_ref(x) = 1 - psi^{-1}(1 - x). Every call compares them and raises
CrossCheckError if they differ by more than 1e-6; both are exact, so the
observed gap is rounding-level.

A LorenzCurve is convex from (0, 0) to (1, 1) and below the diagonal, as
its constructor checks; every operator output is one. Any other curve, such
as a quantile or the concave dual, is a MonotoneCurve. A sample with
negative values has a generalized curve, which dips below zero:
GeneralizedLorenzPoints, cut back to a LorenzCurve by truncate_generalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curves import (
    _ENDPOINT_TOL, _GRID_CACHE_SIZE, DEFAULT_GRID, MonotoneCurve, _nondecreasing,
    _sample, _sorted_sample, _sorted_searchsorted, _trapezoid_prefix, _uniform_grid,
)
from .errors import (
    BadParameter,
    CrossCheckError,
    DegenerateAfterTruncation,
    EmptySample,
    NonMonotone,
    NonPositiveMean,
    NumericError,
    OutOfRange,
    UnitSupportRequired,
)

_CONVEXITY_TOL = 1e-10
_CLASSICAL_TOL = 1e-10
_ROUTE_AGREEMENT = 1e-6


@dataclass(frozen=True, eq=False)
class LorenzCurve(MonotoneCurve):
    """A Lorenz curve on the grid: nondecreasing and convex from (0, 0) to
    (1, 1), and below the diagonal.

    The constructor snaps endpoints within 1e-12 of 0 and 1 onto them (a snap
    that breaks monotonicity is NonMonotone), then checks that the second
    differences are nonnegative and that 0 <= L(x) <= x, each with 1e-10
    slack; a curve that fails either is BadParameter.
    """

    def _validate(self):
        super()._validate()
        values = self.values
        if abs(values[0]) > _ENDPOINT_TOL or abs(values[-1] - 1.0) > _ENDPOINT_TOL:
            raise BadParameter(
                "curve must run from 0 to 1 "
                f"(got endpoints {float(values[0])!r}, {float(values[-1])!r})"
            )
        values = np.concatenate([[0.0], values[1:-1], [1.0]])
        if values[1] < 0.0 or values[-2] > 1.0:
            raise NonMonotone("snapping the endpoints to 0 and 1 breaks monotonicity")
        object.__setattr__(self, "values", values)
        d2 = values[2:] - 2.0 * values[1:-1] + values[:-2]
        if d2.size and d2.min() < -_CONVEXITY_TOL:
            raise BadParameter(f"curve is not convex (min d2 = {float(d2.min())!r})")
        # Nondecreasing from values[0] = 0, so below the diagonal is 0 <= L <= x.
        excess = values - self.grid
        if excess.max() > _CLASSICAL_TOL:
            raise BadParameter("a Lorenz curve must stay below the diagonal")


def _positive_mean(quantile: MonotoneCurve) -> float:
    """The mean G(1) of a quantile both operators accept: nonnegative, mean > 0."""
    if quantile.values[0] < -_ENDPOINT_TOL:
        raise BadParameter("quantile takes negative values; use generalized_lorenz")
    total = float(quantile._prefix[-1])
    if total <= 0.0:
        raise NonPositiveMean(f"mean must be positive, got {total!r}")
    return total


def _running_max(a: np.ndarray) -> np.ndarray:
    """np.maximum.accumulate(a) bit for bit, with no pass over an `a` that is
    already nondecreasing: np.maximum returns its second argument on a tie,
    +0.0 against -0.0 included, so accumulating such an `a` gives its own bits."""
    return a if _nondecreasing(a) else np.maximum.accumulate(a)


def lorenz_transform(quantile: MonotoneCurve) -> LorenzCurve:
    """Normalized prefix integral of a nonnegative quantile curve."""
    values = quantile._prefix / _positive_mean(quantile)  # the G primal_inverse inverts
    return LorenzCurve(_running_max(values))


def _prefix_inverse(x, G, g, target, side: str = "left", cells=None, key=None) -> np.ndarray:
    """Inverse of a continuous piecewise-quadratic G at absolute targets.

    G is nondecreasing and takes the values G at the nodes x (which may
    repeat, for a jump); its slope is linear between the node values g. "left"
    gives inf { y : G(y) >= target }, "right" gives sup { y : G(y) <= target };
    a target with no cell below it maps to x[0]. Every target inverts with
    one stable root once its cell is known. With a dict `cells`, the search
    takes cells[key] as its guess and stores the cells it finds there; see
    _sorted_searchsorted.
    """
    k = _sorted_searchsorted(G, target, side, None if cells is None else cells.get(key))
    if cells is not None:
        cells[key] = k
    # A target with k = 0 is solved in cell 0 too, and its root discarded. One
    # with k = len(G), at or past G's top (a subnormal mean times a grid
    # fraction can round up to it), is solved in the last cell, where a
    # positive slope clamps its root to x[-1].
    i = k - 1
    np.clip(i, 0, G.size - 2, out=i)
    r = target - G[i]
    a = g[i]
    lo = x[i]
    width = x[1:][i]
    width -= lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # slope = (g[i + 1] - a) / width, then the root's discriminant
        # a^2 + 2 slope r and its stable denominator, each in place.
        disc = g[1:][i]
        disc -= a
        disc /= width
        disc *= 2.0
        disc *= r
        disc += a * a
        # Stable root of (slope/2) d^2 + a d = r, exact in the linear limit; the
        # clamp absorbs rounding on falling slopes. Kept roots have r >= 0, so a
        # denominator that is not positive, or NaN in a zero-width cell, gives +0.
        # A subnormal width can overflow the slope to inf; the clamp to
        # [0, width] still bounds the root.
        denom = np.maximum(disc, 0.0, out=disc)
        np.sqrt(denom, out=denom)
        denom += a
        np.copyto(denom, np.inf, where=~(denom > 0.0))
        delta = r
        delta *= 2.0
        delta /= denom
    np.minimum(delta, width, out=delta)
    delta += lo
    np.copyto(delta, x[0], where=k == 0)
    return delta


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _route_constants(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only arrays both reflected routes take at every size-M call:
    m'(t) at the min route's nodes, [1, 1 - k/M] (the cell below Q_0 has slope
    one throughout); its tail 1 - k/M; and psi's integrand nodes [0, k/M, 1]."""
    grid = _uniform_grid(m)
    slope = np.concatenate([[1.0], 1.0 - grid])
    g = np.concatenate([[0.0], grid, [1.0]])
    slope.flags.writeable = False
    g.flags.writeable = False
    return slope, slope[1:], g


def _psi_route(q: MonotoneCurve, cells=None) -> np.ndarray:
    """Reflected operator through psi, the cross-check route.

    psi(y) is the integral over [0, y] of g, the inverse of the integrand
    1 - Q(1 - y), divided by its total. g is piecewise linear and
    nondecreasing with nodes (0, 0), (1 - Q_{M-j}, j/M) for j = 0..M, and
    (1, 1); L_ref(x) = 1 - psi^{-1}(1 - x).
    """
    _, survival, g = _route_constants(q.grid_size)
    x = np.concatenate([[0.0], 1.0 - q.values[::-1], [1.0]])
    prefix = _trapezoid_prefix(np.diff(x), g)
    # ascending targets, so the cells come from a guess or a merge; reversed back
    target = survival[::-1] * prefix[-1]
    y = _prefix_inverse(x, prefix, g, target, "left", cells, "psi")[::-1]
    return _running_max(1.0 - y)


def _min_route(qc: MonotoneCurve, mu: float, cells=None) -> np.ndarray:
    """Reflected operator L_ref(x) = sup { t : E[min(Q, t)] <= mu x } on the grid.

    m(t) = E[min(Q, t)] equals t up to Q_0 and prefix_k + Q_k (1 - k/M) at
    the node value Q_k. Between node values its slope 1 - F(t) is linear in
    t, so each cell is a concave quadratic. m is flat at mu past Q's top,
    so L_ref(1) = 1.
    """
    q = qc.values
    slope, survival, _ = _route_constants(qc.grid_size)
    t = np.concatenate([[0.0], q])
    m = np.concatenate([[0.0], qc._prefix + q * survival])
    vals = np.append(
        _prefix_inverse(t, m, slope, mu * qc.grid[:-1], "right", cells, "min"), 1.0
    )
    return _running_max(vals)


def unit_support(quantile: MonotoneCurve, *, normalize: bool = False) -> MonotoneCurve:
    """Clip a nonnegative quantile into [0, 1], optionally scaling by its max.

    This is the support precondition of the reflected operator; the clip
    only absorbs float dust once the preconditions hold. Without normalize,
    a maximum above 1, or one so small that 1 minus it rounds to 1, is
    UnitSupportRequired.

    Once those checks pass, a curve that the clip would leave unchanged in
    every bit comes back as itself, with the prefix it already holds: without
    normalize, its top is at most 1 and no node has its sign bit set. A -0.0
    node makes a new curve, since np.maximum(-0.0, 0.0) is +0.0.
    """
    q = quantile.values
    if q[0] < -_ENDPOINT_TOL:
        raise BadParameter("reflected operator needs a nonnegative support")
    qmax = max(q[-1], 0.0)
    if normalize:
        if qmax <= 0.0:
            raise NonPositiveMean("cannot normalize an all-zero quantile")
        return MonotoneCurve(np.minimum(np.maximum(q, 0.0) / qmax, 1.0))
    if qmax > 1.0 + 1e-9:
        raise UnitSupportRequired(
            f"support reaches {float(qmax)!r}; pass normalize=True to rescale"
        )
    if qmax > 0.0 and 1.0 - qmax == 1.0:
        # The reflected operator's cross-check works with 1 - Q, which would
        # round to 1 at every node.
        raise UnitSupportRequired(
            f"support reaches only {float(qmax)!r}, below float resolution "
            "next to 1; pass normalize=True to rescale"
        )
    if qmax <= 1.0 and not np.signbit(q).any():
        return quantile
    return MonotoneCurve(np.minimum(np.maximum(q, 0.0), 1.0))


def _reflected_support(quantile: MonotoneCurve) -> tuple[MonotoneCurve, float]:
    """unit_support(quantile) and its mean, checked positive."""
    qc = unit_support(quantile)
    return qc, _positive_mean(qc)


def reflected_inverse(quantile: MonotoneCurve, u, *, cells: dict | None = None) -> np.ndarray:
    """Generalized inverse of reflected_transform(quantile), evaluated exactly.

    L_ref^{-1}(u) = E[min(Q, u)] / mu, computed from Q's generalized inverse
    and exact prefix integral. The quantile must already satisfy the
    operator's support precondition. `cells` is an optional dict from which
    the generalized inverse's cell search takes the cells it found on the
    last call, as in reflected_transform; it never changes the result.
    """
    qc, mu = _reflected_support(quantile)
    u_arr = np.clip(np.atleast_1d(np.asarray(u, dtype=float)), 0.0, 1.0)
    p = qc.generalized_inverse(u_arr, clamp=True, cells=cells)
    expected_min = qc.prefix_integral(p) + u_arr * (1.0 - p)
    # E[min(Q, u)] <= mu exactly; clip what rounding leaks past it, and keep
    # the values nondecreasing in u, in sorted order.
    vals = np.clip(expected_min / mu, 0.0, 1.0)
    if _nondecreasing(u_arr):
        return _running_max(vals)
    order = np.argsort(u_arr, kind="stable")
    vals[order] = np.maximum.accumulate(vals[order])
    return vals


def reflected_transform(quantile: MonotoneCurve, *, cells: dict | None = None) -> LorenzCurve:
    """Reflected operator for distributions supported in [0, 1].

    A support that exceeds 1, or that 1 minus it cannot resolve, is
    UnitSupportRequired; unit_support(quantile, normalize=True) rescales it
    first. Every call also runs the psi route and raises CrossCheckError
    unless the two routes agree within 1e-6.

    `cells` is an optional dict, such as the one run_iteration keeps for a
    run: each route's cell search starts from the cells it stored there on
    the last call, and stores the ones it finds. The result is the same bits
    with or without it.
    """
    qc, mu = _reflected_support(quantile)
    vals = _min_route(qc, mu, cells)
    gap = float(np.max(np.abs(vals - _psi_route(qc, cells))))
    if gap > _ROUTE_AGREEMENT:
        raise CrossCheckError(
            f"reflected operator routes disagree by {gap!r} (> {_ROUTE_AGREEMENT})"
        )
    return LorenzCurve(vals)


def primal_inverse(quantile: MonotoneCurve, u, *, cells: dict | None = None) -> np.ndarray:
    """Generalized inverse of lorenz_transform(quantile), evaluated exactly.

    The transform of a piecewise-linear quantile is piecewise quadratic, so
    each cell inverts in closed form. Inverting the stored polyline instead
    would lose O(h^phi) accuracy in the cells where the curve is singular,
    which is exactly where the iteration needs it. `cells` is an optional
    dict from which the cell search takes the cells it found on the last
    call, as in reflected_transform; it never changes the result.
    """
    total = _positive_mean(quantile)
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if np.isnan(u_arr).any():
        raise OutOfRange("inverse argument is NaN")
    target = np.clip(u_arr, 0.0, 1.0) * total
    return _prefix_inverse(
        quantile.grid, quantile._prefix, quantile.values, target, "left", cells, "primal"
    )


def simple_reflect(curve: LorenzCurve) -> LorenzCurve:
    """Point reflection through (1/2, 1/2): x -> 1 - L^{-1}(1 - x).

    Exact where the reflected curve's kinks land on grid nodes; otherwise
    correct to grid resolution. A reflection that is no Lorenz curve is BadParameter.
    """
    grid = curve.grid
    vals = 1.0 - curve.generalized_inverse(1.0 - grid)
    vals = np.maximum.accumulate(vals)
    return LorenzCurve(vals)


def dual_curve(curve: MonotoneCurve) -> MonotoneCurve:
    """Node-exact concave dual above the diagonal: d(x) = 1 - L(1 - x). Involutive."""
    return MonotoneCurve(1.0 - curve.values[::-1])


# -- generalized curves from raw samples --------------------------------------


@dataclass(frozen=True)
class GeneralizedLorenzPoints:
    """Partial-sum polyline of a sorted sample, scaled by the total.

    Points are (i/n, S_i/S_n) for i = 1..n; the origin is implied.
    sign_change_index is the 0-based position of the first nonnegative
    ratio when the sample has negative values, else None.
    """

    fractions: np.ndarray
    ratios: np.ndarray
    total: float
    sign_change_index: int | None


def _finite_total(total):
    """A sum of finite values, refused as NumericError when it overflowed."""
    if math.isinf(total):
        raise NumericError(f"the sample's sums overflow to {float(total)!r}")
    return total


def _partial_sum_ratios(sorted_x: np.ndarray) -> tuple[np.ndarray, float]:
    """(S_i/S_n for i = 1..n, S_n) of a sorted sample; S_n must be finite
    and positive. The ratios are written over sorted_x."""
    partial = sorted_x.cumsum(out=sorted_x)
    total = _finite_total(float(partial[-1]))
    if total <= 0.0:
        raise NonPositiveMean(f"sample total must be positive, got {total!r}")
    partial /= total
    return partial, total


def generalized_lorenz(samples) -> GeneralizedLorenzPoints:
    x = _sample(samples)
    if x.size == 0:
        raise EmptySample("cannot build a curve from an empty sample")
    x = _sorted_sample(x)
    nonnegative = x[0] >= 0.0
    ratios, total = _partial_sum_ratios(x)
    fractions = np.arange(1, x.size + 1, dtype=float) / x.size
    idx = None if nonnegative else int(np.argmax(ratios >= 0.0))
    return GeneralizedLorenzPoints(fractions, ratios, total, idx)


def truncate_generalized(
    points: GeneralizedLorenzPoints,
    mode: str = "increasing_section",
    grid_size: int = DEFAULT_GRID,
) -> LorenzCurve:
    """Cut a generalized polyline back to a classical curve.

    increasing_section keeps everything from the last minimum onward;
    positive_increasing additionally replaces the below-zero prefix with its
    interpolated zero crossing. The kept section is rescaled onto the unit
    square and resampled onto the grid.
    """
    if mode not in ("increasing_section", "positive_increasing"):
        raise BadParameter(f"unknown truncation mode {mode!r}")
    xs = np.concatenate([[0.0], points.fractions])
    ys = np.concatenate([[0.0], points.ratios])
    start = int(np.flatnonzero(ys == ys.min())[-1])
    xs = xs[start:]
    ys = ys[start:]
    if mode == "positive_increasing" and ys[0] < 0.0:
        j = int(np.argmax(ys >= 0.0))
        x_cross = xs[j - 1] + (xs[j] - xs[j - 1]) * (-ys[j - 1]) / (ys[j] - ys[j - 1])
        xs = np.concatenate([[x_cross], xs[j:]])
        ys = np.concatenate([[0.0], ys[j:]])
    if xs.size < 2 or xs[0] >= 1.0 or ys[0] >= 1.0:
        raise DegenerateAfterTruncation("nothing left after truncation")
    x_scaled = (xs - xs[0]) / (1.0 - xs[0])
    y_scaled = (ys - ys[0]) / (1.0 - ys[0])
    vals = np.interp(_uniform_grid(grid_size), x_scaled, y_scaled)
    vals = np.maximum.accumulate(vals)
    return LorenzCurve(vals)
