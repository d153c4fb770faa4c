"""Lorenz curves and the operators that act on them.

The primal operator takes a quantile function Q with positive mean to

    L(x) = (1/mu) * integral_0^x Q(u) du,

computed in exact piecewise-linear arithmetic on the grid. The reflected
operator is the equilibrium-transform analogue

    L_ref(x) = sup { t in [0, 1] : E[min(Q, t)] <= mu x },

restricted to distributions supported in [0, 1]. Both operators return
convex curves through (0, 0) and (1, 1), and both are inverted in closed
form: for a piecewise-linear Q each is piecewise quadratic between known
breakpoints, so finding each point's cell and one stable quadratic root
per point give the exact value. The iteration inverts at all grid nodes,
whose targets are sorted: their cells come from one linear merge with the
breakpoints, and only unsorted points take a binary search each. Sampling
a curve at the nodes and inverting the polyline would instead lose
accuracy exactly where the curve is steep.

reflected_transform evaluates L_ref on two routes that share no code: the
expectation m(t) = E[min(Q, t)] inverted cell by cell, and the equivalent
form L_ref(x) = 1 - psi^{-1}(1 - x), with psi the normalized integral of
the inverse of 1 - Q(1 - y). Every call compares them and raises
CrossCheckError if they differ by more than 1e-6; both are exact, so the
observed gap is rounding-level.

A LorenzCurve is a nondecreasing grid curve of a nonnegative distribution.
A sample with negative values has a generalized curve, which dips below
zero: GeneralizedLorenzPoints, cut back to a LorenzCurve by
truncate_generalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import (
    _ENDPOINT_TOL, DEFAULT_GRID, MonotoneCurve, QuantileCurve,
    _sample, _sorted_sample, _sorted_searchsorted, _uniform_grid,
)
from .errors import (
    BadParameter,
    CrossCheckError,
    DegenerateAfterTruncation,
    EmptySample,
    NonMonotone,
    NonPositiveMean,
    OutOfRange,
    SupportExceedsUnit,
)

_CONVEXITY_TOL = 1e-10
_CLASSICAL_TOL = 1e-10
_ROUTE_AGREEMENT = 1e-6


@dataclass(frozen=True, eq=False)
class LorenzCurve(MonotoneCurve):
    """A nondecreasing grid curve from (0,0) to (1,1), produced by or fed to
    the operators.

    The constructor snaps endpoints within 1e-12 of 0 and 1 onto them (a snap
    that breaks monotonicity is NonMonotone) and verifies the two flags:
    convex: second differences are nonnegative (1e-10 slack).
    classical: the curve stays inside 0 <= L(x) <= x.
    """

    convex: bool = True
    classical: bool = True

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
        if self.convex:
            d2 = values[2:] - 2.0 * values[1:-1] + values[:-2]
            if d2.size and d2.min() < -_CONVEXITY_TOL:
                raise BadParameter(f"curve is not convex (min d2 = {float(d2.min())!r})")
        # Nondecreasing from values[0] = 0, so a classical curve is nonnegative.
        if self.classical:
            excess = values - self.grid
            if excess.max() > _CLASSICAL_TOL:
                raise BadParameter("classical curve must stay below the diagonal")


def lorenz_transform(quantile: MonotoneCurve) -> LorenzCurve:
    """Normalized prefix integral of a nonnegative quantile curve."""
    if quantile.values[0] < -_ENDPOINT_TOL:
        raise BadParameter("quantile takes negative values; use generalized_lorenz")
    prefix = quantile._prefix  # the same G that primal_inverse inverts
    total = float(prefix[-1])
    if total <= 0.0:
        raise NonPositiveMean(f"mean must be positive, got {total!r}")
    return LorenzCurve(np.maximum.accumulate(prefix / total), convex=True, classical=True)


def _prefix_inverse(x, g, prefix, u) -> np.ndarray:
    """inf { y : G(y) >= u * G(x[-1]) } for G(y) = integral_{x[0]}^y g.

    g is nonnegative, nondecreasing and linear between its nodes x (which
    may repeat, for a jump); prefix holds G at the nodes. G is a convex
    quadratic on each cell, so every target inverts with one stable root
    once its cell is known. Nondecreasing u (the grid nodes) find their
    cells by one linear merge with prefix; any other u by a binary search
    per point.
    """
    total = prefix[-1]
    if total <= 0.0:
        raise NonPositiveMean(f"mean must be positive, got {float(total)!r}")
    target = np.clip(u, 0.0, 1.0) * total
    k = _sorted_searchsorted(prefix, target, "left")
    # A target with k = 0 is solved in cell 0 too, and its root discarded.
    # Every cell with k > 0 has prefix[k - 1] < prefix[k], so a positive
    # width; cell 0 can have zero width (psi route with Q(1) = 1).
    i = np.maximum(k - 1, 0)
    r = target - prefix[i]
    a = g[i]
    lo = x[i]
    width = x[i + 1] - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (g[i + 1] - a) / width
        # Stable quadratic root of (slope/2) d^2 + a d = r; exact linear limit.
        denom = a + np.sqrt(a * a + 2.0 * slope * r)
        delta = np.where(denom > 0.0, 2.0 * r / np.where(denom > 0.0, denom, 1.0), 0.0)
    return np.where(k > 0, lo + np.minimum(delta, width), x[0])


def _psi_route(q: QuantileCurve) -> np.ndarray:
    """Reflected operator through psi, the cross-check route.

    psi(y) is the integral over [0, y] of g, the inverse of the integrand
    1 - Q(1 - y), divided by its total. g is piecewise linear and
    nondecreasing with nodes (0, 0), (1 - Q_{M-j}, j/M) for j = 0..M, and
    (1, 1); L_ref(x) = 1 - psi^{-1}(1 - x).
    """
    x = np.concatenate([[0.0], 1.0 - q.values[::-1], [1.0]])
    g = np.concatenate([[0.0], q.grid, [1.0]])
    prefix = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(x) * (g[1:] + g[:-1]))])
    # ascending targets, so the cells are found by a merge; reversed back
    y = _prefix_inverse(x, g, prefix, 1.0 - q.grid[::-1])[::-1]
    return np.maximum.accumulate(1.0 - y)


def _min_route(qc: QuantileCurve, mu: float) -> np.ndarray:
    """Reflected operator L_ref(x) = sup { t : E[min(Q, t)] <= mu x } on the grid.

    m(t) = E[min(Q, t)] equals t up to Q_0 and prefix_k + Q_k (1 - k/M) at
    the node value Q_k. Between node values its slope 1 - F(t) is linear in
    t, so each cell is a concave quadratic, inverted by one stable root.
    m is flat at mu past Q's top, so L_ref(1) = 1.
    """
    q = qc.values
    frac = qc.grid
    t = np.concatenate([[0.0], q])
    m = np.concatenate([[0.0], qc._prefix + q * (1.0 - frac)])
    # m'(t) at each node value; the cell below Q_0 has slope one throughout.
    slope = np.concatenate([[1.0], 1.0 - frac])
    target = mu * frac[:-1]
    j = _sorted_searchsorted(m, target, "right") - 1
    lo = t[j]
    width = t[j + 1] - lo
    a = slope[j]
    # Rounding can land a target in a zero-width cell; its root is d = 0.
    safe = np.where(width > 0.0, width, 1.0)
    curv = np.where(width > 0.0, (a - slope[j + 1]) / safe, 0.0)
    r = target - m[j]
    # Stable root of a d - (curv/2) d^2 = r; a >= 1/M > 0 on every cell.
    delta = 2.0 * r / (a + np.sqrt(np.maximum(a * a - 2.0 * curv * r, 0.0)))
    vals = np.append(lo + np.minimum(delta, width), 1.0)
    return np.maximum.accumulate(vals)


def unit_support(quantile: MonotoneCurve, *, normalize: bool = False) -> QuantileCurve:
    """Clip a nonnegative quantile into [0, 1], optionally scaling by its max.

    This is the support precondition of the reflected operator; the clip
    only absorbs float dust once the preconditions hold.
    """
    q = quantile.values
    if q[0] < -_ENDPOINT_TOL:
        raise BadParameter("reflected operator needs a nonnegative support")
    q = np.maximum(q, 0.0)
    qmax = q[-1]
    if normalize:
        if qmax <= 0.0:
            raise NonPositiveMean("cannot normalize an all-zero quantile")
        q = q / qmax
    elif qmax > 1.0 + 1e-9:
        raise SupportExceedsUnit(
            f"support reaches {float(qmax)!r}; pass normalize=True to rescale"
        )
    return QuantileCurve(np.minimum(q, 1.0))


def reflected_inverse(quantile: MonotoneCurve, u) -> np.ndarray:
    """Generalized inverse of reflected_transform(quantile), evaluated exactly.

    L_ref^{-1}(u) = E[min(Q, u)] / mu, computed from Q's generalized inverse
    and exact prefix integral. The quantile must already satisfy the
    operator's support precondition.
    """
    qc = unit_support(quantile)
    mu = qc.mean
    if mu <= 0.0:
        raise NonPositiveMean(f"mean must be positive, got {mu!r}")
    u_arr = np.clip(np.atleast_1d(np.asarray(u, dtype=float)), 0.0, 1.0)
    p = qc.generalized_inverse(u_arr, clamp=True)
    expected_min = qc.prefix_integral(p) + u_arr * (1.0 - p)
    # E[min(Q, u)] <= mu exactly; clip what rounding leaks past it, and keep
    # the values nondecreasing in u, in sorted order.
    vals = np.clip(expected_min / mu, 0.0, 1.0)
    order = np.argsort(u_arr, kind="stable")
    vals[order] = np.maximum.accumulate(vals[order])
    return vals


def reflected_transform(quantile: MonotoneCurve) -> LorenzCurve:
    """Reflected operator for distributions supported in [0, 1].

    A support that exceeds 1 is SupportExceedsUnit; unit_support(quantile,
    normalize=True) rescales it first. Every call also runs the psi route and
    raises CrossCheckError unless the two routes agree within 1e-6.
    """
    qc = unit_support(quantile)
    mu = qc.mean
    if mu <= 0.0:
        raise NonPositiveMean(f"mean must be positive, got {mu!r}")
    vals = _min_route(qc, mu)
    gap = float(np.max(np.abs(vals - _psi_route(qc))))
    if gap > _ROUTE_AGREEMENT:
        raise CrossCheckError(
            f"reflected operator routes disagree by {gap!r} (> {_ROUTE_AGREEMENT})"
        )
    return LorenzCurve(vals, convex=True, classical=True)


def primal_inverse(quantile: MonotoneCurve, u) -> np.ndarray:
    """Generalized inverse of lorenz_transform(quantile), evaluated exactly.

    The transform of a piecewise-linear quantile is piecewise quadratic, so
    each cell inverts in closed form. Inverting the stored polyline instead
    would lose O(h^phi) accuracy in the cells where the curve is singular,
    which is exactly where the iteration needs it.
    """
    q = quantile.values
    if q[0] < -_ENDPOINT_TOL:
        raise BadParameter("cannot invert the transform of a negative quantile")
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if np.isnan(u_arr).any():
        raise OutOfRange("inverse argument is NaN")
    return _prefix_inverse(quantile.grid, q, quantile._prefix, u_arr)


def simple_reflect(curve: MonotoneCurve) -> LorenzCurve:
    """Point reflection through (1/2, 1/2): x -> 1 - L^{-1}(1 - x).

    Exact where the reflected curve's kinks land on grid nodes; otherwise
    correct to grid resolution.
    """
    grid = curve.grid
    vals = 1.0 - curve.generalized_inverse(1.0 - grid)
    vals = np.maximum.accumulate(vals)
    convex = curve.convex if isinstance(curve, LorenzCurve) else False
    classical = curve.classical if isinstance(curve, LorenzCurve) else False
    return LorenzCurve(vals, convex=convex, classical=classical)


def dual_curve(curve: MonotoneCurve) -> LorenzCurve:
    """Node-exact concave dual: d(x) = 1 - L(1 - x). Involutive."""
    return LorenzCurve(1.0 - curve.values[::-1], convex=False, classical=False)


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


def _partial_sum_ratios(sorted_x: np.ndarray) -> tuple[np.ndarray, float]:
    """(S_i/S_n for i = 1..n, S_n) of a sorted sample; S_n must be positive."""
    partial = np.cumsum(sorted_x)
    total = float(partial[-1])
    if total <= 0.0:
        raise NonPositiveMean(f"sample total must be positive, got {total!r}")
    return partial / total, total


def generalized_lorenz(samples) -> GeneralizedLorenzPoints:
    x = _sample(samples)
    if x.size == 0:
        raise EmptySample("cannot build a curve from an empty sample")
    x = _sorted_sample(x)
    ratios, total = _partial_sum_ratios(x)
    fractions = np.arange(1, x.size + 1, dtype=float) / x.size
    idx = None if x[0] >= 0.0 else int(np.argmax(ratios >= 0.0))
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
    return LorenzCurve(vals, convex=True, classical=True)
