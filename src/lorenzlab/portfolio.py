"""Long-only minimum-risk portfolios over a scenario matrix.

min_risk minimizes a risk measure of the portfolio return r = S @ w over the
simplex {w >= 0, sum w = 1}, optionally with a mean-return target. It routes
by kind:

- variance, cvar and mad are convex and solved exactly by `exact`: an
  active-set QP for variance and a bounded-variable simplex on the CVaR and
  MAD LP duals. Each point carries a certificate (the KKT residual, or the
  primal-dual gap plus both feasibility residuals), and converged means the
  point is feasible and its certificate is at most 1e-9 relative.
- gmd, extended_gini, gs1 and gs2 run Nelder-Mead on angles that map onto
  the feasible set itself, so every point the search evaluates is a
  long-only, fully invested portfolio that meets the target: squared
  hyperspherical coordinates give a point of a simplex, and with a target
  one simplex point over the assets at or above it and one over the assets
  below it are mixed in the only ratio whose mean is the target. A cold
  solve starts from the center and from every vertex; each start is
  restarted from its own result while that improves, and the start with the
  lowest risk wins. These points carry no certificate, and converged means
  the search simplex collapsed at a feasible point. Each evaluation maps
  the angles to a new weight vector, and the simplex stays sorted by
  inserting each accepted vertex; tests/test_search_oracle.py keeps the
  earlier sort-every-iteration search as the reference, and the two
  evaluate the same points and return the same bits.

A target at either end of the attainable range has a single feasible
portfolio (the extreme asset, ties to the lowest index), which is returned
directly for every kind.

A frontier threads one warm handle from point to point: a converged cvar or
mad point's final simplex state, whose basis the next solve re-enters with
the LP's mean-target column freed (held at 0 without a target); a
Nelder-Mead point's weights, converged or not, the next solve's one start;
or None, for variance and for a cvar or mad point that did not converge.

grid_oracle brute-forces the same problem on the weight lattice with the
given step, for small asset counts, as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exact
from .curves import _count
from .errors import (
    BadParameter,
    DataError,
    InfeasibleTarget,
    InsufficientHistory,
    NonPositiveMean,
    NonPositiveMeanRegion,
    NumericError,
    TooManyAssets,
)
from .risk import RiskMeasureConfig, measure_value

BUDGET_TOL = 1e-8
TARGET_TOL = 1e-6
NONNEG_TOL = 1e-10

_STEP = 0.3
_RESTARTS = 4
_DIAMETER_TOL = 1e-8
_ITER_PER_DIM = 400
_BIG = 1e12


def nelder_mead(f, x0: np.ndarray):
    """Plain Nelder-Mead: reflection 1, expansion 2, contraction 1/2,
    shrink 1/2, from x0 and x0 + _STEP along each axis. Stops when the
    simplex diameter (sup norm around the best vertex) falls to
    _DIAMETER_TOL, or after _ITER_PER_DIM iterations per dimension.

    The vertices are kept in the order of a stable sort of their values
    (NaN last, ties by age): an accepted step moves the new vertex to its
    place, and only a shrink sorts again.

    Returns (x_best, f_best, iterations, final_diameter).
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    max_iter = _ITER_PER_DIM * n
    simplex = np.empty((n + 1, n))
    simplex[0] = x0
    # x0 + step, not a copy of x0 with one entry moved: -0.0 + 0.0 is +0.0.
    simplex[1:] = x0 + _STEP * np.eye(n)
    fvals = [float(f(x)) for x in simplex]

    def resort():
        nonlocal simplex, fvals
        order = np.argsort(fvals, kind="stable")
        simplex = simplex[order]
        fvals = [fvals[i] for i in order]

    def replace_worst(x, fx):
        # fx beat some vertex's value, so it is not NaN; NaN vertices stay last
        pos = n
        while pos and not fvals[pos - 1] <= fx:
            pos -= 1
        simplex[pos + 1 :] = simplex[pos:-1]
        simplex[pos] = x
        fvals.pop()
        fvals.insert(pos, float(fx))

    resort()
    iterations = 0
    while True:
        diameter = float(np.abs(simplex[1:] - simplex[0]).max(initial=0.0))
        if diameter <= _DIAMETER_TOL or iterations >= max_iter:
            return simplex[0], fvals[0], iterations, diameter
        iterations += 1
        centroid = simplex[:-1].sum(axis=0) / n
        away = centroid - simplex[-1]
        reflected = centroid + away
        f_r = f(reflected)
        if f_r < fvals[0]:
            expanded = centroid + 2.0 * away
            f_e = f(expanded)
            if f_e < f_r:
                replace_worst(expanded, f_e)
            else:
                replace_worst(reflected, f_r)
        elif f_r < fvals[-2]:
            replace_worst(reflected, f_r)
        else:
            contracted = centroid + 0.5 * (simplex[-1] - centroid)
            f_c = f(contracted)
            if f_c < fvals[-1]:
                replace_worst(contracted, f_c)
            else:
                simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                fvals[1:] = [float(f(x)) for x in simplex[1:]]
                resort()


@dataclass(frozen=True)
class FrontierPoint:
    weights: np.ndarray
    mean: float
    risk: float
    target: float | None
    converged: bool
    iterations: int
    residual_budget: float
    residual_target: float
    min_weight: float
    message: str = ""
    certificate: float | None = None


@dataclass
class FrontierResult:
    points: list[FrontierPoint] = field(default_factory=list)
    tickers: list[str] = field(default_factory=list)


def _validate_scenarios(scenarios) -> np.ndarray:
    s = np.asarray(scenarios, dtype=float)
    if s.ndim != 2 or s.shape[1] < 1:
        raise BadParameter("scenarios must be a T x N matrix")
    if s.shape[0] < 2:
        raise InsufficientHistory(f"need at least two scenario rows, got {s.shape[0]}")
    if not np.isfinite(s).all():
        raise DataError("scenarios must be finite")
    return s


def _simplex_point(theta: np.ndarray) -> np.ndarray:
    """Squared hyperspherical coordinates: k - 1 angles give a point of the
    k-simplex, w_i = cos^2(theta_i) * prod_{j<i} sin^2(theta_j)."""
    w = np.empty(theta.size + 1)
    w[0] = 1.0
    np.multiply.accumulate(np.sin(theta) ** 2, out=w[1:])
    w[:-1] *= np.cos(theta) ** 2
    return w


def _simplex_angles(p: np.ndarray) -> np.ndarray:
    """Angles that _simplex_point maps to p / sum(p); an all-zero p stands
    for the center."""
    if not p.sum() > 0.0:
        p = np.ones_like(p)
    tail = np.cumsum(p[::-1])[::-1][:-1]
    ratio = np.divide(p[:-1], tail, out=np.ones_like(tail), where=tail > 0.0)
    return np.arccos(np.sqrt(np.minimum(ratio, 1.0)))


def _feasible_map(means: np.ndarray, target: float | None):
    """(to_weights, to_angles) for the long-only, fully invested portfolios,
    restricted to mean == target when a target is given.

    With a target, the assets split by gap = means - target into those at
    or above it and those below (both groups nonempty). One simplex point p
    over the first and one q over the second mix in the only ratio whose
    mean is the target: w = (down * p, up * q) / (up + down), with
    up = gap . p >= 0 and down = -gap . q > 0.
    """
    if target is None:
        return _simplex_point, _simplex_angles
    gap = means - target
    hi = np.flatnonzero(gap >= 0.0)
    lo = np.flatnonzero(gap < 0.0)
    gap_hi, gap_lo = gap[hi], gap[lo]
    split = hi.size - 1

    def to_weights(theta: np.ndarray) -> np.ndarray:
        p = _simplex_point(theta[:split])
        q = _simplex_point(theta[split:])
        up = float(gap_hi @ p)
        down = -float(gap_lo @ q)
        w = np.empty(means.size)
        w[hi] = down * p
        w[lo] = up * q
        w /= up + down
        return w

    def to_angles(w: np.ndarray) -> np.ndarray:
        return np.concatenate([_simplex_angles(w[hi]), _simplex_angles(w[lo])])

    return to_weights, to_angles


def _make_point(s, config, w, target, stopped, iterations, cert=None) -> FrontierPoint:
    """The reported point. With a certificate (the exact kinds), stopped is
    whether it is within exact.CERTIFICATE_TOL."""
    r = s @ w
    mu = float(r.mean())
    message = ""
    try:
        risk = measure_value(r, config)
    except NonPositiveMean as exc:
        risk = math.nan
        message = f"risk undefined at the solution: {exc}"
    residual_budget = abs(float(w.sum()) - 1.0)
    residual_target = 0.0 if target is None else abs(mu - target)
    feasible = (
        residual_budget <= BUDGET_TOL
        and residual_target <= TARGET_TOL
        and float(w.min()) >= -NONNEG_TOL
    )
    if cert is not None:
        stopped = cert <= exact.CERTIFICATE_TOL
    if not message and not stopped:
        message = (
            "simplex diameter above tolerance at max_iter"
            if cert is None
            else f"certificate {cert!r} above {exact.CERTIFICATE_TOL}"
        )
    return FrontierPoint(
        weights=w,
        mean=mu,
        risk=risk,
        target=target,
        converged=stopped and feasible and not math.isnan(risk),
        iterations=iterations,
        residual_budget=residual_budget,
        residual_target=residual_target,
        min_weight=float(w.min()),
        message=message,
        certificate=cert,
    )


def min_risk(scenarios, config: RiskMeasureConfig, target: float | None = None) -> FrontierPoint:
    """Minimum-risk long-only weights, optionally at a mean-return target."""
    s = _validate_scenarios(scenarios)
    return _min_risk(s, _scenario_means(s), config, target)[0]


def _scenario_means(s: np.ndarray) -> np.ndarray:
    """The column means, refused when they overflow or none is positive."""
    with np.errstate(over="ignore", invalid="ignore"):
        means = s.mean(axis=0)
    if not np.isfinite(means).all():
        raise NumericError("scenario means are not finite: the scenarios overflow")
    if means.max() <= 0.0:
        raise NonPositiveMeanRegion("no long-only portfolio has a positive mean")
    return means


def _min_risk(s, means, config, target, warm=None):
    """min_risk on validated scenarios and their means: (point, warm). warm
    is the point's warm handle (module docstring); passed back in, it starts
    the solve at another target."""
    n = s.shape[1]
    exact_kind = config.kind in exact.EXACT_KINDS
    if target is not None:
        if not means.min() - 1e-12 <= target <= means.max() + 1e-12:
            raise InfeasibleTarget(
                f"target {float(target)!r} outside the attainable range "
                f"[{float(means.min())!r}, {float(means.max())!r}]"
            )
        at_max = target >= means.max() - 1e-12
        if at_max or target <= means.min() + 1e-12:
            # At either end of the range the only long-only portfolio
            # attaining it sits entirely on the extreme asset; ties go to
            # the lowest index.
            w = np.zeros(n)
            w[int(np.argmax(means) if at_max else np.argmin(means))] = 1.0
            cert = None
            if exact_kind:
                # Certified over the portfolios whose mean is exactly the
                # extreme asset's: that asset and any exact ties.
                cert = exact.certificate(
                    s, config.kind, means, float(means @ w), config.tail_fraction, w
                )
            return _make_point(s, config, w, target, True, 0, cert), None if exact_kind else w
    if exact_kind:
        w, cert, steps, lp = exact.solve(s, config.kind, means, target, config.tail_fraction, warm)
        point = _make_point(s, config, w, target, True, steps, cert)
        return point, lp if point.converged else None
    # Nelder-Mead is local and the gs measures are not convex, so a cold
    # solve fans out from the center and from every vertex.
    starts = [np.full(n, 1.0 / n), *np.eye(n)] if warm is None else [warm]
    to_weights, to_angles = _feasible_map(means, target)
    value = config._bind(s.shape[0])

    def objective(theta: np.ndarray) -> float:
        r = s @ to_weights(theta)
        try:
            return value(r)
        except NonPositiveMean:
            return _BIG * (1.0 + max(0.0, -float(r.mean())))

    def solve(start: np.ndarray) -> FrontierPoint:
        # Nelder-Mead can stall short of a stationary point on a collapsed
        # simplex (McKinnon 1998); a fresh simplex around the result moves on.
        theta, best, iterations = to_angles(start), math.inf, 0
        for _ in range(1 + _RESTARTS):
            x, fx, its, diameter = nelder_mead(objective, theta)
            iterations += its
            if not fx < best:
                break
            theta, best = x, fx
        return _make_point(
            s, config, to_weights(theta), target, diameter <= _DIAMETER_TOL, iterations
        )

    # min is stable, so on exact ties the first start wins.
    point = min(
        (solve(w) for w in starts),
        key=lambda p: math.inf if math.isnan(p.risk) else p.risk,
    )
    return point, point.weights


def efficient_frontier(
    scenarios,
    config: RiskMeasureConfig,
    n_points: int = 10,
    tickers: list[str] | None = None,
) -> FrontierResult:
    """Risk-minimal portfolios from the global minimum's mean up to the best
    single-asset mean.

    The targets are clipped to the attainable range [min, max] of the asset
    means: when the global minimum sits on one asset, its mean (summed in
    another order than the asset means) can round just past that range.

    Each point after the anchor starts from the warm handle of the module
    docstring. The anchor always sets it; an interior point replaces it only
    when it converged. So cvar and mad points run phase two only, and their
    iterations count the pivots from the handle's basis."""
    s = _validate_scenarios(scenarios)
    n_points = _count(n_points, "n_points")
    if n_points < 2:
        raise BadParameter("a frontier needs at least two points")
    means = _scenario_means(s)
    if tickers is None:
        tickers = [f"a{i + 1}" for i in range(s.shape[1])]
    elif len(tickers) != s.shape[1]:
        raise BadParameter(f"{len(tickers)} tickers for {s.shape[1]} scenario columns")

    anchor, warm = _min_risk(s, means, config, None)
    result = FrontierResult(points=[anchor], tickers=list(tickers))
    targets = np.clip(
        np.linspace(anchor.mean, float(means.max()), n_points), means.min(), means.max()
    )
    for t in targets[1:]:
        point, next_warm = _min_risk(s, means, config, float(t), warm)
        if point.converged:
            warm = next_warm
        result.points.append(point)
    return result


def _compositions(total: int, parts: int):
    """All nonnegative integer tuples of length `parts` summing to `total`,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def grid_oracle(
    scenarios,
    config: RiskMeasureConfig,
    step: float = 0.01,
    target: float | None = None,
):
    """Exhaustive lattice search over weights in multiples of `step`.

    With a target, candidates must match the mean within half a lattice
    rung: |mean(w) - target| <= (step/2) * (max asset mean - min asset mean).
    Ties keep the first (lexicographically smallest) weight vector.
    Returns (weights, risk).
    """
    s = _validate_scenarios(scenarios)
    n = s.shape[1]
    if n > 4:
        raise TooManyAssets(f"grid oracle is exhaustive; {n} assets is too many")
    inverse = 1.0 / step if 0.0 < step <= 1.0 else 0.0  # inf for a subnormal step
    k = round(inverse) if math.isfinite(inverse) else 0
    if k < 1 or abs(k * step - 1.0) > 1e-9:
        raise BadParameter("step must divide 1")
    means = s.mean(axis=0)
    band = 0.5 * step * float(means.max() - means.min()) + 1e-12
    value = config._bind(s.shape[0])
    best_w = None
    best_risk = math.inf
    for counts in _compositions(k, n):
        w = np.array(counts, dtype=float) / k
        if target is not None and not abs(float(w @ means) - target) <= band:
            continue
        try:
            risk = value(s @ w)
        except NonPositiveMean:
            continue
        if risk < best_risk:
            best_risk = risk
            best_w = w
    if best_w is None:
        raise InfeasibleTarget("no lattice point satisfies the constraints")
    return best_w, best_risk
