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
  the search simplex collapsed at a feasible point.

A target at either end of the attainable range has a single feasible
portfolio (the extreme asset, ties to the lowest index), which is returned
directly for every kind.

grid_oracle brute-forces the same problem on the weight lattice with the
given step, for small asset counts, as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exact
from .errors import (
    BadParameter,
    DimensionMismatch,
    InfeasibleTarget,
    NonPositiveMean,
    NonPositiveMeanRegion,
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

    Returns (x_best, f_best, iterations, final_diameter).
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    max_iter = _ITER_PER_DIM * n
    simplex = [x0]
    for i in range(n):
        step = np.zeros(n)
        step[i] = _STEP
        simplex.append(x0 + step)
    simplex = np.array(simplex)
    fvals = np.array([f(x) for x in simplex])

    iterations = 0
    while True:
        order = np.argsort(fvals, kind="stable")
        simplex = simplex[order]
        fvals = fvals[order]
        diameter = float(np.max(np.abs(simplex[1:] - simplex[0]), initial=0.0))
        if diameter <= _DIAMETER_TOL or iterations >= max_iter:
            return simplex[0], float(fvals[0]), iterations, diameter
        iterations += 1
        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_r = f(reflected)
        if f_r < fvals[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_e = f(expanded)
            if f_e < f_r:
                simplex[-1], fvals[-1] = expanded, f_e
            else:
                simplex[-1], fvals[-1] = reflected, f_r
        elif f_r < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, f_r
        else:
            contracted = centroid + 0.5 * (worst - centroid)
            f_c = f(contracted)
            if f_c < fvals[-1]:
                simplex[-1], fvals[-1] = contracted, f_c
            else:
                simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                fvals[1:] = [f(x) for x in simplex[1:]]


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
    if s.ndim != 2 or s.shape[0] < 2 or s.shape[1] < 1:
        raise BadParameter("scenarios must be a T x N matrix with T >= 2")
    if not np.isfinite(s).all():
        raise BadParameter("scenarios must be finite")
    return s


def portfolio_returns(scenarios, weights) -> np.ndarray:
    """Per-scenario portfolio return, scenarios @ weights."""
    s = _validate_scenarios(scenarios)
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size != s.shape[1]:
        raise DimensionMismatch(
            f"weights have length {w.size}, scenarios have {s.shape[1]} columns"
        )
    if not np.isfinite(w).all():
        raise BadParameter("weights must be finite")
    return s @ w


def _simplex_point(theta: np.ndarray) -> np.ndarray:
    """Squared hyperspherical coordinates: k - 1 angles give a point of the
    k-simplex, w_i = cos^2(theta_i) * prod_{j<i} sin^2(theta_j)."""
    rest = np.concatenate([[1.0], np.cumprod(np.sin(theta) ** 2)])
    return np.concatenate([rest[:-1] * np.cos(theta) ** 2, rest[-1:]])


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
    hi = gap >= 0.0
    lo = ~hi
    split = int(hi.sum()) - 1

    def to_weights(theta: np.ndarray) -> np.ndarray:
        p = _simplex_point(theta[:split])
        q = _simplex_point(theta[split:])
        up = float(gap[hi] @ p)
        down = -float(gap[lo] @ q)
        w = np.empty(means.size)
        w[hi] = down * p
        w[lo] = up * q
        return w / (up + down)

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


def min_risk(
    scenarios,
    config: RiskMeasureConfig,
    target: float | None = None,
    w0=None,
) -> FrontierPoint:
    """Minimum-risk long-only weights, optionally at a mean-return target.

    w0 warm-starts the Nelder-Mead kinds; the exact kinds ignore it.
    """
    s = _validate_scenarios(scenarios)
    n = s.shape[1]
    means = s.mean(axis=0)
    if means.max() <= 0.0:
        raise NonPositiveMeanRegion("no long-only portfolio has a positive mean")
    if target is not None:
        if target > means.max() + 1e-12 or target < means.min() - 1e-12:
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
            if config.kind in exact.EXACT_KINDS:
                # Certified over the portfolios whose mean is exactly the
                # extreme asset's: that asset and any exact ties.
                cert = exact.certificate(
                    s, config.kind, means, float(means @ w), config.tail_fraction, w
                )
            return _make_point(s, config, w, target, True, 0, cert)
    if config.kind in exact.EXACT_KINDS:
        w, cert, steps = exact.solve(s, config.kind, target, config.tail_fraction)
        return _make_point(s, config, w, target, True, steps, cert)
    if w0 is not None:
        starts = [np.asarray(w0, dtype=float)]
    else:
        # Nelder-Mead is local and the gs measures are not convex, so a cold
        # solve fans out from the center and from every vertex.
        starts = [np.full(n, 1.0 / n)]
        starts.extend(np.eye(n)[k] for k in range(n))
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
    return min(
        (solve(w) for w in starts),
        key=lambda p: math.inf if math.isnan(p.risk) else p.risk,
    )


def efficient_frontier(
    scenarios,
    config: RiskMeasureConfig,
    n_points: int = 10,
    tickers: list[str] | None = None,
) -> FrontierResult:
    """Risk-minimal portfolios from the global minimum's mean up to the best
    single-asset mean. Failed points are recorded and the sweep continues:
    when the global minimum sits on the best asset, rounding can put its
    mean just past the best asset mean, and the targets between them are
    then outside the attainable range."""
    s = _validate_scenarios(scenarios)
    if n_points < 2:
        raise BadParameter("a frontier needs at least two points")
    means = s.mean(axis=0)
    if means.max() <= 0.0:
        raise NonPositiveMeanRegion("no long-only portfolio has a positive mean")
    if tickers is None:
        tickers = [f"a{i + 1}" for i in range(s.shape[1])]

    anchor = min_risk(s, config)
    result = FrontierResult(points=[anchor], tickers=list(tickers))
    targets = np.linspace(anchor.mean, float(means.max()), n_points)
    w_prev = anchor.weights
    for t in targets[1:]:
        try:
            point = min_risk(s, config, target=float(t), w0=w_prev)
        except InfeasibleTarget as exc:
            point = FrontierPoint(
                weights=np.full(s.shape[1], math.nan),
                mean=math.nan,
                risk=math.nan,
                target=float(t),
                converged=False,
                iterations=0,
                residual_budget=math.nan,
                residual_target=math.nan,
                min_weight=math.nan,
                message=str(exc),
            )
        else:
            if point.converged:
                w_prev = point.weights
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
    k = round(1.0 / step)
    if k < 1 or abs(k * step - 1.0) > 1e-9:
        raise BadParameter("step must divide 1")
    means = s.mean(axis=0)
    band = 0.5 * step * float(means.max() - means.min()) + 1e-12
    value = config._bind(s.shape[0])
    best_w = None
    best_risk = math.inf
    for counts in _compositions(k, n):
        w = np.array(counts, dtype=float) / k
        if target is not None and abs(float(w @ means) - target) > band:
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
