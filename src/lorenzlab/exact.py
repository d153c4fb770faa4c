"""Exact long-only solvers for the variance, CVaR and MAD kinds.

Each minimizes a convex risk of r = S @ w over X = {w >= 0, sum w = 1},
optionally with mean(S) . w = target, in finitely many steps, and reports a
certificate recomputed from scratch from its result:

- variance: the QP min w'Cw by the primal active-set method (Nocedal &
  Wright 2006, Alg. 16.3), started at the center of X. A singular C (fewer
  scenarios than assets, duplicate or constant columns) needs no extra step:
  the gradient Cw has no component along a flat direction of C, so each
  face step is the model's minimum with the flat directions left out.
  Certificate: the KKT residual (w'g - min over X of g.v) / w'g, g = Cw.
- cvar and mad: the duals of the Rockafellar-Uryasev (2000) and
  Konno-Yamazaki (1991) LPs, solved by one dense bounded-variable simplex
  routine. The dual variables are a worst-case scenario distribution q
  (0 <= q_t <= 1/(pT), sum q = 1) for cvar and signed scenario weights y
  (|y_t| <= 1/T) for mad; the weights w are the prices of the dual's N
  asset rows. Certificate: the relative gap between the risk at w and the
  lower bound that q or y proves, plus the primal and dual feasibility
  residuals. A target enters these LPs only through the cost of a column
  nu that is held at 0 without one, so a frontier re-enters phase two from
  the previous point's final simplex state at the next target.

Every lower bound is min over X of a linear function, which _linear_min
evaluates exactly on the vertices of X.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

EXACT_KINDS = ("variance", "cvar", "mad")
CERTIFICATE_TOL = 1e-9

# A risk below this share of the data's own scale is measured against that
# scale, so an optimum of zero (a constant column) can still be certified.
_FLOOR = 1e-4
_STEP_TOL = 1e-13  # active-set steps this short (in weight units) are taken as zero
_TOL = 1e-12  # reduced costs and pivots, on LP data scaled to max |entry| = 1


def _linear_min(c: np.ndarray, means: np.ndarray, target: float | None) -> float:
    """min of c . v over X. Without a target the vertices of X are the single
    assets; with one they are the assets whose mean is the target and every
    pair on either side of it, mixed in the only ratio that meets it."""
    if target is None:
        return float(c.min())
    gap = means - target
    best = float(c[gap == 0.0].min(initial=np.inf))
    hi, lo = gap > 0.0, gap < 0.0
    if hi.any() and lo.any():
        g_hi, g_lo = gap[hi][:, None], gap[lo][None, :]
        mixes = (c[hi][:, None] * -g_lo + c[lo][None, :] * g_hi) / (g_hi - g_lo)
        best = min(best, float(mixes.min()))
    return best


def _feasible_center(means: np.ndarray, target: float | None) -> np.ndarray:
    """The simplex center, or with a target strictly inside the range of
    means, the uniform weights over the assets at or above it mixed with the
    uniform weights over those below in the ratio that meets it."""
    if target is None:
        return np.full(means.size, 1.0 / means.size)
    gap = means - target
    hi = gap >= 0.0
    p = hi / hi.sum()
    q = ~hi / (~hi).sum()
    up, down = float(gap @ p), -float(gap @ q)
    return (down * p + up * q) / (up + down)


def solve(
    s: np.ndarray, kind: str, means: np.ndarray, target: float | None, tail_fraction: float, lp=None
):
    """Minimum-risk weights for an exact kind, given s's column means:
    (w, certificate, steps, lp), steps counting active-set steps or pivots.

    For cvar and mad, lp is the simplex's final state (None for variance).
    Passed back with a target on the same scenarios, kind and tail
    fraction, the solve runs phase two only, from that state's basis."""
    if kind == "variance":
        w, steps = _variance(s, means, target)
        return w, certificate(s, kind, means, target, tail_fraction, w), steps, None
    # The LP is solved on S scaled to max |entry| = 1, which leaves the
    # minimizer unchanged and puts the tolerances on a fixed scale.
    scale = float(np.max(np.abs(s)))
    args = (s / scale, means / scale, None if target is None else target / scale, lp)
    if kind == "cvar":
        w, dual, steps, lp = _cvar_dual(*args, tail_fraction)
    else:
        w, dual, steps, lp = _mad_dual(*args)
    return w, certificate(s, kind, means, target, tail_fraction, w, dual), steps, lp


def certificate(s, kind, means, target, tail_fraction, w, dual=None) -> float:
    """Relative optimality certificate of w, recomputed from scratch.

    For cvar and mad, `dual` is the LP dual vector (q or y); without one the
    subgradient of the risk at w stands in, which certifies a point whose
    feasible set is a single portfolio.
    """
    t = s.shape[0]
    budget = abs(float(w.sum()) - 1.0) + max(0.0, -float(w.min()))
    if target is not None:
        budget += abs(float(means @ w) - target) / float(np.max(np.abs(means)))
    d = s - means
    if kind == "variance":
        cov = _covariance(d)
        g = cov @ w
        value = float(w @ g)
        gap = value - _linear_min(g, means, target)
        return _relative(gap, value, float(np.max(np.diag(cov)))) + budget
    scale = float(np.max(np.abs(s)))
    if kind == "cvar":
        cap = 1.0 / (tail_fraction * t)
        losses = -(s @ w)
        order = np.argsort(losses)[::-1]
        mass = np.clip(1.0 - cap * np.arange(t), 0.0, cap)
        value = float(mass @ losses[order])
        if dual is None:
            dual = np.empty(t)
            dual[order] = mass
        bound = _linear_min(-(s.T @ dual), means, target)
        infeasible = abs(float(dual.sum()) - 1.0) + t * (
            max(0.0, -float(dual.min())) + max(0.0, float(dual.max()) - cap)
        )
    else:
        dev = d @ w
        value = float(np.mean(np.abs(dev)))
        if dual is None:
            dual = np.sign(dev) / t
        bound = _linear_min(d.T @ dual, means, target)
        infeasible = t * max(0.0, float(np.max(np.abs(dual))) - 1.0 / t)
    return _relative(value - bound, value, scale) + budget + infeasible


def _relative(gap: float, value: float, scale: float) -> float:
    return gap / max(abs(value), _FLOOR * scale, np.finfo(float).tiny)


# -- variance: primal active set ---------------------------------------------------


def _covariance(d: np.ndarray) -> np.ndarray:
    """d'd / T of the centered scenarios d; an overflow is refused."""
    with np.errstate(over="ignore", invalid="ignore"):
        cov = d.T @ d / d.shape[0]
    if not np.isfinite(cov).all():
        raise NumericError("scenario covariance is not finite: the scenarios overflow")
    return cov


def _variance(s, means, target):
    n = s.shape[1]
    cov = _covariance(s - means)
    rows = np.ones((1, n)) if target is None else np.vstack([np.ones(n), means])
    w = _feasible_center(means, target)
    free = w > 0.0
    curvature = float(np.max(np.diag(cov)))
    at_minimum = False
    for steps in range(1, 50 * (n + 1) + 1):
        f = np.flatnonzero(free)
        g = cov @ w
        if not at_minimum:
            p = _face_step(cov[np.ix_(f, f)], g[f], rows[:, f], curvature)
            if np.max(np.abs(p), initial=0.0) > _STEP_TOL:
                # p sums to zero, so some weight shrinks and blocks the step.
                shrink = np.flatnonzero(p < 0.0)
                ratios = w[f[shrink]] / -p[shrink]
                k = int(np.argmin(ratios))
                if ratios[k] >= 1.0:
                    w[f] += p
                    at_minimum = True
                else:
                    w[f] += max(float(ratios[k]), 0.0) * p
                    w[f[shrink[k]]] = 0.0
                    free[f[shrink[k]]] = False
                continue
        # w minimizes over its face; release the bound with the most
        # negative multiplier, if any.
        lam = np.linalg.lstsq(rows[:, f].T, g[f], rcond=None)[0]
        z = np.where(free, np.inf, g - lam @ rows)
        j = int(np.argmin(z))
        if not z[j] < -1e-11 * float(np.max(np.abs(g))):
            return w, steps
        free[j] = True
        at_minimum = False
    return w, steps


def _face_step(hess, grad, rows, curvature):
    """Step p on the face (rows @ p = 0) to the minimum of the quadratic model
    1/2 p'Hp + grad.p, with grad = Hw. H is positive semidefinite, so a flat
    direction u of the face has Hu = 0 and u.grad = (Hu).w = 0: the model is
    bounded below, and p leaves the flat directions out."""
    _, sv, vt = np.linalg.svd(rows)
    basis = vt[int(np.sum(sv > 1e-12 * sv[0])) :].T
    if basis.shape[1] == 0:
        return np.zeros(rows.shape[1])
    ev, vec = np.linalg.eigh(basis.T @ hess @ basis)
    coef = vec.T @ (basis.T @ grad)
    curved = ev > 1e-12 * curvature
    return -basis @ (vec[:, curved] @ (coef[curved] / ev[curved]))


# -- cvar and mad: the LP duals --------------------------------------------------------


def _dual_lp(asset_rows, means, target, lo, hi, start, lp, sum_row=False):
    """The shared LP form: maximize lam + nu * target over the scenario
    columns x (lo <= x <= hi), with asset rows asset_rows @ x + lam
    + nu * mean_i + slack_i = 0, and with sum_row, sum x = 1.

    nu is held at 0 without a target, so the LP and its state have the same
    columns either way. Without a state lp the LP is solved from start in two
    phases; with one, phase two re-enters from lp's basis at a target, nu
    freed on copies of the state's bounds, where that basis stays feasible.

    Returns (weights, x, pivots, lp); the weights are the asset rows' prices.
    """
    n, t = asset_rows.shape
    c = np.zeros(t + 2 + n)
    c[t] = 1.0
    c[t + 1] = 0.0 if target is None else target
    nu_lo, nu_hi = (0.0, 0.0) if target is None else (-np.inf, np.inf)
    if lp is None:
        m = n + sum_row
        a = np.zeros((m, t + 2 + n))
        a[:n, :t] = asset_rows
        a[:n, t] = 1.0
        a[:n, t + 1] = means
        a[:n, t + 2 :] = np.eye(n)
        b = np.zeros(m)
        if sum_row:
            a[n, :t] = 1.0
            b[n] = 1.0
        lower = np.concatenate([lo, [-np.inf, nu_lo], np.zeros(n)])
        upper = np.concatenate([hi, [np.inf, nu_hi], np.full(n, np.inf)])
        x0 = np.concatenate([start, np.zeros(2 + n)])
        x, prices, pivots, lp = _bounded_simplex(c, a, b, lower, upper, x0)
    else:
        a, b, lower, upper, xs, basis = lp
        lower, upper = lower.copy(), upper.copy()
        lower[t + 1], upper[t + 1] = nu_lo, nu_hi
        x, prices, pivots, lp = _phase_two((a, b, lower, upper, xs, basis), c)
    w = np.maximum(prices[:n], 0.0)
    return w / w.sum(), x[:t], pivots, lp


def _cvar_dual(s, means, target, lp, tail_fraction):
    t = s.shape[0]
    cap = 1.0 / (tail_fraction * t)
    # Start with full mass on the worst scenarios of the center portfolio.
    start = np.zeros(t)
    start[np.argsort(s @ _feasible_center(means, target))[: min(int(1.0 / cap), t)]] = cap
    return _dual_lp(s.T, means, target, np.zeros(t), np.full(t, cap), start, lp, sum_row=True)


def _mad_dual(s, means, target, lp):
    t = s.shape[0]
    d = s - means
    bound = np.full(t, 1.0 / t)
    start = np.where(d @ _feasible_center(means, target) >= 0.0, bound, -bound)
    return _dual_lp(-d.T, means, target, -bound, bound, start, lp)


# -- the simplex routine -----------------------------------------------------------


def _bounded_simplex(c, a, b, lo, hi, x):
    """Maximize c . x subject to a @ x = b and lo <= x <= hi.

    Dense bounded-variable primal simplex in two phases. x holds a start
    value for every column: a finite bound, or 0 for a free column. Phase
    one adds one artificial column per row that carries the start's residual
    and drives it out. Dantzig pricing switches to Bland's rule while the
    objective stalls, so degenerate pivots cannot cycle.

    Returns (x, prices, pivots, lp) as _phase_two does, pivots counting
    both phases.
    """
    m, n = a.shape
    residual = b - a @ x
    a = np.hstack([a, np.diag(np.where(residual < 0.0, -1.0, 1.0))])
    x = np.concatenate([x, np.abs(residual)])
    lo = np.concatenate([lo, np.zeros(m)])
    hi = np.concatenate([hi, np.full(m, np.inf)])
    basis = np.arange(n, n + m)
    pivots = _pivot(a, b, np.concatenate([np.zeros(n), -np.ones(m)]), lo, hi, x, basis)
    hi[n:] = 0.0  # artificial columns stay at zero from here on
    x, prices, more, lp = _phase_two((a, b, lo, hi, x, basis), c)
    return x, prices, pivots + more, lp


def _phase_two(lp, c):
    """Phase two: maximize c . x from the feasible state lp = (a, b, lo, hi,
    x, basis), whose matrix ends in the artificial columns held at zero.

    Returns (x, prices, pivots, lp): x without the artificial columns, the
    row duals of the optimal basis, the basis changes and bound flips, and
    the final state. The state passed in is left as it was.
    """
    a, b, lo, hi, x, basis = lp
    x, basis = x.copy(), basis.copy()
    cost = np.concatenate([c, np.zeros(a.shape[0])])
    pivots = _pivot(a, b, cost, lo, hi, x, basis)
    prices = np.linalg.solve(a[:, basis].T, cost[basis])
    return x[: c.size], prices, pivots, (a, b, lo, hi, x, basis)


def _pivot(a, b, cost, lo, hi, x, basis) -> int:
    """Simplex iterations from the basis given, updating x and basis in
    place until no nonbasic column can improve the objective. A bound flip
    keeps the basis, so only a basis change refactors it."""
    m, n = a.shape
    nonbasic = np.ones(n, dtype=bool)
    nonbasic[basis] = False
    best, stalled, changed = -np.inf, 0, True
    for its in range(20 * (m + n)):
        if changed:
            binv = np.linalg.inv(a[:, basis])
            x[basis] = 0.0
            x[basis] = binv @ (b - a @ x)
            d = cost - (cost[basis] @ binv) @ a
        up = nonbasic & (d > _TOL) & (x < hi)
        down = nonbasic & (d < -_TOL) & (x > lo)
        enter = up | down
        if not enter.any():
            return its
        value = float(cost @ x)
        stalled = stalled + 1 if value <= best + _TOL * (1.0 + abs(best)) else 0
        best = max(best, value)
        bland = stalled > m
        j = int(np.flatnonzero(enter)[0] if bland else np.argmax(np.abs(d) * enter))
        sign = 1.0 if up[j] else -1.0
        move = -sign * (binv @ a[:, j])
        xb, lb, ub = x[basis], lo[basis], hi[basis]
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(
                move < -_TOL,
                (xb - lb) / -move,
                np.where(move > _TOL, (ub - xb) / move, np.inf),
            )
        room = np.maximum(room, 0.0)
        r = int(np.argmin(room))
        changed = room[r] < hi[j] - lo[j]
        if not changed:
            # The entering column reaches its other bound first: a bound flip.
            if not np.isfinite(hi[j] - lo[j]):
                raise NumericError("linear program is unbounded")
            x[j] += sign * (hi[j] - lo[j])
            x[basis] += move * (hi[j] - lo[j])
            continue
        ties = np.flatnonzero(room <= room[r] + _TOL)
        r = int(ties[np.argmin(basis[ties])] if bland else ties[np.argmax(np.abs(move[ties]))])
        x[j] += sign * room[r]
        out = basis[r]
        x[out] = lb[r] if move[r] < 0.0 else ub[r]
        basis[r] = j
        nonbasic[j] = False
        nonbasic[out] = True
    return its + 1
