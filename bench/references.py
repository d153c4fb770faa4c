"""Certified references for the benchmark's quality metrics.

Nothing here calls into lorenzlab: each reference is computed from its
definition with numpy and scipy, and returns its own certificate (a duality
gap or a KKT residual) so a quality gap is never measured against an
unchecked number.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy.optimize import linprog
from scipy.special import ndtri
from scipy.stats import rankdata

GOLDEN = (1.0 + 5.0**0.5) / 2.0


def cvar_lp(scenarios: np.ndarray, tail: float, target: float | None):
    """Rockafellar-Uryasev LP for the long-only minimum CVaR.

    min a + sum(z) / (tail * T)  s.t.  z >= -S w - a, z >= 0, w >= 0,
    sum(w) = 1 and, with a target, mean(S) . w = target.
    Returns (optimum, certificate): the certificate is the larger of the
    relative primal-dual objective gap and the worst constraint violation.
    """
    t, n = scenarios.shape
    c = np.concatenate([np.zeros(n), [1.0], np.full(t, 1.0 / (tail * t))])
    a_ub = np.hstack([-scenarios, -np.ones((t, 1)), -np.eye(t)])
    b_ub = np.zeros(t)
    eq_rows = [np.concatenate([np.ones(n), np.zeros(1 + t)])]
    b_eq = [1.0]
    if target is not None:
        eq_rows.append(np.concatenate([scenarios.mean(axis=0), np.zeros(1 + t)]))
        b_eq.append(target)
    a_eq = np.array(eq_rows)
    b_eq = np.array(b_eq)
    bounds = [(0.0, None)] * n + [(None, None)] + [(0.0, None)] * t
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"CVaR LP failed: {res.message}")
    # With b_ub = 0 and zero lower bounds, the dual objective is b_eq . y_eq.
    dual = float(b_eq @ res.eqlin.marginals)
    x = res.x
    violation = max(
        float(np.max(a_ub @ x - b_ub, initial=0.0)),
        float(np.max(np.abs(a_eq @ x - b_eq))),
        float(np.max(-x[:n], initial=0.0)),
        float(np.max(-x[n + 1 :], initial=0.0)),
    )
    gap = abs(res.fun - dual) / max(abs(res.fun), 1e-300)
    return float(res.fun), max(gap, violation)


def variance_qp(scenarios: np.ndarray, target: float | None):
    """Exact long-only minimum variance by enumerating supports.

    The problem is a convex QP with a positive definite covariance, so its
    minimizer is the equality-constrained minimizer on its own support. Every
    support is solved, the best feasible one kept, and the KKT conditions
    are then checked on the full problem. Returns (optimum, kkt_residual).
    """
    cov = np.cov(scenarios, rowvar=False, bias=True)
    means = scenarios.mean(axis=0)
    n = means.size
    rows = [np.ones(n)] + ([means] if target is not None else [])
    rhs = [1.0] + ([target] if target is not None else [])
    m = len(rows)
    best_w, best_val = None, np.inf
    for size in range(1, n + 1):
        for support in combinations(range(n), size):
            f = list(support)
            a = np.array([r[f] for r in rows])
            kkt = np.block([[2.0 * cov[np.ix_(f, f)], a.T], [a, np.zeros((m, m))]])
            b = np.concatenate([np.zeros(size), rhs])
            sol, *_ = np.linalg.lstsq(kkt, b, rcond=None)
            if np.max(np.abs(kkt @ sol - b)) > 1e-12 * max(1.0, np.max(np.abs(b))):
                continue  # no solution on this support (e.g. unattainable target)
            w = np.zeros(n)
            w[f] = sol[:size]
            if w.min() < 0.0:
                continue
            val = float(w @ cov @ w)
            if val < best_val:
                best_w, best_val = w, val
    if best_w is None:
        raise RuntimeError("variance QP has no feasible support")
    return best_val, _kkt_residual(cov, np.array(rows), np.array(rhs), best_w)


def _kkt_residual(cov, a, b, w) -> float:
    """Worst KKT violation of min w'Cw s.t. a w = b, w >= 0, relative to the
    gradient scale. The multipliers are chosen by a small LP that minimizes
    the worst of stationarity on the support and dual infeasibility off it,
    which also covers supports too small to fix the multipliers."""
    grad = 2.0 * cov @ w
    on = w > 1e-12  # weights below this are rounding noise of a zero
    m = a.shape[0]
    rows = np.vstack([a[:, on].T, -a[:, on].T, a[:, ~on].T])
    rhs = np.concatenate([grad[on], -grad[on], grad[~on]])
    res = linprog(
        np.concatenate([np.zeros(m), [1.0]]),
        A_ub=np.hstack([rows, -np.ones((rows.shape[0], 1))]),
        b_ub=rhs,
        bounds=[(None, None)] * m + [(0.0, None)],
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"KKT multiplier LP failed: {res.message}")
    scale = max(float(np.max(np.abs(grad))), 1e-300)
    return max(float(res.x[-1]) / scale, float(np.max(np.abs(a @ w - b))))


def normal_scores_corr(values: np.ndarray) -> np.ndarray:
    """Correlation of van der Waerden scores, the dependence the Gaussian
    copula is meant to carry over from history to simulation."""
    t = values.shape[0]
    ranks = rankdata(values, method="average", axis=0)
    return np.corrcoef(ndtri(ranks / (t + 1.0)), rowvar=False)


def copula_error(history: np.ndarray, simulated: np.ndarray) -> float:
    """Relative Frobenius distance between simulated and historical
    normal-score correlations."""
    target = normal_scores_corr(history)
    return float(np.linalg.norm(normal_scores_corr(simulated) - target) / np.linalg.norm(target))


# -- risk measures from their definitions ---------------------------------------


def _kuma(x):
    return 1.0 - (1.0 - x) ** (1.0 / GOLDEN)


def _power(x):
    return x**GOLDEN


def _kuma_area(t):
    a = 1.0 + 1.0 / GOLDEN
    return t - (1.0 - (1.0 - t) ** a) / a


def _power_area(t):
    return t ** (1.0 + GOLDEN) / (1.0 + GOLDEN)


class _Target:
    """Two golden-shape tails, each a (kuma, power) mix, joined by a chord."""

    def __init__(self, beta_down, beta_up, down, up):
        self.bd, self.bu, self.down, self.up = beta_down, beta_up, down, up
        self.y_d = down[0] * _kuma(beta_down) + down[1] * _power(beta_down)
        self.y_u = up[0] * _kuma(beta_up) + up[1] * _power(beta_up)

    def __call__(self, x):
        lo = self.down[0] * _kuma(x) + self.down[1] * _power(x)
        hi = self.up[0] * _kuma(x) + self.up[1] * _power(x)
        chord = self.y_d + (self.y_u - self.y_d) * (x - self.bd) / (self.bu - self.bd)
        return np.where(x < self.bd, lo, np.where(x > self.bu, hi, chord))

    def integral(self):
        lower = self.down[0] * _kuma_area(self.bd) + self.down[1] * _power_area(self.bd)
        upper = self.up[0] * (_kuma_area(1.0) - _kuma_area(self.bu)) + self.up[1] * (
            _power_area(1.0) - _power_area(self.bu)
        )
        return lower + 0.5 * (self.bu - self.bd) * (self.y_d + self.y_u) + upper


# The CLI's default targets for gs1 and gs2.
_TARGETS = {
    "gs1": _Target(0.25, 0.75, (0.3, 0.7), (0.8, 0.2)),
    "gs2": _Target(0.0, 0.75, (0.3, 0.7), (1.0, 0.0)),
}


def _lorenz_distance(x, v, target):
    x = np.sort(x)
    t = x.size
    knots = np.cumsum(x)[:-1] / x.sum()
    xi = np.arange(1, t) / t
    dev = np.sum((1.0 - xi) ** (v - 2.0) * np.abs(knots - target(xi)))
    return x.mean() * v * (v - 1.0) / target.integral() * dev / (t - 1.0)


def reference_measure(kind: str, x: np.ndarray, tail: float, v: float = 2.5) -> float:
    """The CLI's seven risk measures, written out from their definitions."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if kind == "variance":
        return float(np.mean((x - x.mean()) ** 2))
    if kind == "mad":
        return float(np.mean(np.abs(x - x.mean())))
    if kind == "cvar":
        losses = np.sort(-x)[::-1]
        k = tail * n
        whole = int(np.floor(k + 1e-9))
        part = k - whole
        tail_sum = losses[:whole].sum() + (part * losses[whole] if part > 1e-9 else 0.0)
        return float(tail_sum / k)
    if kind == "gmd":
        s = np.sort(x)
        below = np.cumsum(s) - s  # sum of the smaller order statistics
        return float(2.0 * np.sum(np.arange(n) * s - below) / (n * (n - 1.0)))
    if kind == "extended_gini":
        s = np.sort(x)
        xi = np.arange(1, n) / n
        knots = np.cumsum(s)[:-1] / s.sum()
        return float(v * (v - 1.0) / (n - 1.0) * np.sum((1.0 - xi) ** (v - 2.0) * (xi - knots)))
    sample = x if kind == "gs1" else np.abs(x)
    return float(_lorenz_distance(sample, v, _TARGETS[kind]))
