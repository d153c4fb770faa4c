"""Iterating the Lorenz operators and their golden-ratio limits.

Each step treats the current curve as a c.d.f., re-extracts its quantile by
generalized inversion on the same grid, and applies the operator again.

A mode is described once, by its operator, the operator's exact inverse and
a power family f(x, a):

    primal:     f(x, a) = x**a
    reflected:  f(x, a) = 1 - (1 - x)**(1/a)

The iteration converges to f(x, phi), with phi the golden ratio. The alpha
sequence alpha_1 = 1, alpha_{n+1} = 1 + 1/alpha_n (ratios of consecutive
Fibonacci numbers) drives the theoretical envelopes: from the second
operator output on, the n-th iterate is pinched between f(x, alpha_n) and
f(x, alpha_{n+1}). The first output is only guaranteed classical.
Consecutive rounds share one exponent, so checking a round against its
envelopes computes one new power of the grid; the other is the previous
round's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .curves import GOLDEN, DEFAULT_GRID, MonotoneCurve, _count, _uniform_grid, _write_table
from .curves import _primal_power, _reflected_power
from .errors import BadParameter
from .lorenz import (
    LorenzCurve,
    lorenz_transform,
    primal_inverse,
    reflected_inverse,
    reflected_transform,
    unit_support,
)

ENVELOPE_SLACK = 1e-6

_MODES = ("primal", "reflected")

# Envelope curves kept alive at once: a round reads two, one of which the
# next round reads again.
_ENVELOPE_CACHE_SIZE = 4


def _mode(mode: str):
    """(operator, its exact inverse, power family f(x, a)) of a mode.

    The operators are looked up at call time, so a caller that rebinds this
    module's names (the benchmark's tracer) sees every call.
    """
    if mode == "primal":
        return lorenz_transform, primal_inverse, _primal_power
    if mode == "reflected":
        return reflected_transform, reflected_inverse, _reflected_power
    raise BadParameter(f"mode must be one of {_MODES}, got {mode!r}")


def alpha_sequence(count: int) -> np.ndarray:
    """First `count` terms of alpha_1 = 1, alpha_{n+1} = 1 + 1/alpha_n."""
    count = _count(count, "count")
    if count < 1:
        raise BadParameter("need at least one term")
    out = np.empty(count)
    out[0] = 1.0
    for i in range(1, count):
        out[i] = 1.0 + 1.0 / out[i - 1]
    return out


def limit_curve(mode: str, grid_size: int = DEFAULT_GRID) -> LorenzCurve:
    """Limit of the iteration: x**phi, or its reflection 1 - (1-x)**(1/phi)."""
    power = _mode(mode)[2]
    return LorenzCurve(power(_uniform_grid(grid_size), GOLDEN))


@lru_cache(maxsize=_ENVELOPE_CACHE_SIZE)
def _grid_power(mode: str, grid_size: int, a) -> np.ndarray:
    """f(x, a) of the mode at the nodes of the size-M grid, read-only."""
    values = _mode(mode)[2](_uniform_grid(grid_size), a)
    values.flags.writeable = False
    return values


def envelope_violation(curve: MonotoneCurve, index: int, mode: str) -> float:
    """Worst node excursion of `curve` outside its envelope.

    index is 0-based into the trace: index 0 (the first output) is only
    checked classical (0 <= L <= x); later outputs use the alpha envelopes,
    where the larger exponent gives the lower power curve. Round n binds
    (alpha_n, alpha_{n+1}) and round n + 1 binds (alpha_{n+1}, alpha_{n+2}),
    so the envelope curves are cached per (mode, M, exponent) and each round
    computes one new power; the other carries over from the round before.
    """
    x = curve.grid
    v = curve.values
    if index == 0:
        lower = np.zeros_like(x)
        upper = x
    else:
        pair = alpha_sequence(index + 1)[index - 1 :]
        larger, smaller = pair.max(), pair.min()
        lower = _grid_power(mode, curve.grid_size, larger)
        upper = _grid_power(mode, curve.grid_size, smaller)
    excess = np.maximum(lower - v, v - upper)
    return float(max(excess.max(), 0.0))


@dataclass
class IterationTrace:
    curves: list[LorenzCurve] = field(default_factory=list)
    sup_to_limit: list[float] = field(default_factory=list)
    sup_successive: list[float] = field(default_factory=list)
    envelope_violations: list[float] = field(default_factory=list)
    envelope_ok: list[bool] = field(default_factory=list)
    converged: bool = False
    no_progress: bool = False

    @property
    def iterations(self) -> int:
        return len(self.curves)


def run_iteration(
    start: MonotoneCurve,
    mode: str,
    max_iter: int = 40,
    tol: float = 1e-4,
    *,
    normalize: bool = False,
) -> IterationTrace:
    """Iterate the operator from a starting quantile curve.

    `start` is a quantile function on the grid. normalize=True rescales the
    start by its maximum, which only the reflected mode accepts (later
    iterates live in [0, 1] automatically). Stops when successive curves
    agree within `tol` in sup norm, or after max_iter applications. The gap
    contracts by about 1/phi**2 per round until rounding stops it, so the first
    gap from round 3 on that does not fall sets no_progress; it never stops.
    """
    transform, inverse, _ = _mode(mode)
    max_iter = _count(max_iter, "max_iter")
    if max_iter < 1:
        raise BadParameter("max_iter must be at least 1")
    if not tol >= 0:
        raise BadParameter(f"tol must be at least 0, got {tol}")
    if normalize and mode != "reflected":
        raise BadParameter("normalize applies to the reflected mode only")
    # One memo per run: each cell search that repeats every round (the primal
    # inverse, the reflected operator's two routes, and the reflected
    # inverse's search of Q's node values) starts from the cells it found the
    # round before, which barely move once the iteration settles.
    cells = {}
    inverse = partial(inverse, cells=cells)
    if mode == "reflected":
        transform = partial(transform, cells=cells)
    grid = start.grid
    limit = limit_curve(mode, start.grid_size).values
    trace = IterationTrace()
    quantile = start
    if normalize:
        # unit_support is idempotent, so later rounds see the same values
        quantile = unit_support(start, normalize=True)
    curve = transform(quantile)
    for n in range(1, max_iter + 1):
        trace.curves.append(curve)
        trace.sup_to_limit.append(float(np.max(np.abs(curve.values - limit))))
        if n == 1:
            gap = math.nan
        else:
            gap = float(np.max(np.abs(curve.values - trace.curves[-2].values)))
        trace.sup_successive.append(gap)
        trace.converged = bool(gap < tol)
        trace.envelope_violations.append(envelope_violation(curve, n - 1, mode))
        trace.envelope_ok.append(trace.envelope_violations[-1] <= ENVELOPE_SLACK)
        if trace.converged:
            break
        if n >= 3 and not gap < trace.sup_successive[-2]:
            trace.no_progress = True
        if n == max_iter:
            break
        # The next quantile is the generalized inverse of the operator output,
        # taken on the exact output (piecewise-quadratic primal, E[min(Q, u)] /
        # mu reflected) rather than on its grid sampling: inverting the stored
        # polyline would feed its interpolation error back into the loop at
        # the singular edge, flooring sup_to_limit near 5e-6 at M=4096.
        quantile = MonotoneCurve(inverse(quantile, grid))
        curve = transform(quantile)
    return trace


def write_trace_csv(trace: IterationTrace, path) -> None:
    """The header `iteration,sup_to_limit,sup_successive,envelope_ok`, then
    one row per round: its number from 1, its two sup distances in `.17g`
    form (`nan` for the first round's successive gap), and `true` or
    `false`. Rows end in CRLF, as in every table file."""
    rounds = [str(n) for n in range(1, trace.iterations + 1)]
    ok = ["true" if flag else "false" for flag in trace.envelope_ok]
    _write_table(
        path,
        ["iteration", "sup_to_limit", "sup_successive", "envelope_ok"],
        np.column_stack([trace.sup_to_limit, trace.sup_successive]),
        [(0, rounds), (3, ok)],
    )


def fixed_point_residual(curve: MonotoneCurve, mode: str) -> float:
    """sup |operator(curve) - curve|: zero exactly at the operator's fixed point."""
    transform = _mode(mode)[0]
    image = transform(MonotoneCurve(curve.generalized_inverse(curve.grid)))
    return float(np.max(np.abs(image.values - curve.values)))


@dataclass(frozen=True)
class SelfSimilarityFit:
    """No-intercept least-squares fit of L' against a scale-invariance ratio."""

    eps_hat: float
    residual: float
    nodes_used: int


# The fraction of the domain cut at each end of the self-similarity fit,
# where the difference quotient of a power-law curve degrades.
_FIT_TRIM = 0.01


def self_similarity_residual(curve: MonotoneCurve, branch: str = "down") -> SelfSimilarityFit:
    """Fit L'(x) = eps * g(x) on interior nodes.

    branch "down" uses g = L(x)/x (lower-tail scale invariance; the primal
    limit gives eps = phi); branch "upper" uses g = (1-L(x))/(1-x) (the
    reflected limit gives eps = 1/phi). Derivatives are central differences,
    fitted on [_FIT_TRIM, 1 - _FIT_TRIM].
    """
    if branch not in ("down", "upper"):
        raise BadParameter(f"branch must be 'down' or 'upper', got {branch!r}")
    v = curve.values
    m = curve.grid_size
    x = curve.grid[1:-1]
    deriv = (v[2:] - v[:-2]) * (m / 2.0)
    if branch == "down":
        g = v[1:-1] / x
    else:
        g = (1.0 - v[1:-1]) / (1.0 - x)
    mask = (x >= _FIT_TRIM) & (x <= 1.0 - _FIT_TRIM)
    deriv = deriv[mask]
    g = g[mask]
    if deriv.size < 2:
        raise BadParameter("not enough interior nodes for the fit")
    eps = float(np.dot(deriv, g) / np.dot(g, g))
    resid = float(np.sqrt(np.mean((deriv - eps * g) ** 2)))
    return SelfSimilarityFit(eps, resid, int(deriv.size))
