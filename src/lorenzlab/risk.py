"""Scalar risk measures and Lorenz-distance measures on return samples.

Each measure is defined once, by `_bound(kind, T, ...)`, which runs the
kind's checks, computes what (kind, parameters, T) fix and returns the value
function of a sample of size T. The classical measures (variance, mean
absolute deviation, CVAR, Gini mean difference) use sorted samples and
explicit weight vectors, which keeps their small-sample identities exact:
CVAR weights sum to -1 and GMD weights sum to 0 in exact float arithmetic.

The Lorenz-distance family compares the sample's partial-sum polyline
L_hat(i/T) = S_i/S_T against an analytic target curve built from the two
golden-ratio limit shapes:

    k(x) = 1 - (1 - x)**(1/phi)   (concave-tail component)
    p(x) = x**phi                 (convex-tail component)

mixed on a lower tail [0, beta_down] and an upper tail [beta_up, 1], with a
chord across the belly. Distances are weighted by (1 - i/T)**(v-2), which
for v = 2 reduces the distance to the diagonal target to the Gini family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curves import (
    GOLDEN,
    _primal_power,
    _reflected_power,
    _sample,
    _sorted_sample,
    _uniform_grid,
    _unit_points,
)
from .errors import BadParameter, BadSpec, EmptySample, NonPositiveMean
from .lorenz import LorenzCurve, _partial_sum_ratios

MEASURE_KINDS = ("variance", "mad", "cvar", "gmd", "extended_gini", "gs1", "gs2")


def cvar_weights(n: int, tail_fraction: float) -> np.ndarray:
    """Order-statistic weights of the discrete CVAR, the expected shortfall
    of the lower tail as a positive loss; fsum(weights) == -1.

    The first ceil(p*n) - 1 order statistics carry -1/(p*n) each; the
    boundary statistic carries the exact remainder, computed rationally so
    the total is -1 to the last bit.
    """
    if not 0.0 < tail_fraction < 1.0:
        raise BadParameter("tail fraction must lie in (0, 1)")
    if n < 1:
        raise EmptySample("need at least one sample")
    # Guard ceil against float slop like 0.05 * 100 = 5.000000000000000444.
    i = max(1, math.ceil(tail_fraction * n - 1e-9))
    q = 1.0 / (tail_fraction * n)
    w = np.zeros(n)
    w[: i - 1] = -q
    w[i - 1] = float(Fraction(q) * (i - 1) - 1)
    return w


def gmd_weights(n: int) -> np.ndarray:
    """Order-statistic weights of the Gini mean difference; they sum to 0
    exactly by sign symmetry."""
    if n < 2:
        raise EmptySample("Gini mean difference needs at least two samples")
    j = np.arange(1, n + 1, dtype=float)
    return 2.0 * (2.0 * j - 1.0 - n) / (n * (n - 1.0))


def gmd_pairwise(samples) -> float:
    """Mean absolute difference over ordered pairs i != j (cross-check)."""
    x = _sample(samples)
    n = x.size
    if n < 2:
        raise EmptySample(f"need at least 2 samples, got {n}")
    x = _sorted_sample(x)
    return float(np.abs(x[:, None] - x[None, :]).sum() / (n * (n - 1)))


# -- target curves -------------------------------------------------------------


def _tail(kuma_weight, power_weight, x):
    """A tail of the target: kuma_weight * k(x) + power_weight * p(x)."""
    return kuma_weight * _reflected_power(x, GOLDEN) + power_weight * _primal_power(x, GOLDEN)


def _kuma_prefix(t: float) -> float:
    """integral_0^t of 1 - (1-x)^(1/phi)."""
    a = 1.0 / GOLDEN
    return t - (1.0 - (1.0 - t) ** (1.0 + a)) / (1.0 + a)


def _power_prefix(t: float) -> float:
    """integral_0^t of x^phi."""
    return t ** (1.0 + GOLDEN) / (1.0 + GOLDEN)


@dataclass(frozen=True)
class TargetCurveSpec:
    """Piecewise target curve: two golden-shape tails joined by a chord.

    Each tail mixes the two limit shapes with nonnegative weights summing to
    one. With beta_down = 0 and beta_up = 1 the anchors are exactly 0 and 1,
    so the curve is the diagonal and its integral is exactly 1/2.
    """

    beta_down: float = 0.25
    beta_up: float = 0.75
    down_kuma: float = 0.3
    down_power: float = 0.7
    up_kuma: float = 0.8
    up_power: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.beta_down < self.beta_up <= 1.0:
            raise BadSpec(
                f"need 0 <= beta_down < beta_up <= 1, got "
                f"({self.beta_down!r}, {self.beta_up!r})"
            )
        for lo, hi, name in (
            (self.down_kuma, self.down_power, "down"),
            (self.up_kuma, self.up_power, "up"),
        ):
            if lo < 0.0 or hi < 0.0 or abs(lo + hi - 1.0) > 1e-12:
                raise BadSpec(f"{name}-tail weights must be >= 0 and sum to 1")
        anchor_down, anchor_up = self._anchors()
        if anchor_up < anchor_down:
            raise BadSpec(
                "belly chord would decrease: the upper-tail junction value "
                f"{anchor_up!r} lies below the lower-tail one {anchor_down!r}"
            )

    @classmethod
    def gs2_shape(cls, beta_up: float = 0.75) -> "TargetCurveSpec":
        """The restricted shape used by the absolute-value variant: no lower
        tail, pure concave upper tail."""
        return cls(beta_down=0.0, beta_up=beta_up, up_kuma=1.0, up_power=0.0)

    @property
    def is_gs2_shape(self) -> bool:
        return self.beta_down == 0.0 and self.up_kuma == 1.0 and self.up_power == 0.0

    def _anchors(self) -> tuple[float, float]:
        anchor_down = _tail(self.down_kuma, self.down_power, self.beta_down)
        anchor_up = _tail(self.up_kuma, self.up_power, self.beta_up)
        return float(anchor_down), float(anchor_up)

    def evaluate(self, x):
        """The curve at x in [0, 1]; outside it, or NaN, is OutOfDomain."""
        x_arr, scalar = _unit_points(x, "target curve argument")
        down = _tail(self.down_kuma, self.down_power, x_arr)
        up = _tail(self.up_kuma, self.up_power, x_arr)
        y_d, y_u = self._anchors()
        slope = (y_u - y_d) / (self.beta_up - self.beta_down)
        chord = y_d + slope * (x_arr - self.beta_down)
        out = np.where(x_arr < self.beta_down, down, np.where(x_arr > self.beta_up, up, chord))
        return float(out[0]) if scalar else out

    def integral(self) -> float:
        """Exact integral over [0, 1] (closed forms for both tail shapes)."""
        bd, bu = self.beta_down, self.beta_up
        y_d, y_u = self._anchors()
        lower = self.down_kuma * _kuma_prefix(bd) + self.down_power * _power_prefix(bd)
        upper = self.up_kuma * (_kuma_prefix(1.0) - _kuma_prefix(bu)) + self.up_power * (
            _power_prefix(1.0) - _power_prefix(bu)
        )
        chord = 0.5 * (bu - bd) * (y_d + y_u)
        return float(lower + chord + upper)

    def curve(self, grid_size: int) -> LorenzCurve:
        return LorenzCurve(self.evaluate(_uniform_grid(grid_size)), convex=False, classical=True)


# -- binding -------------------------------------------------------------------


def _bound(kind: str, t: int, v, tail_fraction, target):
    """The value function of `kind` on 1-d samples of size t: runs the kind's
    checks and computes what (kind, parameters, t) fix, once. With weights
    w_i = (1 - i/T)^(v-2) summed over i < T, extended_gini is v(v-1)/(T-1)
    * sum w_i (i/T - S_i/S_T): the Gini coefficient, exactly GMD/(2*mean), at
    v = 2, and 0 at v = 1. gs1 is mu * v(v-1)/int(target)/(T-1)
    * sum w_i |S_i/S_T - target(i/T)|, and gs2 is gs1 on |x|."""
    if kind in ("extended_gini", "gs1", "gs2") and not v >= 1.0:
        raise BadParameter(f"{kind} needs v >= 1")
    min_size = 1 if kind in ("variance", "mad", "cvar") else 2
    if t < min_size:
        raise EmptySample(f"need at least {min_size} samples, got {t}")
    if kind == "variance":
        return lambda x: float(np.var(_sorted_sample(x)))
    if kind == "mad":
        def mad_value(x):
            x = _sorted_sample(x)
            return float(np.mean(np.abs(x - x.mean())))
        return mad_value
    if kind in ("cvar", "gmd"):
        w = cvar_weights(t, tail_fraction) if kind == "cvar" else gmd_weights(t)
        return lambda x: float(np.dot(w, _sorted_sample(x)))
    xi = np.arange(1, t, dtype=float) / t
    weights = (1.0 - xi) ** (v - 2.0)
    if kind == "extended_gini":
        factor = v * (v - 1.0) / (t - 1.0)
        def gini_value(x):
            ratios = _partial_sum_ratios(_sorted_sample(x))[0][:-1]
            return float(factor * np.dot(weights, np.subtract(xi, ratios, out=ratios)))
        return gini_value
    if not isinstance(target, TargetCurveSpec):
        raise BadSpec(f"{kind} needs a TargetCurveSpec target, got {type(target).__name__}")
    if kind == "gs2" and not target.is_gs2_shape:
        raise BadSpec(
            "gs2 requires the restricted target (beta_down = 0, pure "
            "concave upper tail)"
        )
    target_values, integral = target.evaluate(xi), target.integral()

    def gs_value(x):
        # One sorted copy, overwritten in place: the mean is taken first, as
        # np.mean takes it (x.sum() / t), then the partial-sum ratios. The
        # cumulative total they check can round to the other sign, so the
        # mean is checked too.
        x = _sorted_sample(np.abs(x) if kind == "gs2" else x)
        total = x.sum()
        if not total > 0.0:
            raise NonPositiveMean(f"sample mean must be positive, got {float(total / t)!r}")
        mean = total / t
        ratios = _partial_sum_ratios(x)[0][:-1]
        ratios -= target_values
        deviation = np.dot(weights, np.abs(ratios, out=ratios))
        return float(mean * v * (v - 1.0) / integral * deviation / (t - 1.0))

    return gs_value


@dataclass(frozen=True)
class RiskMeasureConfig:
    """Each kind reads only its own fields: v (extended_gini, gs1, gs2),
    tail_fraction (cvar) and target (gs1, gs2; defaulted per kind)."""

    kind: str
    v: float = 2.5
    tail_fraction: float = 0.05
    target: TargetCurveSpec | None = None

    def __post_init__(self):
        if self.kind not in MEASURE_KINDS:
            raise BadParameter(f"kind must be one of {MEASURE_KINDS}, got {self.kind!r}")
        if self.kind in ("gs1", "gs2") and self.target is None:
            default = (
                TargetCurveSpec.gs2_shape() if self.kind == "gs2" else TargetCurveSpec()
            )
            object.__setattr__(self, "target", default)
        # Binding runs the kind's parameter checks.
        self._bind(2)

    def _bind(self, t: int):
        return _bound(self.kind, t, self.v, self.tail_fraction, self.target)


def measure_value(samples, config: RiskMeasureConfig) -> float:
    """The kind's value of `samples`. gs1 is the mean times a distance, and
    is refused where the mean np.mean reports is not positive, even if the
    sums of the sorted sample it takes round to the other sign."""
    x = _sample(samples)
    value = config._bind(x.size)(x)
    if config.kind == "gs1" and not np.mean(x) > 0.0:
        raise NonPositiveMean(f"sample mean must be positive, got {float(np.mean(x))!r}")
    return value


def measure_report(samples, config: RiskMeasureConfig) -> dict:
    """Value plus the quantities a reader needs to rescale or audit it."""
    x = _sample(samples)
    value = measure_value(x, config)
    mu = float(np.mean(np.abs(x))) if config.kind == "gs2" else float(np.mean(x))
    return {
        "kind": config.kind,
        "value": value,
        "mu": mu,
        "knots": int(x.size),
        "integral_target": (
            config.target.integral() if config.target is not None else None
        ),
    }
