"""Seeded inputs for the benchmark workloads.

Every random draw comes from the package's own `Xoshiro256pp`, one
substream per input, so the same seed always rebuilds byte-identical
inputs and nothing is downloaded. The set-up hashes what it builds, and its
repeats must produce the same hash.
"""

from __future__ import annotations

import hashlib
import math
from datetime import date, timedelta

import numpy as np

from lorenzlab import curves as curves_mod
from lorenzlab.curves import AnalyticFamily, empirical_quantile, format_float
from lorenzlab.rng import Xoshiro256pp

# Substream indices, one per generated input.
_STREAM_EMPIRICAL = 1
_STREAM_SCEN_WIDE = 2
_STREAM_SCEN_NARROW = 3
_STREAM_PANEL = 4

PANEL_TICKERS = 16
PANEL_DAYS = 1500
# Two tickers miss 9% of their quotes, below the 0.95 coverage threshold.
THIN_TICKERS = 2
THIN_MISSING = round(0.09 * PANEL_DAYS)
# The other tickers miss a few scattered quotes, which drops those dates.
SPARSE_MISSING = 3


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def five_starts(seed: int, grid: int) -> dict:
    """The five start families of the tier-1 convergence tests, on `grid`.

    Only the 256-draw empirical start depends on the seed; the other four
    are fixed laws.
    """
    rng = Xoshiro256pp.substream(seed, _STREAM_EMPIRICAL)
    sample = [0.6 * math.exp(0.4 * rng.normal()) for _ in range(256)]
    aq = curves_mod.analytic_quantile  # looked up at call time so a trace sees it
    return {
        "uniform01": aq(AnalyticFamily.uniform01(), grid),
        "lognormal": aq(AnalyticFamily.lognormal(0.5, 0.2), grid),
        "power3": aq(AnalyticFamily.power(3.0), grid),
        "two_atom": empirical_quantile([0.35, 0.9], grid),
        "empirical": empirical_quantile(sample, grid),
    }


def starts_digest(starts: dict) -> str:
    return digest(*(name.encode() + curve.values.tobytes() for name, curve in starts.items()))


def one_factor_returns(rng: Xoshiro256pp, rows: int, assets: int) -> np.ndarray:
    """r[t, i] = mu_i + sigma_i * (0.4 * f_t + sqrt(0.84) * z[t, i]).

    The same one-factor family as the acceptance tests' frontier instances:
    drifts and volatilities rise linearly across the assets, so every
    long-only portfolio has a positive mean and a positive sample total.
    """
    mu = np.linspace(0.008, 0.034, assets)
    sigma = np.linspace(0.015, 0.050, assets)
    f = np.array([rng.normal() for _ in range(rows)])
    z = np.array([[rng.normal() for _ in range(assets)] for _ in range(rows)])
    return mu + sigma * (0.4 * f[:, None] + math.sqrt(0.84) * z)


def scenario_csv(values: np.ndarray) -> bytes:
    """Scenario file without a date column: a ticker header, then rows."""
    n = values.shape[1]
    lines = [",".join(f"a{i + 1}" for i in range(n))]
    lines.extend(",".join(format_float(v) for v in row) for row in values)
    return ("\n".join(lines) + "\n").encode()


def frontier_scenarios(seed: int) -> dict:
    """The 8 x 500 matrix for the convex kinds and the 3 x 500 one for gs."""
    wide = one_factor_returns(Xoshiro256pp.substream(seed, _STREAM_SCEN_WIDE), 500, 8)
    narrow = one_factor_returns(Xoshiro256pp.substream(seed, _STREAM_SCEN_NARROW), 500, 3)
    return {"wide": wide, "narrow": narrow}


def price_panel_csv(seed: int) -> bytes:
    """16 tickers x 1500 weekdays of one-factor log prices with gaps."""
    rng = Xoshiro256pp.substream(seed, _STREAM_PANEL)
    logret = one_factor_returns(rng, PANEL_DAYS, PANEL_TICKERS) * 0.25
    prices = 100.0 * np.exp(np.cumsum(logret, axis=0))
    missing = np.zeros(prices.shape, dtype=bool)

    def blank(column: int, count: int) -> None:
        picked = 0
        while picked < count:
            row = int(rng.random() * PANEL_DAYS)
            if not missing[row, column]:
                missing[row, column] = True
                picked += 1

    for j in range(PANEL_TICKERS):
        blank(j, THIN_MISSING if j < THIN_TICKERS else SPARSE_MISSING)
    day = date(2018, 1, 1)
    days = []
    while len(days) < PANEL_DAYS:
        if day.weekday() < 5:
            days.append(day)
        day += timedelta(days=1)
    lines = ["date," + ",".join(f"T{j + 1:02d}" for j in range(PANEL_TICKERS))]
    for t, d in enumerate(days):
        cells = ("" if missing[t, j] else format_float(prices[t, j]) for j in range(PANEL_TICKERS))
        lines.append(d.isoformat() + "," + ",".join(cells))
    return ("\n".join(lines) + "\n").encode()
