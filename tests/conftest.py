import math

import pytest

from lorenzlab import (
    AnalyticFamily,
    analytic_quantile,
    empirical_quantile,
    run_iteration,
)
from lorenzlab.rng import Xoshiro256pp

GRID = 4096


def five_starts(grid: int = GRID):
    """Five structurally different starting quantiles, deterministically built.

    Covers a bounded density, an unbounded smooth law, a vanishing density,
    a two-atom discrete law, and a seeded empirical sample.
    """
    rng = Xoshiro256pp(20260815)
    sample = [0.6 * math.exp(0.4 * rng.normal()) for _ in range(256)]
    return {
        "uniform01": analytic_quantile(AnalyticFamily.uniform01(), grid),
        "lognormal": analytic_quantile(AnalyticFamily.lognormal(0.5, 0.2), grid),
        "power3": analytic_quantile(AnalyticFamily.power(3.0), grid),
        "two_atom": empirical_quantile([0.35, 0.9], grid),
        "empirical": empirical_quantile(sample, grid),
    }


@pytest.fixture(scope="session")
def primal_traces():
    return {
        name: run_iteration(start, "primal", max_iter=40, tol=0.0)
        for name, start in five_starts().items()
    }


@pytest.fixture(scope="session")
def reflected_traces():
    return {
        name: run_iteration(start, "reflected", max_iter=40, tol=0.0, normalize=True)
        for name, start in five_starts().items()
    }


@pytest.fixture(scope="session")
def fine_primal_trace():
    """The primal lognormal(0.5, 0.2) run on the M = 65536 grid."""
    start = analytic_quantile(AnalyticFamily.lognormal(0.5, 0.2), 65536)
    return run_iteration(start, "primal", max_iter=40, tol=0.0)
