"""The Nelder-Mead search and the value functions it calls, against the code
they replaced.

The references below are that code, kept as it was: a search that sorts its
simplex with argsort and two gathers on every iteration and takes the
centroid with mean, a simplex point built by concatenation, a target map
that splits the assets with boolean masks on every call, and gs and
extended_gini value functions that allocate a new array for each step. The
current code must return the same bits, evaluate the objective at the same
points in the same order, and write the same frontier files.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lorenzlab import MEASURE_KINDS, RiskMeasureConfig, measure_value, portfolio
from lorenzlab.cli import main
from lorenzlab.curves import _sorted_sample
from lorenzlab.errors import LorenzLabError, NonPositiveMean
from lorenzlab.portfolio import (
    _BIG,
    _DIAMETER_TOL,
    _ITER_PER_DIM,
    _STEP,
    _feasible_map,
    _simplex_point,
    nelder_mead,
)
from test_portfolio import seeded_scenarios

# ---------------------------------------------------------------- references


def reference_nelder_mead(f, x0):
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


def reference_simplex_point(theta):
    rest = np.concatenate([[1.0], np.cumprod(np.sin(theta) ** 2)])
    return np.concatenate([rest[:-1] * np.cos(theta) ** 2, rest[-1:]])


def reference_simplex_angles(p):
    if not p.sum() > 0.0:
        p = np.ones_like(p)
    tail = np.cumsum(p[::-1])[::-1][:-1]
    ratio = np.divide(p[:-1], tail, out=np.ones_like(tail), where=tail > 0.0)
    return np.arccos(np.sqrt(np.minimum(ratio, 1.0)))


def reference_feasible_map(means, target):
    if target is None:
        return reference_simplex_point, reference_simplex_angles
    gap = means - target
    hi = gap >= 0.0
    lo = ~hi
    split = int(hi.sum()) - 1

    def to_weights(theta):
        p = reference_simplex_point(theta[:split])
        q = reference_simplex_point(theta[split:])
        up = float(gap[hi] @ p)
        down = -float(gap[lo] @ q)
        w = np.empty(means.size)
        w[hi] = down * p
        w[lo] = up * q
        return w / (up + down)

    def to_angles(w):
        return np.concatenate([reference_simplex_angles(w[hi]), reference_simplex_angles(w[lo])])

    return to_weights, to_angles


def reference_partial_sum_ratios(sorted_x):
    partial = np.cumsum(sorted_x)
    total = float(partial[-1])
    if total <= 0.0:
        raise NonPositiveMean(f"sample total must be positive, got {total!r}")
    return partial / total, total


def reference_value(config, t):
    """The extended_gini, gs1 or gs2 value function on samples of size t."""
    kind, v, target = config.kind, config.v, config.target
    xi = np.arange(1, t, dtype=float) / t
    weights = (1.0 - xi) ** (v - 2.0)
    if kind == "extended_gini":
        factor = v * (v - 1.0) / (t - 1.0)

        def gini_value(x):
            ratios, _ = reference_partial_sum_ratios(_sorted_sample(x))
            return float(factor * np.dot(weights, xi - ratios[:-1]))

        return gini_value
    target_values, integral = target.evaluate(xi), target.integral()

    def gs_value(x):
        x = _sorted_sample(np.abs(x) if kind == "gs2" else x)
        ratios, _ = reference_partial_sum_ratios(x)
        deviation = np.dot(weights, np.abs(ratios[:-1] - target_values))
        return float(np.mean(x) * v * (v - 1.0) / integral * deviation / (t - 1.0))

    return gs_value


# ---------------------------------------------------------------- helpers


def bits(value) -> bytes:
    return np.float64(value).tobytes()


def outcome(fn, *args):
    """fn(*args) as bits, or the class of the LorenzLabError it raised."""
    try:
        return bits(fn(*args))
    except LorenzLabError as exc:
        return type(exc).__name__


def recorded(f):
    """f, and the list of the points it is called at (as bytes)."""
    seen = []

    def g(x):
        seen.append(np.asarray(x, dtype=float).tobytes())
        return f(x)

    return g, seen


def test_measure_value_leaves_the_caller_array_alone():
    x = np.array([0.03, -0.01, 0.02, 0.05, -0.02, 0.04])
    before = x.tobytes()
    for kind in MEASURE_KINDS:
        measure_value(x, RiskMeasureConfig(kind))
        assert x.tobytes() == before, kind


# ---------------------------------------------------------------- the search


@st.composite
def search_problems(draw):
    """A start and a scalar objective in 1-4 dimensions with plateaus (a
    rounded quadratic), and regions where it is inf, NaN or the infeasible
    penalty _BIG * (1 + excess)."""
    n = draw(st.integers(1, 4))
    coordinate = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))
    x0 = np.array(draw(st.lists(coordinate, min_size=n, max_size=n)))
    center = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    plateau = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.1, 1.0, 100.0]))
    inf_above = draw(st.one_of(st.none(), st.floats(-1.0, 2.0)))
    nan_below = draw(st.one_of(st.none(), st.floats(-2.0, 1.0)))
    big_above = draw(st.one_of(st.none(), st.floats(0.0, 4.0)))

    def f(x):
        q = math.fsum((float(xi) - c) ** 2 for xi, c in zip(x, center))
        if plateau:
            q = math.floor(q / plateau) * plateau
        head = float(x[0])
        if inf_above is not None and head > inf_above:
            return math.inf
        if nan_below is not None and head < nan_below:
            return math.nan
        if big_above is not None and q > big_above:
            return _BIG * (1.0 + q - big_above)
        return q

    return f, x0


@given(search_problems())
@settings(max_examples=200, deadline=None)
@example((lambda x: math.nan, np.array([0.5, -0.0])))
@example((lambda x: 1.0, np.array([-0.0, 0.0, 1.0])))
@example((lambda x: math.inf if float(x[0]) > 0.1 else 0.0, np.array([0.0])))
# two NaN vertices at the start; the expanded point moves ahead of both
@example((lambda x: math.nan if x[0] < 0.1 else (x[0] - 2.0) ** 2 + (x[1] + 2.0) ** 2, np.zeros(2)))
def test_nelder_mead_is_its_reference(problem):
    f, x0 = problem
    f_ref, seen_ref = recorded(f)
    f_new, seen_new = recorded(f)
    x_ref, fx_ref, its_ref, diam_ref = reference_nelder_mead(f_ref, x0)
    x_new, fx_new, its_new, diam_new = nelder_mead(f_new, x0)
    assert x_new.tobytes() == x_ref.tobytes()
    assert bits(fx_new) == bits(fx_ref)
    assert its_new == its_ref
    assert bits(diam_new) == bits(diam_ref)
    assert seen_new == seen_ref


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(st.floats(-3.0, 3.0), min_size=n - 1, max_size=n - 1)
    )
)
def test_simplex_point_is_its_reference(theta):
    theta = np.array(theta)
    assert _simplex_point(theta).tobytes() == reference_simplex_point(theta).tobytes()


@st.composite
def target_maps(draw):
    """Asset means, a target strictly inside their range, and angles."""
    n = draw(st.integers(2, 6))
    means = np.array(draw(st.lists(st.floats(-0.05, 0.1), min_size=n, max_size=n)))
    lo, hi = float(means.min()), float(means.max())
    target = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    # min_risk answers a target at either end without a search.
    assume(lo < target < hi)
    theta = draw(st.lists(st.floats(-3.0, 3.0), min_size=n - 2, max_size=n - 2))
    return means, target, np.array(theta)


@given(target_maps())
def test_feasible_map_is_its_reference(case):
    means, target, theta = case
    to_weights, to_angles = _feasible_map(means, target)
    reference_weights, reference_angles = reference_feasible_map(means, target)
    w = to_weights(theta)
    assert w.tobytes() == reference_weights(theta).tobytes()
    assert to_angles(w).tobytes() == reference_angles(w).tobytes()


@given(
    st.sampled_from(["extended_gini", "gs1", "gs2"]),
    st.sampled_from([1.0, 1.5, 2.0, 2.5, 4.0]),
    st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=60),
)
def test_value_functions_are_their_references(kind, v, sample):
    x = np.array(sample)
    config = RiskMeasureConfig(kind, v)
    before = x.tobytes()
    # A total near zero overflows the ratios in both; the bits must still agree.
    with np.errstate(all="ignore"):
        assert outcome(config._bind(x.size), x) == outcome(reference_value(config, x.size), x)
    assert x.tobytes() == before


# ---------------------------------------------------------------- frontier


@pytest.fixture
def reference_search(monkeypatch):
    """Routes min_risk through the reference search, target map and value
    functions while the fixture is active."""

    def use():
        original_bind = RiskMeasureConfig._bind

        def bind(config, t):
            value = original_bind(config, t)  # the kind's checks
            if config.kind in ("extended_gini", "gs1", "gs2"):
                return reference_value(config, t)
            return value

        monkeypatch.setattr(RiskMeasureConfig, "_bind", bind)
        monkeypatch.setattr(portfolio, "nelder_mead", reference_nelder_mead)
        monkeypatch.setattr(portfolio, "_feasible_map", reference_feasible_map)

    return use


def frontier_files(tmp_path, scenarios, kind, monkeypatch) -> tuple[list[bytes], list[bytes]]:
    """The bytes of `lorenzlab frontier`'s output and sidecars, and every
    point the searches evaluated, in order."""
    path = tmp_path / "scen.csv"
    columns = ",".join(f"A{j}" for j in range(scenarios.shape[1]))
    path.write_text(columns + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in scenarios.tolist()))
    out = tmp_path / "frontier.csv"
    search = portfolio.nelder_mead
    evaluations = []

    def counted(f, x0):
        g, seen = recorded(f)
        result = search(g, x0)
        evaluations.extend(seen)
        return result

    monkeypatch.setattr(portfolio, "nelder_mead", counted)
    argv = ["frontier", "--scenarios", str(path), "--kind", kind, "--n-points", "4", "--out", str(out)]
    assert main(argv) == 0
    monkeypatch.setattr(portfolio, "nelder_mead", search)
    diagnostics = tmp_path / "frontier.csv.diagnostics.json"
    files = [out, tmp_path / "frontier.csv.run.json", diagnostics, tmp_path / (diagnostics.name + ".run.json")]
    return [f.read_bytes() for f in files], evaluations


@pytest.mark.parametrize("kind", ["gs1", "gs2", "gmd", "extended_gini"])
@pytest.mark.parametrize(
    "seed, t, n",
    [(3, 120, 3), (8, 90, 3), (21, 60, 4)],
)
def test_frontier_files_and_evaluation_counts_match_the_reference(
    tmp_path, monkeypatch, reference_search, kind, seed, t, n
):
    mu = np.linspace(0.01, 0.03, n)
    s = seeded_scenarios(seed, t, n, mu, mu + 0.01)
    files, evaluations = frontier_files(tmp_path, s, kind, monkeypatch)
    reference_search()
    assert portfolio.nelder_mead is reference_nelder_mead
    reference_files, reference_evaluations = frontier_files(tmp_path, s, kind, monkeypatch)
    assert len(evaluations) == len(reference_evaluations) > 0
    assert evaluations == reference_evaluations
    assert files == reference_files
