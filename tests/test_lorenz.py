import bisect
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lorenzlab import (
    AnalyticFamily,
    LorenzCurve,
    RiskMeasureConfig,
    TargetCurveSpec,
    analytic_quantile,
    dual_curve,
    empirical_quantile,
    generalized_lorenz,
    lorenz_transform,
    measure_value,
    min_risk,
    primal_inverse,
    reflected_inverse,
    reflected_transform,
    simple_reflect,
    truncate_generalized,
    unit_support,
)
import lorenzlab.lorenz as lorenz_module
from lorenzlab.curves import MonotoneCurve, QuantileCurve
from lorenzlab.errors import (
    BadParameter,
    CrossCheckError,
    EmptySample,
    LorenzLabError,
    NonFinite,
    NonMonotone,
    NonPositiveMean,
    UnitSupportRequired,
)

from oracles import PHI, REFLECTED_UNIFORM_HALF

M = 512
UNIFORM = analytic_quantile(AnalyticFamily.uniform01(), M)


def positive_samples():
    return st.lists(
        st.floats(1e-3, 1e3, allow_nan=False), min_size=2, max_size=30
    )


# ---------------------------------------------------------------- constructor


@pytest.mark.parametrize(
    "values, flags, error",
    [
        ([0.0, math.nan, 1.0], {}, NonFinite),
        ([0.0, math.inf, 1.0], {}, NonFinite),
        ([0.0, 0.2, 0.1, 1.0], {}, NonMonotone),
        (np.zeros((3, 3)), {}, BadParameter),
        ([0.0], {}, BadParameter),
        ([0.1, 0.5, 1.0], {}, BadParameter),
        ([0.0, 0.5, 0.9], {}, BadParameter),
        # the endpoint snap would leave a dip just inside either end
        ([-5e-13, -1e-13, 0.5, 1.0], {}, NonMonotone),
        ([0.0, 0.5, 1.0 + 5e-13, 1.0 + 9e-13], dict(convex=False, classical=False), NonMonotone),
        ([0.0, 0.2, 0.3, 1.0], dict(classical=False), BadParameter),  # concave at 1/3
        ([0.0, 0.6, 0.8, 1.0], dict(convex=False), BadParameter),  # above the diagonal
    ],
)
def test_lorenz_curve_constructor_rejects(values, flags, error):
    with pytest.raises(error):
        LorenzCurve(np.asarray(values, dtype=float), **flags)


@pytest.mark.parametrize(
    "build",
    [lambda: dual_curve(lorenz_transform(UNIFORM)), lambda: TargetCurveSpec().curve(64)],
    ids=["dual_curve", "target_curve"],
)
def test_lorenz_curve_constructor_accepts_a_flag_off(build):
    curve = build()
    assert not (curve.convex and curve.classical)
    assert curve.values[0] == 0.0 and curve.values[-1] == 1.0
    assert np.all(np.diff(curve.values) >= 0.0)


@pytest.mark.parametrize(
    "entry",
    [empirical_quantile, generalized_lorenz, lambda x: measure_value(x, RiskMeasureConfig("gmd"))],
    ids=["empirical_quantile", "generalized_lorenz", "measure_value"],
)
def test_samples_are_checked_one_way(entry):
    with pytest.raises(BadParameter):
        entry(np.ones((3, 2)))
    with pytest.raises(EmptySample):
        entry([])
    with pytest.raises(NonFinite):
        entry([1.0, math.nan])


# ---------------------------------------------------------------- primal


def test_uniform_transforms_to_square():
    L = lorenz_transform(UNIFORM)
    assert L.convex and L.classical
    assert np.allclose(L.values, L.grid**2, atol=1e-15)


def test_point_mass_transforms_to_diagonal():
    q = analytic_quantile(AnalyticFamily.point_mass(0.7), 64)
    L = lorenz_transform(q)
    assert np.allclose(L.values, L.grid, atol=1e-12)
    assert L.values[0] == 0.0 and L.values[-1] == 1.0


def test_transform_rejects_negative_values_by_default():
    q = MonotoneCurve(np.array([-1.0, -0.5, 0.5, 1.5, 2.5]))
    with pytest.raises(BadParameter):
        lorenz_transform(q)


def test_transform_repairs_a_prefix_that_dips_below_zero():
    # values just below 0 (inside the endpoint tolerance) make the prefix
    # integral fall before it rises; the curve is its running maximum
    q = empirical_quantile([-5e-13, 0.3, 0.5, 1.0], 64)
    ratio = q._prefix / q._prefix[-1]
    assert np.any(np.diff(ratio) < 0.0)
    L = lorenz_transform(q)
    assert np.array_equal(L.values, np.maximum.accumulate(ratio))
    assert L.values[0] == 0.0 and L.values[-1] == 1.0
    assert np.all(np.diff(L.values) >= 0.0)


def test_transform_rejects_zero_mean():
    q = MonotoneCurve(np.zeros(9))
    with pytest.raises(NonPositiveMean):
        lorenz_transform(q)


@given(positive_samples())
@settings(max_examples=50)
def test_transform_is_classical_and_convex(sample):
    L = lorenz_transform(empirical_quantile(sample, 64))
    x = L.grid
    assert np.all(L.values >= -1e-12)
    assert np.all(L.values <= x + 1e-12)
    d2 = np.diff(L.values, 2)
    assert np.all(d2 >= -1e-10)


@given(positive_samples())
@settings(max_examples=50)
def test_increments_sit_between_slope_bounds(sample):
    q = empirical_quantile(sample, 64)
    L = lorenz_transform(q)
    h = 1.0 / 64
    mu = q.mean
    inc = np.diff(L.values) * mu / h
    assert np.all(inc >= q.values[:-1] - 1e-9 * mu)
    assert np.all(inc <= q.values[1:] + 1e-9 * mu)


def test_superposition_of_quantiles():
    q1 = empirical_quantile([1.0, 2.0, 5.0], 60)
    q2 = analytic_quantile(AnalyticFamily.power(2.0), 60)
    mixed = QuantileCurve(q1.values + q2.values)
    want = (
        q1.mean * lorenz_transform(q1).values
        + q2.mean * lorenz_transform(q2).values
    ) / (q1.mean + q2.mean)
    assert np.allclose(lorenz_transform(mixed).values, want, atol=1e-14)


def test_primal_inverse_of_uniform_is_sqrt():
    u = np.linspace(0.0, 1.0, 33)
    assert np.allclose(primal_inverse(UNIFORM, u), np.sqrt(u), atol=1e-14)


def test_primal_inverse_composes_with_transform():
    # compose through the exact piecewise-quadratic transform, not the
    # stored polyline (whose interpolation error is ~1e-6 here)
    q = analytic_quantile(AnalyticFamily.power(3.0), M)
    u = np.linspace(0.0, 1.0, 101)
    x = primal_inverse(q, u)
    back = q.prefix_integral(x) / q.total_integral
    assert np.allclose(back, u, atol=1e-12)
    assert primal_inverse(q, 1.0) == 1.0


def prefix_inverse_loop(x, G, g, targets, side="left"):
    """Reference for lorenz._prefix_inverse: one target at a time, cell
    i = k - 1 found by bisect, in float64 scalars. Each side keeps the
    formulas of the routes that use it: "left" (primal, psi) solves a
    convex cell, "right" (the min route) a concave one, with a guard for
    zero-width cells and a clamp under the root."""
    search = bisect.bisect_left if side == "left" else bisect.bisect_right
    nodes = G.tolist()
    out = []
    for target in targets:
        k = search(nodes, target)
        if k == 0:
            out.append(x[0])
            continue
        # a target at or past G's top is solved in the last cell
        i = min(k, len(nodes) - 1) - 1
        r = target - G[i]
        a = g[i]
        lo = x[i]
        width = x[i + 1] - lo
        # a subnormal width can overflow the slope to inf; the clamp to the
        # width still bounds the root, and a target on the cell's lower node
        # (r = 0, right side only) is the cell's lower end
        with np.errstate(over="ignore"):
            if side == "left":
                slope = (g[i + 1] - a) / width
                denom = a + np.sqrt(a * a + 2.0 * slope * r)
                delta = 2.0 * r / denom if denom > 0.0 else 0.0
            elif r > 0.0:
                curv = (a - g[i + 1]) / width if width > 0.0 else 0.0
                delta = 2.0 * r / (a + np.sqrt(max(a * a - 2.0 * curv * r, 0.0)))
            else:
                delta = 0.0
        out.append(lo + min(delta, width))
    return np.array(out)


@st.composite
def quantiles_with_flats(draw):
    """Nondecreasing node values with leading zeros (G flat at the start)
    and repeated levels."""
    zeros = draw(st.integers(0, 6))
    levels = draw(
        st.lists(
            st.sampled_from([0.25, 1.0, 3.0]) | st.floats(1e-3, 10.0),
            min_size=2,
            max_size=30,
        )
    )
    return QuantileCurve(np.concatenate([np.zeros(zeros), np.sort(levels)]))


@given(quantiles_with_flats(), st.data())
@settings(max_examples=200, deadline=None)
def test_primal_inverse_is_the_left_inverse_of_the_prefix(q, data):
    total = q.total_integral
    # unsorted points, with 0, 1 and the exact node targets among them
    drawn = data.draw(st.lists(st.floats(0.0, 1.0), max_size=20))
    u = np.array(data.draw(st.permutations(drawn + [0.0, 1.0] + list(q._prefix / total))))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        y = primal_inverse(q, u)
    assert np.array_equal(y, prefix_inverse_loop(q.grid, q._prefix, q.values, u * total))
    # the same points in ascending order find their cells by a merge instead
    order = np.argsort(u, kind="stable")
    assert np.array_equal(primal_inverse(q, u[order]), y[order])
    # G(y) = u G(1) within rounding ...
    target = u * total
    assert np.allclose(q.prefix_integral(y), target, rtol=0.0, atol=1e-12 * (total + q.values[-1]))
    # ... and the infimum: a zero target maps to 0, a positive one past G's flat start
    flat_end = q.grid[np.count_nonzero(q.values == 0.0) - 1] if q.values[0] == 0.0 else 0.0
    assert np.all(y[target == 0.0] == 0.0)
    assert np.all(y[target > 0.0] >= flat_end)


@st.composite
def unit_quantiles(draw):
    """Nondecreasing node values in [0, 1] with repeated levels, which give
    m(t) zero-width cells, subnormal ones, which give subnormal widths, and
    a positive mean."""
    levels = draw(
        st.lists(
            st.sampled_from([0.0, 5e-324, 1e-310, 0.35, 0.9, 1.0]) | st.floats(0.0, 1.0),
            min_size=2,
            max_size=40,
        )
    )
    q = QuantileCurve(np.sort(levels))
    assume(q.mean > 0.0)
    return q


@given(unit_quantiles())
@example(empirical_quantile([0.35, 0.9], M))
@example(analytic_quantile(AnalyticFamily.point_mass(0.7), M))
@example(UNIFORM)
@example(empirical_quantile([0.2, 0.9], 33))  # targets that tie m's node values
@example(QuantileCurve(np.array([0.0, 1e-310, 0.5])))  # a slope that overflows
# a subnormal mean: mu * frac rounds up to m's top, past every cell
@example(QuantileCurve(np.array([5e-324, 5e-324, 1.5e-323, 2e-323, 2.5e-323])))
@settings(max_examples=200, deadline=None)
def test_min_route_is_its_scalar_loop(q):
    # the route's breakpoints (t, m, slope), inverted one target at a time
    frac = q.grid
    t = np.concatenate([[0.0], q.values])
    m = np.concatenate([[0.0], q._prefix + q.values * (1.0 - frac)])
    slope = np.concatenate([[1.0], 1.0 - frac])
    vals = prefix_inverse_loop(t, m, slope, q.mean * frac[:-1], "right")
    expected = np.maximum.accumulate(np.append(vals, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.array_equal(lorenz_module._min_route(q, q.mean), expected)


# ---------------------------------------------------------------- support


def test_unit_support_validation():
    with pytest.raises(BadParameter):
        unit_support(MonotoneCurve(np.array([-0.2, 0.5, 1.0])))
    with pytest.raises(UnitSupportRequired):
        unit_support(MonotoneCurve(np.array([0.0, 1.0, 2.0])))
    with pytest.raises(NonPositiveMean):
        unit_support(MonotoneCurve(np.zeros(5)), normalize=True)
    scaled = unit_support(MonotoneCurve(np.array([0.0, 1.0, 2.0])), normalize=True)
    assert scaled.values[-1] == 1.0


def test_unit_support_returns_an_in_range_quantile_itself():
    assert unit_support(UNIFORM) is UNIFORM
    # the same values as a plain curve, or with a -0.0 node, make a new curve
    plain = MonotoneCurve(UNIFORM.values)
    clipped = unit_support(plain)
    assert type(clipped) is QuantileCurve and clipped is not plain
    assert clipped.values.tobytes() == UNIFORM.values.tobytes()
    signed = QuantileCurve(np.array([-0.0, -0.0, 0.5, 1.0]))
    cleared = unit_support(signed)
    assert cleared is not signed
    assert cleared.values.tobytes() == np.array([0.0, 0.0, 0.5, 1.0]).tobytes()
    # a top just above 1 is clipped onto it
    nudged = QuantileCurve(np.array([0.0, 0.5, 1.0 + 1e-10]))
    assert unit_support(nudged).values.tolist() == [0.0, 0.5, 1.0]


@pytest.mark.parametrize("top", [1.0 + 2e-9, 2.0**-54, 1e-17])
def test_unit_support_refuses_a_quantile_before_returning_it(top):
    # above 1 + 1e-9, or so small that 1 - top == 1
    with pytest.raises(UnitSupportRequired, match="normalize=True"):
        unit_support(QuantileCurve(np.array([0.0, 0.5 * top, top])))


# ---------------------------------------------------------------- reflected


@pytest.mark.parametrize("top", [1.0, 0.7, 0.25])
def test_reflected_uniform_closed_form(top):
    # support that stops short of 1 leaves L at top just below x = 1
    L = reflected_transform(QuantileCurve(top * UNIFORM.values))
    x = L.grid
    assert np.allclose(L.values[:-1], top * (1.0 - np.sqrt(1.0 - x[:-1])), atol=1e-12)
    assert L.values[-1] == 1.0
    if top == 1.0:
        assert L.values[M // 2] == pytest.approx(REFLECTED_UNIFORM_HALF, abs=1e-12)


@pytest.mark.parametrize("c", [0.3, 1.0])
def test_reflected_point_mass_closed_form(c):
    # E[min(Q, t)] = t below the atom: the slope-one cell under Q(0)
    L = reflected_transform(analytic_quantile(AnalyticFamily.point_mass(c), M))
    x = L.grid
    assert np.allclose(L.values[:-1], c * x[:-1], atol=1e-12)
    assert L.values[-1] == 1.0


def test_reflected_cross_check_fires(monkeypatch):
    route = lorenz_module._psi_route
    monkeypatch.setattr(lorenz_module, "_psi_route", lambda *args: route(*args) + 2e-6)
    with pytest.raises(CrossCheckError):
        reflected_transform(UNIFORM)


@pytest.mark.parametrize("top", [1e-17, 2.2e-311])
def test_reflected_on_a_tiny_maximum_asks_for_normalize_without_warnings(top):
    # 1 - Q rounds to 1 at every node, so the psi route cannot check the min
    # route; the support is rejected before either runs, and rescaled it is
    # the uniform two-node quantile
    q = QuantileCurve(np.array([0.0, top]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(UnitSupportRequired, match="normalize=True"):
            reflected_transform(q)
        with pytest.raises(UnitSupportRequired, match="normalize=True"):
            reflected_inverse(q, 0.5)
        L = reflected_transform(unit_support(q, normalize=True))
    assert np.array_equal(L.values, [0.0, 1.0])


def test_reflected_on_a_subnormal_mean_asks_for_normalize():
    q = QuantileCurve(np.array([5e-324, 5e-324, 1.5e-323, 2e-323, 2.5e-323]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(UnitSupportRequired, match="normalize=True"):
            reflected_transform(q)
        reflected_transform(unit_support(q, normalize=True))


def test_reflected_support_resolution_boundary():
    # 1 - 2**-54 rounds to 1 (a tie, to even); the next float up is the
    # smallest maximum the operator takes, and both routes still agree there
    with pytest.raises(UnitSupportRequired, match="normalize=True"):
        reflected_transform(QuantileCurve(2.0**-54 * UNIFORM.values))
    top = float(np.nextafter(2.0**-54, 1.0))
    L = reflected_transform(QuantileCurve(top * UNIFORM.values))
    assert L.values[-1] == 1.0


def test_reflected_handles_positive_minimum():
    # atoms bounded away from zero once broke the cross-check route
    q = empirical_quantile([0.35, 0.9], M)
    L = reflected_transform(q)
    assert L.values[0] == 0.0 and L.values[-1] == 1.0
    assert np.all(np.diff(L.values) >= 0.0)


def test_reflected_inverse_composes():
    # the transform's node values are exact, so inverting them must return
    # the nodes themselves (the curve is strictly increasing here)
    q = analytic_quantile(AnalyticFamily.power(2.0), M)
    L = reflected_transform(q)
    x = reflected_inverse(q, L.values)
    assert np.allclose(x, L.grid, atol=1e-12)


def test_reflected_inverse_keeps_the_callers_order():
    q = analytic_quantile(AnalyticFamily.power(3.0), 65536)
    ascending = reflected_inverse(q, [0.1, 0.9])
    assert ascending[0] < ascending[1]
    assert np.array_equal(reflected_inverse(q, [0.9, 0.1]), ascending[::-1])


def test_reflected_inverse_on_sorted_points_is_the_inverse_on_shuffled_ones():
    q = unit_support(analytic_quantile(AnalyticFamily.lognormal(0.5, 0.2), 4096), normalize=True)
    u = q.grid
    perm = np.random.default_rng(7).permutation(u.size)
    shuffled = np.empty_like(u)
    shuffled[perm] = reflected_inverse(q, u[perm])
    assert shuffled.tobytes() == reflected_inverse(q, u).tobytes()


@given(unit_quantiles(), st.lists(st.floats(0.0, 1.0), max_size=20))
@example(empirical_quantile([0.35, 0.9], M), [])
@example(analytic_quantile(AnalyticFamily.point_mass(0.7), M), [0.7, 0.0])
@settings(max_examples=200, deadline=None)
def test_reflected_inverse_with_a_memo_is_the_inverse_without(q, extra):
    # a memo left by another quantile of the same size, then by q itself;
    # the grid points with and without extra unsorted ones
    q = unit_support(q, normalize=True)
    for u in (q.grid, np.concatenate([extra, q.grid])):
        memo = {}
        reflected_inverse(QuantileCurve(q.grid), u, cells=memo)
        expected = reflected_inverse(q, u).tobytes()
        assert reflected_inverse(q, u, cells=memo).tobytes() == expected
        assert reflected_inverse(q, u, cells=memo).tobytes() == expected


def test_reflected_rejects_oversized_support():
    q = analytic_quantile(AnalyticFamily.lognormal(0.5, 0.2), 128)
    with pytest.raises(UnitSupportRequired):
        reflected_transform(q)
    L = reflected_transform(unit_support(q, normalize=True))
    assert L.classical


# ---------------------------------------------------------------- reflections


def test_simple_reflect_of_square():
    L = lorenz_transform(analytic_quantile(AnalyticFamily.uniform01(), 4096))
    R = simple_reflect(L)
    x = R.grid
    assert np.allclose(R.values, 1.0 - np.sqrt(1.0 - x), atol=1e-7)


def test_simple_reflect_involution():
    ident = LorenzCurve(np.linspace(0.0, 1.0, 65))
    assert np.allclose(simple_reflect(simple_reflect(ident)).values, ident.values, atol=1e-15)
    # the reflected curve's kinks fall between nodes, so a double
    # reflection is only correct to grid resolution (h is about 1e-3)
    square = lorenz_transform(analytic_quantile(AnalyticFamily.uniform01(), 1024))
    back = simple_reflect(simple_reflect(square))
    assert np.allclose(back.values, square.values, atol=5e-4)
    # the golden curve has unbounded inverse slope at 0, where inverting the
    # polyline twice costs about h^(1/phi); keep the tolerance honest
    x = np.linspace(0.0, 1.0, 4097)
    golden = LorenzCurve(x**PHI)
    back = simple_reflect(simple_reflect(golden))
    assert np.max(np.abs(back.values - golden.values)) < 5e-5


def test_simple_reflect_links_the_two_limits():
    x = np.linspace(0.0, 1.0, 4097)
    golden = LorenzCurve(x**PHI)
    reflected = simple_reflect(golden)
    want = 1.0 - (1.0 - x) ** (1.0 / PHI)
    assert np.max(np.abs(reflected.values - want)) < 1e-6


def test_dual_curve_involution_and_values():
    L = lorenz_transform(analytic_quantile(AnalyticFamily.power(2.0), 256))
    D = dual_curve(L)
    assert np.array_equal(D.values, 1.0 - L.values[::-1])
    # 1 - (1 - x) is not an identity in floats, so allow half an ulp of 1
    assert np.allclose(dual_curve(D).values, L.values, atol=3e-16)


# ---------------------------------------------------------------- generalized


def test_generalized_lorenz_two_point():
    pts = generalized_lorenz([3.0, -1.0])
    assert pts.total == 2.0
    assert np.allclose(pts.fractions, [0.5, 1.0])
    assert np.allclose(pts.ratios, [-0.5, 1.0])
    assert pts.sign_change_index == 1


def test_generalized_lorenz_positive_sample_has_no_sign_change():
    pts = generalized_lorenz([1.0, 2.0, 4.0])
    assert pts.sign_change_index is None
    assert np.allclose(pts.ratios, [1.0 / 7.0, 3.0 / 7.0, 1.0])


def test_generalized_lorenz_rejects_nonpositive_total():
    with pytest.raises(NonPositiveMean):
        generalized_lorenz([-2.0, 1.0])


def test_truncate_increasing_section_two_point():
    pts = generalized_lorenz([3.0, -1.0])
    curve = truncate_generalized(pts, "increasing_section", grid_size=16)
    assert np.allclose(curve.values, curve.grid, atol=1e-15)


def test_truncate_positive_increasing_crosses_zero():
    pts = generalized_lorenz([-1.0, 0.5, 3.0])
    curve = truncate_generalized(pts, "positive_increasing", grid_size=18)
    assert np.allclose(curve.values, curve.grid, atol=1e-15)
    with pytest.raises(BadParameter):
        truncate_generalized(pts, "clip")


def test_truncate_positive_sample_reproduces_classical_polyline():
    pts = generalized_lorenz([1.0, 2.0, 4.0])
    curve = truncate_generalized(pts, grid_size=12)
    knots = np.array([1.0 / 3.0, 2.0 / 3.0, 1.0])
    assert np.allclose(curve.evaluate(knots), [1.0 / 7.0, 3.0 / 7.0, 1.0], atol=1e-15)


# ---------------------------------------------------------------- messages


@pytest.mark.parametrize(
    "fail",
    [
        lambda: LorenzCurve(np.array([0.1, 0.5, 1.0])),
        lambda: LorenzCurve(np.array([0.0, 0.6, 0.7, 1.0])),
        lambda: lorenz_transform(QuantileCurve(np.zeros(5))),
        lambda: primal_inverse(QuantileCurve(np.zeros(5)), [0.5]),
        lambda: unit_support(MonotoneCurve(np.array([0.0, 1.0, 2.0]))),
        lambda: min_risk(np.array([[0.01, 0.02], [0.03, 0.01]]), RiskMeasureConfig("variance"), 1.0),
    ],
    ids=["endpoints", "convexity", "transform-mean", "inverse-mean", "support", "target"],
)
def test_error_messages_print_plain_numbers(fail):
    with pytest.raises(LorenzLabError) as info:
        fail()
    assert any(c.isdigit() for c in str(info.value))
    assert "np." not in str(info.value)
