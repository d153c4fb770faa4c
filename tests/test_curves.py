import csv
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenzlab import (
    AnalyticFamily,
    LorenzCurve,
    MonotoneCurve,
    TargetCurveSpec,
    analytic_quantile,
    empirical_quantile,
    format_float,
    generalized_lorenz,
    limit_curve,
    lorenz_transform,
    primal_inverse,
    read_curve_csv,
    reflected_inverse,
    reflected_transform,
    simple_reflect,
    truncate_generalized,
    write_curve_csv,
)
from lorenzlab.curves import _sorted_searchsorted
from lorenzlab.errors import (
    BadParameter,
    EmptySample,
    NonFinite,
    NonMonotone,
    OutOfDomain,
    OutOfRange,
    ParseError,
)

from oracles import (
    LOGNORMAL_MEDIAN,
    LOGNORMAL_Q75,
    LOGNORMAL_SIGMA,
    PARETO_Q_HALF,
    PHI,
)


def monotone_values(draw_min=2, draw_max=40):
    return st.lists(
        st.floats(0.0, 10.0, allow_nan=False),
        min_size=draw_min,
        max_size=draw_max,
    ).map(lambda incs: np.cumsum(np.asarray(incs)))


# ---------------------------------------------------------------- validation


def test_rejects_decreasing():
    with pytest.raises(NonMonotone):
        MonotoneCurve(np.array([0.0, 0.5, 0.4, 1.0]))


def test_rejects_nan_and_inf():
    with pytest.raises(NonFinite):
        MonotoneCurve(np.array([0.0, math.nan, 1.0]))
    with pytest.raises(NonFinite):
        MonotoneCurve(np.array([0.0, 0.5, math.inf]))


def test_rejects_short_and_multidim():
    with pytest.raises(BadParameter):
        MonotoneCurve(np.array([1.0]))
    with pytest.raises(BadParameter):
        MonotoneCurve(np.zeros((3, 3)))


def test_lorenz_like_snaps_endpoint_dust():
    c = LorenzCurve(np.array([1e-14, 0.5, 1.0 - 1e-14]))
    assert c.values[0] == 0.0
    assert c.values[-1] == 1.0


def test_lorenz_like_rejects_wrong_endpoints():
    with pytest.raises(BadParameter):
        LorenzCurve(np.array([0.1, 0.5, 1.0]))
    with pytest.raises(BadParameter):
        LorenzCurve(np.array([0.0, 0.5, 0.9]))


# ---------------------------------------------------------------- evaluation


def test_evaluate_at_nodes_and_between():
    c = MonotoneCurve(np.array([0.0, 1.0, 4.0]))
    assert c.evaluate(0.0) == 0.0
    assert c.evaluate(0.5) == 1.0
    assert c.evaluate(0.75) == pytest.approx(2.5)


def test_evaluate_out_of_domain():
    c = MonotoneCurve(np.array([0.0, 1.0]))
    with pytest.raises(OutOfDomain):
        c.evaluate(-0.01)
    with pytest.raises(OutOfDomain):
        c.evaluate(1.01)
    # endpoint dust is absorbed
    assert c.evaluate(1.0 + 1e-13) == 1.0


def test_generalized_inverse_takes_left_edge_of_flats():
    c = MonotoneCurve(np.array([0.0, 0.5, 0.5, 1.0]))
    assert c.generalized_inverse(0.5) == pytest.approx(1.0 / 3.0)


def test_generalized_inverse_range_checks():
    c = MonotoneCurve(np.array([0.2, 0.5, 1.0]))
    with pytest.raises(OutOfRange):
        c.generalized_inverse(0.1)
    assert c.generalized_inverse(0.1, clamp=True) == 0.0
    assert c.generalized_inverse(2.0, clamp=True) == 1.0


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda q: q.evaluate(math.nan), OutOfDomain),
        (lambda q: q.prefix_integral(math.nan), OutOfDomain),
        (lambda q: q.generalized_inverse(math.nan), OutOfRange),
        (lambda q: q.generalized_inverse(math.nan, clamp=True), OutOfRange),
        (lambda q: primal_inverse(q, [math.nan]), OutOfRange),
        (lambda q: reflected_inverse(q, [math.nan]), OutOfRange),
        (lambda q: AnalyticFamily.lognormal(0.5, 0.2).quantile(math.nan), OutOfDomain),
    ],
    ids=["evaluate", "prefix_integral", "inverse", "inverse_clamped", "primal", "reflected",
         "family_quantile"],
)
def test_nan_points_are_rejected(call, error):
    with pytest.raises(error):
        call(MonotoneCurve(np.array([0.0, 0.5, 1.0])))


@given(monotone_values())
def test_generalized_inverse_is_a_left_inverse(vals):
    c = MonotoneCurve(vals)
    us = np.linspace(vals[0], vals[-1], 17)
    xs = c.generalized_inverse(us)
    # f(f^-1(u)) >= u for a nondecreasing polyline, with equality off flats
    assert np.all(c.evaluate(xs) >= us - 1e-9 * max(1.0, vals[-1]))


# ---------------------------------------------------------------- integration


def test_prefix_integral_matches_trapezoid_at_nodes():
    vals = np.array([0.0, 1.0, 1.5, 4.0, 4.0])
    c = MonotoneCurve(vals)
    for k in range(1, 5):
        want = np.trapezoid(vals[: k + 1], dx=0.25)
        assert c.prefix_integral(k * 0.25) == pytest.approx(want, abs=1e-15)
    assert c.total_integral == pytest.approx(np.trapezoid(vals, dx=0.25))


def test_prefix_integral_partial_cell():
    c = MonotoneCurve(np.array([0.0, 2.0]))  # integrand 2x on [0, 1]
    assert c.prefix_integral(0.5) == pytest.approx(0.25)
    assert c.prefix_integral(np.array([0.0, 1.0]))[1] == pytest.approx(1.0)


@given(monotone_values(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_prefix_integral_monotone_and_bounded(vals, a, b):
    if a > b:
        a, b = b, a
    c = MonotoneCurve(vals)
    lo, hi = c.prefix_integral(a), c.prefix_integral(b)
    assert hi >= lo - 1e-12
    assert hi - lo <= vals[-1] * (b - a) + 1e-9 * max(1.0, vals[-1])


def test_quantile_mean():
    # the mean of a quantile curve is its total integral
    q = MonotoneCurve(np.array([0.0, 1.0]))
    assert q.total_integral == 0.5


# ---------------------------------------------------------------- constructors


def test_empirical_quantile_small_case():
    q = empirical_quantile([0.9, 0.35], 4)
    assert np.array_equal(q.values, [0.35, 0.35, 0.35, 0.9, 0.9])


def test_empirical_quantile_order_statistics():
    sample = [3.0, 1.0, 2.0]
    q = empirical_quantile(sample, 6)
    # node k holds order statistic ceil(3k/6)
    assert np.array_equal(q.values, [1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
    assert set(q.values) <= set(sample)


def test_empirical_quantile_empty():
    with pytest.raises(EmptySample):
        empirical_quantile([], 8)


# ---------------------------------------------------------------- families


def test_uniform_and_power_quantiles():
    u = AnalyticFamily.uniform01()
    assert u.quantile(0.3) == pytest.approx(0.3)
    assert u.mean == pytest.approx(0.5)
    p = AnalyticFamily.power(3.0)
    assert p.quantile(0.125) == pytest.approx(0.5)
    assert p.mean == pytest.approx(0.75)


def test_kumaraswamy_limit_mean_is_phi_minus_one():
    k = AnalyticFamily.kumaraswamy_limit()
    assert k.quantile(0.5) == pytest.approx(1.0 - 0.5**PHI)
    assert k.mean == pytest.approx(PHI - 1.0, abs=1e-15)


def test_pareto_golden_parent():
    fam = AnalyticFamily.pareto(1.0, 1.0 + PHI)
    assert fam.quantile(0.5) == pytest.approx(PARETO_Q_HALF, abs=1e-14)
    assert fam.mean == pytest.approx(PHI, abs=1e-14)
    assert fam.quantile(1.0) == math.inf


def test_lognormal_mean_sd_parameterization():
    fam = AnalyticFamily.lognormal(0.5, 0.2)
    assert fam.quantile(0.5) == pytest.approx(LOGNORMAL_MEDIAN, abs=1e-13)
    assert fam.quantile(0.75) == pytest.approx(LOGNORMAL_Q75, abs=1e-13)


def test_lognormal_logscale_agrees():
    a = AnalyticFamily.lognormal(0.5, 0.2)
    b = AnalyticFamily.lognormal_logscale(math.log(LOGNORMAL_MEDIAN), LOGNORMAL_SIGMA)
    for p in (0.1, 0.5, 0.9):
        assert a.quantile(p) == pytest.approx(b.quantile(p), abs=1e-13)


def test_family_parameter_validation():
    with pytest.raises(BadParameter):
        AnalyticFamily.power(0.0)
    with pytest.raises(BadParameter):
        AnalyticFamily.pareto(1.0, 1.0)
    with pytest.raises(BadParameter):
        AnalyticFamily.lognormal(-0.5, 0.2)
    with pytest.raises(BadParameter):
        AnalyticFamily.point_mass(math.inf)
    with pytest.raises(BadParameter, match="unknown analytic family 'gamma'"):
        AnalyticFamily("gamma").mean


@pytest.mark.parametrize(
    "kind, params",
    [
        ("power", ()),
        ("power", (-1.0,)),
        ("power", (2.0, 3.0)),
        ("power", ("x",)),
        ("uniform01", (1.0,)),
        ("pareto", (1.0, 1.0)),
        ("lognormal", (0.5, 0.0)),
        ("point_mass", (math.nan,)),
    ],
)
def test_family_built_directly_is_checked_like_its_constructor(kind, params):
    with pytest.raises(BadParameter):
        AnalyticFamily(kind, params)


def test_family_built_directly_equals_its_constructor():
    assert AnalyticFamily("pareto", (1, 2.5)) == AnalyticFamily.pareto(1.0, 2.5)
    assert AnalyticFamily("power", [3]).params == (3.0,)
    assert AnalyticFamily("power", [3]).mean == 0.75


# One member of each family, built by each constructor.
FAMILIES = {
    "uniform01": AnalyticFamily.uniform01(),
    "power": AnalyticFamily.power(3.0),
    "kumaraswamy_limit": AnalyticFamily.kumaraswamy_limit(),
    "pareto": AnalyticFamily.pareto(1.0, 2.5),
    "lognormal": AnalyticFamily.lognormal(0.5, 0.2),
    "lognormal_logscale": AnalyticFamily.lognormal_logscale(-0.5, 0.4),
    "point_mass": AnalyticFamily.point_mass(0.7),
}


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("p", [-0.01, 1.01, [0.5, 1.01]])
def test_family_quantile_rejects_points_outside_the_unit_interval(name, p):
    with pytest.raises(OutOfDomain, match="probability outside"):
        FAMILIES[name].quantile(p)


def test_family_quantile_absorbs_endpoint_dust():
    fam = AnalyticFamily.power(3.0)
    assert fam.quantile(-1e-13) == 0.0
    assert fam.quantile(1.0 + 1e-13) == 1.0


# SHA-256 of analytic_quantile(family, 4096).values, and the family's mean,
# recorded before the families were gathered into one table. Pareto and
# lognormal also cover the replaced infinite top node. The power-law
# families go through numpy's float64 `power`, so these bits belong to the
# numpy build and CPU they were recorded on (numpy 2.4, x86-64).
FAMILY_DIGESTS = {
    "uniform01": ("818e307fee696baa22036a579eca9d38ff1f2044191369306fdf580c56dc5697", 0.5),
    "power": ("aba2c078fd1375f1de147642798c7d06bb9ed1f33fbc9157415ec0cb0de7f117", 0.75),
    "kumaraswamy_limit": (
        "277b27a2a96c2554fb2414c66ed2fa0a8a1a1adc8c8709d384d07830868c6834",
        0.6180339887498949,
    ),
    "pareto": (
        "173a3cb2096126841e7d5c769f94a656537de031c9c67701779c287faa897b56",
        1.6666666666666667,
    ),
    "lognormal": ("dee6cba6f9620f677b86d84181fb384fcac3e00e888ff962884d5d81c8380a19", 0.5),
    "lognormal_logscale": (
        "aec84adc0c68c5f6f44e9f9f982c1090de2b65751686e35144eb42df4c813d9c",
        0.6570468198150567,
    ),
    "point_mass": ("3d13ec7244855eb8f0db8b171d07f694045bec17ef24f471023699bab4df2aad", 0.7),
}


def test_family_bits_are_pinned():
    got = {
        name: (hashlib.sha256(analytic_quantile(fam, 4096).values.tobytes()).hexdigest(), fam.mean)
        for name, fam in FAMILIES.items()
    }
    assert got == FAMILY_DIGESTS


def test_curves_of_one_size_share_one_read_only_grid(tmp_path):
    m = 64
    q = analytic_quantile(AnalyticFamily.uniform01(), m)
    grid = q.grid
    assert empirical_quantile([1.0, 2.0], m).grid is grid
    assert limit_curve("reflected", m).grid is grid
    assert analytic_quantile(AnalyticFamily.uniform01(), 32).grid is not grid
    with pytest.raises(ValueError):
        grid[1] = 0.5
    write_curve_csv(q, tmp_path / "q.csv")
    # Every array the public API builds from the nodes is its own.
    outputs = [
        q.values,
        AnalyticFamily.uniform01().quantile(grid),
        q.evaluate(grid),
        q.generalized_inverse(grid),
        q.prefix_integral(grid),
        primal_inverse(q, grid),
        reflected_inverse(q, grid),
        lorenz_transform(q).values,
        reflected_transform(q).values,
        simple_reflect(lorenz_transform(q)).values,
        limit_curve("primal", m).values,
        truncate_generalized(generalized_lorenz([1.0, 2.0, 4.0]), grid_size=m).values,
        TargetCurveSpec().curve(m).values,
        read_curve_csv(tmp_path / "q.csv").values,
    ]
    for out in outputs:
        assert not np.shares_memory(out, grid)


@st.composite
def search_nodes(draw):
    """Nondecreasing nodes, 0 to 40 of them: flat runs from zero increments,
    leading zeros, and the prefix integral of a two-atom quantile, whose
    levels repeat."""
    if draw(st.booleans()):
        low, high = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
        m = draw(st.integers(1, 16))
        return empirical_quantile([low, high], m)._prefix
    zeros = draw(st.integers(0, 3))
    steps = draw(st.lists(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 2.0), max_size=37))
    return np.concatenate([np.zeros(zeros), np.cumsum(steps)])


@given(search_nodes(), st.data())
@settings(max_examples=300, deadline=None)
def test_sorted_searchsorted_is_searchsorted(nodes, data):
    # targets equal to a node, below the first and above the last, and in
    # between; 0 to 2 of them as often as longer lists
    pool = list(nodes) + [-1.0, -0.0, 0.0, 1e3]
    element = st.sampled_from(pool) | st.floats(-1.0, 100.0)
    picks = data.draw(st.lists(element, max_size=2) | st.lists(element, max_size=30))
    shuffled = np.array(data.draw(st.permutations(picks)), dtype=float)
    # sorted targets are merged; unsorted ones, or nodes out of order, take
    # the binary search
    for nodes_, targets in [
        (nodes, np.sort(shuffled)),
        (nodes, shuffled),
        (nodes[::-1], np.sort(shuffled)),
    ]:
        for side in ("left", "right"):
            want = np.searchsorted(nodes_, targets, side=side)
            got = _sorted_searchsorted(nodes_, targets, side)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


@st.composite
def guesses(draw, nodes, targets):
    """A guess of targets' cells in nodes: the answer, the answer with a few
    cells or all of them off by one, all 0, all len(nodes), random indices
    (some out of range), or the answer for nodes moved by a small step."""
    n = nodes.size
    exact = np.searchsorted(nodes, targets, side=draw(st.sampled_from(["left", "right"])))
    kind = draw(st.sampled_from(["exact", "few_off", "off", "zero", "top", "random", "stale"]))
    if kind == "exact":
        return exact
    if kind == "few_off":
        guess = exact.copy()
        for j in draw(st.lists(st.integers(0, max(targets.size - 1, 0)), min_size=1, max_size=3)):
            if targets.size:
                guess[j] += draw(st.sampled_from([-1, 1]))
        return guess
    if kind == "off":
        return exact + draw(st.sampled_from([-1, 1]))
    if kind == "zero":
        return np.zeros_like(exact)
    if kind == "top":
        return np.full_like(exact, n)
    if kind == "random":
        return np.array(draw(st.lists(st.integers(-2, n + 2), min_size=targets.size,
                                      max_size=targets.size)), dtype=np.intp)
    step = draw(st.floats(-0.5, 0.5))
    return np.searchsorted(nodes + step, targets)


@given(search_nodes(), st.data())
@settings(max_examples=400, deadline=None)
def test_a_guess_never_changes_the_search(nodes, data):
    # targets as in test_sorted_searchsorted_is_searchsorted; 16 to 60 of them
    # as often as 0 to 2, so that a few misses are searched again rather than
    # dropping the guess
    pool = list(nodes) + [-1.0, -0.0, 0.0, 1e3]
    element = st.sampled_from(pool) | st.floats(-1.0, 100.0)
    picks = data.draw(st.lists(element, max_size=2) | st.lists(element, min_size=16, max_size=60))
    picks = np.array(picks, dtype=float)
    shuffled = np.array(data.draw(st.permutations(picks)), dtype=float)
    # the same nodes a hair out of order: one node an ulp above the next,
    # where only the binary search defines the answer and the guess is ignored
    unsorted = nodes.copy()
    if nodes.size >= 2:
        j = data.draw(st.integers(0, nodes.size - 2))
        unsorted[j] = np.nextafter(unsorted[j + 1], np.inf)
    for nodes_, targets in [(nodes, np.sort(picks)), (nodes, shuffled), (unsorted, np.sort(picks))]:
        guess = data.draw(guesses(nodes, targets))
        kept = guess.copy()
        for side in ("left", "right"):
            want = np.searchsorted(nodes_, targets, side=side)
            got = _sorted_searchsorted(nodes_, targets, side, guess)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert np.array_equal(guess, kept)


def test_analytic_quantile_tail_handling():
    fam = AnalyticFamily.pareto(1.0, 1.0 + PHI)
    q = analytic_quantile(fam, 64)
    assert q.values[-1] == pytest.approx(fam.quantile(1.0 - 1.0 / 128.0))
    ln = analytic_quantile(AnalyticFamily.lognormal(0.5, 0.2), 64)
    assert ln.values[0] == 0.0
    # one segment is a grid, as for every other builder; its top is Q(1/2)
    assert analytic_quantile(fam, 1).values.tolist() == [1.0, fam.quantile(0.5)]
    with pytest.raises(BadParameter, match="grid_size must be at least 1"):
        analytic_quantile(fam, 0)


# ---------------------------------------------------------------- round trips


def test_curve_csv_round_trip_is_bit_exact(tmp_path):
    q = analytic_quantile(AnalyticFamily.lognormal(0.5, 0.2), 128)
    path = tmp_path / "curve.csv"
    write_curve_csv(q, path)
    back = read_curve_csv(path)
    assert np.array_equal(back.values, q.values)


def test_read_curve_csv_rejects_bad_input(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("u,value\n0.0,0.0\n")
    with pytest.raises(ParseError):
        read_curve_csv(path)
    for header in ("x,y", "u,value,junk"):
        path.write_text(f"{header}\n0,0,abc\n1,1,2,3\n")
        with pytest.raises(ParseError, match=r"bad\.csv:1: expected a 'u,value' header"):
            read_curve_csv(path)
    path.write_text("u,value\n0.0,0.0\n0.7,0.5\n1.0,1.0\n")
    with pytest.raises(ParseError, match=":3:"):
        read_curve_csv(path)
    for rows, line in [
        ("0.0,0.0\n0.5,nan\n1.0,1.0", 3),
        ("0.0,0.0\n0.5,inf\n1.0,1.0", 3),
        ("0.0,0.0\n0.5,0.6\n1.0,0.4", 4),
    ]:
        path.write_text(f"u,value\n{rows}\n")
        with pytest.raises(ParseError, match=f":{line}:"):
            read_curve_csv(path)
    for rows, line, got in [
        ("0.0,0.0\n0.5\n1.0,1.0", 3, 1),
        ("0,0,abc\n1,1", 2, 3),
        ("0,0\n1,1,2,3", 3, 4),
    ]:
        path.write_text(f"u,value\n{rows}\n")
        with pytest.raises(ParseError, match=f"bad\\.csv:{line}: expected 2 cells, got {got}$"):
            read_curve_csv(path)
    path.write_bytes(b"u,value\n0.0,0.0\n1.0,1.0\xff\n")
    with pytest.raises(ParseError, match=r"bad\.csv: not UTF-8 text \(byte 0xff\)"):
        read_curve_csv(path)


def test_read_curve_csv_skips_empty_lines(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("u,value\n0,0\n\n0.5,0.25\n\n1,1\n")
    assert read_curve_csv(path).values.tolist() == [0.0, 0.25, 1.0]
    # a row of blank cells is skipped too, as price and scenario files skip it
    path.write_text("u,value\n0,0\n,\n0.5,0.25\n , \n1,1\n")
    assert read_curve_csv(path).values.tolist() == [0.0, 0.25, 1.0]


def per_cell_curve_csv(curve, path):
    """The curve writer before the one table writer: a `format_float` per
    cell, each row through `csv.writer`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "value"])
        for u, v in zip(curve.grid, curve.values):
            writer.writerow([format_float(u), format_float(v)])


# signed zeros, subnormals, the smallest normal and magnitudes of 1e+-300
NODE_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
              1e300, -1e300]
node_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(NODE_EDGES)
)


@given(st.lists(node_values, min_size=2, max_size=40))
@settings(max_examples=150, deadline=None)
def test_curve_writer_bytes_are_the_per_cell_writers(tmp_path_factory, nodes):
    curve = MonotoneCurve(np.sort(nodes))
    folder = tmp_path_factory.mktemp("curve")
    write_curve_csv(curve, folder / "new.csv")
    per_cell_curve_csv(curve, folder / "old.csv")
    assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x
