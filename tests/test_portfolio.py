import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lorenzlab import (
    MEASURE_KINDS,
    RiskMeasureConfig,
    efficient_frontier,
    grid_oracle,
    measure_value,
    min_risk,
    portfolio_returns,
    variance,
)
from lorenzlab.errors import (
    BadParameter,
    DimensionMismatch,
    InfeasibleTarget,
    LorenzLabError,
    NonPositiveMeanRegion,
    TooManyAssets,
)
from lorenzlab import portfolio
from lorenzlab.portfolio import BUDGET_TOL, NONNEG_TOL, TARGET_TOL, nelder_mead
from lorenzlab.rng import Xoshiro256pp

VAR = RiskMeasureConfig(kind="variance")


def seeded_scenarios(seed, t, n, mu, sig):
    rng = Xoshiro256pp(seed)
    z = np.array([[rng.normal() for _ in range(n)] for _ in range(t)])
    return np.asarray(mu) + np.asarray(sig) * z


def alternating_instance():
    """Three assets, equal means, alternating swings of different sizes.

    Every portfolio return alternates around the common mean, so the mean is
    weight-independent and dispersion is an exact linear function of the
    weights; argmins are provable by hand.
    """
    t = 40
    c = 0.02
    swings = np.array([0.06, 0.14, 0.09])
    signs = np.array([1.0 if i % 2 else -1.0 for i in range(t)])
    return c + signs[:, None] * swings[None, :]


# ---------------------------------------------------------------- returns


def test_portfolio_returns_small_case():
    s = np.array([[0.01, 0.03], [0.02, -0.01]])
    r = portfolio_returns(s, [0.5, 0.5])
    assert np.allclose(r, [0.02, 0.005])


def test_portfolio_returns_rejects_bad_weights():
    s = np.array([[0.01, 0.03], [0.02, -0.01]])
    with pytest.raises(DimensionMismatch):
        portfolio_returns(s, [1.0, 0.0, 0.0])
    with pytest.raises(BadParameter):
        portfolio_returns(s, [np.nan, 1.0])


# ---------------------------------------------------------------- min_risk


def test_single_asset_is_trivial():
    s = seeded_scenarios(3, 50, 1, [0.01], [0.02])
    point = min_risk(s, VAR)
    assert point.converged
    assert point.weights == pytest.approx([1.0], abs=1e-9)
    assert point.risk == pytest.approx(variance(s[:, 0]), rel=1e-6)


def test_duplicate_assets_share_the_risk():
    col = seeded_scenarios(4, 60, 1, [0.015], [0.03])[:, 0]
    s = np.column_stack([col, col])
    point = min_risk(s, VAR)
    assert point.converged
    assert point.risk == pytest.approx(variance(col), rel=1e-6)
    assert point.weights.sum() == pytest.approx(1.0, abs=1e-8)


def test_max_target_takes_the_best_asset():
    s = seeded_scenarios(5, 40, 3, [0.01, 0.03, 0.02], [0.02, 0.02, 0.02])
    means = s.mean(axis=0)
    point = min_risk(s, VAR, target=float(means.max()))
    assert point.converged
    assert point.iterations == 0
    k = int(np.argmax(means))
    want = np.zeros(3)
    want[k] = 1.0
    assert np.array_equal(point.weights, want)


def test_max_target_tie_prefers_the_lowest_index():
    col = seeded_scenarios(6, 30, 1, [0.02], [0.01])[:, 0]
    s = np.column_stack([col, col])
    point = min_risk(s, VAR, target=float(col.mean()))
    assert np.array_equal(point.weights, [1.0, 0.0])


def test_infeasible_and_degenerate_targets():
    s = seeded_scenarios(7, 40, 2, [0.01, 0.02], [0.02, 0.02])
    with pytest.raises(InfeasibleTarget):
        min_risk(s, VAR, target=0.5)
    with pytest.raises(NonPositiveMeanRegion):
        min_risk(s - 1.0, VAR)


@pytest.mark.parametrize(
    "pick",
    [
        pytest.param(lambda m: 0.5 * (m.min() + m.max()), id="midpoint"),
        pytest.param(lambda m: np.sort(m)[1], id="interior-asset-mean"),
        pytest.param(lambda m: m.min(), id="min-mean"),
        pytest.param(lambda m: m.min() - 5e-13, id="below-min-mean"),
    ],
)
def test_target_is_hit_within_tolerance(pick):
    s = seeded_scenarios(8, 80, 3, [0.01, 0.02, 0.03], [0.02, 0.03, 0.04])
    target = float(pick(s.mean(axis=0)))
    point = min_risk(s, VAR, target=target)
    assert point.converged
    assert abs(point.mean - target) <= 1e-6
    assert point.weights.min() >= -1e-10
    assert abs(point.weights.sum() - 1.0) <= 1e-8


# ---------------------------------------------------------------- exact kinds

EXACT = ("variance", "cvar", "mad")


def certified(point):
    return point.converged and point.certificate is not None and point.certificate <= 1e-9


@pytest.mark.parametrize("kind", EXACT)
def test_exact_kinds_beat_the_grid_with_a_singular_covariance(kind):
    # three scenarios for four assets: the covariance has rank at most two
    s = seeded_scenarios(14, 3, 4, [0.01, 0.02, 0.03, 0.015], [0.02, 0.03, 0.04, 0.02])
    config = RiskMeasureConfig(kind=kind, tail_fraction=0.5)
    point = min_risk(s, config)
    _, oracle = grid_oracle(s, config, step=0.02)
    assert certified(point)
    assert point.risk <= oracle + 1e-12


def test_constant_column_has_zero_variance():
    s = seeded_scenarios(15, 50, 3, [0.01, 0.02, 0.03], [0.02, 0.03, 0.04])
    s[:, 1] = 0.004
    point = min_risk(s, VAR)
    assert certified(point)
    assert point.weights == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)
    assert point.risk <= 1e-30


def test_cvar_with_less_than_one_tail_scenario_is_the_worst_loss():
    # p * T = 0.5 < 1: the tail is the single worst scenario
    s = seeded_scenarios(16, 50, 3, [0.01, 0.02, 0.03], [0.02, 0.03, 0.04])
    config = RiskMeasureConfig(kind="cvar", tail_fraction=0.01)
    point = min_risk(s, config)
    _, oracle = grid_oracle(s, config, step=0.01)
    assert certified(point)
    assert point.risk == pytest.approx(-float(np.min(s @ point.weights)), abs=1e-15)
    assert point.risk <= oracle + 1e-12


@pytest.mark.parametrize("kind", EXACT)
def test_exact_kinds_at_an_interior_asset_mean(kind):
    s = seeded_scenarios(8, 80, 3, [0.01, 0.02, 0.03], [0.02, 0.03, 0.04])
    means = s.mean(axis=0)
    k, j, i = np.argsort(means)[[1, 2, 0]]
    target = float(means[k])
    config = RiskMeasureConfig(kind=kind, tail_fraction=0.1)
    point = min_risk(s, config, target=target)
    assert certified(point)
    assert abs(point.mean - target) <= 1e-12
    # The feasible set is the segment from asset k to the mix of the other
    # two that meets the target; scan it finely.
    mix = np.zeros(3)
    mix[j], mix[i] = target - means[i], means[j] - target
    mix /= mix.sum()
    scan = min(
        measure_value(s @ ((1.0 - a) * np.eye(3)[k] + a * mix), config)
        for a in np.linspace(0.0, 1.0, 2001)
    )
    assert point.risk <= scan + 1e-15


def test_nelder_mead_kinds_carry_no_certificate():
    s = seeded_scenarios(17, 40, 2, [0.01, 0.02], [0.02, 0.03])
    point = min_risk(s, RiskMeasureConfig(kind="gmd"))
    assert point.converged and point.certificate is None


def test_exact_solvers_do_not_import_scipy():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import lorenzlab as L\n"
        "s = 0.01 + 0.02 * np.sin(np.arange(120.0).reshape(40, 3))\n"
        "for kind in ('variance', 'cvar', 'mad'):\n"
        "    for target in (None, float(np.median(s.mean(axis=0)))):\n"
        "        assert L.min_risk(s, L.RiskMeasureConfig(kind=kind), target=target).converged\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# ---------------------------------------------------------------- grid oracle


def test_grid_oracle_enumerates_the_simplex():
    s = seeded_scenarios(9, 50, 2, [0.01, 0.02], [0.02, 0.03])
    w_star, best = grid_oracle(s, VAR, step=0.5)
    candidates = [
        np.array([1.0, 0.0]),
        np.array([0.5, 0.5]),
        np.array([0.0, 1.0]),
    ]
    by_hand = min(float(variance(s @ w)) for w in candidates)
    assert best == pytest.approx(by_hand, abs=1e-15)
    assert float(variance(s @ w_star)) == pytest.approx(best, abs=1e-15)


def test_grid_oracle_skips_points_whose_mean_is_not_positive():
    # [0, 1] and [0.5, 0.5] have negative means, where gs1 is undefined
    w, risk = grid_oracle([[0.1, -0.2], [0.1, -0.1]], RiskMeasureConfig(kind="gs1"), step=0.5)
    assert w.tolist() == [1.0, 0.0]
    assert risk == measure_value(np.array([0.1, 0.1]), RiskMeasureConfig(kind="gs1"))


def test_grid_oracle_guards():
    s = seeded_scenarios(10, 20, 5, [0.01] * 5, [0.02] * 5)
    with pytest.raises(TooManyAssets):
        grid_oracle(s, VAR, step=0.5)
    s = s[:, :2]
    with pytest.raises(BadParameter):
        grid_oracle(s, VAR, step=0.3)
    with pytest.raises(InfeasibleTarget):
        grid_oracle(s, VAR, step=0.5, target=0.5)


def test_grid_oracle_respects_the_target_band():
    s = seeded_scenarios(11, 60, 2, [0.01, 0.03], [0.01, 0.01])
    means = s.mean(axis=0)
    target = float(means.mean())
    w_star, _ = grid_oracle(s, VAR, step=0.25, target=target)
    assert abs(float(s.mean(axis=0) @ w_star) - target) <= 0.25 * 0.5 * (
        means.max() - means.min()
    ) + 1e-9


# ---------------------------------------------------------------- solver


def test_nelder_mead_quadratic_bowl():
    a = np.array([0.3, -0.7, 1.1])
    x, fx, its, diam = nelder_mead(lambda w: float(np.sum((w - a) ** 2)), np.zeros(3))
    assert np.allclose(x, a, atol=1e-6)
    assert fx < 1e-12
    assert diam <= 1e-8


def test_scaling_the_measure_does_not_move_the_argmin():
    s = alternating_instance()
    w_gmd, _ = grid_oracle(s, RiskMeasureConfig(kind="gmd"), step=0.05)
    w_gini, _ = grid_oracle(s, RiskMeasureConfig(kind="extended_gini", v=2.0), step=0.05)
    # equal means make extended_gini(2) an exact positive rescaling of gmd
    assert np.array_equal(w_gmd, w_gini)
    assert np.array_equal(w_gmd, [1.0, 0.0, 0.0])


# ---------------------------------------------------------------- frontier


def test_frontier_shape_and_monotone_targets():
    s = seeded_scenarios(12, 90, 3, [0.01, 0.02, 0.03], [0.02, 0.03, 0.04])
    res = efficient_frontier(s, VAR, n_points=5, tickers=["a", "b", "c"])
    assert res.tickers == ["a", "b", "c"]
    assert len(res.points) == 5
    means = [p.mean for p in res.points]
    assert all(b > a for a, b in zip(means, means[1:]))
    risks = [p.risk for p in res.points]
    assert all(b >= a - 1e-12 for a, b in zip(risks, risks[1:]))
    assert all(p.converged for p in res.points)
    assert res.points[-1].weights.max() == pytest.approx(1.0, abs=1e-8)


def test_frontier_needs_two_points():
    s = seeded_scenarios(13, 30, 2, [0.01, 0.02], [0.02, 0.02])
    with pytest.raises(BadParameter):
        efficient_frontier(s, VAR, n_points=1)


def test_frontier_clamps_a_target_that_rounding_puts_out_of_range():
    # The global minimum is the best asset alone. At this scale its mean,
    # summed in another order than the per-asset means, rounds more than
    # 1e-12 past the best mean; the sweep clips its targets back into the
    # attainable range, so every point sits on the best asset.
    x = np.random.default_rng(14).standard_normal(64)
    s = np.column_stack([x + 1.0, 2.0 * x + 0.5]) * 1e4
    points = efficient_frontier(s, VAR, n_points=3).points
    assert points[0].mean > s.mean(axis=0).max() + 1e-12
    for point in points:
        assert point.converged
        assert np.array_equal(point.weights, [1.0, 0.0])


def warm_start_instances():
    """(scenarios, tail fraction): seeded ones and degenerate LPs."""
    mu, sig = [0.01, 0.02, 0.03, 0.015], [0.02, 0.03, 0.04, 0.025]
    s = seeded_scenarios(23, 60, 3, mu[:3], sig[:3])
    return {
        "seed21": (seeded_scenarios(21, 120, 4, mu, sig), 0.1),
        "seed22": (seeded_scenarios(22, 200, 4, mu, sig), 0.05),
        "duplicate": (np.column_stack([s, s[:, 1]]), 0.1),
        "T<N": (seeded_scenarios(24, 6, 8, np.tile(mu, 2), np.tile(sig, 2)), 0.5),
        # p * T = 10: the tail's boundary falls between two scenarios
        "integer-pT": (seeded_scenarios(25, 40, 3, mu[:3], sig[:3]), 0.25),
    }


@pytest.mark.parametrize("kind", ["cvar", "mad"])
@pytest.mark.parametrize("case", ["seed21", "seed22", "duplicate", "T<N", "integer-pT"])
def test_warm_started_exact_points_match_cold_solves(kind, case):
    # Each interior point re-enters the simplex from the previous point's
    # optimal basis; a cold solve at its target starts over from phase one.
    s, tail_fraction = warm_start_instances()[case]
    config = RiskMeasureConfig(kind=kind, tail_fraction=tail_fraction)
    points = efficient_frontier(s, config, n_points=6).points
    for point in points[1:-1]:
        assert certified(point)
        cold = min_risk(s, config, target=point.target)
        assert abs(point.risk - cold.risk) <= 1e-12 * abs(cold.risk)


@pytest.mark.parametrize("kind", ["cvar", "mad"])
def test_warm_started_exact_points_take_fewer_pivots(kind):
    s = seeded_scenarios(26, 500, 8, np.linspace(0.005, 0.03, 8), np.linspace(0.02, 0.05, 8))
    config = RiskMeasureConfig(kind=kind, tail_fraction=0.1)
    interior = efficient_frontier(s, config, n_points=5).points[1:-1]
    cold = [min_risk(s, config, target=p.target) for p in interior]
    assert all(certified(p) for p in interior + cold)
    assert sum(p.iterations for p in interior) < sum(p.iterations for p in cold)


# -------------------------------------------- the Nelder-Mead kinds' edge paths

GS1 = RiskMeasureConfig("gs1")


def one_losing_asset():
    """Three assets, the first with a negative mean (about -0.02)."""
    return seeded_scenarios(3, 60, 3, [-0.02, 0.05, 0.04], [0.01, 0.02, 0.03])


def test_gs1_searches_past_portfolios_with_a_negative_mean():
    # the cold start at the first asset's vertex has a negative mean, where
    # gs1 is undefined, so the search starts from the objective's penalty
    s = one_losing_asset()
    assert s[:, 0].mean() < 0.0
    point = min_risk(s, GS1)
    assert point.converged, point.message
    assert point.mean > 0.0 and point.risk > 0.0
    assert point.weights[0] > 0.0


def test_gs1_at_a_target_at_or_below_zero_has_no_risk():
    s = one_losing_asset()
    point = min_risk(s, GS1, target=-0.005)
    assert point.mean == pytest.approx(-0.005, abs=TARGET_TOL)
    assert np.isnan(point.risk)
    assert not point.converged
    assert point.message.startswith("risk undefined at the solution: ")


def test_gs1_at_a_zero_mean_target_reports_a_risk_that_agrees_with_its_mean():
    # At target 0 the sums gs1 takes of a portfolio's returns round to either
    # sign; a negative sorted sum under a positive cumulative total gave a
    # negative risk, which drew the search to it.
    s = seeded_scenarios(3, 60, 3, [-0.02, 0.01, 0.02], [0.02, 0.03, 0.04])
    point = min_risk(s, GS1, target=0.0)
    assert point.converged, point.message
    assert point.mean > 0.0 and point.risk >= 0.0
    assert point.risk == measure_value(s @ point.weights, GS1)


def test_a_search_stopped_by_max_iter_is_not_converged(monkeypatch):
    monkeypatch.setattr(portfolio, "_ITER_PER_DIM", 1)
    s = one_losing_asset()
    point = min_risk(s, GS1, target=0.03)
    assert np.isfinite(point.risk)
    assert not point.converged
    assert point.message == "simplex diameter above tolerance at max_iter"


def feasible_segment(means, target):
    """The two ends of {w >= 0, sum w = 1, means . w = target} for three
    assets: the farthest apart of the points where the target crosses an
    edge of the simplex."""
    ends = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if means[i] != means[j] and min(means[i], means[j]) <= target <= max(means[i], means[j]):
            w = np.zeros(3)
            w[i], w[j] = means[j] - target, target - means[i]
            ends.append(w / (means[j] - means[i]))
    return max(itertools.combinations(ends, 2), key=lambda e: np.abs(e[0] - e[1]).sum())


@pytest.mark.parametrize(
    "kind",
    [
        "gmd",
        "extended_gini",
        "gs1",
        pytest.param(
            "gs2",
            marks=pytest.mark.xfail(
                strict=True,
                reason="the warm start from the previous point settles in a local "
                "minimum of gs2: the second interior point is 0.33% above the "
                "segment's minimum, which a cold start finds",
            ),
        ),
    ],
)
def test_warm_started_frontier_points_are_segment_minima(kind):
    # Each interior point starts from the point before it; on three assets its
    # feasible set is a segment, which a scan covers.
    s = seeded_scenarios(3, 120, 3, [0.01, 0.02, 0.03], [0.02, 0.03, 0.04])
    means = s.mean(axis=0)
    config = RiskMeasureConfig(kind=kind)
    points = efficient_frontier(s, config, n_points=5).points
    for point in points[1:-1]:
        assert point.converged
        assert point.residual_budget <= BUDGET_TOL
        assert point.residual_target <= TARGET_TOL
        assert point.min_weight >= -NONNEG_TOL
        a, b = feasible_segment(means, point.target)
        scan = min(
            measure_value(s @ ((1.0 - x) * a + x * b), config)
            for x in np.linspace(0.0, 1.0, 4001)
        )
        assert point.risk <= scan + 1e-9 * abs(scan)


def singular_covariance_instances():
    s = seeded_scenarios(18, 60, 3, [0.01, 0.02, 0.03], [0.02, 0.03, 0.04])
    duplicate = np.column_stack([s, s[:, 1]])
    constant = s.copy()
    constant[:, 0] = 0.015
    few_rows = seeded_scenarios(19, 3, 5, [0.01, 0.02, 0.03, 0.015, 0.025], [0.02] * 5)
    return {"T<N": few_rows, "duplicate": duplicate, "constant": constant}


@pytest.mark.parametrize("with_target", [False, True], ids=["global", "target"])
@pytest.mark.parametrize("case", ["T<N", "duplicate", "constant"])
def test_variance_is_certified_on_a_singular_covariance(case, with_target):
    s = singular_covariance_instances()[case]
    means = s.mean(axis=0)
    target = 0.5 * (means.min() + means.max()) if with_target else None
    point = min_risk(s, VAR, target=target)
    assert certified(point)


# ---------------------------------------------------------------- pinned bits

# Recorded before measure_value bound each measure to its sample size; a
# change to any value's rounding, or to an error class, moves a digest.
MEASURE_DIGESTS = {
    "variance": "44394b6c256acb41a4e46aebb8cdd7885aefbb83b793eae6ae8deb969916d12c",
    "mad": "c03042999f82201d6a362212bd2b99a5eb2da3490a4b4e6959e38ec0a257d10b",
    "cvar": "80f1c1200b43c3a535c8d2738fbd40243280a61368e4170c09338bbf056c4cce",
    "gmd": "c7ec4bf0624c0d6b33496990f4eaa9ee7f2aff7c8c26966079b3a8d7e9df9df9",
    "extended_gini": "fcbf62fbbdbd03e42ad46c4289477d477e9e7ee52e3c50f54afca9719d86932b",
    "gs1": "c91ea58c77e33c4693d570563895cda0367afe1634800397808eab6234dcbfd2",
    "gs2": "7491b7c05d08e23e086317149641c250b42dd9d600939d88126d658b210426f7",
}
SEARCH_DIGESTS = {
    "gmd": "3e1335c8ffa3a08d811789ad79acd6e3ddd534d30c67f011fe83e01e8f5c4fc5",
    "extended_gini": "8ba5034e59def7b3752835c1ab3a6edb2410146ab6d59d98d2782e055a3bf1f4",
    "gs1": "61cd3f361c9794d7526b4653e23b3c485c96e2e5fb5c9b4051242adeb026635d",
    "gs2": "802e8e6260274908f88d28aa71fabc71c5aa9b3c752b3715dac1ee16c3670d81",
}


def measure_digests() -> dict:
    """Per kind: SHA-256 over measure_value's bits (or the error class) at
    T = 2, 3, 500 and several v / tail fractions."""
    rng = Xoshiro256pp(2718)
    samples = [np.array([0.01 + 0.03 * rng.normal() for _ in range(t)]) for t in (2, 3, 500)]
    out = {}
    for kind in MEASURE_KINDS:
        h = hashlib.sha256()
        for x in samples:
            for v, tail in ((1.0, 0.05), (1.5, 0.3), (2.0, 0.05), (2.5, 0.05), (4.0, 0.5)):
                try:
                    value = measure_value(x, RiskMeasureConfig(kind, v, tail))
                    h.update(np.float64(value).tobytes())
                except LorenzLabError as exc:
                    h.update(type(exc).__name__.encode())
        out[kind] = h.hexdigest()
    return out


def search_digests() -> dict:
    """Per Nelder-Mead kind: SHA-256 over min_risk's weights and risk at the
    anchor and at one target."""
    s = seeded_scenarios(27, 500, 3, [0.01, 0.02, 0.03], [0.02, 0.03, 0.04])
    target = float(s.mean(axis=0).mean())
    out = {}
    for kind in ("gmd", "extended_gini", "gs1", "gs2"):
        h = hashlib.sha256()
        config = RiskMeasureConfig(kind)
        for point in (min_risk(s, config), min_risk(s, config, target)):
            h.update(point.weights.tobytes() + np.float64(point.risk).tobytes())
        out[kind] = h.hexdigest()
    return out


def test_measure_and_search_bits_are_pinned():
    assert measure_digests() == MEASURE_DIGESTS
    assert search_digests() == SEARCH_DIGESTS
