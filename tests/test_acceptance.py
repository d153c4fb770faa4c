"""Acceptance suite: one test per shipped guarantee, each printing a
[PASS/FAIL] line with the measured numbers. Run with `pytest -v -s
tests/test_acceptance.py` to see every line; plain `pytest` shows the
prints only on failure.

All random instances are generated with the package's own generator, so the
suite is bit-reproducible anywhere.
"""

import math
import time
from datetime import date, timedelta
from itertools import combinations

import numpy as np
import pytest

from lorenzlab import (
    GOLDEN,
    MEASURE_KINDS,
    AnalyticFamily,
    RiskMeasureConfig,
    ScenarioMatrix,
    TargetCurveSpec,
    analytic_quantile,
    clean_panel,
    copula_simulate,
    cvar_weights,
    efficient_frontier,
    fixed_point_residual,
    gmd_pairwise,
    gmd_weights,
    grid_oracle,
    limit_curve,
    load_price_panel,
    lorenz_transform,
    measure_value,
    min_risk,
    run_iteration,
    self_similarity_residual,
)
from lorenzlab.data import spearman_matrix
from lorenzlab.errors import BadSpec
from lorenzlab.rng import Xoshiro256pp
from oracles import PARETO_LORENZ_025

M = 4096


def criterion(n: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {desc}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def normal_matrix(seed: int, t: int, n: int) -> np.ndarray:
    rng = Xoshiro256pp(seed)
    return np.array([[rng.normal() for _ in range(n)] for _ in range(t)])


# ------------------------------------------------------------- convergence


def test_c01_primal_convergence_speed():
    start = analytic_quantile(AnalyticFamily.lognormal(0.5, 0.2), M)
    t0 = time.perf_counter()
    trace = run_iteration(start, "primal", max_iter=40, tol=0.0)
    wall = time.perf_counter() - t0
    early = min(trace.sup_to_limit[:15])
    late = trace.sup_to_limit[39]
    ok = early < 0.01 and late < 1e-4 and wall < 5.0
    criterion(
        1,
        "primal iteration from a lognormal start reaches the golden-ratio limit",
        ok,
        f"sup15 {early:.2e} < 1e-2, sup40 {late:.2e} < 1e-4, wall {wall:.2f}s < 5s",
    )


def test_c02_reflected_convergence_speed():
    start = analytic_quantile(AnalyticFamily.lognormal(0.5, 0.2), M)
    trace = run_iteration(start, "reflected", max_iter=40, tol=0.0, normalize=True)
    early = min(trace.sup_to_limit[:15])
    late = trace.sup_to_limit[39]
    ok = early < 0.01 and late < 1e-4
    criterion(
        2,
        "reflected iteration from the normalized start reaches 1-(1-x)^(1/phi)",
        ok,
        f"sup15 {early:.2e} < 1e-2, sup40 {late:.2e} < 1e-4",
    )


def test_c03_universality_across_starts(primal_traces, reflected_traces):
    worst = 0.0
    for traces in (primal_traces, reflected_traces):
        for a, b in combinations(traces.values(), 2):
            gap = float(np.max(np.abs(a.curves[39].values - b.curves[39].values)))
            worst = max(worst, gap)
    ok = worst <= 2e-4
    criterion(
        3,
        "iteration-40 curves from five starts agree pairwise in both modes",
        ok,
        f"worst pairwise sup {worst:.2e} <= 2e-4",
    )


def test_c04_envelopes_hold_early(primal_traces, reflected_traces):
    worst = 0.0
    for traces in (primal_traces, reflected_traces):
        for trace in traces.values():
            worst = max(worst, max(trace.envelope_violations[:20]))
    ok = worst <= 1e-6
    criterion(
        4,
        "first 20 iterations stay inside the alpha-power envelopes",
        ok,
        f"worst violation {worst:.2e} <= 1e-6",
    )


# ------------------------------------------------------------- parent maps


def test_c05_power_parents():
    grid = np.linspace(0.0, 1.0, M + 1)
    worst = 0.0
    for a in (1.0, 1.5, 2.0, 2.718):
        curve = lorenz_transform(analytic_quantile(AnalyticFamily.power(a), M))
        worst = max(worst, float(np.max(np.abs(curve.values - grid ** (1.0 + 1.0 / a)))))
    ok = worst <= 1e-3
    criterion(
        5,
        "Lorenz curve of a power(a) law is x^(1+1/a)",
        ok,
        f"worst sup over four exponents {worst:.2e} <= 1e-3",
    )


def test_c06_pareto_parent_of_the_reflected_limit():
    m = 65536
    curve = lorenz_transform(analytic_quantile(AnalyticFamily.pareto(1.0, 1.0 + GOLDEN), m))
    sup = float(np.max(np.abs(curve.values - limit_curve("reflected", m).values)))
    spot = abs(curve.evaluate(0.25) - PARETO_LORENZ_025)
    ok = sup <= 5e-3 and spot <= 5e-3
    criterion(
        6,
        "Lorenz curve of Pareto(1, 1+phi) is the reflected limit",
        ok,
        f"sup {sup:.2e} <= 5e-3, value at 0.25 within {spot:.2e} of closed form",
    )


def test_c07_limits_are_fixed_points():
    primal = limit_curve("primal", M)
    reflected = limit_curve("reflected", M)
    res_p = fixed_point_residual(primal, "primal")
    res_r = fixed_point_residual(reflected, "reflected")
    fit_down = self_similarity_residual(primal, "down")
    fit_up = self_similarity_residual(reflected, "upper")
    dev_down = abs(fit_down.eps_hat - GOLDEN)
    dev_up = abs(fit_up.eps_hat - 1.0 / GOLDEN)
    ok = res_p <= 1e-3 and res_r <= 1e-3 and dev_down <= 1e-3 and dev_up <= 1e-3
    criterion(
        7,
        "limits are fixed points and show the expected self-similarity exponents",
        ok,
        f"residuals {res_p:.2e}/{res_r:.2e} <= 1e-3, "
        f"eps_hat off by {dev_down:.2e} (phi) and {dev_up:.2e} (1/phi)",
    )


# ------------------------------------------------------------- risk measures


def test_c08_risk_measure_identities():
    rng = Xoshiro256pp(8081)
    worst_pairwise = worst_ext2 = worst_ext1 = worst_gs1 = 0.0
    diagonal = TargetCurveSpec(beta_down=0.0, beta_up=1.0)
    gmd = RiskMeasureConfig("gmd")
    ext = {v: RiskMeasureConfig("extended_gini", v=v) for v in (1.0, 2.0, 2.5)}
    for _ in range(200):
        n = 2 + rng.next_u64() % 49
        x = np.array([math.exp(0.5 * rng.normal()) for _ in range(n)])
        worst_pairwise = max(worst_pairwise, abs(measure_value(x, gmd) - gmd_pairwise(x)))
        gini = measure_value(x, gmd) / (2.0 * x.mean())
        worst_ext2 = max(worst_ext2, abs(measure_value(x, ext[2.0]) - gini))
        worst_ext1 = max(worst_ext1, abs(measure_value(x, ext[1.0])))
        for v in (2.0, 2.5):
            ident = measure_value(x, RiskMeasureConfig(kind="gs1", v=v, target=diagonal))
            worst_gs1 = max(worst_gs1, abs(ident - 2.0 * x.mean() * measure_value(x, ext[v])))

    sums_exact = all(
        math.fsum(cvar_weights(n, p)) == -1.0
        for n in (2, 3, 5, 10, 37, 50)
        for p in (0.05, 0.25, 0.5, 0.9)
    ) and all(math.fsum(gmd_weights(n)) == 0.0 for n in (2, 3, 5, 10, 37, 50))

    draws = Xoshiro256pp(31415)
    uniform = np.array([draws.random() for _ in range(100_000)])
    gini_dev = abs(measure_value(uniform, ext[2.0]) - 1.0 / 3.0)

    ok = (
        worst_pairwise <= 1e-12
        and worst_ext2 <= 1e-9
        and worst_ext1 == 0.0
        and worst_gs1 <= 1e-9
        and sums_exact
        and gini_dev <= 2e-3
    )
    criterion(
        8,
        "order-statistic identities across 200 random samples",
        ok,
        f"gmd vs pairwise {worst_pairwise:.1e} <= 1e-12, ext(2) vs gmd/(2 mean) "
        f"{worst_ext2:.1e} <= 1e-9, ext(1) {worst_ext1:.1e}, gs1 identity "
        f"{worst_gs1:.1e} <= 1e-9, weight sums exact {sums_exact}, "
        f"uniform gini off 1/3 by {gini_dev:.1e} <= 2e-3",
    )


def test_c09_target_curve_checks():
    inv_phi = 1.0 / GOLDEN

    def tail(x, kuma_w, power_w):
        return kuma_w * (1.0 - (1.0 - x) ** inv_phi) + power_w * x**GOLDEN

    worst = 0.0
    for spec in (
        TargetCurveSpec(),
        TargetCurveSpec(
            beta_down=0.1,
            beta_up=0.9,
            down_kuma=0.5,
            down_power=0.5,
            up_kuma=0.25,
            up_power=0.75,
        ),
    ):
        down = tail(spec.beta_down, spec.down_kuma, spec.down_power)
        up = tail(spec.beta_up, spec.up_kuma, spec.up_power)
        worst = max(
            worst,
            abs(spec.evaluate(spec.beta_down) - down),
            abs(spec.evaluate(spec.beta_up) - up),
        )

    with pytest.raises(BadSpec):
        RiskMeasureConfig(kind="gs2", target=TargetCurveSpec())
    identity_integral = TargetCurveSpec(beta_down=0.0, beta_up=1.0).integral()

    ok = worst <= 1e-12 and identity_integral == 0.5
    criterion(
        9,
        "target curve: junction continuity, gs2 restriction, identity integral",
        ok,
        f"worst junction gap {worst:.1e} <= 1e-12, restricted shape enforced, "
        f"diagonal integral {identity_integral} == 0.5 exactly",
    )


# ------------------------------------------------------------- optimization


def c10_instance() -> np.ndarray:
    z = normal_matrix(42, 100, 3)
    mu = np.array([0.010, 0.018, 0.026])
    sig = np.array([0.018, 0.030, 0.045])
    return mu + sig * z


def test_c10_solver_vs_grid_oracle():
    s = c10_instance()
    t0 = time.perf_counter()
    gaps = {}
    for kind in MEASURE_KINDS:
        config = RiskMeasureConfig(kind=kind, v=2.5)
        point = min_risk(s, config)
        _, oracle = grid_oracle(s, config, step=0.01)
        gaps[kind] = point.risk - oracle
    wall = time.perf_counter() - t0
    worst = max(gaps.values())
    ok = worst <= 1e-4 and wall < 60.0
    criterion(
        10,
        "min_risk beats or matches the 0.01-grid oracle for all seven kinds",
        ok,
        f"worst gap {worst:+.2e} <= 1e-4 ({max(gaps, key=gaps.get)}), wall {wall:.1f}s < 60s",
    )


def c11_instance() -> np.ndarray:
    z = normal_matrix(7, 80, 2)
    f = normal_matrix(8, 80, 1)[:, 0]
    mu = np.array([0.012, 0.028])
    sig = np.array([0.030, 0.050])
    return mu + sig * (0.5 * f[:, None] + math.sqrt(0.75) * z)


def test_c11_two_asset_variance_parabola():
    s = c11_instance()
    mu = s.mean(axis=0)
    c = np.cov(s, rowvar=False, bias=True)

    def parabola(m: float) -> float:
        w1 = (m - mu[1]) / (mu[0] - mu[1])
        w = np.array([w1, 1.0 - w1])
        return float(w @ c @ w)

    result = efficient_frontier(s, RiskMeasureConfig(kind="variance"), n_points=10)
    worst = max(abs(p.risk - parabola(p.mean)) for p in result.points)
    ok = len(result.points) == 10 and worst <= 1e-6
    criterion(
        11,
        "two-asset variance frontier lies on the closed-form parabola",
        ok,
        f"worst deviation {worst:.2e} <= 1e-6 at all 10 points",
    )


def c12_instance() -> np.ndarray:
    n, t = 14, 120
    z = normal_matrix(99, t, n)
    f = normal_matrix(100, t, 1)[:, 0]
    mu = np.linspace(0.008, 0.034, n)
    sig = np.linspace(0.015, 0.050, n)
    return mu + sig * (0.4 * f[:, None] + math.sqrt(0.84) * z)


def test_c12_frontier_constraint_contract():
    s = c12_instance()
    result = efficient_frontier(s, RiskMeasureConfig(kind="variance"), n_points=10)
    points = result.points
    budget = max(p.residual_budget for p in points)
    target = max(p.residual_target for p in points)
    min_w = min(p.min_weight for p in points)
    anchor_minimal = all(points[0].risk <= p.risk + 1e-12 for p in points[1:])
    # KKT conditions of min w'Cw on the simplex: with g = Cw and lam = w'g,
    # every g_i >= lam, with equality wherever w_i > 0.
    w = points[0].weights
    g = np.cov(s, rowvar=False, bias=True) @ w
    lam = float(w @ g)
    kkt = max(np.max(lam - g), np.max(w * np.abs(g - lam))) / lam
    ok = (
        len(points) == 10
        and budget <= 1e-8
        and target <= 1e-6
        and min_w >= -1e-10
        and anchor_minimal
        and kkt <= 1e-6
    )
    criterion(
        12,
        "14-asset frontier honors budget, targets, nonnegativity; anchor is optimal",
        ok,
        f"10 points, budget {budget:.1e} <= 1e-8, target {target:.1e} <= 1e-6, "
        f"min weight {min_w:+.1e} >= -1e-10, anchor minimal {anchor_minimal}, "
        f"anchor KKT residual {kkt:.1e} <= 1e-6",
    )


def test_c15_exact_solvers_are_certified():
    s = c12_instance()
    anchor = min_risk(s, RiskMeasureConfig(kind="variance"))
    # the same KKT residual as c12's, at the tighter bound
    w = anchor.weights
    g = np.cov(s, rowvar=False, bias=True) @ w
    lam = float(w @ g)
    kkt = max(np.max(lam - g), np.max(w * np.abs(g - lam))) / lam
    cvar_anchor = min_risk(s, RiskMeasureConfig(kind="cvar"))
    ok = (
        anchor.converged
        and kkt <= 1e-9
        and cvar_anchor.converged
        and cvar_anchor.certificate <= 1e-9
    )
    criterion(
        15,
        "on the c12 instance the variance and CVaR anchors are certified optimal",
        ok,
        f"variance anchor KKT residual {kkt:.1e} <= 1e-9, "
        f"CVaR anchor certificate {cvar_anchor.certificate:.1e} <= 1e-9",
    )


def correlated_instance(seed: int) -> np.ndarray:
    """8 x 500 one-factor returns with drifts U(0.006, 0.014), volatilities
    U(0.02, 0.06) and loadings U(0.3, 0.8): the family on which the
    Nelder-Mead solver once stopped at max_iter for some convex points."""
    n, t = 8, 500
    z = normal_matrix(seed, t, n)
    f = normal_matrix(seed + 1000, t, 1)[:, 0]
    rng = Xoshiro256pp(seed + 2000)
    u = np.array([rng.random() for _ in range(3 * n)]).reshape(3, n)
    low, high = np.array([[0.006], [0.02], [0.3]]), np.array([[0.014], [0.06], [0.8]])
    mu, sig, beta = low + (high - low) * u
    return mu + sig * (beta * f[:, None] + np.sqrt(1.0 - beta**2) * z)


@pytest.mark.parametrize("seed", range(1, 7))
def test_correlated_family_frontiers_are_certified(seed):
    s = correlated_instance(seed)
    for config in (
        RiskMeasureConfig(kind="variance"),
        RiskMeasureConfig(kind="cvar", tail_fraction=0.1),
        RiskMeasureConfig(kind="mad"),
    ):
        points = efficient_frontier(s, config, n_points=5).points
        assert len(points) == 5
        for p in points:
            assert p.converged, (config.kind, p.target, p.message)
            assert p.certificate <= 1e-9, (config.kind, p.target, p.certificate)


def c13_instance() -> np.ndarray:
    swings = np.array([0.06, 0.14, 0.09])
    signs = np.array([1.0 if i % 2 else -1.0 for i in range(40)])
    return 0.02 + signs[:, None] * swings[None, :]


def test_c13_gs1_tracks_gmd_where_gs2_departs():
    s = c13_instance()
    t = s.shape[0]
    xi = np.arange(1, t) / t
    tgt = TargetCurveSpec().evaluate(xi)

    # dominance precondition, checked over the full 0.01-step weight lattice
    margin = math.inf
    k = 100
    for a in range(k + 1):
        for b in range(k + 1 - a):
            w = np.array([a, b, k - a - b]) / k
            r = np.sort(s @ w)
            knots = np.cumsum(r)[:-1] / r.sum()
            margin = min(margin, float(np.min(tgt - knots)))
    dominated = margin > 0.0

    # the signs alternate evenly, so every mixture has mean exactly 0.02:
    # the single attainable target return
    target = 0.02
    w_gmd, _ = grid_oracle(s, RiskMeasureConfig(kind="gmd"), step=0.01, target=target)
    w_gs1, _ = grid_oracle(
        s, RiskMeasureConfig(kind="gs1", v=2.5), step=0.01, target=target
    )
    w_gs2, _ = grid_oracle(
        s, RiskMeasureConfig(kind="gs2", v=2.5), step=0.01, target=target
    )
    coincide = np.array_equal(w_gmd, w_gs1)
    separation = float(np.max(np.abs(w_gs2 - w_gmd)))
    ok = dominated and coincide and separation > 0.01
    criterion(
        13,
        "under verified dominance gs1's argmin equals gmd's while gs2's departs",
        ok,
        f"dominance margin {margin:+.4f} > 0, gs1 == gmd argmin {coincide}, "
        f"gs2 moved {separation:.2f} > 0.01 in max norm",
    )


# ------------------------------------------------------------- data pipeline


def cleaning_fixture(tmp_path):
    dates = [(date(2024, 1, 1) + timedelta(days=i)).isoformat() for i in range(20)]
    lines = ["date,T0,T1,T2,T3,T4"]
    for i in range(20):
        row = [f"{100.0 + i}", f"{50.0 + i}", f"{80.0 + i}", f"{20.0 + i}", f"{10.0 + i}"]
        if i in (3, 12):
            row[1] = ""
        if i == 6:
            row[2] = ""
        lines.append(dates[i] + "," + ",".join(row))
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def copula_history() -> np.ndarray:
    z = normal_matrix(314, 500, 3)
    x1 = z[:, 0]
    x2 = 0.7 * x1 + 0.714142842854285 * z[:, 1]
    x3 = np.expm1(0.5 * z[:, 2]) * 0.8
    return np.column_stack([0.01 + 0.02 * x1, 0.015 + 0.03 * x2, 0.02 + 0.02 * x3])


def ks_statistic(history: np.ndarray, simulated: np.ndarray) -> float:
    """Two-sample KS evaluated at the historical atoms, from both sides."""
    hs, ss = np.sort(history), np.sort(simulated)
    worst = 0.0
    for side in ("left", "right"):
        ecdf_h = np.searchsorted(hs, hs, side=side) / hs.size
        ecdf_s = np.searchsorted(ss, hs, side=side) / ss.size
        worst = max(worst, float(np.max(np.abs(ecdf_h - ecdf_s))))
    return worst


def test_c14_data_pipeline(tmp_path):
    panel = load_price_panel(cleaning_fixture(tmp_path))
    cleaned, report = clean_panel(panel, coverage=0.95)
    clean_ok = (
        report.dropped_tickers == [("T1", 0.9)]
        and report.dropped_dates == 1
        and (report.kept_dates, report.kept_tickers) == (19, 4)
        and cleaned.prices.shape == (19, 4)
    )

    hist = copula_history()
    scen = ScenarioMatrix(values=hist, tickers=["A", "B", "C"])
    sim = copula_simulate(scen, n=10_000, seed=2024)
    rerun = copula_simulate(scen, n=10_000, seed=2024)
    identical = np.array_equal(sim.values, rerun.values)
    ks = max(ks_statistic(hist[:, j], sim.values[:, j]) for j in range(3))
    spearman_dev = float(
        np.max(np.abs(spearman_matrix(sim.values) - spearman_matrix(hist)))
    )
    ok = clean_ok and identical and ks <= 0.02 and spearman_dev <= 0.05
    criterion(
        14,
        "cleaning drops match hand counts; copula keeps margins, ranks, determinism",
        ok,
        f"drops exact {clean_ok}, rerun identical {identical}, worst KS {ks:.4f} "
        f"<= 0.02, spearman deviation {spearman_dev:.4f} <= 0.05",
    )
