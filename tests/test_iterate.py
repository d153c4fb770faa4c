import csv
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lorenzlab import (
    AnalyticFamily,
    LorenzCurve,
    alpha_sequence,
    analytic_quantile,
    empirical_quantile,
    envelope_violation,
    fixed_point_residual,
    limit_curve,
    lorenz_transform,
    primal_inverse,
    reflected_inverse,
    reflected_transform,
    run_iteration,
    self_similarity_residual,
    unit_support,
    write_trace_csv,
)
import lorenzlab.iterate as iterate_module
import lorenzlab.lorenz as lorenz_module
from lorenzlab.curves import MonotoneCurve
from lorenzlab.errors import BadParameter

from conftest import five_starts
from oracles import (
    ENVELOPE_X12_GRID_SUP,
    PHI,
    PRIMAL_LIMIT_HALF,
    REFLECTED_LIMIT_HALF,
)


def test_alpha_sequence_walks_to_phi():
    a = alpha_sequence(41)
    assert a[0] == 1.0
    assert a[1] == 2.0
    assert a[2] == 1.5
    assert a[3] == pytest.approx(5.0 / 3.0, abs=1e-15)
    assert abs(a[40] - PHI) < 1e-15
    with pytest.raises(BadParameter):
        alpha_sequence(0)


def test_limit_curves_match_oracles():
    primal = limit_curve("primal", 4096)
    assert primal.values[2048] == pytest.approx(PRIMAL_LIMIT_HALF, abs=1e-15)
    reflected = limit_curve("reflected", 4096)
    assert reflected.values[2048] == pytest.approx(REFLECTED_LIMIT_HALF, abs=1e-15)
    for mode in ("sideways", "simple_reflected"):
        with pytest.raises(BadParameter):
            limit_curve(mode)


def test_uniform_chain_walks_the_exponent_ladder():
    start = analytic_quantile(AnalyticFamily.uniform01(), 4096)
    trace = run_iteration(start, "primal", max_iter=3, tol=0.0)
    x = start.grid
    assert np.allclose(trace.curves[0].values, x**2, atol=1e-15)
    assert np.max(np.abs(trace.curves[1].values - x**1.5)) < 1e-3
    assert np.max(np.abs(trace.curves[2].values - x ** (5.0 / 3.0))) < 1e-3


def test_point_mass_start_reaches_square_exactly():
    start = analytic_quantile(AnalyticFamily.point_mass(0.4), 256)
    trace = run_iteration(start, "primal", max_iter=2, tol=0.0)
    x = start.grid
    assert np.allclose(trace.curves[0].values, x, atol=1e-12)
    assert np.allclose(trace.curves[1].values, x**2, atol=1e-11)


def test_stopping_rule_uses_successive_sup():
    start = analytic_quantile(AnalyticFamily.uniform01(), 4096)
    trace = run_iteration(start, "primal", max_iter=40, tol=1e-4)
    assert trace.converged
    assert trace.iterations < 40
    assert trace.sup_successive[-1] < 1e-4
    # first entry has no predecessor
    assert math.isnan(trace.sup_successive[0])


def test_coarse_grid_trips_the_stall_flag():
    # with tol = 0 convergence is unreachable; once the successive gap stops
    # falling at rounding scale the flag is set, but the loop runs on
    start = empirical_quantile([0.35, 0.9], 64)
    trace = run_iteration(start, "reflected", max_iter=40, tol=0.0)
    assert not trace.converged
    assert trace.no_progress
    assert trace.iterations == 40
    # the flag rises in the first round whose gap does not fall
    gaps = trace.sup_successive
    first = next(n for n in range(3, 41) if not gaps[n - 1] < gaps[n - 2])
    assert not run_iteration(start, "reflected", max_iter=first - 1, tol=0.0).no_progress
    assert run_iteration(start, "reflected", max_iter=first, tol=0.0).no_progress
    trace = run_iteration(start, "reflected", max_iter=40, tol=1e-4)
    assert trace.converged
    assert not trace.no_progress


@settings(max_examples=40, deadline=None)
@given(
    atoms=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=2, max_size=60),
    power=st.floats(0.05, 40.0),
    grid=st.integers(8, 512),
)
def test_successive_gap_falls_until_rounding_level(atoms, power, grid):
    # a -> 1 + 1/a contracts near phi, so the successive gap falls every
    # round until rounding stops it; the stall flag rests on this. Reflected
    # starts are normalized: with a maximum near 1e-17, 1 - Q rounds to 1
    # and the operator's route check fails.
    assume(max(atoms) > 0.0)
    start = empirical_quantile([a**power for a in atoms], grid)
    for mode, normalize in (("primal", False), ("reflected", True)):
        trace = run_iteration(start, mode, max_iter=60, tol=0.0, normalize=normalize)
        gaps = trace.sup_successive[1:]
        stalls = [gap for prev, gap in zip(gaps, gaps[1:]) if not gap < prev]
        assert trace.no_progress == bool(stalls)
        if stalls:
            assert stalls[0] <= 1e-13


def test_trace_csv_round_trip(tmp_path):
    # 12 rounds on a coarse grid: two-digit round numbers, and envelopes
    # that hold early and fail once the grid's resolution is reached
    start = analytic_quantile(AnalyticFamily.uniform01(), 64)
    trace = run_iteration(start, "primal", max_iter=12, tol=0.0)
    assert trace.iterations == 12
    assert {True, False} <= set(trace.envelope_ok)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    rounds = zip(trace.sup_to_limit, trace.sup_successive, trace.envelope_ok)
    expected = "iteration,sup_to_limit,sup_successive,envelope_ok\r\n" + "".join(
        f"{n},{to_limit:.17g},{gap:.17g},{str(ok).lower()}\r\n"
        for n, (to_limit, gap, ok) in enumerate(rounds, start=1)
    )
    assert path.read_bytes() == expected.encode()
    with open(path, newline="") as fh:
        _, *rows = csv.reader(fh)
    assert rows[0][2] == "nan"
    assert [float(row[1]) for row in rows] == trace.sup_to_limit


def test_envelope_violation_catches_a_curve_outside_its_band():
    x = np.linspace(0.0, 1.0, 4097)
    impostor = LorenzCurve(x**1.2)
    got = envelope_violation(impostor, 3, "primal")
    assert got == pytest.approx(ENVELOPE_X12_GRID_SUP, abs=1e-15)
    # the same curve is fine as a first output, where only classical holds
    assert envelope_violation(impostor, 0, "primal") == 0.0


def test_trace_envelope_flags_pass_genuine_iterates(primal_traces):
    trace = primal_traces["power3"]
    assert all(trace.envelope_ok[:20])
    assert trace.envelope_violations[:20] == [
        envelope_violation(c, i, "primal") for i, c in enumerate(trace.curves[:20])
    ]


def test_fixed_point_residual_of_the_diagonal():
    ident = LorenzCurve(np.linspace(0.0, 1.0, 4097))
    assert fixed_point_residual(ident, "primal") == pytest.approx(0.25, abs=1e-12)
    assert fixed_point_residual(ident, "reflected") == pytest.approx(0.25, abs=1e-9)


def test_self_similarity_exponents_at_the_limits():
    fit = self_similarity_residual(limit_curve("primal", 4096), branch="down")
    assert fit.eps_hat == pytest.approx(PHI, abs=1e-3)
    fit = self_similarity_residual(limit_curve("reflected", 4096), branch="upper")
    assert fit.eps_hat == pytest.approx(1.0 / PHI, abs=1e-3)
    with pytest.raises(BadParameter):
        self_similarity_residual(limit_curve("primal", 128), branch="lower")


def test_reflected_normalize_only_rescales_the_first_step():
    start = analytic_quantile(AnalyticFamily.lognormal(0.5, 0.2), 512)
    trace = run_iteration(start, "reflected", max_iter=3, tol=0.0, normalize=True)
    for curve in trace.curves:
        assert type(curve) is LorenzCurve


def test_reflected_two_atom_run_agrees_across_zero_width_cells(monkeypatch):
    # A two-atom start rescaled to top out at 1: the psi route's first cell
    # has zero width, and the repeated quantile values give many more.
    # Both routes are exact, so they must agree to rounding in every round.
    monkeypatch.setattr(lorenz_module, "_ROUTE_AGREEMENT", 1e-12)
    start = empirical_quantile([0.35, 0.9], 1024)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trace = run_iteration(start, "reflected", max_iter=40, tol=0.0, normalize=True)
    assert trace.iterations == 40
    assert all(trace.envelope_ok)
    assert trace.sup_to_limit[-1] < 1e-5


def test_primal_rejects_normalize():
    start = analytic_quantile(AnalyticFamily.lognormal(0.5, 0.2), 64)
    with pytest.raises(BadParameter, match="reflected mode only"):
        run_iteration(start, "primal", max_iter=3, normalize=True)


# SHA-256 of every curve's values, then of sup_to_limit, for each trace;
# recorded before the iteration was restructured. A change that moves any
# value by one ulp shows up here. The power3 start and the limit go through
# numpy's float64 `power`, so these bits belong to the numpy build and CPU
# they were recorded on (numpy 2.4, x86-64).
TRACE_DIGESTS = {
    "primal/uniform01": "99dff43ec9ab2688bbbf5e605a04651299dee93afa4aef4776eb94a6893fab5b",
    "primal/lognormal": "4b7b409343de5ebe58a70f440d591363630d03e3e82ff9cdbbdb3426231b2d7d",
    "primal/power3": "818e886fee73d689f14888d794f32cf1dc0cde60021b21d916510ffecff3ff65",
    "primal/two_atom": "2901e867b9dd27692bd41cf862c113284639a482e0033347839f5acdb18debf3",
    "primal/empirical": "312ddc26e8a434b5974a8964038058bdb5429b92025c5a6d1bb14a32be50a035",
    "reflected/uniform01": "eeaa86698d1601cd8361a90d49258513365025a1abe566bd934e9865a97c1e6f",
    "reflected/lognormal": "961050912265ff5936504840091fe164f3eaf462912416808738733fe92213e0",
    "reflected/power3": "7a6fde9ce969a907cf11b111b84998854e9caccc2f984dfd86b3c904ec70ae62",
    "reflected/two_atom": "2e084435e863c4c8492651f3547d3d2b52950120c747af48dbb3159e6bcf031c",
    "reflected/empirical": "3033526126b26aa0aadc9f4a2ad0e31d1e2b745e478540f93644b275d960ceb4",
    "primal65536/lognormal": "0ec8ca70166041adfcfee7bed19193a2ff5759e31be187d2ba4eb7352d58a6f5",
}


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for curve in trace.curves:
        h.update(curve.values.tobytes())
    h.update(np.array(trace.sup_to_limit).tobytes())
    return h.hexdigest()


def test_trace_bits_are_pinned(primal_traces, reflected_traces, fine_primal_trace):
    got = {f"primal/{name}": trace_digest(t) for name, t in primal_traces.items()}
    got.update(
        {f"reflected/{name}": trace_digest(t) for name, t in reflected_traces.items()}
    )
    got["primal65536/lognormal"] = trace_digest(fine_primal_trace)
    assert got == TRACE_DIGESTS


def cold_rounds(start, mode, rounds):
    """(curves, sup_to_limit, envelope_violations) of `rounds` rounds driven
    through the public operators and inverses, each cell search from
    scratch."""
    primal = mode == "primal"
    transform = lorenz_transform if primal else reflected_transform
    inverse = primal_inverse if primal else reflected_inverse
    quantile = start if primal else unit_support(start, normalize=True)
    curves = [transform(quantile)]
    while len(curves) < rounds:
        quantile = MonotoneCurve(inverse(quantile, quantile.grid))
        curves.append(transform(quantile))
    limit = limit_curve(mode, start.grid_size).values
    sups = [float(np.max(np.abs(c.values - limit))) for c in curves]
    return curves, sups, [envelope_violation(c, n, mode) for n, c in enumerate(curves)]


@pytest.mark.parametrize("mode", ["primal", "reflected"])
def test_warm_started_rounds_are_the_cold_rounds(mode, primal_traces, reflected_traces):
    # run_iteration starts each round's cell searches from the cells of the
    # round before; the five starts include the two-atom one, whose tied
    # prefix values and zero-width psi cell test the exact check of a guess
    traces = primal_traces if mode == "primal" else reflected_traces
    starts = five_starts()
    for name, trace in traces.items():
        curves, sups, violations = cold_rounds(starts[name], mode, trace.iterations)
        assert all(np.array_equal(a.values, b.values) for a, b in zip(trace.curves, curves)), name
        assert trace.sup_to_limit == sups, name
        assert trace.envelope_violations == violations, name


def test_reflected_inverse_with_the_runs_memo_is_the_inverse_without():
    # 40 chained rounds of the reflected inverse from each of the five starts,
    # the memo carrying each round's cells into the next
    for name, start in five_starts().items():
        quantile = unit_support(start, normalize=True)
        memo = {}
        for _ in range(40):
            warm = reflected_inverse(quantile, quantile.grid, cells=memo)
            assert warm.tobytes() == reflected_inverse(quantile, quantile.grid).tobytes(), name
            quantile = MonotoneCurve(warm)
        assert set(memo) == {"inverse"}


def test_reflected_run_calls_each_layer_once_per_round(monkeypatch):
    # the benchmark's per-layer counts read one operator call per round and
    # one inverse, generalized inverse and prefix integral between rounds
    calls = {}

    def counted(owner, name):
        fn = getattr(owner, name)
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(iterate_module, "reflected_transform")
    counted(iterate_module, "reflected_inverse")
    counted(MonotoneCurve, "generalized_inverse")
    counted(MonotoneCurve, "prefix_integral")
    start = five_starts(256)["lognormal"]
    for rounds in (1, 2, 40):
        calls.update(dict.fromkeys(calls, 0))
        trace = run_iteration(start, "reflected", max_iter=rounds, tol=0.0, normalize=True)
        assert trace.iterations == rounds
        assert calls == {
            "reflected_transform": rounds,
            "reflected_inverse": rounds - 1,
            "generalized_inverse": rounds - 1,
            "prefix_integral": rounds - 1,
        }


def test_warm_started_fine_primal_rounds_are_the_cold_rounds(fine_primal_trace):
    start = analytic_quantile(AnalyticFamily.lognormal(0.5, 0.2), 65536)
    curves, sups, violations = cold_rounds(start, "primal", fine_primal_trace.iterations)
    assert all(np.array_equal(a.values, b.values) for a, b in zip(fine_primal_trace.curves, curves))
    assert fine_primal_trace.sup_to_limit == sups
    assert fine_primal_trace.envelope_violations == violations


def reference_envelope_violations(curves, mode) -> list[float]:
    """The envelope excursion of curves[n] as the n-th operator output, from
    fresh powers of the grid and a fresh alpha recurrence."""
    x = np.linspace(0.0, 1.0, curves[0].grid_size + 1)
    alphas = [1.0]  # alphas[n - 1] is alpha_n
    while len(alphas) <= len(curves):
        alphas.append(1.0 + 1.0 / alphas[-1])
    out = []
    for index, curve in enumerate(curves):
        if index == 0:
            lower, upper = np.zeros_like(x), x
        else:
            pair = alphas[index - 1], alphas[index]
            if mode == "primal":
                lower, upper = x ** max(pair), x ** min(pair)
            else:
                lower = 1.0 - (1.0 - x) ** (1.0 / max(pair))
                upper = 1.0 - (1.0 - x) ** (1.0 / min(pair))
        v = curve.values
        out.append(float(max(np.maximum(lower - v, v - upper).max(), 0.0)))
    return out


def test_envelope_violations_match_fresh_powers(
    primal_traces, reflected_traces, fine_primal_trace
):
    runs = [("primal", t) for t in primal_traces.values()]
    runs += [("reflected", t) for t in reflected_traces.values()]
    runs.append(("primal", fine_primal_trace))
    for mode, trace in runs:
        assert trace.iterations == 40
        assert trace.envelope_violations == reference_envelope_violations(trace.curves, mode)
    # Primal and reflected at M = 4096 and primal at M = 65536, round by
    # round: an envelope cached under the wrong mode or size would show.
    # Genuine iterates sit inside their envelopes in the early rounds, so
    # each run also checks two probes that leave every envelope, one
    # below the lower and one above the upper.
    sequences = []
    for mode, trace in [
        ("primal", primal_traces["lognormal"]),
        ("reflected", reflected_traces["lognormal"]),
        ("primal", fine_primal_trace),
    ]:
        x = np.linspace(0.0, 1.0, trace.curves[0].grid_size + 1)
        below = LorenzCurve(x**8)
        above = MonotoneCurve(1.0 - (1.0 - x) ** 8)
        for curves in (trace.curves, [below] * 40, [above] * 40):
            sequences.append((mode, curves, reference_envelope_violations(curves, mode)))
    for index in range(40):
        for mode, curves, want in sequences:
            assert envelope_violation(curves[index], index, mode) == want[index]
