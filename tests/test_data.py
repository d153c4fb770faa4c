import csv
import hashlib
import itertools
import math
import re
import tracemalloc
import warnings
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenzlab import (
    AnalyticFamily,
    PricePanel,
    ScenarioMatrix,
    clean_panel,
    analytic_quantile,
    compute_returns,
    copula_simulate,
    historical_scenarios,
    load_price_panel,
    read_curve_csv,
    read_scenarios_csv,
    take_every,
    write_curve_csv,
    write_prices_csv,
    write_scenarios_csv,
)
from lorenzlab import curves, data
from lorenzlab.cli import main
from lorenzlab.curves import format_float
from lorenzlab.data import average_ranks, spearman_matrix
from lorenzlab.errors import (
    BadParameter,
    DataError,
    DegenerateColumnWarning,
    DuplicateDate,
    EmptyAfterCleaning,
    InsufficientHistory,
    NonPositivePrice,
    ParseError,
)
from lorenzlab.rng import (
    _P_LOW,
    Xoshiro256pp,
    acklam_array,
    normal_cdf,
    normal_cdf_array,
    normal_inverse_cdf_array,
    normal_tail_array,
    normals_from_states,
    substream_states,
    uniforms_from_states,
)


def write_panel_csv(path, dates, tickers, prices):
    lines = ["date," + ",".join(tickers)]
    for day, row in zip(dates, prices):
        cells = ["" if v is None else str(v) for v in row]
        lines.append(day + "," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def cleaning_fixture(tmp_path):
    """Five tickers over twenty days with hand-countable gaps.

    T1 misses two dates (coverage 0.90, below the 0.95 bar). T2 misses only
    day 7 (coverage 0.95, exactly at the bar), which then knocks day 7 out
    of the date axis.
    """
    dates = [(date(2024, 1, 1) + timedelta(days=i)).isoformat() for i in range(20)]
    tickers = ["T0", "T1", "T2", "T3", "T4"]
    prices = []
    for i in range(20):
        row = [100.0 + i, 50.0 + i, 80.0 + i, 20.0 + i, 10.0 + i]
        if i in (3, 12):
            row[1] = None
        if i == 6:
            row[2] = None
        prices.append(row)
    path = tmp_path / "panel.csv"
    write_panel_csv(path, dates, tickers, prices)
    return path


# ---------------------------------------------------------------- loading


def test_load_price_panel_sorts_and_parses(tmp_path):
    path = tmp_path / "p.csv"
    write_panel_csv(
        path,
        ["2024-01-03", "2024-01-01", "2024-01-02"],
        ["A", "B"],
        [[3.0, 30.0], [1.0, 10.0], [2.0, None]],
    )
    panel = load_price_panel(path)
    assert panel.tickers == ["A", "B"]
    assert [d.isoformat() for d in panel.dates] == [
        "2024-01-01",
        "2024-01-02",
        "2024-01-03",
    ]
    assert panel.prices[0, 0] == 1.0
    assert math.isnan(panel.prices[1, 1])


def test_load_price_panel_skips_empty_lines(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("date,A\n2024-01-01,1.0\n\n2024-01-02,2.0\n,\n")
    panel = load_price_panel(path)
    assert [d.isoformat() for d in panel.dates] == ["2024-01-01", "2024-01-02"]
    assert panel.prices.tolist() == [[1.0], [2.0]]


def test_load_price_panel_error_cases(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("time,A\n2024-01-01,1.0\n")
    with pytest.raises(ParseError):
        load_price_panel(path)
    path.write_text("date,A\n2024-01-01,1.0\n2024-01-01,2.0\n")
    with pytest.raises(DuplicateDate):
        load_price_panel(path)
    path.write_text("date,A\n2024-01-01,-1.0\n")
    with pytest.raises(NonPositivePrice):
        load_price_panel(path)
    path.write_text("date,A\n2024-01-01,abc\n")
    with pytest.raises(ParseError, match=":2: bad value 'abc' for A$"):
        load_price_panel(path)
    # `-nan` carries a sign: a price, and not a positive one
    for cell, shown in [("-nan", "nan"), ("-NaN", "nan"), ("0", "0.0"), ("-0.0", "-0.0"),
                        ("inf", "inf"), ("-inf", "-inf")]:
        path.write_text(f"date,A,B\n2024-01-01,1.0,{cell}\n")
        with pytest.raises(NonPositivePrice, match=f":2: price {shown} for B$"):
            load_price_panel(path)


def test_a_blank_cell_and_every_unsigned_nan_are_missing_quotes(tmp_path):
    # `+nan` reads to the same float as `nan`, so it is a missing quote too
    path = tmp_path / "p.csv"
    path.write_text("date,A,B,C,D,E\n2024-01-01, ,nan,NaN,+nan,\n2024-01-02,1,2,3,4,5\n")
    prices = load_price_panel(path).prices
    assert np.isnan(prices[0]).all() and not np.signbit(prices[0]).any()
    assert prices[1].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


# ---------------------------------------------------------------- cleaning


def test_clean_panel_fixture_counts(tmp_path):
    panel = load_price_panel(cleaning_fixture(tmp_path))
    cleaned, report = clean_panel(panel, coverage=0.95)
    assert report.dropped_tickers == [("T1", 0.9)]
    assert report.dropped_dates == 1
    assert (report.kept_dates, report.kept_tickers) == (19, 4)
    assert cleaned.tickers == ["T0", "T2", "T3", "T4"]
    assert date(2024, 1, 7) not in cleaned.dates
    assert not np.isnan(cleaned.prices).any()
    assert report.as_dict() == {
        "dropped_tickers": [{"ticker": "T1", "coverage": 0.9}],
        "dropped_dates": 1,
        "kept": {"T": 19, "N": 4},
    }


def test_clean_panel_empty_and_validation(tmp_path):
    panel = load_price_panel(cleaning_fixture(tmp_path))
    with pytest.raises(BadParameter):
        clean_panel(panel, coverage=0.0)
    days = [(date(2024, 2, 1) + timedelta(days=i)).isoformat() for i in range(4)]
    path = tmp_path / "holes.csv"
    # every ticker is half-covered: coverage 0.9 drops them all
    write_panel_csv(
        path,
        days,
        ["A", "B"],
        [[1.0, None], [2.0, None], [None, 3.0], [None, 4.0]],
    )
    with pytest.raises(EmptyAfterCleaning):
        clean_panel(load_price_panel(path), coverage=0.9)
    # at coverage 0.5 both survive, but no date is complete for the pair
    with pytest.raises(EmptyAfterCleaning):
        clean_panel(load_price_panel(path), coverage=0.5)


def test_take_every_keeps_first_date(tmp_path):
    panel = load_price_panel(cleaning_fixture(tmp_path))
    thin = take_every(panel, 7)
    assert [d.day for d in thin.dates] == [1, 8, 15]
    with pytest.raises(BadParameter):
        take_every(panel, 0)


# ---------------------------------------------------------------- returns


def test_simple_and_log_returns(tmp_path):
    path = tmp_path / "p.csv"
    write_panel_csv(
        path,
        ["2024-01-01", "2024-01-02", "2024-01-03"],
        ["A"],
        [[100.0], [110.0], [99.0]],
    )
    panel = load_price_panel(path)
    simple = compute_returns(panel)
    assert np.allclose(simple.values[:, 0], [0.1, -0.1])
    assert simple.dates == panel.dates[1:]
    logs = compute_returns(panel, kind="log")
    assert np.allclose(logs.values[:, 0], [math.log(1.1), math.log(0.9)])


def test_weekly_returns_use_last_observation_per_iso_week(tmp_path):
    path = tmp_path / "p.csv"
    days = ["2020-12-30", "2020-12-31", "2021-01-04", "2021-01-05", "2021-01-11"]
    write_panel_csv(path, days, ["A"], [[10.0], [20.0], [40.0], [50.0], [25.0]])
    panel = load_price_panel(path)
    weekly = compute_returns(panel, frequency="weekly")
    # week 53 of 2020 ends at 20, ISO week 1 of 2021 at 50, week 2 at 25
    assert np.allclose(weekly.values[:, 0], [1.5, -0.5])
    assert [d.isoformat() for d in weekly.dates] == ["2021-01-05", "2021-01-11"]


def test_returns_validation(tmp_path):
    panel = load_price_panel(cleaning_fixture(tmp_path))
    with pytest.raises(DataError, match="missing values") as info:
        compute_returns(panel)  # still has gaps
    assert info.value.exit_code == 2
    cleaned, _ = clean_panel(panel)
    with pytest.raises(BadParameter):
        compute_returns(cleaned, frequency="hourly")
    single = PricePanel(cleaned.dates[:1], cleaned.tickers, cleaned.prices[:1])
    with pytest.raises(InsufficientHistory):
        compute_returns(single)


def test_historical_scenarios_window():
    values = np.arange(20.0).reshape(10, 2)
    scen = ScenarioMatrix(values=values, tickers=["A", "B"])
    recent = historical_scenarios(scen, window=4)
    assert np.array_equal(recent.values, values[-4:])
    with pytest.raises(InsufficientHistory):
        historical_scenarios(scen, window=11)
    with pytest.raises(BadParameter):
        historical_scenarios(scen, window=0)


# ---------------------------------------------------------------- ranks


def test_average_ranks_with_ties():
    assert np.allclose(average_ranks(np.array([10.0, 20.0, 20.0, 30.0])), [1, 2.5, 2.5, 4])


def test_spearman_matrix_extremes():
    x = np.arange(12.0)
    m = spearman_matrix(np.column_stack([x, x**3, -x]))
    assert m[0, 1] == pytest.approx(1.0)
    assert m[0, 2] == pytest.approx(-1.0)
    assert np.allclose(np.diag(m), 1.0)
    const = spearman_matrix(np.column_stack([x, np.ones(12)]))
    assert const[0, 1] == 0.0


# ---------------------------------------------------------------- copula


def history_matrix(t=300):
    rng = Xoshiro256pp(77)
    z = np.array([[rng.normal() for _ in range(3)] for _ in range(t)])
    a = z[:, 0]
    b = 0.8 * z[:, 0] + 0.6 * z[:, 1]
    c = z[:, 2]
    return ScenarioMatrix(
        values=np.column_stack([a, b, c]) * 0.02 + 0.01,
        tickers=["A", "B", "C"],
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_copula_rejects_nonfinite_history(bad):
    hist = history_matrix(50)
    hist.values[7, 1] = bad
    with pytest.raises(DataError) as info:
        copula_simulate(hist, n=100, seed=3)
    assert info.value.exit_code == 2


def test_copula_simulation_is_deterministic():
    hist = history_matrix()
    one = copula_simulate(hist, n=500, seed=9)
    two = copula_simulate(hist, n=500, seed=9)
    other = copula_simulate(hist, n=500, seed=10)
    assert np.array_equal(one.values, two.values)
    assert not np.array_equal(one.values, other.values)
    assert one.dates is None
    assert one.values.shape == (500, 3)


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def test_copula_bytes_are_pinned(tmp_path):
    # digests recorded from the per-row scalar implementation; a changed
    # draw or rank index shows up here, a changed summation order only in
    # the correlated normals (test below)
    sim = copula_simulate(history_matrix(), n=500, seed=9)
    assert sha256(sim.values.tobytes()) == (
        "563a3ad5b05eb85be362ddb7b225272dc5f7a13d6adf56d6058655119e92af02"
    )
    hist, out = tmp_path / "hist.csv", tmp_path / "sim.csv"
    write_scenarios_csv(history_matrix(), hist)
    argv = ["simulate", "--scenarios", str(hist), "--window", "0", "--n", "300",
            "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    assert sha256(hist.read_bytes()) == (
        "6ad70738c498890edeabde45976bdb36133400ce775f80426a90c11e7a5cf29d"
    )
    assert sha256(out.read_bytes()) == (
        "c74abdf307d9bad50b438ee5cce0e539afdedb96504c47260c5170873bb97630"
    )


def test_dated_scenarios_bytes_are_pinned(tmp_path):
    panel = load_price_panel(cleaning_fixture(tmp_path))
    out = tmp_path / "returns.csv"
    write_scenarios_csv(compute_returns(clean_panel(panel)[0]), out)
    assert sha256(out.read_bytes()) == (
        "c8fb24263b14e9323655b51aea374b6b6eb9c9f19b4fb967787b756b4c67a98f"
    )


def one_factor_history(n_assets, t=200, seed=31):
    rng = Xoshiro256pp(seed)
    z = np.array([[rng.normal() for _ in range(n_assets + 1)] for _ in range(t)])
    values = 0.6 * z[:, :1] + 0.8 * z[:, 1:]
    return ScenarioMatrix(values=values, tickers=[f"A{j}" for j in range(n_assets)])


def per_row_reference(scenarios, n, seed):
    """The copula row by row, with the scalar generator and `chol @ eps`."""
    values = scenarios.values
    t, n_assets = values.shape
    chol = data._nearest_correlation_cholesky(data._normal_scores_correlation(values))
    sorted_cols = np.sort(values, axis=0)
    out = np.empty((n, n_assets))
    for i in range(n):
        rng = Xoshiro256pp.substream(seed, i)
        correlated = chol @ np.array([rng.normal() for _ in range(n_assets)])
        for j in range(n_assets):
            idx = min(max(math.ceil(normal_cdf(correlated[j]) * t), 1), t)
            out[i, j] = sorted_cols[idx - 1, j]
    return out


@pytest.mark.parametrize("n_assets", [1, 2, 3, 14])
def test_copula_rows_match_the_per_row_reference(n_assets, monkeypatch):
    hist = one_factor_history(n_assets)
    # the correlated normals themselves: an output cell moves only when a
    # rounding change crosses a rank boundary, these move on any change. With
    # an infinite margin every row takes the exact path, and its
    # `normal_cdf_array` sees them all.
    seen = []

    def record(z):
        seen.append(z.copy())
        return normal_cdf_array(z)

    monkeypatch.setattr(data, "_RANK_MARGIN", math.inf)
    monkeypatch.setattr(data, "normal_cdf_array", record)
    copula_simulate(hist, n=300, seed=12)
    monkeypatch.undo()
    chol, correlated = chol_of(hist), np.concatenate(seen)
    assert correlated.shape == (300, n_assets)
    for i in range(300):
        rng = Xoshiro256pp.substream(12, i)
        eps = np.array([rng.normal() for _ in range(n_assets)])
        assert (chol @ eps).tobytes() == correlated[i].tobytes(), i
    want = per_row_reference(hist, 300, seed=12)
    assert copula_simulate(hist, n=300, seed=12).values.tobytes() == want.tobytes()
    # blocks split the rows without changing any of them
    monkeypatch.setattr(data, "_BLOCK_ROWS", 7)
    assert copula_simulate(hist, n=300, seed=12).values.tobytes() == want.tobytes()


def test_copula_draws_from_the_historical_support():
    hist = history_matrix()
    sim = copula_simulate(hist, n=400, seed=4)
    for j in range(3):
        assert set(sim.values[:, j]) <= set(hist.values[:, j])


def test_copula_preserves_rank_structure():
    rng = Xoshiro256pp(123)
    a = np.array([rng.normal() for _ in range(250)])
    hist = ScenarioMatrix(
        values=np.column_stack([a, 2.0 * a]), tickers=["A", "B"]
    )
    sim = copula_simulate(hist, n=2000, seed=1)
    assert spearman_matrix(sim.values)[0, 1] >= 0.99
    wide = history_matrix()
    sim = copula_simulate(wide, n=2000, seed=2)
    dev = np.max(np.abs(spearman_matrix(sim.values) - spearman_matrix(wide.values)))
    assert dev <= 0.05


def test_copula_warns_on_constant_columns():
    values = np.column_stack([np.linspace(0.0, 1.0, 50), np.full(50, 0.25)])
    hist = ScenarioMatrix(values=values, tickers=["A", "FLAT"])
    with pytest.warns(DegenerateColumnWarning, match="FLAT"):
        sim = copula_simulate(hist, n=100, seed=3)
    assert np.all(sim.values[:, 1] == 0.25)


# -------------------------------------------------- the copula's rank filter


def test_filter_approximations_stay_within_a_tenth_of_their_bounds():
    # dense grids, the smallest nonzero draw 2**-53, and the neighbours of
    # every branch edge; the array functions equal the scalar ones bit for bit
    edges = np.array([2.0**-53, _P_LOW, 0.5, 1.0 - _P_LOW, 1.0 - 2.0**-53])
    near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    p = np.concatenate([
        np.linspace(2.0**-53, 1.0 - 2.0**-53, 400_001),
        np.geomspace(2.0**-53, 0.5, 100_001),
        near[(near > 0.0) & (near < 1.0)],
    ])
    p = np.concatenate([p, 1.0 - p])
    x0, x = acklam_array(p), normal_inverse_cdf_array(p)
    assert np.all(np.abs(x0 - x) <= (data._ACKLAM_REL * np.abs(x0) + data._HALLEY_ABS) / 10)
    # the tail down to where it underflows, and both signs
    z = np.concatenate([np.linspace(-40.0, 40.0, 800_001), [0.0, -0.0, 5e-324, 1e-300]])
    tail, exact = normal_tail_array(z), normal_cdf_array(-np.abs(z))
    assert np.all(np.abs(tail - exact) <= (data._ERFCC_REL * tail + data._CDF_ABS) / 10)


def chol_of(hist):
    return data._nearest_correlation_cholesky(data._normal_scores_correlation(hist.values))


def exact_scaled(chol, eps, t):
    """u * t on the copula's exact path, for rows of independent normals."""
    return normal_cdf_array(np.matmul(chol, eps[:, :, None])[:, :, 0]) * t


def test_filtered_ranks_are_the_exact_ranks():
    # a long history packs the rank boundaries close: with the erfcc bound
    # 10**4 times too small, 14 of these cells get a wrong rank
    hist = one_factor_history(14, t=4000)
    chol, t = chol_of(hist), 4000
    states = substream_states(5, range(20000))
    ranks, undecided = data._filtered_ranks(chol, uniforms_from_states(states, 14), t)
    want = data._ranks(exact_scaled(chol, normals_from_states(states, 14), t), t)
    assert np.array_equal(ranks[~undecided], want[~undecided])


ULPS = 8


def near_ties(p):
    """Each p, its neighbours up to ULPS ulps either way (the first
    1 + 2 * ULPS columns), and p moved 2**-e of the way to 0 and to 1 for
    e = 12, 14, ..., 48, along a new last axis: from the rank boundary at p
    out to where the filter decides."""
    columns, low, high = [p], p, p
    for _ in range(ULPS):
        low, high = np.nextafter(low, 0.0), np.nextafter(high, 1.0)
        columns += [low, high]
    for e in range(12, 50, 2):
        columns += [p * (1.0 - 2.0**-e), p + (1.0 - p) * 2.0**-e]
    return np.stack(columns, axis=-1)


def one_asset_ties(t):
    # u = Phi(Phi^-1(p)) is p to a few ulps, so p = k / t puts u * t at k
    return np.array([[1.0]]), near_ties(np.arange(1, t) / t)[:, :, None]


def three_asset_ties(t, rows=400):
    # two free uniforms per row; the third is solved so that the last
    # correlated normal is Phi^-1(k / t), which puts its u * t at k
    chol = chol_of(history_matrix())
    gen = Xoshiro256pp(t)
    free = np.array([[gen.random() or 0.5, gen.random() or 0.5] for _ in range(rows)])
    k = np.array([1 + int(gen.random() * (t - 1)) for _ in range(rows)])
    z = normal_inverse_cdf_array(k / t)
    last = normal_cdf_array((z - normal_inverse_cdf_array(free) @ chol[2, :2]) / chol[2, 2])
    keep = (last > 0.0) & (last < 1.0)
    last = near_ties(last[keep])
    free = np.broadcast_to(free[keep, None, :], last.shape + (2,))
    return chol, np.concatenate([free, last[:, :, None]], axis=2)


@pytest.mark.parametrize("t", [7, 300, 4000])
@pytest.mark.parametrize("ties", [one_asset_ties, three_asset_ties])
def test_filtered_ranks_hold_at_rank_ties(ties, t):
    # a row is left open or has the exact path's ranks, on both sides of a tie
    chol, p = ties(t)  # (ties, near_ties's columns, assets)
    n_assets = len(chol)
    scaled = exact_scaled(chol, normal_inverse_cdf_array(p.reshape(-1, n_assets)), t)
    want = data._ranks(scaled, t)
    ranks, undecided = data._filtered_ranks(chol, p.reshape(-1, n_assets), t)
    assert np.array_equal(ranks[~undecided], want[~undecided])
    # the ties are real: within ULPS ulps of p the last asset's exact rank
    # changes, and the filter leaves those rows open but decides others
    tied = want[:, -1].reshape(p.shape[:2])[:, : 1 + 2 * ULPS]
    assert np.mean(tied.min(axis=1) < tied.max(axis=1)) > 0.9
    assert undecided.reshape(p.shape[:2])[:, : 1 + 2 * ULPS].all()
    assert 0.1 < np.mean(~undecided) < 0.5


def test_most_rows_skip_the_exact_path():
    # the bench's shape, 14 assets and 20000 rows
    hist = one_factor_history(14)
    p = uniforms_from_states(substream_states(1, range(20000)), 14)
    _, undecided = data._filtered_ranks(chol_of(hist), p, hist.values.shape[0])
    assert undecided.mean() < 0.10


@pytest.mark.parametrize("seed", [1, 4242])
def test_a_longer_run_extends_a_shorter_one_across_blocks(seed):
    # 5000 rows end inside the second block, 9000 inside the third
    assert data._BLOCK_ROWS < 5000 < 2 * data._BLOCK_ROWS < 9000
    hist = one_factor_history(14)
    short = copula_simulate(hist, n=5000, seed=seed).values
    long = copula_simulate(hist, n=9000, seed=seed).values
    assert short.tobytes() == long[:5000].tobytes()


def test_every_row_on_the_exact_path_gives_the_same_bytes(monkeypatch):
    hist = history_matrix()
    want = copula_simulate(hist, n=500, seed=9).values.tobytes()
    monkeypatch.setattr(data, "_RANK_MARGIN", math.inf)
    p = uniforms_from_states(substream_states(9, range(500)), 3)
    assert data._filtered_ranks(chol_of(hist), p, 300)[1].all()
    assert copula_simulate(hist, n=500, seed=9).values.tobytes() == want
    assert per_row_reference(hist, 500, seed=9).tobytes() == want


@st.composite
def random_histories(draw):
    """Histories with tied, constant and duplicated columns."""
    t = draw(st.integers(2, 60))
    gen = Xoshiro256pp(draw(st.integers(0, 2**64 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["normal", "tied", "constant", "duplicate"]))
        if kind == "duplicate" and columns:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))])
        elif kind == "constant":
            columns.append(np.full(t, draw(st.floats(-1.0, 1.0))))
        elif kind == "tied":
            columns.append(np.array([float(int(gen.random() * 3)) for _ in range(t)]))
        else:
            columns.append(np.array([gen.normal() for _ in range(t)]))
    values = np.column_stack(columns)
    return ScenarioMatrix(values=values, tickers=[f"A{j}" for j in range(values.shape[1])])


@settings(max_examples=60, deadline=None)
@given(random_histories(), st.integers(1, 80), st.integers(0, 2**64 - 1))
def test_copula_matches_the_per_row_reference_on_random_histories(hist, n, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateColumnWarning)
        got = copula_simulate(hist, n=n, seed=seed).values
    assert got.tobytes() == per_row_reference(hist, n, seed).tobytes()


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
def test_copula_rejects_a_seed_outside_64_bits(seed):
    with pytest.raises(BadParameter, match="seed"):
        copula_simulate(history_matrix(50), n=10, seed=seed)


def test_copula_takes_the_largest_64_bit_seed():
    hist = history_matrix(50)
    top = copula_simulate(hist, n=20, seed=2**64 - 1).values
    assert top.tobytes() == per_row_reference(hist, 20, seed=2**64 - 1).tobytes()


# ---------------------------------------------------------------- round trips


def test_prices_csv_round_trip(tmp_path):
    panel = load_price_panel(cleaning_fixture(tmp_path))
    out = tmp_path / "out.csv"
    write_prices_csv(panel, out)
    back = load_price_panel(out)
    assert back.tickers == panel.tickers
    assert back.dates == panel.dates
    assert np.array_equal(back.prices, panel.prices, equal_nan=True)


def test_scenarios_csv_round_trip_with_dates(tmp_path):
    panel = load_price_panel(cleaning_fixture(tmp_path))
    cleaned, _ = clean_panel(panel)
    scen = compute_returns(cleaned)
    out = tmp_path / "scen.csv"
    write_scenarios_csv(scen, out)
    back = read_scenarios_csv(out)
    assert np.array_equal(back.values, scen.values)
    assert back.dates == scen.dates
    assert back.tickers == scen.tickers


def test_scenarios_csv_round_trip_without_dates(tmp_path):
    sim = copula_simulate(history_matrix(), n=50, seed=6)
    out = tmp_path / "sim.csv"
    write_scenarios_csv(sim, out)
    back = read_scenarios_csv(out)
    assert back.dates is None
    assert np.array_equal(back.values, sim.values)
    path = tmp_path / "empty.csv"
    path.write_text("A,B\n")
    with pytest.raises(ParseError):
        read_scenarios_csv(path)


def table_fields(table):
    """A table's fields, each array as its shape and its bytes."""
    return {
        name: (value.shape, value.tobytes()) if isinstance(value, np.ndarray) else value
        for name, value in vars(table).items()
        if not name.startswith("_")
    }


def write_text_cells(table, path):
    """`table` through the table writer, with its ISO dates as text cells at
    the first, a middle and the last position of each row."""
    days = [day.isoformat() for day in table.dates]
    names = ["date", *table.tickers[:1], "date", *table.tickers[1:], "date"]
    text = [(0, days), (2, days), (len(names) - 1, days)]
    curves._write_table(path, names, table.values, text)


def read_text_cells(path):
    """The table `write_text_cells` wrote, each date found in its three places."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    text = [i for i, name in enumerate(header) if name == "date"]
    assert text == [0, 2, len(header) - 1]
    assert all(row[0] == row[2] == row[-1] for row in rows)
    kept = [i for i in range(len(header)) if i not in text]
    return ScenarioMatrix(
        values=np.array([[float(row[i]) for i in kept] for row in rows]),
        tickers=[header[i] for i in kept],
        dates=[date.fromisoformat(row[0]) for row in rows],
    )


@pytest.mark.parametrize(
    "case", ["prices", "scenarios-dated", "scenarios-undated", "curve", "text-cells"]
)
def test_every_table_writer_reads_back_bit_for_bit(tmp_path, case):
    panel = load_price_panel(cleaning_fixture(tmp_path))
    panel.prices /= 3.0  # all 17 digits; the gaps stay NaN and are written `nan`
    history = compute_returns(clean_panel(panel)[0])
    scenario_readers = [read_scenarios_csv, data._read_with_csv]
    table, write, readers = {
        "prices": (panel, write_prices_csv, [load_price_panel]),
        "scenarios-dated": (history, write_scenarios_csv, scenario_readers),
        "scenarios-undated": (copula_simulate(history, n=50, seed=6), write_scenarios_csv,
                              scenario_readers),
        "curve": (analytic_quantile(AnalyticFamily.lognormal(0.5, 0.2), 4096), write_curve_csv,
                  [read_curve_csv]),
        "text-cells": (history, write_text_cells, [read_text_cells]),
    }[case]
    path = tmp_path / "table.csv"
    write(table, path)
    if case == "prices":
        assert b",nan," in path.read_bytes()
    for read in readers:
        assert table_fields(read(path)) == table_fields(table)


# ---------------------------------------------------------------- one-column reads

# Edge values for the reader: signed zeros, subnormals, the largest double,
# and magnitudes whose `.17g` form has a three-digit exponent (1e+300 sends
# the file to the csv reader, 1e-300 does not).
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
               -1e-300, 1e300, -1e300, 1.7976931348623157e308, 1e99, -1e100]
cell_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_VALUES),
    st.integers(-(10**17), 10**17).map(float),
)


@st.composite
def scenario_matrices(draw):
    t, n = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    cells = draw(st.lists(cell_values, min_size=t * n, max_size=t * n))
    dates = None
    if draw(st.booleans()):
        dates = [date(2024, 1, 1) + timedelta(days=i) for i in range(t)]
    return ScenarioMatrix(
        values=np.array(cells).reshape(t, n),
        tickers=[f"T{j}" for j in range(n)],
        dates=dates,
    )


@given(scenario_matrices())
@settings(max_examples=150, deadline=None)
def test_one_column_read_is_the_full_reads_column(tmp_path_factory, scen):
    path = tmp_path_factory.mktemp("scen") / "scen.csv"
    write_scenarios_csv(scen, path)
    full = read_scenarios_csv(path)
    reference = data._read_with_csv(path)
    assert full.values.tobytes() == reference.values.tobytes()
    assert full.dates == reference.dates == scen.dates
    for j, ticker in enumerate(scen.tickers):
        for column in (j, ticker):
            one = read_scenarios_csv(path, column)
            assert one.tickers == [ticker]
            assert one.dates == scen.dates
            assert one.values[:, 0].tobytes() == reference.values[:, j].tobytes()
    if np.all(np.abs(scen.values) < 1e100):
        # no three-digit positive exponent: the checked path took the file
        assert data._read_plain(path, 0) is not None


def per_row_scenarios_csv(scenarios, path):
    """The writer before it formatted each distinct value once: one
    `%.17g` format per row."""
    values = np.asarray(scenarios.values, dtype=float)
    row_format = ",".join(["%.17g"] * values.shape[1]) + "\r\n"
    rows = values.tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if scenarios.dates is not None:
            writer.writerow(["date"] + list(scenarios.tickers))
            fh.writelines(
                day.isoformat() + "," + row_format % tuple(row)
                for day, row in zip(scenarios.dates, rows)
            )
        else:
            writer.writerow(list(scenarios.tickers))
            fh.writelines(row_format % tuple(row) for row in rows)


def assert_writes_like_the_per_row_writer(scen, folder):
    write_scenarios_csv(scen, folder / "new.csv")
    per_row_scenarios_csv(scen, folder / "old.csv")
    assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()


@given(scenario_matrices())
@settings(max_examples=150, deadline=None)
def test_writer_bytes_are_the_per_row_writers(tmp_path_factory, scen):
    assert_writes_like_the_per_row_writer(scen, tmp_path_factory.mktemp("scen"))


def nan_payload(bits):
    return np.array([bits], dtype=np.uint64).view(float)[0]


@pytest.mark.parametrize(
    "scen",
    [
        # the copula resamples its history: 1,500 cells, at most 900 values
        copula_simulate(history_matrix(), n=500, seed=9),
        copula_simulate(
            ScenarioMatrix(values=history_matrix().values[:, :1], tickers=["A"]),
            n=200, seed=3,
        ),
        ScenarioMatrix(values=np.empty((0, 3)), tickers=["A", "B", "C"]),
        ScenarioMatrix(values=np.empty((0, 2)), tickers=["A", "B"], dates=[]),
        # NaNs of other bit patterns all print nan; -0.0 stays -0
        ScenarioMatrix(
            values=np.array([
                [math.nan, -math.nan, nan_payload(0x7FF0000000000001)],
                [0.0, -0.0, math.inf],
                [-0.0, 0.0, -math.inf],
            ]),
            tickers=["A", "B", "C"],
        ),
    ],
    ids=["copula", "one-column", "zero-rows", "zero-rows-dated", "nan-inf-zeros"],
)
def test_writer_bytes_on_repeats_and_edge_shapes(tmp_path, scen):
    assert_writes_like_the_per_row_writer(scen, tmp_path)


def per_cell_prices_csv(panel, path):
    """The price writer before the one table writer: a `format_float` per
    quote, a blank cell per missing one, each row through `csv.writer`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + list(panel.tickers))
        for day, row in zip(panel.dates, panel.prices):
            cells = ["" if math.isnan(v) else format_float(v) for v in row]
            writer.writerow([day.isoformat()] + cells)


@st.composite
def price_panels(draw):
    """NaN-free panels; the tickers hold a comma, so csv quotes the header."""
    t, n = draw(st.integers(0, 8)), draw(st.integers(1, 4))
    cells = draw(st.lists(cell_values, min_size=t * n, max_size=t * n))
    return PricePanel(
        dates=[date(2024, 1, 1) + timedelta(days=i) for i in range(t)],
        tickers=[f"T,{j}" for j in range(n)],
        prices=np.array(cells).reshape(t, n),
    )


@given(price_panels())
@settings(max_examples=150, deadline=None)
def test_price_writer_bytes_are_the_per_cell_writers(tmp_path_factory, panel):
    folder = tmp_path_factory.mktemp("prices")
    write_prices_csv(panel, folder / "new.csv")
    per_cell_prices_csv(panel, folder / "old.csv")
    assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()


def test_a_missing_quote_is_written_nan_and_read_back_missing(tmp_path):
    panel = load_price_panel(cleaning_fixture(tmp_path))
    out = tmp_path / "out.csv"
    write_prices_csv(panel, out)
    assert out.read_bytes().splitlines()[4] == b"2024-01-04,103,nan,83,23,13"
    back = load_price_panel(out)
    assert np.array_equal(np.isnan(back.prices), np.isnan(panel.prices))
    assert np.isnan(back.prices[3, 1])


# The cells the checked path takes, as a specification: a cell's shape is the
# cell with every digit replaced by 0, and a cell passes when its shape
# matches. This is Python's float grammar over `0-9.eE+-`, with at most 200
# integer digits and an exponent that is negative or has at most two digits.
FINITE_SHAPE = re.compile(r"[+-]?(?:0{1,200}(?:\.0*)?|\.0+)(?:[eE](?:-0+|\+?0{1,2}))?")
TO_SHAPE = str.maketrans("123456789", "000000000")


@given(st.from_regex(FINITE_SHAPE, fullmatch=True))
def test_a_matching_shape_is_finite_whatever_its_digits(shape):
    assert float(shape) == 0.0
    assert abs(float(shape.replace("0", "9"))) <= 1e299


matching_cells = st.from_regex(FINITE_SHAPE, fullmatch=True)
probe_cells = st.one_of(st.text("0123456789.eE+-", max_size=8), matching_cells)


@st.composite
def scan_lines(draw):
    """1-3 lines of 1-3 cells: one probe cell, the others matching."""
    width, count = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = draw(st.lists(matching_cells, min_size=width * count, max_size=width * count))
    cells[draw(st.integers(0, len(cells) - 1))] = draw(probe_cells)
    lines = [cells[k : k + width] for k in range(0, len(cells), width)]
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines[:-1]]
    # a last line with no text and no line end would be no line at all
    ends.append(draw(st.sampled_from(["\n", "\r\n", ""])) or "\n" * (lines[-1] == [""]))
    return width, lines, ends


@given(scan_lines())
@settings(max_examples=400, deadline=None)
def test_the_scan_takes_a_line_exactly_when_every_cell_matches(tmp_path_factory, drawn):
    width, lines, ends = drawn
    path = tmp_path_factory.mktemp("scan") / "s.csv"
    header = ",".join(f"T{j}" for j in range(width))
    body = "".join(",".join(line) + end for line, end in zip(lines, ends))
    path.write_bytes((header + "\n" + body).encode())
    shapes = [cell.translate(TO_SHAPE) for line in lines for cell in line]
    matches = all(map(FINITE_SHAPE.fullmatch, shapes))
    scen = data._read_plain(path, None)
    assert (scen is not None) == matches
    if matches:
        assert scen.values.tobytes() == data._read_with_csv(path).values.tobytes()


def test_the_scan_takes_every_short_cell_exactly_when_it_matches():
    """Every cell of up to five pieces, each `.`, `e`, `+`, `-` or a run of 1,
    2 or 199 digits: runs of 3, 200 and 201 digits are among them."""
    pieces = ["9", "99", "9" * 199, ".", "e", "+", "-"]
    limit = csv.field_size_limit()
    for size in range(1, 6):
        for cell in map("".join, itertools.product(pieces, repeat=size)):
            taken = data._cell_bounds(cell.encode() + b"\n", 1, False, limit) is not None
            assert taken == bool(FINITE_SHAPE.fullmatch(cell.translate(TO_SHAPE))), cell


@pytest.mark.parametrize(
    "text",
    [
        "A,B\n1,2\n\n3,4\n",  # blank line
        "A,B\n1\r2,3\n4,5\n",  # bare CR: csv ends the line there
        "A,B\n1,\n3,4\n",  # empty cell
        "A,B\n1,2,5\n3,4\n",  # a line with a cell too many
        "A,B\n1,2\n3\n",  # a last line a cell short
        "A,B\n1\n2\n3,4\n",  # two short lines with one line's cells
        "A,B\n1\n2,3,4\n",  # a short line, then a long one
        'A,B\n"1",2\n3,4\n',  # quoted cell
        '"A",B\n1,2\n',  # quoted ticker
        "\u00c4,B\n1,2\n",  # non-ASCII ticker
        "A,B\n 1,2\n3,4\n",  # space
        "A,B\n1_0,2\n3,4\n",  # underscore
        "A,B\n1e100,2\n3,4\n",  # three-digit positive exponent
        "A,B\n1,2\r\r\n3,4\n",  # CR CR LF
        "A,B\n1,2\r",  # a bare CR at the end
        "A,B\n1-2,3\n",  # a sign inside a cell
        "A,B\n1e5.0,2\n",
        "A,B\n.e1,2\n",
        "date,A\n2024-13-01,1\n",  # a bad date
        "date,A\n2024-01-01,2024-01-02\n",  # a date in a value column
        "date,A\n2024-01-0\udcff,1\n",  # a byte that is not UTF-8, in a date
    ],
)
def test_files_off_the_checked_path_read_as_csv_reads_them(tmp_path, text):
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert data._read_plain(path, None) is None

    def outcome(read):
        try:
            scen = read(path)
        except ParseError as exc:
            return str(exc)
        return scen.tickers, scen.values.tobytes()

    assert outcome(read_scenarios_csv) == outcome(data._read_with_csv)


def test_cells_over_csvs_field_limit_go_to_csv(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("A\n0.125\n")
    old = csv.field_size_limit(4)
    try:
        with pytest.raises(ParseError, match="field larger than field limit"):
            read_scenarios_csv(path)
        # a line's CR is no part of its last cell
        path.write_bytes(b"A\r\n0.12\r\n")
        assert data._read_plain(path, None).values.tolist() == [[0.12]]
    finally:
        csv.field_size_limit(old)


def test_unknown_column_is_bad_parameter_after_the_file_checks(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("A,B\n1,2\n")
    with pytest.raises(BadParameter, match=r"column 'C' not in \['A', 'B'\]"):
        read_scenarios_csv(path, "C")
    with pytest.raises(BadParameter):
        read_scenarios_csv(path, 2)
    path.write_text("A,B\n1,x\n")
    with pytest.raises(ParseError, match=":2: bad value"):
        read_scenarios_csv(path, "C")


# ---------------------------------------------------------------- reads in blocks

# 24 lines of three cells of different lengths, so that blocks of 1, 5 and 64
# bytes end at every place inside a line; cell B of line 9 is 150 digits long,
# a line longer than any of those blocks.
BLOCK_CELLS = [
    [repr(0.125 * i - 1.5), repr(-3e-5 * i), "9" * 150 + ".5" if i == 9 else repr(1e10 + i / 7)]
    for i in range(24)
]


def block_text(case):
    """A scenario file for `case`: a plain one, or one whose last line alone
    sends it to the csv parser."""
    cells = [list(row) for row in BLOCK_CELLS]
    header, end = ["A", "B", "C"], "\r\n" if case == "crlf" else "\n"
    if case == "dated":
        header = ["date", *header]
        for i, row in enumerate(cells):
            row.insert(0, (date(2024, 1, 1) + timedelta(days=i)).isoformat())
    if case == "quote":
        cells[-1][2] = '"0.5"'
    if case == "bad-cell":
        cells[-1][2] = "x"
    text = end.join(",".join(row) for row in [header, *cells]) + end
    if case == "blank-line":
        text += end
    return text.removesuffix(end) if case == "no-final-lf" else text


def csv_read(path, column=None):
    """The csv parser's read, kept to `column` as `read_scenarios_csv` keeps it."""
    scen = data._read_with_csv(path)
    if column is None:
        return scen
    j = column if isinstance(column, int) else scen.tickers.index(column)
    return ScenarioMatrix(scen.values[:, [j]], [scen.tickers[j]], scen.dates)


@pytest.mark.parametrize("block", [1, 5, 64])
@pytest.mark.parametrize(
    "case", ["lf", "crlf", "dated", "no-final-lf", "blank-line", "quote", "bad-cell"]
)
def test_a_read_in_blocks_is_the_csv_parsers(tmp_path, monkeypatch, block, case):
    monkeypatch.setattr(data, "_BLOCK_BYTES", block)
    path = tmp_path / "s.csv"
    path.write_bytes(block_text(case).encode())
    assert path.stat().st_size > 10 * block  # many blocks
    plain = case in ("lf", "crlf", "dated", "no-final-lf")

    def outcome(read, column):
        try:
            return table_fields(read(path) if column is None else read(path, column))
        except ParseError as exc:
            return str(exc)

    for column in (None, "A", "B", "C", 0, 1, 2):
        # a defect in a column that is not kept, in the last block only,
        # still sends the file to the csv parser
        assert (data._read_plain(path, column) is not None) == plain
        assert outcome(read_scenarios_csv, column) == outcome(csv_read, column)
    if case == "bad-cell":
        assert outcome(read_scenarios_csv, "A") == f"{path}:25: bad value 'x' for C"


def test_a_one_column_read_holds_a_block_not_the_file(tmp_path):
    """The read holds a block's temporaries and the kept column; the whole
    file's temporaries took about 4.7 times its size."""
    values = np.sin(np.arange(12000 * 8.0)).reshape(-1, 8)  # 17 digits a cell
    path = tmp_path / "s.csv"
    write_scenarios_csv(ScenarioMatrix(values, list("ABCDEFGH")), path)
    size = path.stat().st_size
    assert size > 1.5e6
    tracemalloc.start()
    try:
        scen = read_scenarios_csv(path, "C")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scen.values[:, 0].tobytes() == values[:, 2].tobytes()
    assert peak < size / 2, (peak, size)
