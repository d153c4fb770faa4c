import csv
import hashlib
import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenzlab import (
    PricePanel,
    ScenarioMatrix,
    clean_panel,
    compute_returns,
    copula_simulate,
    historical_scenarios,
    load_price_panel,
    read_scenarios_csv,
    take_every,
    write_prices_csv,
    write_scenarios_csv,
)
from lorenzlab import data
from lorenzlab.cli import main
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
from lorenzlab.rng import Xoshiro256pp, normal_cdf


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
    with pytest.raises(ParseError, match=":2:"):
        load_price_panel(path)


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
    with pytest.raises(BadParameter):
        compute_returns(panel)  # still has gaps
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
    # rounding change crosses a rank boundary, these move on any change
    chol = data._nearest_correlation_cholesky(
        data._normal_scores_correlation(hist.values)
    )
    correlated = data._correlated_normals(chol, 12, 0, 300)
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


@given(st.from_regex(data._FINITE_SHAPE, fullmatch=True))
def test_a_matching_shape_is_finite_whatever_its_digits(shape):
    assert float(shape) == 0.0
    assert abs(float(shape.replace("0", "9"))) <= 1e299


@pytest.mark.parametrize(
    "text",
    [
        "A,B\n1,2\n\n3,4\n",  # blank line
        "A,B\n1\r2,3\n4,5\n",  # bare CR: csv ends the line there
        "A,B\n1,\n3,4\n",  # empty cell
        "A,B\n1,2,5\n3,4\n",  # a line with a cell too many
        "A,B\n1,2\n3\n",  # a last line a cell short
        "A,B\n1\n2\n3,4\n",  # two short lines with one line's cells
        'A,B\n"1",2\n3,4\n',  # quoted cell
        '"A",B\n1,2\n',  # quoted ticker
        "\u00c4,B\n1,2\n",  # non-ASCII ticker
        "A,B\n 1,2\n3,4\n",  # space
        "A,B\n1_0,2\n3,4\n",  # underscore
        "A,B\n1e100,2\n3,4\n",  # three-digit positive exponent
    ],
)
def test_files_off_the_checked_path_read_as_csv_reads_them(tmp_path, text):
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode())
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
        with pytest.raises(csv.Error, match="field larger than field limit"):
            read_scenarios_csv(path)
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
