"""Price panels, return scenarios, and seeded copula resampling.

The pipeline is file-oriented: a price CSV (date column plus one column per
ticker, blank cells for missing quotes) is cleaned by coverage, turned into
simple or log returns at daily or weekly frequency, optionally cut to a
trailing window, and either used directly as historical scenarios or
expanded by a Gaussian-copula resampler that draws new rows whose marginals
are the historical ones (every simulated value is a historical value) and
whose rank correlations track the historical ones.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .curves import _open_text, format_float
from .errors import (
    BadParameter,
    DataError,
    DegenerateColumnWarning,
    DuplicateDate,
    EmptyAfterCleaning,
    InsufficientHistory,
    NonPositivePrice,
    ParseError,
)
from .rng import (
    normal_cdf_array,
    normal_inverse_cdf_array,
    normals_from_states,
    substream_states,
)

# Rows simulated per block; bounds the temporaries for a large `n`. Rows are
# independent, so the block size changes no value.
_BLOCK_ROWS = 4096


@dataclass
class PricePanel:
    dates: list[date]
    tickers: list[str]
    prices: np.ndarray  # T x N, NaN marks a missing quote


@dataclass
class CleaningReport:
    dropped_tickers: list[tuple[str, float]] = field(default_factory=list)
    dropped_dates: int = 0
    kept_dates: int = 0
    kept_tickers: int = 0

    def as_dict(self) -> dict:
        return {
            "dropped_tickers": [
                {"ticker": t, "coverage": c} for t, c in self.dropped_tickers
            ],
            "dropped_dates": self.dropped_dates,
            "kept": {"T": self.kept_dates, "N": self.kept_tickers},
        }


@dataclass
class ScenarioMatrix:
    values: np.ndarray  # T x N
    tickers: list[str]
    dates: list[date] | None = None


def load_price_panel(path) -> PricePanel:
    """Read a `date,<ticker>,...` CSV. Blank cells are missing; prices must
    be positive; dates must be unique. Rows are sorted by date."""
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[0].strip().lower() != "date":
            raise ParseError(f"{path}: expected a 'date,<tickers>' header")
        tickers = [h.strip() for h in header[1:]]
        rows = []
        seen: set[date] = set()
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}"
                )
            try:
                day = date.fromisoformat(row[0].strip())
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad date {row[0]!r}") from exc
            if day in seen:
                raise DuplicateDate(f"{path}:{lineno}: duplicate date {day}")
            seen.add(day)
            prices = np.empty(len(tickers))
            for j, cell in enumerate(row[1:]):
                cell = cell.strip()
                if not cell or cell.lower() == "nan":
                    prices[j] = math.nan
                    continue
                try:
                    value = float(cell)
                except ValueError as exc:
                    raise ParseError(
                        f"{path}:{lineno}: bad price {cell!r} for {tickers[j]}"
                    ) from exc
                if not value > 0.0 or not math.isfinite(value):
                    raise NonPositivePrice(
                        f"{path}:{lineno}: price {value!r} for {tickers[j]}"
                    )
                prices[j] = value
            rows.append((day, prices))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    rows.sort(key=lambda item: item[0])
    dates = [day for day, _ in rows]
    matrix = np.vstack([p for _, p in rows])
    return PricePanel(dates, tickers, matrix)


def clean_panel(panel: PricePanel, coverage: float = 0.95):
    """Drop tickers under the coverage threshold (measured against the full
    original date axis), then drop dates that are incomplete for the
    surviving tickers. Returns (clean_panel, CleaningReport)."""
    if not 0.0 < coverage <= 1.0:
        raise BadParameter("coverage must lie in (0, 1]")
    t_all = len(panel.dates)
    present = ~np.isnan(panel.prices)
    ticker_cov = present.sum(axis=0) / t_all
    keep_col = ticker_cov >= coverage - 1e-12
    report = CleaningReport(
        dropped_tickers=[
            (panel.tickers[j], float(ticker_cov[j]))
            for j in range(len(panel.tickers))
            if not keep_col[j]
        ]
    )
    if not keep_col.any():
        raise EmptyAfterCleaning("every ticker fell below the coverage threshold")
    kept_prices = panel.prices[:, keep_col]
    keep_row = ~np.isnan(kept_prices).any(axis=1)
    report.dropped_dates = int(t_all - keep_row.sum())
    if not keep_row.any():
        raise EmptyAfterCleaning("no complete dates remain after cleaning")
    cleaned = PricePanel(
        dates=[d for d, k in zip(panel.dates, keep_row) if k],
        tickers=[t for t, k in zip(panel.tickers, keep_col) if k],
        prices=kept_prices[keep_row],
    )
    report.kept_dates, report.kept_tickers = cleaned.prices.shape
    return cleaned, report


def take_every(panel: PricePanel, k: int) -> PricePanel:
    """Keep every k-th date, starting with the first."""
    if k < 1:
        raise BadParameter("take_every needs k >= 1")
    return PricePanel(panel.dates[::k], list(panel.tickers), panel.prices[::k].copy())


def _week_key(day: date):
    iso = day.isocalendar()
    return (iso[0], iso[1])


def compute_returns(
    panel: PricePanel, frequency: str = "daily", kind: str = "simple"
) -> ScenarioMatrix:
    """Per-period returns of a complete (cleaned) panel.

    Weekly frequency keeps the last observation of each ISO week before
    differencing."""
    if frequency not in ("daily", "weekly"):
        raise BadParameter(f"frequency must be daily or weekly, got {frequency!r}")
    if kind not in ("simple", "log"):
        raise BadParameter(f"kind must be simple or log, got {kind!r}")
    if np.isnan(panel.prices).any():
        raise BadParameter("panel has missing values; clean it first")
    dates = panel.dates
    prices = panel.prices
    if frequency == "weekly":
        keep = [
            i
            for i in range(len(dates))
            if i + 1 == len(dates) or _week_key(dates[i]) != _week_key(dates[i + 1])
        ]
        dates = [dates[i] for i in keep]
        prices = prices[keep]
    if len(dates) < 2:
        raise InsufficientHistory("need at least two observations for returns")
    ratio = prices[1:] / prices[:-1]
    values = np.log(ratio) if kind == "log" else ratio - 1.0
    return ScenarioMatrix(values=values, tickers=list(panel.tickers), dates=dates[1:])


def historical_scenarios(scenarios: ScenarioMatrix, window: int = 500) -> ScenarioMatrix:
    """The most recent `window` rows, kept in order."""
    if window < 1:
        raise BadParameter("window must be positive")
    t = scenarios.values.shape[0]
    if t < window:
        raise InsufficientHistory(f"have {t} rows, need {window}")
    return ScenarioMatrix(
        values=scenarios.values[-window:].copy(),
        tickers=list(scenarios.tickers),
        dates=None if scenarios.dates is None else scenarios.dates[-window:],
    )


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged."""
    uniq, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    avg = starts + (counts + 1) / 2.0
    return avg[inverse]


def _score_correlation(values: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Correlation matrix of per-column scores of `values`; constant columns
    get zero correlation, and an undefined entry becomes zero."""
    constant = values.max(axis=0) == values.min(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.corrcoef(scores, rowvar=False)
    corr = np.atleast_2d(corr)
    for j in np.flatnonzero(constant):
        corr[j, :] = 0.0
        corr[:, j] = 0.0
        corr[j, j] = 1.0
    corr[np.isnan(corr)] = 0.0
    np.fill_diagonal(corr, 1.0)
    return corr


def spearman_matrix(values: np.ndarray) -> np.ndarray:
    """Rank correlation matrix; constant columns get zero correlation."""
    values = np.asarray(values, dtype=float)
    t, n = values.shape
    ranks = np.column_stack([average_ranks(values[:, j]) for j in range(n)])
    return _score_correlation(values, ranks)


def _normal_scores_correlation(values: np.ndarray) -> np.ndarray:
    t, n = values.shape
    scores = np.empty_like(values)
    for j in range(n):
        scores[:, j] = normal_inverse_cdf_array(average_ranks(values[:, j]) / (t + 1.0))
    return _score_correlation(values, scores)


def _nearest_correlation_cholesky(corr: np.ndarray) -> np.ndarray:
    """Cholesky factor after clipping eigenvalues at 1e-10 and restoring the
    unit diagonal."""
    vals, vecs = np.linalg.eigh(corr)
    vals = np.maximum(vals, 1e-10)
    fixed = (vecs * vals) @ vecs.T
    d = np.sqrt(np.diag(fixed))
    fixed = fixed / np.outer(d, d)
    fixed = 0.5 * (fixed + fixed.T)
    jitter = 0.0
    for _ in range(6):
        try:
            return np.linalg.cholesky(fixed + jitter * np.eye(len(fixed)))
        except np.linalg.LinAlgError:
            jitter = 1e-12 if jitter == 0.0 else jitter * 10.0
    raise BadParameter("correlation matrix could not be factorized")


def _correlated_normals(chol: np.ndarray, seed: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the copula's correlated normals: row i is
    `chol @ eps` with eps the first normals of substream (seed, i)."""
    eps = normals_from_states(substream_states(seed, range(start, stop)), len(chol))
    # one matrix-vector product per row, as `chol @ eps` does; a single
    # `eps @ chol.T` is a matrix product that sums in another order
    return np.matmul(chol, eps[:, :, None])[:, :, 0]


def copula_simulate(
    scenarios: ScenarioMatrix, n: int = 1000, seed: int = 0
) -> ScenarioMatrix:
    """Gaussian-copula resampling of a historical scenario matrix.

    Marginals are the historical empirical quantiles (x_(ceil(u*T))), so
    every simulated value appears in the history. Each output row uses its
    own counter-derived substream of the seed, so row i is identical across
    runs and independent of n.

    Row i equals the scalar reference: draw `n_assets` normals from
    `Xoshiro256pp.substream(seed, i)`, correlate them with `chol @ eps`,
    and take x_(ceil(u*T)) with u = `normal_cdf` of each entry, clipped to
    [1, T]. All rows of a block are computed at once, with `rng`'s array
    generator and inverse, which match the scalar ones bit for bit.
    """
    values = np.asarray(scenarios.values, dtype=float)
    if not np.isfinite(values).all():
        raise DataError("scenario history must be finite")
    t, n_assets = values.shape
    if t < 2:
        raise InsufficientHistory("need at least two historical rows")
    if n < 1:
        raise BadParameter("n must be positive")
    constant = values.max(axis=0) == values.min(axis=0)
    if constant.any():
        names = [scenarios.tickers[j] for j in np.flatnonzero(constant)]
        warnings.warn(
            f"constant columns {names}: rank correlations undefined, using 0",
            DegenerateColumnWarning,
            stacklevel=2,
        )
    corr = _normal_scores_correlation(values)
    chol = _nearest_correlation_cholesky(corr)
    sorted_cols = np.sort(values, axis=0)
    columns = np.arange(n_assets)
    out = np.empty((n, n_assets))
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        u = normal_cdf_array(_correlated_normals(chol, seed, start, stop))
        idx = np.clip(np.ceil(u * t), 1, t).astype(np.intp)
        out[start:stop] = sorted_cols[idx - 1, columns]
    return ScenarioMatrix(values=out, tickers=list(scenarios.tickers))


# -- CSV round trips -----------------------------------------------------------


def write_prices_csv(panel: PricePanel, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + list(panel.tickers))
        for day, row in zip(panel.dates, panel.prices):
            cells = ["" if math.isnan(v) else format_float(v) for v in row]
            writer.writerow([day.isoformat()] + cells)


def write_scenarios_csv(scenarios: ScenarioMatrix, path) -> None:
    """Historical matrices keep their date column; simulated ones have none.

    Values are written as `format_float` does (`.17g`), one `%` format per
    row; rows end in `csv.writer`'s `\\r\\n`."""
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


# The checked reading path of `read_scenarios_csv`. A data line of a plain
# file holds only these bytes; any other one (a quote, a space, `_`, the
# letters of nan or inf) sends the file to the csv reader.
_PLAIN_BYTES = b"0123456789.eE+-,\r\n"
# A cell's shape is the cell with every digit replaced by 0; the table also
# turns line ends into commas, so one split yields every cell's shape.
_SHAPE = str.maketrans("123456789\n", "000000000,")
# Python's float grammar over the plain bytes, with at most 200 integer
# digits and an exponent that is negative or has at most two digits. Digits
# are interchangeable in that grammar, so `float` accepts a cell whose shape
# matches, and the value is below 1e299 in magnitude whatever the digits are.
_FINITE_SHAPE = re.compile(r"[+-]?(?:0{1,200}(?:\.0*)?|\.0+)(?:[eE](?:-0+|\+?0{1,2}))?")


def read_scenarios_csv(path, column: str | int | None = None) -> ScenarioMatrix:
    """A scenario matrix from a file `write_scenarios_csv` wrote (or one
    like it). With `column` (a ticker or a 0-based index) the matrix holds
    that column only: every cell of the file is still checked, so a
    malformed file fails as it does without `column`, but only the kept
    column is converted. An unknown column is BadParameter."""
    scenarios = _read_plain(path, column)
    if scenarios is None:
        scenarios = _select(_read_with_csv(path), column)
    return scenarios


def _column_index(tickers, column):
    if isinstance(column, str):
        return tickers.index(column) if column in tickers else None
    return column if 0 <= column < len(tickers) else None


def _select(scenarios: ScenarioMatrix, column) -> ScenarioMatrix:
    if column is None:
        return scenarios
    index = _column_index(scenarios.tickers, column)
    if index is None:
        raise BadParameter(f"column {column!r} not in {scenarios.tickers}")
    return ScenarioMatrix(
        values=scenarios.values[:, [index]],
        tickers=[scenarios.tickers[index]],
        dates=scenarios.dates,
    )


def _read_plain(path, column) -> ScenarioMatrix | None:
    """`read_scenarios_csv` for a plain file, or None for any other.

    A plain file has an ASCII header without quotes, and data lines of
    `_PLAIN_BYTES` with the header's number of cells, ending in LF or CRLF.
    Its date cells (if any) are ISO dates, every other cell's shape matches
    `_FINITE_SHAPE`, and no cell exceeds csv's field size limit. csv splits
    such a file at its commas and line ends, and `float` parses each value
    cell to a finite number, so the result is the csv reader's. Any other
    file (a blank line, an empty cell, a bad value or date, an unknown
    `column`) goes to the csv reader, which gives its values or its error."""
    with open(path, "rb") as fh:
        head, _, body = fh.read().partition(b"\n")
    head = head.removesuffix(b"\r")
    limit = csv.field_size_limit()
    if not head.isascii() or len(head) > limit or any(c in head for c in b'"\r\0'):
        return None
    header = head.decode().split(",")
    has_dates = header[0].strip().lower() == "date"
    tickers = [h.strip() for h in header[has_dates:]]
    index = None if column is None else _column_index(tickers, column)
    if not (head and tickers and body) or (column is not None and index is None):
        return None
    if body.translate(None, _PLAIN_BYTES):
        return None
    if b"\r" in body:
        unix = body.translate(None, b"\r")
        if len(body) - len(unix) != body.count(b"\r\n"):
            return None  # a bare CR, which csv reads as a line end
        body = unix
    body = body.removesuffix(b"\n")
    text = body.decode()  # ASCII: cells are the str tokens csv would give

    # cell k is text[starts[k]:ends[k]]; once every line is known to hold
    # width cells, column j is cells j, j + width, j + 2 * width, ...
    width = len(header)
    codes = np.frombuffer(body, dtype=np.uint8)
    ends = np.append(np.flatnonzero((codes == ord(",")) | (codes == ord("\n"))), len(body))
    starts = np.concatenate(([0], ends[:-1] + 1))
    line_ends = ends[width - 1 : -1 : width]
    if (
        ends.size % width
        or body.count(b"\n") != line_ends.size
        or (codes[line_ends] != ord("\n")).any()
        or (ends - starts).max() > limit
    ):
        return None
    shapes = text.translate(_SHAPE).split(",")
    if has_dates:
        del shapes[::width]
    if not all(map(_FINITE_SHAPE.fullmatch, set(shapes))):
        return None

    def cells(j):
        bounds = zip(starts[j::width].tolist(), ends[j::width].tolist())
        return [text[start:end] for start, end in bounds]

    dates = None
    if has_dates:
        try:
            dates = [date.fromisoformat(cell) for cell in cells(0)]
        except ValueError:
            return None
    if column is not None:
        values = np.array(list(map(float, cells(has_dates + index))))
        return ScenarioMatrix(values=values[:, None], tickers=[tickers[index]], dates=dates)
    flat = text.replace("\n", ",").split(",")
    if has_dates:
        del flat[::width]
    values = np.array(list(map(float, flat))).reshape(-1, len(tickers))
    return ScenarioMatrix(values=values, tickers=tickers, dates=dates)


def _read_with_csv(path) -> ScenarioMatrix:
    """The per-cell reader: `csv` rows and one `float` per cell. It is the
    only source of `read_scenarios_csv`'s errors."""
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not header:
            raise ParseError(f"{path}: empty scenario file")
        has_dates = header[0].strip().lower() == "date"
        tickers = [h.strip() for h in (header[1:] if has_dates else header)]
        if not tickers:
            raise ParseError(f"{path}: no ticker columns")
        dates = [] if has_dates else None
        rows = []
        linenos = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            cells = row[1:] if has_dates else row
            if len(cells) != len(tickers):
                raise ParseError(f"{path}:{lineno}: wrong number of cells")
            if has_dates:
                try:
                    dates.append(date.fromisoformat(row[0].strip()))
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad date {row[0]!r}") from exc
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad value ({exc})") from exc
            linenos.append(lineno)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    values = np.array(rows, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ParseError(
            f"{path}:{linenos[i]}: non-finite value {float(values[i, j])!r} "
            f"for {tickers[j]}"
        )
    return ScenarioMatrix(
        values=values,
        tickers=tickers,
        dates=dates,
    )
