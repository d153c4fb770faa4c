"""Price panels, return scenarios, and seeded copula resampling.

The pipeline is file-oriented: a price CSV (date column plus one column per
ticker, a blank or `nan` cell for a missing quote, which `write_prices_csv`
writes as `nan`) is cleaned by coverage, turned into
simple or log returns at daily or weekly frequency, optionally cut to a
trailing window, and either used directly as historical scenarios or
expanded by a Gaussian-copula resampler that draws new rows whose marginals
are the historical ones (every simulated value is a historical value) and
whose rank correlations track the historical ones.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .curves import _count, _read_table, _write_table
from .errors import (
    BadParameter,
    DataError,
    DegenerateColumnWarning,
    DuplicateDate,
    EmptyAfterCleaning,
    InsufficientHistory,
    NonPositivePrice,
    NumericError,
)
from .rng import (
    acklam_array,
    normal_cdf_array,
    normal_inverse_cdf_array,
    normal_tail_array,
    normals_from_states,
    substream_states,
    uniforms_from_states,
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
    """Read a `date,<ticker>,...` CSV. A blank cell or an unsigned NaN is a
    missing quote; prices must be positive and finite, and dates unique.
    Rows are sorted by date."""
    tickers, linenos, dates, prices = _read_table(path, _price_header, missing=True)
    first = {}
    for i, day in enumerate(dates):
        if first.setdefault(day, i) != i:
            raise DuplicateDate(f"{path}:{linenos[i]}: duplicate date {day}")
    # a NaN whose sign bit is set, as `float('-nan')` gives, is no missing quote
    bad = np.argwhere(np.signbit(prices) | (prices == 0.0) | (prices == math.inf))
    if bad.size:
        i, j = bad[0]
        raise NonPositivePrice(
            f"{path}:{linenos[i]}: price {float(prices[i, j])!r} for {tickers[j]}"
        )
    order = sorted(range(len(dates)), key=dates.__getitem__)
    return PricePanel([dates[i] for i in order], tickers, prices[order])


def _price_header(header):
    dated = len(header) > 1 and header[0].lower() == "date"
    return None if dated else "expected a 'date,<tickers>' header"


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
    k = _count(k, "k")
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
    differencing. A return that overflows is a NumericError naming its date
    and ticker."""
    if frequency not in ("daily", "weekly"):
        raise BadParameter(f"frequency must be daily or weekly, got {frequency!r}")
    if kind not in ("simple", "log"):
        raise BadParameter(f"kind must be simple or log, got {kind!r}")
    if np.isnan(panel.prices).any():
        raise DataError("panel has missing values; clean it first")
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
    with np.errstate(over="ignore", divide="ignore"):  # refused below instead
        ratio = prices[1:] / prices[:-1]
        values = np.log(ratio) if kind == "log" else ratio - 1.0
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise NumericError(
            f"{kind} return on {dates[i + 1]} for {panel.tickers[j]} is not finite: "
            f"{float(values[i, j])!r}"
        )
    return ScenarioMatrix(values=values, tickers=list(panel.tickers), dates=dates[1:])


def historical_scenarios(scenarios: ScenarioMatrix, window: int = 500) -> ScenarioMatrix:
    """The most recent `window` rows, kept in order."""
    window = _count(window, "window")
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


def _ranks(scaled: np.ndarray, t: int) -> np.ndarray:
    """ceil(u * t) clipped to [1, t], from `scaled` = u * t."""
    return np.clip(np.ceil(scaled), 1, t).astype(np.intp)


# Bounds of the rank filter in `_filtered_ranks`. The two published ones are
# taken ten times over, which covers the rounding of evaluating each
# approximation in float64 (far below its own error); the others are
# rounding allowances, each well above the few ulps it covers.
_ACKLAM_REL = 1.15e-8  # Acklam: |x0 / x - 1| < 1.15e-9
_ERFCC_REL = 1.2e-6  # Numerical Recipes' erfcc: fractional error < 1.2e-7
_HALLEY_ABS = 1e-12  # the Halley step's own rounding, below 1e-15
_CDF_ABS = 1e-14  # a few ulps of 1 in u and in 1 - tail, and underflow
_RANK_MARGIN = 2.0**-48  # the roundings of u * t, Phi~ * t and its two ends
_DENSITY_MAX = 1.0 / math.sqrt(2.0 * math.pi)  # phi(0), the largest density


def _filtered_ranks(
    chol: np.ndarray, p: np.ndarray, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """Ranks ceil(u * t), clipped to [1, t], of the copula rows whose
    uniforms are the rows of `p`, from values with a proven error bound, and
    the mask of the rows whose ranks that bound leaves open; the ranks given
    for those rows are not to be used. `p` is not modified.

    For each row, with x0 = `acklam_array(p)` (no Halley step) and eps the
    refined normals of the exact path:

    - |eps_j - x0_j| <= _ACKLAM_REL |x0_j| + _HALLEY_ABS. Acklam's relative
      error is below 1.15e-9. The Halley step removes that error up to the
      rounding of `normal_cdf(x0) - p` (a few ulps of p) over the density at
      x0, and the Mills ratio p / phi(x0) <= sqrt(pi / 2) keeps that below
      1e-15.
    - z0 = x0 @ chol.T and z = chol @ eps each sum n terms in some order, so
      each is off its exact sum by at most gamma_n sum_j |chol_ij| |x_j|,
      gamma_n = n 2**-53 / (1 - n 2**-53) (Higham, Accuracy and Stability
      of Numerical Algorithms, 2nd ed., section 3.1). With
      S_i = sum_j |chol_ij| |x0_j|, |z_i - z0_i| is at most
      (_ACKLAM_REL + 3 n 2**-53) S_i + _HALLEY_ABS sum_j |chol_ij|.
    - |Phi(z) - Phi(z0)| <= phi(0) |z - z0|, by the mean value theorem.
    - Phi~ is T~ or 1 - T~ with T~ = `normal_tail_array(z0)`, whose error is
      below 1.2e-7 T (Numerical Recipes' erfcc, Press et al., Numerical
      Recipes in C, 2nd ed., section 6.2), so |Phi~ - Phi(z0)| is at most
      _ERFCC_REL T~ + _CDF_ABS.
    - u = `normal_cdf(z)` is Phi(z) to a few ulps, inside _CDF_ABS and the
      relative term.

    So u * t lies within bound * t of Phi~ * t, and _RANK_MARGIN * t more
    covers the roundings of both products and of the two ends. Every value
    in between has the same clipped rank exactly when both ends have it. A
    row with a zero uniform, which `normal()` redraws, is left open too.
    """
    redraw = (p == 0.0).any(axis=1)
    x0 = acklam_array(np.where(redraw[:, None], 0.5, p))
    z0 = x0 @ chol.T
    tail = normal_tail_array(z0)
    abs_chol = np.abs(chol)
    spread = (_ACKLAM_REL + 3 * len(chol) * 2.0**-53) * (np.abs(x0) @ abs_chol.T)
    spread += _HALLEY_ABS * abs_chol.sum(axis=1)
    bound = _ERFCC_REL * tail + (_CDF_ABS + _RANK_MARGIN) + _DENSITY_MAX * spread
    scaled = np.where(z0 < 0.0, tail, 1.0 - tail) * t
    low, high = _ranks(scaled - bound * t, t), _ranks(scaled + bound * t, t)
    return high, (low != high).any(axis=1) | redraw


def copula_simulate(
    scenarios: ScenarioMatrix, n: int = 1000, seed: int = 0
) -> ScenarioMatrix:
    """Gaussian-copula resampling of a historical scenario matrix.

    Marginals are the historical empirical quantiles (x_(ceil(u*T))), so
    every simulated value appears in the history. Each output row uses its
    own counter-derived substream of the seed, so row i is identical across
    runs and independent of n. The seed must lie in [0, 2**64).

    Row i equals the scalar reference: draw `n_assets` normals from
    `Xoshiro256pp.substream(seed, i)`, correlate them with `chol @ eps`,
    and take x_(ceil(u*T)) with u = `normal_cdf` of each entry, clipped to
    [1, T]. Each block of rows derives its substream states once. Only the
    integer ranks reach the output, so most rows take them from the block's
    uniforms through cheap approximations with a certified error bound
    (`_filtered_ranks`: Acklam's inverse without its Halley step, and
    Numerical Recipes' erfcc). A row with a rank that bound cannot decide,
    or with a zero uniform, runs the exact path on its states:
    `normals_from_states`, which matches `normal()` bit for bit, then
    `chol @ eps` and `normal_cdf`. Either way every rank is the reference's.
    """
    values = np.asarray(scenarios.values, dtype=float)
    if not np.isfinite(values).all():
        raise DataError("scenario history must be finite")
    t, n_assets = values.shape
    if t < 2:
        raise InsufficientHistory("need at least two historical rows")
    n, seed = _count(n, "n"), _count(seed, "seed")
    if n < 1:
        raise BadParameter("n must be positive")
    if not 0 <= seed < 2**64:
        raise BadParameter(f"seed must lie in [0, 2**64), got {seed}")
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
        states = substream_states(seed, range(start, stop))
        idx, undecided = _filtered_ranks(chol, uniforms_from_states(states, n_assets), t)
        if undecided.any():
            eps = normals_from_states(states[:, undecided], n_assets)
            # one matrix-vector product per row, as `chol @ eps` does; a single
            # `eps @ chol.T` is a matrix product that sums in another order
            z = np.matmul(chol, eps[:, :, None])[:, :, 0]
            idx[undecided] = _ranks(normal_cdf_array(z) * t, t)
        out[start:stop] = sorted_cols[idx - 1, columns]
    return ScenarioMatrix(values=out, tickers=list(scenarios.tickers))


# -- CSV round trips -----------------------------------------------------------


def write_prices_csv(panel: PricePanel, path) -> None:
    """A missing quote is written `nan`, which `load_price_panel` reads back
    as missing."""
    days = [day.isoformat() for day in panel.dates]
    _write_table(path, ["date", *panel.tickers], panel.prices, [(0, days)])


def write_scenarios_csv(scenarios: ScenarioMatrix, path) -> None:
    """Historical matrices keep their date column; simulated ones have none."""
    if scenarios.dates is None:
        _write_table(path, scenarios.tickers, scenarios.values)
    else:
        days = [day.isoformat() for day in scenarios.dates]
        _write_table(path, ["date", *scenarios.tickers], scenarios.values, [(0, days)])


# The checked reading path of `read_scenarios_csv` scans a file's body block
# by block for its tokens: the bytes that are not digits. Each token has a
# class, and the delimiters come first, so `cls <= _END` marks them. `_END` is
# the end of a file whose last line has no line end; `_OFF` is every byte off
# the path.
_COMMA, _LF, _END, _CR, _PLUS, _MINUS, _DOT, _EXP, _OFF = range(9)
_CLASS = np.full(256, _OFF, dtype=np.int8)
_CLASS[np.frombuffer(b",\n\r+-.eE", dtype=np.uint8)] = (
    _COMMA, _LF, _CR, _PLUS, _MINUS, _DOT, _EXP, _EXP
)
# The digits right before a token, bucketed: none, 1-2, 3-200, over 200.
_NONE, _FEW, _SOME, _MANY = range(4)
_BUCKET = np.repeat(np.arange(4, dtype=np.int8), (1, 2, 198, 1))


def _token_rules() -> np.ndarray:
    """Whether a token may follow the two before it, given its class and
    digits and theirs: indexed by `(4 * cls + digits)` of the token before
    the last, the last, and the token itself, then flattened.

    A cell that passes is Python's float grammar over these bytes with at
    most 200 integer digits and an exponent that is negative or has at most
    two digits. Digits are interchangeable in that grammar, so `float`
    accepts the cell, and its value is below 1e299 in magnitude whatever the
    digits are. A CR is a line end only with an LF right after it."""
    ok = np.zeros((9, 4, 9, 4, 9, 4), dtype=bool)
    every, counts = range(9), range(4)

    def allow(before, prev, prev_digits, cls, digits):
        ok[np.ix_(before, counts, prev, prev_digits, cls, digits)] = True

    start, sign = [_COMMA, _LF], [_PLUS, _MINUS]  # start: the token before a cell
    cell_end = [_COMMA, _LF, _END, _CR]
    integer = [_FEW, _SOME]
    # the mantissa: [sign] (1-200 digits [. digits] | . 1+ digits)
    allow(every, start, counts, sign, [_NONE])
    allow(every, start, counts, [_DOT], [_NONE, _FEW, _SOME])
    allow(start, sign, counts, [_DOT], [_NONE, _FEW, _SOME])
    for after in ([_EXP], cell_end):
        allow(every, start, counts, after, integer)
        allow(start, sign, counts, after, integer)
        allow(every, [_DOT], integer, after, counts)
        allow(every, [_DOT], [_NONE], after, [_FEW, _SOME, _MANY])
    # the exponent: e (- 1+ digits | [+] 1-2 digits)
    allow(every, [_EXP], counts, sign, [_NONE])
    allow(every, [_EXP], counts, cell_end, [_FEW])
    allow([_EXP], [_PLUS], counts, cell_end, [_FEW])
    allow([_EXP], [_MINUS], counts, cell_end, [_FEW, _SOME, _MANY])
    allow(every, [_CR], counts, [_LF], [_NONE])
    return ok.ravel()


_RULES = _token_rules()
# Bytes read per block of the body; a block is its whole lines. At 64 KiB a
# block's temporaries stay in the allocator's free memory from one block to
# the next, where a whole 6 MB file's come back as fresh pages on every read.
_BLOCK_BYTES = 1 << 16


def read_scenarios_csv(path, column: str | int | None = None) -> ScenarioMatrix:
    """A scenario matrix from a file `write_scenarios_csv` wrote (or one
    like it). With `column` (a ticker or a 0-based index) the matrix holds
    that column only: every cell of the file is still checked, so a
    malformed file fails as it does without `column`, but only the kept
    column is converted. An unknown column is BadParameter."""
    return _read_plain(path, column) or _select(_read_with_csv(path), column)


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

    A plain file has an ASCII header without quotes or a repeated name, and
    data lines with the header's number of cells, ending in LF or CRLF. Its
    date cells (if any) are ISO dates, every other cell passes
    `_token_rules`, and no cell exceeds csv's field size limit. csv splits
    such a file at its commas and line ends, and `float` parses each value
    cell to a finite number, so the result is `_read_with_csv`'s. Any other
    file (a blank line, an empty cell, a bad value or date, an unknown
    `column`) goes to that reader, which gives its values or its error.

    The body is checked and converted block by block (`_body_blocks`), and
    only the converted cells are kept. A block starts at a line start, which
    `_cell_bounds` reads as it reads the start of the body."""
    with open(path, "rb") as fh:
        head = fh.readline()
        if not head.endswith(b"\n"):  # no line end: no header and no body
            return None
        head = head.removesuffix(b"\n").removesuffix(b"\r")
        limit = csv.field_size_limit()
        if not head.isascii() or len(head) > limit or any(c in head for c in b'"\r\0'):
            return None
        header = head.decode().split(",")
        has_dates = header[0].strip().lower() == "date"
        tickers = [h.strip() for h in header[has_dates:]]
        index = None if column is None else _column_index(tickers, column)
        unique = len(set(tickers)) == len(tickers)
        if not (head and tickers and unique) or (column is not None and index is None):
            return None
        width = len(header)
        dates, values = [] if has_dates else None, []
        for block in _body_blocks(fh):
            bounds = _cell_bounds(block, width, has_dates, limit)
            if bounds is None:
                return None
            starts, ends = bounds

            # column j is cells j, j + width, j + 2 * width, ..., as ASCII bytes;
            # a CRLF line's last cell keeps its CR, which `float` strips
            def cells(j):
                bounds = zip(starts[j::width].tolist(), ends[j::width].tolist())
                return [block[start:end] for start, end in bounds]

            if has_dates:
                try:
                    dates += [date.fromisoformat(cell.decode()) for cell in cells(0)]
                except ValueError:
                    return None
            if column is None:
                flat = block.decode().replace("\n", ",").split(",")
                del flat[ends.size :]  # the empty piece after a final LF
                if has_dates:
                    del flat[::width]
            else:
                flat = cells(has_dates + index)
            values.append(np.array(list(map(float, flat))))
    if not values:  # an empty body
        return None
    kept = tickers if column is None else [tickers[index]]
    values = np.concatenate(values).reshape(-1, len(kept))
    return ScenarioMatrix(values=values, tickers=kept, dates=dates)


def _body_blocks(fh):
    """The rest of `fh` in blocks of whole lines: each block ends right after
    a LF but the last, which is whatever is left, with or without one. A
    line longer than `_BLOCK_BYTES` makes a longer block."""
    pending = []
    while chunk := fh.read(_BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            pending.append(chunk)
            continue
        yield b"".join([*pending, chunk[:cut]])
        pending = [chunk[cut:]]
    rest = b"".join(pending)
    if rest:
        yield rest


def _cell_bounds(body: bytes, width: int, has_dates: bool, limit: int):
    """Cell k of a plain body is `body[starts[k]:ends[k]]` (a CRLF line's
    last cell with its CR); None for a body that is not plain. One scan over
    the tokens checks every cell against `_RULES` (date cells only for their
    bytes), every `width`-th delimiter for a line end and every other one
    for a comma, and each cell's length against `limit`."""
    codes = np.frombuffer(body, dtype=np.uint8)
    at = np.flatnonzero(codes - np.uint8(ord("0")) > np.uint8(9))  # every byte but a digit
    cls = _CLASS.take(codes.take(at))
    if body[-1:] != b"\n":
        at = np.append(at, len(body))
        cls = np.append(cls, np.int8(_END))
    digits = _BUCKET.take(np.minimum(np.diff(at, prepend=-1) - 1, 201))
    token = np.empty(cls.size + 2, dtype=np.uint16)
    token[:2] = 4 * _LF  # a cell starts at the first byte
    token[2:] = cls * np.int8(4) + digits
    key = token[:-2] * np.uint16(36 * 36)
    key += token[1:-1] * np.uint16(36)
    key += token[2:]
    ok = _RULES.take(key.astype(np.intp))
    delimiter = np.flatnonzero(cls <= np.int8(_END))
    if has_dates:
        # a date cell's tokens, its comma included, are checked for their bytes only
        new_cell = np.zeros(cls.size, dtype=np.intp)
        new_cell[delimiter[:-1] + 1] = 1
        ok |= (np.cumsum(new_cell) % width == 0) & (cls != np.int8(_OFF))
    if not ok.all():
        return None
    ends, kinds = at.take(delimiter), cls.take(delimiter)
    # every width-th delimiter is a line end and no other one is; the last
    # delimiter is always a line end, so a count that is not a multiple of
    # width leaves one out of `line_ends`
    line_ends = kinds[width - 1 :: width]  # _COMMA is 0, a line end is not
    if np.count_nonzero(kinds) != line_ends.size or not line_ends.all():
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts
    last = lengths[width - 1 :: width]  # a view: drop the CR of a CRLF line
    last -= codes.take(ends[width - 1 :: width] - 1) == np.uint8(ord("\r"))
    if lengths.max() > limit:
        return None
    return starts, ends


def _read_with_csv(path) -> ScenarioMatrix:
    """The per-cell reader: the only source of `read_scenarios_csv`'s errors."""
    tickers, _, dates, values = _read_table(path)
    return ScenarioMatrix(values=values, tickers=tickers, dates=dates)

