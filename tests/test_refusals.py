"""Refusals of bad input and bad arguments, one table row each: the library
call, its error class and a fragment of its message, and, where a command
reaches the same refusal, the command's exit code and stderr prefix."""

import re

import numpy as np
import pytest

from lorenzlab import (
    AnalyticFamily,
    TargetCurveSpec,
    alpha_sequence,
    analytic_quantile,
    compute_returns,
    copula_simulate,
    cvar_weights,
    efficient_frontier,
    empirical_quantile,
    gmd_pairwise,
    gmd_weights,
    grid_oracle,
    historical_scenarios,
    limit_curve,
    load_price_panel,
    measure_value,
    min_risk,
    read_scenarios_csv,
    run_iteration,
    self_similarity_residual,
    take_every,
    truncate_generalized,
)
from lorenzlab.cli import _cmd_frontier, _cmd_measure, _parse_start, build_parser, main
from lorenzlab.curves import read_curve_csv
from lorenzlab.errors import (
    BadParameter,
    DataError,
    DegenerateAfterTruncation,
    DuplicateDate,
    EmptySample,
    InfeasibleTarget,
    InsufficientHistory,
    NonPositiveMeanRegion,
    NonPositivePrice,
    NumericError,
    ParseError,
)
from lorenzlab.lorenz import GeneralizedLorenzPoints
from lorenzlab.risk import RiskMeasureConfig

FILES = {
    "bad_sample.txt": "0.35 abc\n",
    "short_row.csv": "date,A,B\n2024-01-01,1.0\n",
    "bad_date.csv": "date,A\n2024-13-01,1.0\n",
    "no_rows.csv": "date,A\n",
    "gap.csv": "date,A,B\n2024-01-01,1.0,2.0\n2024-01-02,,2.5\n2024-01-03,1.2,2.6\n",
    "prices.csv": "date,A\n2024-01-01,1.0\n2024-01-02,1.1\n",
    "empty.csv": "",
    "date_only.csv": "date\n2024-01-01\n",
    "one_row.csv": "A,B\n0.01,0.02\n",
    "two_rows.csv": "A,B\n0.01,0.02\n0.03,-0.01\n",
    "losing.csv": "A,B\n-0.01,-0.02\n-0.03,0.01\n-0.01,-0.02\n",
    "one_value.csv": "A\n0.01\n",
    "overflow.csv": "A\n1e200\n-1e200\n3e200\n",
    "overflow_pair.csv": "A,B\n1e200,2e200\n-1e200,1e200\n3e200,-1e200\n",
    "overflow_mean.csv": "A,B\n1.5e308,0.01\n1.5e308,0.02\n-1e308,0.03\n",
    # finite column means, but sorted partial sums that overflow
    "big.csv": "A,B\n1.5e308,1e308\n-1.5e308,-1e308\n1.5e308,1e308\n-1.4e308,-1e308\n",
    "bad_curve.csv": "u,value\n0,abc\n",
    # a parse error anywhere in a price file comes before any value check
    "dup_then_bad.csv": "date,A\n2024-01-01,1.0\n2024-01-01,2.0\n2024-01-03,x\n",
    "negative_then_bad.csv": "date,A\n2024-01-01,-1.0\n2024-01-02,x\n",
    "bad_scenario_cell.csv": "A,B\n0.01,0.02\n0.03,x\n",
    # dates are checked before prices, wherever the faults are
    "negative_then_dup.csv": "date,A\n2024-01-01,-1.0\n2024-01-01,2.0\n",
    "negative.csv": "date,A\n2024-01-01,1.0\n2024-01-02,-1.0\n",
    "price_jump.csv": "date,A\n2024-01-01,1e-300\n2024-01-02,1e300\n",
    "price_drop.csv": "date,A\n2024-01-01,1e300\n2024-01-02,1e-300\n",
    # a header that names a column twice, once after stripping
    "dup_column_prices.csv": "date,A, A\n2024-01-01,1.0,2.0\n2024-01-02,1.1,2.1\n",
    "dup_column_scenarios.csv": "A,B,A\n0.01,0.02,0.03\n0.03,-0.01,0.02\n",
}
VAR = RiskMeasureConfig("variance")

# What each kind says about big.csv: the frontier's message, then measure's
# on column A. cvar's risk is finite there.
SUM_OVERFLOW = {
    "variance": ("scenario covariance is not finite: the scenarios overflow",
                 "the sample's sums overflow: variance is inf"),
    "mad": ("mean absolute deviation is not finite: the scenarios overflow",
            "the sample's sums overflow: mad is inf"),
    "gmd": ("the sample's sums overflow: gmd is inf",) * 2,
    "extended_gini": ("the sample's sums overflow to -inf",) * 2,
    "gs1": ("the sample's sums overflow to -inf",) * 2,
    "gs2": ("the sample's sums overflow to inf",) * 2,
}


def refusal(name, call, error, fragment, argv=None, code=None, prefix=None, marks=()):
    cli = None if argv is None else (argv, code, prefix)
    return pytest.param(call, error, fragment, cli, id=name, marks=marks)


REFUSALS = [
    # the iterate command's sample: start
    refusal("sample-without-path", lambda d: _parse_start("sample:", 64),
            BadParameter, "sample start needs a path",
            ["iterate", "--start", "sample:"], 1, "error"),
    refusal("sample-file-missing",
            lambda d: _parse_start(f"sample:{d}/missing.txt", 64),
            DataError, "cannot read sample file",
            ["iterate", "--start", "sample:{d}/missing.txt"], 2, "data error"),
    refusal("sample-not-a-number",
            lambda d: _parse_start(f"sample:{d}/bad_sample.txt", 64),
            ParseError, "bad_sample.txt:1: bad value 'abc'",
            ["iterate", "--start", "sample:{d}/bad_sample.txt"], 2, "data error"),
    # price panels and returns
    refusal("price-cell-count", lambda d: load_price_panel(d / "short_row.csv"),
            ParseError, ":2: expected 3 cells, got 2",
            ["clean", "--prices", "{d}/short_row.csv"], 2, "data error"),
    refusal("price-bad-date", lambda d: load_price_panel(d / "bad_date.csv"),
            ParseError, ":2: bad date '2024-13-01'",
            ["clean", "--prices", "{d}/bad_date.csv"], 2, "data error"),
    refusal("price-no-rows", lambda d: load_price_panel(d / "no_rows.csv"),
            ParseError, "no data rows",
            ["clean", "--prices", "{d}/no_rows.csv"], 2, "data error"),
    refusal("price-duplicate-date", lambda d: load_price_panel(d / "negative_then_dup.csv"),
            DuplicateDate, "negative_then_dup.csv:3: duplicate date 2024-01-01",
            ["clean", "--prices", "{d}/negative_then_dup.csv"], 2, "data error"),
    refusal("price-not-positive", lambda d: load_price_panel(d / "negative.csv"),
            NonPositivePrice, "negative.csv:3: price -1.0 for A",
            ["clean", "--prices", "{d}/negative.csv"], 2, "data error"),
    refusal("price-parse-before-duplicate", lambda d: load_price_panel(d / "dup_then_bad.csv"),
            ParseError, "dup_then_bad.csv:4: bad value 'x' for A",
            ["clean", "--prices", "{d}/dup_then_bad.csv"], 2, "data error"),
    refusal("price-parse-before-nonpositive",
            lambda d: load_price_panel(d / "negative_then_bad.csv"),
            ParseError, "negative_then_bad.csv:3: bad value 'x' for A",
            ["returns", "--prices", "{d}/negative_then_bad.csv"], 2, "data error"),
    refusal("price-duplicate-column", lambda d: load_price_panel(d / "dup_column_prices.csv"),
            ParseError, "dup_column_prices.csv:1: duplicate column 'A'",
            ["clean", "--prices", "{d}/dup_column_prices.csv"], 2, "data error"),
    refusal("returns-missing-quotes",
            lambda d: compute_returns(load_price_panel(d / "gap.csv")),
            DataError, "panel has missing values; clean it first",
            ["returns", "--prices", "{d}/gap.csv"], 2, "data error"),
    # a return that overflows is refused before the scenarios are written
    refusal("returns-overflow-simple",
            lambda d: compute_returns(load_price_panel(d / "price_jump.csv")),
            NumericError, "simple return on 2024-01-02 for A is not finite: inf",
            ["returns", "--prices", "{d}/price_jump.csv"], 3, "numeric failure"),
    refusal("returns-overflow-log",
            lambda d: compute_returns(load_price_panel(d / "price_jump.csv"), kind="log"),
            NumericError, "log return on 2024-01-02 for A is not finite: inf",
            ["returns", "--prices", "{d}/price_jump.csv", "--kind", "log"],
            3, "numeric failure"),
    refusal("returns-underflow-log",
            lambda d: compute_returns(load_price_panel(d / "price_drop.csv"), kind="log"),
            NumericError, "log return on 2024-01-02 for A is not finite: -inf",
            ["returns", "--prices", "{d}/price_drop.csv", "--kind", "log"],
            3, "numeric failure"),
    refusal("returns-kind",
            lambda d: compute_returns(load_price_panel(d / "prices.csv"), kind="percent"),
            BadParameter, "kind must be simple or log"),
    # scenario files and the copula
    refusal("scenarios-empty", lambda d: read_scenarios_csv(d / "empty.csv"),
            ParseError, "empty.csv:1: no value columns",
            ["measure", "--scenarios", "{d}/empty.csv", "--kind", "mad"], 2, "data error"),
    refusal("scenarios-bad-cell", lambda d: read_scenarios_csv(d / "bad_scenario_cell.csv"),
            ParseError, "bad_scenario_cell.csv:3: bad value 'x' for B",
            ["simulate", "--scenarios", "{d}/bad_scenario_cell.csv", "--window", "0"],
            2, "data error"),
    refusal("scenarios-date-only", lambda d: read_scenarios_csv(d / "date_only.csv"),
            ParseError, "date_only.csv:1: no value columns",
            ["measure", "--scenarios", "{d}/date_only.csv", "--kind", "mad"], 2, "data error"),
    refusal("scenarios-duplicate-column",
            lambda d: read_scenarios_csv(d / "dup_column_scenarios.csv"),
            ParseError, "dup_column_scenarios.csv:1: duplicate column 'A'",
            ["frontier", "--scenarios", "{d}/dup_column_scenarios.csv", "--kind", "variance"],
            2, "data error"),
    refusal("scenarios-duplicate-column-kept",
            lambda d: read_scenarios_csv(d / "dup_column_scenarios.csv", "A"),
            ParseError, "dup_column_scenarios.csv:1: duplicate column 'A'",
            ["measure", "--scenarios", "{d}/dup_column_scenarios.csv", "--column", "A",
             "--kind", "mad"], 2, "data error"),
    refusal("copula-one-row",
            lambda d: copula_simulate(read_scenarios_csv(d / "one_row.csv")),
            InsufficientHistory, "need at least two historical rows",
            ["simulate", "--scenarios", "{d}/one_row.csv", "--window", "0"], 2, "data error"),
    refusal("copula-no-rows",
            lambda d: copula_simulate(read_scenarios_csv(d / "two_rows.csv"), n=0),
            BadParameter, "n must be positive",
            ["simulate", "--scenarios", "{d}/two_rows.csv", "--window", "0", "--n", "0"],
            1, "error"),
    # portfolios
    refusal("portfolio-one-row",
            lambda d: min_risk(read_scenarios_csv(d / "one_row.csv").values, VAR),
            InsufficientHistory, "need at least two scenario rows, got 1",
            ["frontier", "--scenarios", "{d}/one_row.csv", "--kind", "variance"], 2, "data error"),
    refusal("portfolio-one-dimensional", lambda d: min_risk([0.01, 0.02], VAR),
            BadParameter, "scenarios must be a T x N matrix"),
    refusal("portfolio-nonfinite",
            lambda d: min_risk([[np.nan, 0.01], [0.02, 0.03]], VAR),
            DataError, "scenarios must be finite"),
    # a NaN target fails every range check, so it is refused as out of range
    *(refusal(f"portfolio-nan-target-{kind}",
              lambda d, kind=kind: min_risk(read_scenarios_csv(d / "two_rows.csv").values,
                                            RiskMeasureConfig(kind), target=float("nan")),
              InfeasibleTarget, "target nan outside the attainable range")
      for kind in ("cvar", "gs1")),
    refusal("grid-oracle-nan-target",
            lambda d: grid_oracle(read_scenarios_csv(d / "two_rows.csv").values, VAR,
                                  step=0.05, target=float("nan")),
            InfeasibleTarget, "no lattice point satisfies the constraints"),
    *(refusal(f"grid-oracle-step-{step}",
              lambda d, step=step: grid_oracle(read_scenarios_csv(d / "two_rows.csv").values,
                                               VAR, step=step),
              BadParameter, "step must divide 1")
      for step in (0.0, float("nan"), 5e-324)),
    refusal("frontier-ticker-count",
            lambda d: efficient_frontier(read_scenarios_csv(d / "two_rows.csv").values, VAR,
                                         tickers=["A"]),
            BadParameter, "1 tickers for 2 scenario columns"),
    *(refusal(f"frontier-n-points-{n_points}",
              lambda d, n_points=n_points: efficient_frontier(
                  read_scenarios_csv(d / "two_rows.csv").values, VAR, n_points=n_points),
              BadParameter, f"n_points must be an integer, got {n_points!r}")
      for n_points in (2.5, float("nan"), 3.0)),
    refusal("frontier-no-positive-mean",
            lambda d: efficient_frontier(read_scenarios_csv(d / "losing.csv").values, VAR),
            NonPositiveMeanRegion, "no long-only portfolio has a positive mean",
            ["frontier", "--scenarios", "{d}/losing.csv", "--kind", "variance"],
            3, "numeric failure"),
    # risk measure weights and cross-checks
    refusal("cvar-no-samples", lambda d: cvar_weights(0, 0.05),
            EmptySample, "need at least one sample"),
    refusal("gmd-weights-one-sample", lambda d: gmd_weights(1),
            EmptySample, "needs at least two samples"),
    refusal("gmd-pairwise-one-sample", lambda d: gmd_pairwise([0.01]),
            EmptySample, "need at least 2 samples, got 1",
            ["measure", "--scenarios", "{d}/one_value.csv", "--kind", "gmd"], 2, "data error"),
    # a value that overflows is refused before the report is written
    refusal("measure-overflow",
            lambda d: _cmd_measure(build_parser().parse_args(
                ["measure", "--scenarios", str(d / "overflow.csv"), "--kind", "variance"])),
            NumericError, "variance report is not finite: value = inf",
            ["measure", "--scenarios", "{d}/overflow.csv", "--kind", "variance"],
            3, "numeric failure"),
    # so is a covariance that overflows, before any numpy warning escapes
    refusal("frontier-overflow",
            lambda d: _cmd_frontier(build_parser().parse_args(
                ["frontier", "--scenarios", str(d / "overflow_pair.csv"), "--kind", "variance",
                 "--n-points", "2", "--out", str(d / "out.csv")])),
            NumericError, "scenario covariance is not finite: the scenarios overflow",
            ["frontier", "--scenarios", "{d}/overflow_pair.csv", "--kind", "variance",
             "--n-points", "2"], 3, "numeric failure",
            marks=[pytest.mark.filterwarnings("error::RuntimeWarning")]),
    # and column means that overflow, before any kind's solve
    *(refusal(f"frontier-mean-overflow-{kind}",
              lambda d, kind=kind: efficient_frontier(
                  read_scenarios_csv(d / "overflow_mean.csv").values, RiskMeasureConfig(kind)),
              NumericError, "scenario means are not finite: the scenarios overflow",
              ["frontier", "--scenarios", "{d}/overflow_mean.csv", "--kind", kind],
              3, "numeric failure",
              marks=[pytest.mark.filterwarnings("error::RuntimeWarning")])
      for kind in ("variance", "cvar", "mad", "gs1")),
    # and sums of the sorted returns that overflow, though the means are
    # finite, before any file is written or numpy warns
    *(refusal(f"frontier-sum-overflow-{kind}",
              lambda d, kind=kind: _cmd_frontier(build_parser().parse_args(
                  ["frontier", "--scenarios", str(d / "big.csv"), "--kind", kind,
                   "--n-points", "2", "--out", str(d / "out.csv")])),
              NumericError, frontier_message,
              ["frontier", "--scenarios", "{d}/big.csv", "--kind", kind, "--n-points", "2"],
              3, "numeric failure",
              marks=[pytest.mark.filterwarnings("error::RuntimeWarning")])
      for kind, (frontier_message, _) in SUM_OVERFLOW.items()),
    *(refusal(f"measure-sum-overflow-{kind}",
              lambda d, kind=kind: measure_value(
                  read_scenarios_csv(d / "big.csv", "A").values[:, 0], RiskMeasureConfig(kind)),
              NumericError, measure_message,
              ["measure", "--scenarios", "{d}/big.csv", "--column", "A", "--kind", kind],
              3, "numeric failure",
              marks=[pytest.mark.filterwarnings("error::RuntimeWarning")])
      for kind, (_, measure_message) in SUM_OVERFLOW.items()),
    refusal("portfolio-mean-overflow",
            lambda d: min_risk(read_scenarios_csv(d / "overflow_mean.csv").values,
                               RiskMeasureConfig("mad")),
            NumericError, "scenario means are not finite: the scenarios overflow",
            marks=[pytest.mark.filterwarnings("error::RuntimeWarning")]),
    # every count and size argument is an integer, by one check
    *(refusal(f"count-{name}", call, BadParameter, fragment)
      for name, call, fragment in [
          ("limit-curve-grid", lambda d: limit_curve("primal", 7.9),
           "grid_size must be an integer, got 7.9"),
          ("limit-curve-grid-nan", lambda d: limit_curve("primal", float("nan")),
           "grid_size must be an integer, got nan"),
          ("analytic-quantile-grid",
           lambda d: analytic_quantile(AnalyticFamily.uniform01(), 2.9),
           "grid_size must be an integer, got 2.9"),
          ("empirical-quantile-grid", lambda d: empirical_quantile([0.1, 0.2], 2.5),
           "grid_size must be an integer, got 2.5"),
          ("target-curve-grid", lambda d: TargetCurveSpec().curve(3.5),
           "grid_size must be an integer, got 3.5"),
          ("iterate-max-iter",
           lambda d: run_iteration(analytic_quantile(AnalyticFamily.uniform01(), 8),
                                   "primal", max_iter=2.5),
           "max_iter must be an integer, got 2.5"),
          ("copula-rows",
           lambda d: copula_simulate(read_scenarios_csv(d / "two_rows.csv"), n=2.5),
           "n must be an integer, got 2.5"),
          ("copula-seed",
           lambda d: copula_simulate(read_scenarios_csv(d / "two_rows.csv"), n=3, seed=1.5),
           "seed must be an integer, got 1.5"),
          ("historical-window",
           lambda d: historical_scenarios(read_scenarios_csv(d / "two_rows.csv"), 2.5),
           "window must be an integer, got 2.5"),
          ("take-every", lambda d: take_every(load_price_panel(d / "prices.csv"), 1.5),
           "k must be an integer, got 1.5"),
          ("alpha-sequence", lambda d: alpha_sequence(2.5), "count must be an integer, got 2.5"),
          ("cvar-weights", lambda d: cvar_weights(2.5, 0.1), "n must be an integer, got 2.5"),
          ("gmd-weights", lambda d: gmd_weights(2.5), "n must be an integer, got 2.5"),
      ]),
    # the iteration and its curves
    refusal("iterate-max-iter",
            lambda d: run_iteration(analytic_quantile(AnalyticFamily.uniform01(), 64),
                                    "primal", max_iter=0),
            BadParameter, "max_iter must be at least 1",
            ["iterate", "--grid", "64", "--max-iter", "0"], 1, "error"),
    refusal("self-similarity-two-nodes",
            lambda d: self_similarity_residual(limit_curve("primal", 2)),
            BadParameter, "not enough interior nodes for the fit"),
    # a polyline that ends at its minimum keeps one point after truncation
    refusal("truncation-leaves-nothing",
            lambda d: truncate_generalized(GeneralizedLorenzPoints(
                np.array([0.5, 1.0]), np.array([-0.5, -1.0]), 1.0, None)),
            DegenerateAfterTruncation, "nothing left after truncation"),
    refusal("pareto-scale", lambda d: AnalyticFamily.pareto(0.0, 2.5),
            BadParameter, "pareto scale must be positive",
            ["iterate", "--start", "pareto:0,2.5"], 1, "error"),
    refusal("lognormal-sigma", lambda d: AnalyticFamily.lognormal_logscale(0.0, 0.0),
            BadParameter, "lognormal needs positive sigma",
            ["iterate", "--start", "lognormal-logscale:0,0"], 1, "error"),
    refusal("curve-malformed-row", lambda d: read_curve_csv(d / "bad_curve.csv"),
            ParseError, "bad_curve.csv:2: bad value 'abc' for value"),
]


@pytest.mark.parametrize("call, error, fragment, cli", REFUSALS)
def test_refusal(tmp_path, capsys, call, error, fragment, cli):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    with pytest.raises(error, match=re.escape(fragment)):
        call(tmp_path)
    if cli is None:
        return
    argv, code, prefix = cli
    out = tmp_path / "out.csv"
    argv = [arg.format(d=tmp_path) for arg in argv] + ["--out", str(out)]
    assert main(argv) == code == error.exit_code
    err = capsys.readouterr().err
    assert err.startswith(f"{prefix}: ") and fragment in err, err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cvar_runs_where_other_kinds_refuse_overflowing_sums(tmp_path):
    # cvar weighs the worst returns only, so its risk on big.csv is finite
    (tmp_path / "big.csv").write_text(FILES["big.csv"])
    out = tmp_path / "cvar.csv"
    argv = ["frontier", "--scenarios", str(tmp_path / "big.csv"), "--kind", "cvar"]
    assert main(argv + ["--n-points", "2", "--out", str(out)]) == 0
    assert out.exists()
