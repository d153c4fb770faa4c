"""Refusals of bad input and bad arguments, one table row each: the library
call, its error class and a fragment of its message, and, where a command
reaches the same refusal, the command's exit code and stderr prefix."""

import re

import numpy as np
import pytest

from lorenzlab import (
    AnalyticFamily,
    analytic_quantile,
    compute_returns,
    copula_simulate,
    cvar_weights,
    efficient_frontier,
    gmd_pairwise,
    gmd_weights,
    limit_curve,
    load_price_panel,
    min_risk,
    portfolio_returns,
    read_scenarios_csv,
    run_iteration,
    self_similarity_residual,
    truncate_generalized,
)
from lorenzlab.cli import _cmd_frontier, _cmd_measure, _parse_start, build_parser, main
from lorenzlab.curves import read_curve_csv
from lorenzlab.errors import (
    BadParameter,
    DataError,
    DegenerateAfterTruncation,
    EmptySample,
    InsufficientHistory,
    NonPositiveMeanRegion,
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
    "bad_curve.csv": "u,value\n0,abc\n",
    "price_jump.csv": "date,A\n2024-01-01,1e-300\n2024-01-02,1e300\n",
    "price_drop.csv": "date,A\n2024-01-01,1e300\n2024-01-02,1e-300\n",
}
VAR = RiskMeasureConfig("variance")


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
            DataError, "bad sample value",
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
            ParseError, "empty scenario file",
            ["measure", "--scenarios", "{d}/empty.csv", "--kind", "mad"], 2, "data error"),
    refusal("scenarios-date-only", lambda d: read_scenarios_csv(d / "date_only.csv"),
            ParseError, "no ticker columns",
            ["measure", "--scenarios", "{d}/date_only.csv", "--kind", "mad"], 2, "data error"),
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
            lambda d: portfolio_returns([[np.nan, 0.01], [0.02, 0.03]], [0.5, 0.5]),
            BadParameter, "scenarios must be finite"),
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
    refusal("portfolio-mean-overflow",
            lambda d: min_risk(read_scenarios_csv(d / "overflow_mean.csv").values,
                               RiskMeasureConfig("mad")),
            NumericError, "scenario means are not finite: the scenarios overflow",
            marks=[pytest.mark.filterwarnings("error::RuntimeWarning")]),
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
            ParseError, ":2: malformed row"),
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
