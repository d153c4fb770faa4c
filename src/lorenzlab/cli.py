"""Command-line front end.

Every file-producing subcommand also writes `<output>.run.json` next to each
output: the tool version plus the fully resolved options, so a result can be
reproduced from the sidecar alone. No timestamps or environment state go
into outputs; rerunning the same invocation produces byte-identical files.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .curves import (
    DEFAULT_GRID,
    AnalyticFamily,
    _open_text,
    analytic_quantile,
    empirical_quantile,
    format_float,
    write_curve_csv,
)
from .data import (
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
from .errors import BadParameter, DataError, LorenzLabError, UsageError
from .iterate import limit_curve, run_iteration, write_trace_csv
from .portfolio import efficient_frontier
from .risk import RiskMeasureConfig, TargetCurveSpec, measure_report

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_sidecar(out_path: str, subcommand: str, options: dict) -> None:
    sidecar = {
        "tool": "lorenzlab",
        "version": __version__,
        "subcommand": subcommand,
        "options": options,
    }
    with open(str(out_path) + ".run.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_start(text: str, log_scale: bool, grid: int):
    """Start grammar: name[:p1[,p2]] or sample:<path> (whitespace-separated
    finite values)."""
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    if log_scale and name != "lognormal":
        raise UsageError(f"--lognormal-log-scale needs a lognormal start, got {text!r}")
    try:
        if name == "sample":
            if not arg:
                raise BadParameter("sample start needs a path: sample:<path>")
            try:
                with _open_text(arg) as fh:
                    tokens = fh.read().split()
            except OSError as exc:
                raise DataError(f"cannot read sample file {arg!r}: {exc}") from exc
            try:
                samples = [float(tok) for tok in tokens]
            except ValueError as exc:
                raise DataError(f"{arg}: bad sample value ({exc})") from exc
            bad = [tok for tok, x in zip(tokens, samples) if not math.isfinite(x)]
            if bad:
                raise DataError(f"{arg}: non-finite sample value {bad[0]!r}")
            return empirical_quantile(samples, grid)
        params = [float(tok) for tok in arg.split(",")] if arg else []
        if name == "uniform01":
            family = AnalyticFamily.uniform01()
        elif name == "power":
            family = AnalyticFamily.power(*params)
        elif name in ("kumaraswamy-limit", "kumaraswamy_limit"):
            family = AnalyticFamily.kumaraswamy_limit()
        elif name == "pareto":
            family = AnalyticFamily.pareto(*params)
        elif name == "lognormal":
            if log_scale:
                family = AnalyticFamily.lognormal_logscale(*params)
            else:
                family = AnalyticFamily.lognormal(*params)
        elif name in ("point-mass", "point_mass"):
            family = AnalyticFamily.point_mass(*params)
        else:
            raise BadParameter(f"unknown start {name!r}")
    except TypeError:
        raise BadParameter(f"wrong number of parameters in start {text!r}") from None
    except ValueError as exc:
        raise BadParameter(f"bad start parameter in {text!r}: {exc}") from exc
    return analytic_quantile(family, grid)


# The target options that gs2's restricted shape fixes; only --beta-up is free.
_GS2_FIXED = ("beta_down", "down_kuma", "down_power", "up_kuma", "up_power")


def _target_from_args(ns, gs2: bool = False) -> TargetCurveSpec:
    """The target the options describe. For gs2 that is the gs2 shape at
    --beta-up unless the options spell out a gs2 shape themselves; an option
    that would move gs2 off its shape is a usage error."""
    if ns.identity_target:
        return TargetCurveSpec.diagonal()
    if gs2 and not (ns.beta_down == 0.0 and ns.up_kuma == 1.0 and ns.up_power == 0.0):
        defaults = TargetCurveSpec()
        moved = [
            "--" + name.replace("_", "-")
            for name in _GS2_FIXED
            if getattr(ns, name) != getattr(defaults, name)
        ]
        if moved:
            raise UsageError(
                f"gs2 keeps its restricted target shape, which {', '.join(moved)} "
                "would change: leave them out, or give the whole shape "
                "(--beta-down 0 --up-kuma 1 --up-power 0)"
            )
        return TargetCurveSpec.gs2_shape(ns.beta_up)
    return TargetCurveSpec(
        beta_down=ns.beta_down,
        beta_up=ns.beta_up,
        down_kuma=ns.down_kuma,
        down_power=ns.down_power,
        up_kuma=ns.up_kuma,
        up_power=ns.up_power,
    )


def _add_target_args(sub):
    sub.add_argument("--identity-target", action="store_true", help="diagonal target")
    defaults = TargetCurveSpec()
    sub.add_argument("--beta-down", type=float, default=defaults.beta_down)
    sub.add_argument("--beta-up", type=float, default=defaults.beta_up)
    sub.add_argument("--down-kuma", type=float, default=defaults.down_kuma)
    sub.add_argument("--down-power", type=float, default=defaults.down_power)
    sub.add_argument("--up-kuma", type=float, default=defaults.up_kuma)
    sub.add_argument("--up-power", type=float, default=defaults.up_power)


def _tail_fraction(ns) -> float:
    if ns.confidence is not None:
        if not 0.0 < ns.confidence < 1.0:
            raise UsageError("confidence must lie in (0, 1)")
        return 1.0 - ns.confidence
    return ns.tail_fraction


def _config_from_args(ns) -> RiskMeasureConfig:
    target = None
    if ns.kind in ("gs1", "gs2"):
        target = _target_from_args(ns, gs2=ns.kind == "gs2")
    return RiskMeasureConfig(
        kind=ns.kind, v=ns.v, tail_fraction=_tail_fraction(ns), target=target
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="lorenzlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    it = sub.add_parser("iterate", help="iterate a Lorenz operator from a start")
    it.add_argument("--mode", choices=("primal", "reflected"), default="primal")
    it.add_argument("--start", default="lognormal:0.5,0.2")
    it.add_argument("--lognormal-log-scale", action="store_true")
    it.add_argument("--grid", type=int, default=DEFAULT_GRID)
    it.add_argument("--max-iter", type=int, default=40)
    it.add_argument("--tol", type=float, default=1e-4)
    it.add_argument("--normalize", action="store_true")
    it.add_argument("--dump-curves", metavar="DIR", default=None)
    it.add_argument("--out", required=True)

    lm = sub.add_parser("limits", help="write a limit curve")
    lm.add_argument("--mode", choices=("primal", "reflected"), default="primal")
    lm.add_argument("--grid", type=int, default=DEFAULT_GRID)
    lm.add_argument("--out", required=True)

    ms = sub.add_parser("measure", help="risk measure of one scenario column")
    ms.add_argument("--scenarios", required=True)
    ms.add_argument("--column", default=None, help="ticker name (default: first)")
    ms.add_argument("--kind", required=True)
    ms.add_argument("--v", type=float, default=2.5)
    ms.add_argument("--tail-fraction", type=float, default=0.05)
    ms.add_argument("--confidence", type=float, default=None)
    _add_target_args(ms)
    ms.add_argument("--out", default=None)

    tc = sub.add_parser("target-curve", help="write a target curve")
    tc.add_argument("--grid", type=int, default=DEFAULT_GRID)
    _add_target_args(tc)
    tc.add_argument("--gs2", action="store_true", help="restricted absolute-value shape")
    tc.add_argument("--out", required=True)

    fr = sub.add_parser("frontier", help="efficient frontier over scenarios")
    fr.add_argument("--scenarios", required=True)
    fr.add_argument("--kind", required=True)
    fr.add_argument("--v", type=float, default=2.5)
    fr.add_argument("--tail-fraction", type=float, default=0.05)
    fr.add_argument("--confidence", type=float, default=None)
    _add_target_args(fr)
    fr.add_argument("--n-points", type=int, default=10)
    fr.add_argument("--diagnostics", default=None)
    fr.add_argument("--out", required=True)

    cl = sub.add_parser("clean", help="coverage-clean a price panel")
    cl.add_argument("--prices", required=True)
    cl.add_argument("--coverage", type=float, default=0.95)
    cl.add_argument("--take-every", type=int, default=None)
    cl.add_argument("--report", default=None)
    cl.add_argument("--out", required=True)

    rt = sub.add_parser("returns", help="returns from a cleaned panel")
    rt.add_argument("--prices", required=True)
    rt.add_argument("--frequency", choices=("daily", "weekly"), default="daily")
    rt.add_argument("--kind", choices=("simple", "log"), default="simple")
    rt.add_argument("--out", required=True)

    sm = sub.add_parser("simulate", help="copula-resample scenarios")
    sm.add_argument("--scenarios", required=True)
    sm.add_argument("--window", type=int, default=500, help="0 keeps all rows")
    sm.add_argument("--n", type=int, default=1000)
    sm.add_argument("--seed", type=int, default=0)
    sm.add_argument("--out", required=True)

    return parser


def _options_dict(ns) -> dict:
    return {
        key.replace("_", "-"): value
        for key, value in sorted(vars(ns).items())
        if key != "subcommand"
    }


def _cmd_iterate(ns) -> int:
    start = _parse_start(ns.start, ns.lognormal_log_scale, ns.grid)
    trace = run_iteration(
        start,
        ns.mode,
        max_iter=ns.max_iter,
        tol=ns.tol,
        normalize=ns.normalize,
    )
    write_trace_csv(trace, ns.out)
    _write_sidecar(ns.out, "iterate", _options_dict(ns))
    if ns.dump_curves is not None:
        directory = Path(ns.dump_curves)
        directory.mkdir(parents=True, exist_ok=True)
        for i, curve in enumerate(trace.curves, start=1):
            write_curve_csv(curve, directory / f"iteration_{i:03d}.csv")
    status = "converged" if trace.converged else "not converged"
    if trace.no_progress:
        status += " (stalled at grid resolution)"
    print(
        f"{trace.iterations} iterations, {status}, "
        f"final sup distance to limit {format_float(trace.sup_to_limit[-1])}"
    )
    return 0


def _cmd_limits(ns) -> int:
    write_curve_csv(limit_curve(ns.mode, ns.grid), ns.out)
    _write_sidecar(ns.out, "limits", _options_dict(ns))
    return 0


def _load_column(path, column):
    """The `--column` values (default: the first column), converted alone."""
    return read_scenarios_csv(path, 0 if column is None else column).values[:, 0]


def _cmd_measure(ns) -> int:
    config = _config_from_args(ns)
    samples = _load_column(ns.scenarios, ns.column)
    report = measure_report(samples, config)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if ns.out is not None:
        with open(ns.out, "w") as fh:
            fh.write(text)
        _write_sidecar(ns.out, "measure", _options_dict(ns))
    print(format_float(report["value"]))
    return 0


def _cmd_target_curve(ns) -> int:
    if ns.gs2 and ns.identity_target:
        raise UsageError("--gs2 and --identity-target name different targets: give one")
    spec = _target_from_args(ns, gs2=ns.gs2)
    write_curve_csv(spec.curve(ns.grid), ns.out)
    _write_sidecar(ns.out, "target-curve", _options_dict(ns))
    print(format_float(spec.integral()))
    return 0


# The FrontierPoint fields each `.diagnostics.json` entry holds, after "point".
_DIAGNOSTIC_KEYS = (
    "target", "mean", "risk", "certificate", "converged", "iterations",
    "residual_budget", "residual_target", "min_weight", "message",
)


def _cmd_frontier(ns) -> int:
    config = _config_from_args(ns)
    scen = read_scenarios_csv(ns.scenarios)
    result = efficient_frontier(
        scen.values, config, n_points=ns.n_points, tickers=scen.tickers
    )
    anchor = result.points[0]
    with open(ns.out, "w", newline="") as fh:
        fh.write(
            "target_return,risk,converged,"
            + ",".join(f"w_{t}" for t in result.tickers)
            + "\n"
        )
        for point in result.points:
            shown_target = point.mean if point.target is None else point.target
            cells = [
                format_float(shown_target),
                format_float(point.risk),
                "true" if point.converged else "false",
            ]
            cells += [format_float(w) for w in point.weights]
            fh.write(",".join(cells) + "\n")
    _write_sidecar(ns.out, "frontier", _options_dict(ns))
    diag_path = ns.diagnostics or ns.out + ".diagnostics.json"
    diagnostics = [
        {"point": i, **{key: getattr(point, key) for key in _DIAGNOSTIC_KEYS}}
        for i, point in enumerate(result.points, start=1)
    ]
    with open(diag_path, "w") as fh:
        json.dump(diagnostics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_sidecar(diag_path, "frontier", _options_dict(ns))
    if not anchor.converged:
        print("anchor point failed to converge", file=sys.stderr)
        return 3
    return 0


def _cmd_clean(ns) -> int:
    panel = load_price_panel(ns.prices)
    cleaned, report = clean_panel(panel, coverage=ns.coverage)
    if ns.take_every is not None:
        cleaned = take_every(cleaned, ns.take_every)
    write_prices_csv(cleaned, ns.out)
    _write_sidecar(ns.out, "clean", _options_dict(ns))
    report_path = ns.report or ns.out + ".report.json"
    with open(report_path, "w") as fh:
        json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_sidecar(report_path, "clean", _options_dict(ns))
    return 0


def _cmd_returns(ns) -> int:
    panel = load_price_panel(ns.prices)
    scen = compute_returns(panel, frequency=ns.frequency, kind=ns.kind)
    write_scenarios_csv(scen, ns.out)
    _write_sidecar(ns.out, "returns", _options_dict(ns))
    return 0


def _cmd_simulate(ns) -> int:
    scen = read_scenarios_csv(ns.scenarios)
    if ns.window:
        scen = historical_scenarios(scen, ns.window)
    sim = copula_simulate(scen, n=ns.n, seed=ns.seed)
    write_scenarios_csv(sim, ns.out)
    _write_sidecar(ns.out, "simulate", _options_dict(ns))
    return 0


_COMMANDS = {
    "iterate": _cmd_iterate,
    "limits": _cmd_limits,
    "measure": _cmd_measure,
    "target-curve": _cmd_target_curve,
    "frontier": _cmd_frontier,
    "clean": _cmd_clean,
    "returns": _cmd_returns,
    "simulate": _cmd_simulate,
}


_PREFIXES = {1: "error", 2: "data error", 3: "numeric failure"}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return _COMMANDS[ns.subcommand](ns)
    except LorenzLabError as exc:
        print(f"{_PREFIXES[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
