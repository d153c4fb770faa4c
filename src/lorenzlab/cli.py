"""Command-line front end.

Every file-producing subcommand also writes `<output>.run.json` next to each
output (but not next to the curves of `iterate --dump-curves`): the tool
version plus the fully resolved options, so a result can be reproduced from
the sidecar alone. No timestamps or environment state go into outputs;
rerunning the same invocation produces byte-identical files.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

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
from .errors import (
    BadParameter,
    DataError,
    DegenerateColumnWarning,
    LorenzLabError,
    NumericError,
    UsageError,
)
from .iterate import _MODES, limit_curve, run_iteration, write_trace_csv
from .portfolio import efficient_frontier
from .risk import RiskMeasureConfig, TargetCurveSpec, measure_report

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_json(path, record) -> None:
    """The one JSON format of every file the CLI writes: indent 2, sorted
    keys, a trailing newline."""
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_sidecar(out_path, ns) -> None:
    """`<out_path>.run.json`: the version, the subcommand and every resolved
    option of the parsed command line `ns`."""
    options = {k.replace("_", "-"): v for k, v in vars(ns).items() if k != "subcommand"}
    sidecar = {"tool": "lorenzlab", "version": __version__, "subcommand": ns.subcommand}
    _write_json(str(out_path) + ".run.json", {**sidecar, "options": options})


def _parse_start(text: str, grid: int):
    """Start grammar: name[:p1[,p2]] or sample:<path> (whitespace-separated
    finite values). Each name is the AnalyticFamily constructor of that name,
    with '-' read as '_'."""
    name, _, arg = text.partition(":")
    name = name.strip().lower()
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
        constructor = name.replace("-", "_")
        if not isinstance(vars(AnalyticFamily).get(constructor), classmethod):
            raise BadParameter(f"unknown start {name!r}")
        family = getattr(AnalyticFamily, constructor)(*params)
    except TypeError:
        raise BadParameter(f"wrong number of parameters in start {text!r}") from None
    except ValueError as exc:
        raise BadParameter(f"bad start parameter in {text!r}: {exc}") from exc
    return analytic_quantile(family, grid)


_TARGET_FIELDS = tuple(f.name for f in fields(TargetCurveSpec))
# The target options that gs2's restricted shape fixes; only --beta-up is free.
_GS2_FIXED = tuple(name for name in _TARGET_FIELDS if name != "beta_up")


def _target_from_args(ns, base: TargetCurveSpec) -> TargetCurveSpec:
    """The target the run uses: `replace(base, **given)`, where `base` is the
    target the kind fixes and `given` the target options on the command line.
    A base in gs2's shape fixes all but beta_up: a given option that would
    change a fixed field is a usage error, one that restates it is not. The
    target's fields go back into `ns`, so the sidecar records them."""
    given = {name: getattr(ns, name) for name in _TARGET_FIELDS if getattr(ns, name) is not None}
    fixed = _GS2_FIXED if base.is_gs2_shape else ()
    moved = ["--" + name.replace("_", "-") for name in fixed
             if name in given and given[name] != getattr(base, name)]
    if moved:
        raise UsageError(
            f"gs2 keeps its restricted target shape, which {', '.join(moved)} would change: "
            "leave them out, or give the whole shape (--beta-down 0 --up-kuma 1 --up-power 0)"
        )
    target = replace(base, **given)
    vars(ns).update(asdict(target))
    return target


def _add_target_args(sub):
    for name in _TARGET_FIELDS:
        sub.add_argument("--" + name.replace("_", "-"), type=float, default=None)


def _config_from_args(ns) -> RiskMeasureConfig:
    target = RiskMeasureConfig(ns.kind).target
    if target is not None:
        target = _target_from_args(ns, target)
    else:  # a kind that reads no target records gs1's defaults for the target options
        defaults = asdict(TargetCurveSpec())
        vars(ns).update({name: defaults[name] for name in defaults if getattr(ns, name) is None})
    return RiskMeasureConfig(kind=ns.kind, v=ns.v, tail_fraction=ns.tail_fraction, target=target)


def build_parser() -> _Parser:
    parser = _Parser(prog="lorenzlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    it = sub.add_parser("iterate", help="iterate a Lorenz operator from a start")
    it.add_argument("--mode", choices=_MODES, default="primal")
    it.add_argument("--start", default="lognormal:0.5,0.2")
    it.add_argument("--grid", type=int, default=DEFAULT_GRID)
    it.add_argument("--max-iter", type=int, default=40)
    it.add_argument("--tol", type=float, default=1e-4)
    it.add_argument("--normalize", action="store_true")
    it.add_argument("--dump-curves", metavar="DIR", default=None)
    it.add_argument("--out", required=True)

    lm = sub.add_parser("limits", help="write a limit curve")
    lm.add_argument("--mode", choices=_MODES, default="primal")
    lm.add_argument("--grid", type=int, default=DEFAULT_GRID)
    lm.add_argument("--out", required=True)

    ms = sub.add_parser("measure", help="risk measure of one scenario column")
    ms.add_argument("--scenarios", required=True)
    ms.add_argument("--column", default=None, help="ticker name (default: first)")
    ms.add_argument("--kind", required=True)
    ms.add_argument("--v", type=float, default=2.5)
    ms.add_argument("--tail-fraction", type=float, default=0.05)
    _add_target_args(ms)
    ms.add_argument("--out", default=None)

    tc = sub.add_parser("target-curve", help="write a target curve")
    tc.add_argument("--grid", type=int, default=DEFAULT_GRID)
    _add_target_args(tc)
    tc.add_argument("--out", required=True)

    fr = sub.add_parser("frontier", help="efficient frontier over scenarios")
    fr.add_argument("--scenarios", required=True)
    fr.add_argument("--kind", required=True)
    fr.add_argument("--v", type=float, default=2.5)
    fr.add_argument("--tail-fraction", type=float, default=0.05)
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


def _cmd_iterate(ns) -> None:
    start = _parse_start(ns.start, ns.grid)
    trace = run_iteration(
        start,
        ns.mode,
        max_iter=ns.max_iter,
        tol=ns.tol,
        normalize=ns.normalize,
    )
    write_trace_csv(trace, ns.out)
    _write_sidecar(ns.out, ns)
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


def _cmd_limits(ns) -> None:
    write_curve_csv(limit_curve(ns.mode, ns.grid), ns.out)
    _write_sidecar(ns.out, ns)


def _load_column(path, column):
    """The `--column` values (default: the first column), converted alone."""
    return read_scenarios_csv(path, 0 if column is None else column).values[:, 0]


def _cmd_measure(ns) -> None:
    config = _config_from_args(ns)
    samples = _load_column(ns.scenarios, ns.column)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        report = measure_report(samples, config)
    bad = [key for key, x in report.items() if isinstance(x, float) and not math.isfinite(x)]
    if bad:
        raise NumericError(f"{ns.kind} report is not finite: {bad[0]} = {report[bad[0]]!r}")
    if ns.out is not None:
        _write_json(ns.out, report)
        _write_sidecar(ns.out, ns)
    print(format_float(report["value"]))


def _cmd_target_curve(ns) -> None:
    spec = _target_from_args(ns, TargetCurveSpec())
    write_curve_csv(spec.curve(ns.grid), ns.out)
    _write_sidecar(ns.out, ns)
    print(format_float(spec.integral()))


def _cmd_frontier(ns) -> None:
    config = _config_from_args(ns)
    scen = read_scenarios_csv(ns.scenarios)
    result = efficient_frontier(
        scen.values, config, n_points=ns.n_points, tickers=scen.tickers
    )
    # An overflowed point is refused before anything is written, as JSON has
    # no Infinity. A NaN risk is the one non-finite number allowed: it marks a
    # point whose risk is undefined at the solution, and its message says so.
    for i, point in enumerate(result.points, start=1):
        numbers = {f.name: getattr(point, f.name) for f in fields(point)}
        numbers |= {f"w_{t}": w for t, w in zip(result.tickers, point.weights.tolist())}
        bad = [key for key, x in numbers.items() if isinstance(x, float) and not math.isfinite(x)
               and not (key == "risk" and math.isnan(x))]
        if bad:
            raise NumericError(
                f"{ns.kind} frontier point {i} is not finite: {bad[0]} = {numbers[bad[0]]!r}"
            )
    with open(ns.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["target_return", "risk", "converged"] + [f"w_{t}" for t in result.tickers]
        )
        for point in result.points:
            shown_target = point.mean if point.target is None else point.target
            converged = "true" if point.converged else "false"
            cells = [format_float(shown_target), format_float(point.risk), converged]
            writer.writerow(cells + [format_float(w) for w in point.weights])
    _write_sidecar(ns.out, ns)
    diagnostics = [
        {f.name: getattr(point, f.name) for f in fields(point) if f.name != "weights"}
        | {"point": i}
        for i, point in enumerate(result.points, start=1)
    ]
    diag_path = ns.diagnostics or ns.out + ".diagnostics.json"
    _write_json(diag_path, diagnostics)
    _write_sidecar(diag_path, ns)
    if not result.points[0].converged:
        raise NumericError("anchor point failed to converge")


def _cmd_clean(ns) -> None:
    panel = load_price_panel(ns.prices)
    cleaned, report = clean_panel(panel, coverage=ns.coverage)
    if ns.take_every is not None:
        cleaned = take_every(cleaned, ns.take_every)
    write_prices_csv(cleaned, ns.out)
    _write_sidecar(ns.out, ns)
    report_path = ns.report or ns.out + ".report.json"
    _write_json(report_path, report.as_dict())
    _write_sidecar(report_path, ns)


def _cmd_returns(ns) -> None:
    panel = load_price_panel(ns.prices)
    scen = compute_returns(panel, frequency=ns.frequency, kind=ns.kind)
    write_scenarios_csv(scen, ns.out)
    _write_sidecar(ns.out, ns)


def _cmd_simulate(ns) -> None:
    scen = read_scenarios_csv(ns.scenarios)
    if ns.window:
        scen = historical_scenarios(scen, ns.window)
    sim = copula_simulate(scen, n=ns.n, seed=ns.seed)
    write_scenarios_csv(sim, ns.out)
    _write_sidecar(ns.out, ns)


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


def _format_warning(python_format):
    """A `warnings.formatwarning` that writes a lorenzlab warning as one
    `warning: <message>` line and leaves any other to `python_format`."""

    def format_warning(message, category, *rest):
        if issubclass(category, DegenerateColumnWarning):
            return f"warning: {message}\n"
        return python_format(message, category, *rest)

    return format_warning


def main(argv=None) -> int:
    """Run one subcommand; the only place a failure becomes an exit code. A
    LorenzLabError exits with its class's code, an OSError as a DataError.
    Warnings pass the interpreter's filters as usual; only their text is
    `_format_warning`'s while the subcommand runs."""
    parser = build_parser()
    saved = warnings.formatwarning
    warnings.formatwarning = _format_warning(saved)
    try:
        ns = parser.parse_args(argv)
        _COMMANDS[ns.subcommand](ns)
    except (LorenzLabError, OSError) as exc:
        code = getattr(exc, "exit_code", DataError.exit_code)
        print(f"{_PREFIXES[code]}: {exc}", file=sys.stderr)
        return code
    finally:
        warnings.formatwarning = saved
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
