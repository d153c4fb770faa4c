import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenzlab import (
    MEASURE_KINDS,
    AnalyticFamily,
    __version__,
    ScenarioMatrix,
    TargetCurveSpec,
    analytic_quantile,
    copula_simulate,
    efficient_frontier,
    empirical_quantile,
    generalized_lorenz,
    historical_scenarios,
    limit_curve,
    read_scenarios_csv,
    run_iteration,
    truncate_generalized,
    write_scenarios_csv,
    write_trace_csv,
)
from lorenzlab.cli import _format_warning, _parse_start, main
from lorenzlab.curves import format_float, read_curve_csv, write_curve_csv
from lorenzlab.errors import BadParameter, BadSpec, DegenerateColumnWarning
from lorenzlab.risk import RiskMeasureConfig, measure_value
from lorenzlab.rng import Xoshiro256pp


def scenario_file(tmp_path, t=60, n=3, seed=11):
    rng = Xoshiro256pp(seed)
    z = np.array([[rng.normal() for _ in range(n)] for _ in range(t)])
    mu = np.linspace(0.01, 0.03, n)
    sig = np.linspace(0.02, 0.05, n)
    scen = ScenarioMatrix(
        values=mu + sig * z, tickers=[f"A{k}" for k in range(n)]
    )
    path = tmp_path / "scen.csv"
    write_scenarios_csv(scen, path)
    return path, scen


def read_sidecar(out_path):
    with open(str(out_path) + ".run.json") as fh:
        return json.load(fh)


def test_limits_writes_grid_and_sidecar(tmp_path):
    out = tmp_path / "limit.csv"
    assert main(["limits", "--mode", "primal", "--grid", "1024", "--out", str(out)]) == 0
    curve = read_curve_csv(out)
    assert curve.values.shape == (1025,)
    assert np.allclose(curve.values, limit_curve("primal", 1024).values)
    sidecar = read_sidecar(out)
    assert sidecar["tool"] == "lorenzlab"
    assert sidecar["version"] == "0.1.0"
    assert sidecar["subcommand"] == "limits"
    assert sidecar["options"]["grid"] == 1024


def test_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "limit.csv"
    argv = ["limits", "--grid", "256", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes(), (tmp_path / "limit.csv.run.json").read_bytes()
    assert main(argv) == 0
    second = out.read_bytes(), (tmp_path / "limit.csv.run.json").read_bytes()
    assert first == second


def test_iterate_default_start_approaches_the_limit(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["iterate", "--out", str(out)]) == 0
    assert "iterations" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    sups = [float(r["sup_to_limit"]) for r in rows]
    assert min(sups[:15]) < 0.01


def test_iterate_reflected_on_a_support_below_resolution_is_a_usage_error(tmp_path, capsys):
    argv = ["iterate", "--mode", "reflected", "--start", "point_mass:1e-17", "--grid", "64",
            "--max-iter", "2", "--out", str(tmp_path / "trace.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: support reaches only 1e-17")
    assert main(argv[:3] + ["--normalize"] + argv[3:]) == 0


def test_iterate_reflected_on_a_support_above_one_is_the_same_usage_error(tmp_path, capsys):
    argv = ["iterate", "--mode", "reflected", "--start", "pareto:1,2.5", "--grid", "64",
            "--max-iter", "2", "--out", str(tmp_path / "trace.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: support reaches ") and "normalize=True" in err
    assert not (tmp_path / "trace.csv").exists()
    assert main(argv[:3] + ["--normalize"] + argv[3:]) == 0


def run_module(module, *args, cwd, flags=()):
    """`python [flags] -m module args` in a fresh interpreter that finds src/
    first."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, *flags, "-m", module, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_python_m_lorenzlab_cli_runs_main(tmp_path):
    out = tmp_path / "trace.csv"
    argv = ["iterate", "--mode", "reflected", "--start", "pareto:1,2.5", "--grid", "64",
            "--max-iter", "2", "--out", str(out)]
    result = run_module("lorenzlab.cli", *argv, cwd=tmp_path)
    assert result.returncode == 1
    assert result.stderr.startswith("error: support reaches ")
    assert not out.exists()
    result = run_module("lorenzlab.cli", *argv[:3], "--normalize", *argv[3:], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    start = analytic_quantile(AnalyticFamily.pareto(1.0, 2.5), 64)
    assert out.read_bytes() == library_trace_bytes(tmp_path, start, "reflected", 2, 1e-4,
                                                   normalize=True)


def test_python_m_lorenzlab_is_the_command_line(tmp_path):
    result = run_module("lorenzlab", "--version", cwd=tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (0, f"{__version__}\n", "")
    result = run_module("lorenzlab", "no-such-command", cwd=tmp_path)
    assert result.returncode == 1 and result.stderr.startswith("error: ")


def test_iterate_dump_curves(tmp_path):
    out = tmp_path / "trace.csv"
    dump = tmp_path / "curves"
    code = main(
        [
            "iterate",
            "--start",
            "uniform01",
            "--grid",
            "512",
            "--max-iter",
            "5",
            "--tol",
            "0.0",
            "--dump-curves",
            str(dump),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert sorted(p.name for p in dump.iterdir()) == [
        f"iteration_{i:03d}.csv" for i in range(1, 6)
    ]


@pytest.mark.parametrize("kind", MEASURE_KINDS)
def test_measure_prints_the_value(tmp_path, capsys, kind):
    path, scen = scenario_file(tmp_path)
    config = RiskMeasureConfig(kind)
    assert main(["measure", "--scenarios", str(path), "--kind", kind]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == format_float(measure_value(scen.values[:, 0], config))

    out = tmp_path / "report.json"
    code = main(
        [
            "measure",
            "--scenarios",
            str(path),
            "--column",
            "A2",
            "--kind",
            kind,
            "--out",
            str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["value"] == pytest.approx(measure_value(scen.values[:, 2], config))
    assert (tmp_path / "report.json.run.json").exists()

    assert main(["measure", "--scenarios", str(path), "--column", "Z", "--kind", "mad"]) == 1


def test_measure_confidence_is_one_minus_tail(tmp_path, capsys):
    # a confidence c is spelled --tail-fraction 1 - c; --confidence is gone
    path, scen = scenario_file(tmp_path)
    base = ["measure", "--scenarios", str(path), "--kind", "cvar"]
    assert main(base + ["--tail-fraction", "0.4"]) == 0
    config = RiskMeasureConfig(kind="cvar", tail_fraction=0.4)
    assert capsys.readouterr().out == format_float(measure_value(scen.values[:, 0], config)) + "\n"
    assert main(base + ["--confidence", "0.6"]) == 1
    assert capsys.readouterr().err == "error: unrecognized arguments: --confidence 0.6\n"


def test_target_curve_gs2_shape(tmp_path, capsys):
    # gs2's shape is spelled out by its three fixed options; --gs2 is gone
    out, library = tmp_path / "target.csv", tmp_path / "library.csv"
    argv = ["target-curve", "--grid", "512", "--out", str(out)]
    assert main(argv + ["--beta-down", "0", "--up-kuma", "1", "--up-power", "0"]) == 0
    spec = TargetCurveSpec.gs2_shape()
    assert capsys.readouterr().out == format_float(spec.integral()) + "\n"
    write_curve_csv(spec.curve(512), library)
    assert out.read_bytes() == library.read_bytes()
    out.unlink()
    assert main(argv + ["--gs2"]) == 1
    assert capsys.readouterr().err == "error: unrecognized arguments: --gs2\n"
    assert not out.exists()


def test_frontier_csv_and_diagnostics(tmp_path):
    path, scen = scenario_file(tmp_path)
    out = tmp_path / "frontier.csv"
    code = main(
        [
            "frontier",
            "--scenarios",
            str(path),
            "--kind",
            "variance",
            "--n-points",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == ["target_return", "risk", "converged", "w_A0", "w_A1", "w_A2"]
    assert len(rows) == 3
    assert all(r[2] == "true" for r in rows)
    targets = [float(r[0]) for r in rows]
    assert targets == sorted(targets)
    diagnostics = json.loads((tmp_path / "frontier.csv.diagnostics.json").read_text())
    assert [d["point"] for d in diagnostics] == [1, 2, 3]
    assert all(d["residual_budget"] <= 1e-8 for d in diagnostics)
    assert all(d["certificate"] <= 1e-9 for d in diagnostics)


def test_clean_subcommand_and_empty_panel(tmp_path):
    prices = tmp_path / "prices.csv"
    prices.write_text(
        "date,A,B\n"
        "2024-01-01,1.0,2.0\n"
        "2024-01-02,1.1,\n"
        "2024-01-03,1.2,2.2\n"
    )
    out = tmp_path / "clean.csv"
    assert main(["clean", "--prices", str(prices), "--out", str(out)]) == 0
    report = json.loads((tmp_path / "clean.csv.report.json").read_text())
    assert report["dropped_tickers"] == [{"ticker": "B", "coverage": 2 / 3}]
    assert report["kept"] == {"T": 3, "N": 1}

    bare = tmp_path / "bare.csv"
    bare.write_text("date,A,B\n2024-01-01,1.0,\n2024-01-02,,2.0\n")
    assert main(["clean", "--prices", str(bare), "--out", str(out)]) == 2


def test_returns_then_simulate_round_trip(tmp_path):
    prices = tmp_path / "prices.csv"
    lines = ["date,A,B"]
    for i in range(12):
        lines.append(f"2024-03-{i + 1:02d},{100 + i},{50 + 2 * i}")
    prices.write_text("\n".join(lines) + "\n")
    rets = tmp_path / "returns.csv"
    assert main(["returns", "--prices", str(prices), "--kind", "log", "--out", str(rets)]) == 0

    sim = tmp_path / "sim.csv"
    argv = [
        "simulate",
        "--scenarios",
        str(rets),
        "--window",
        "0",
        "--n",
        "200",
        "--seed",
        "5",
        "--out",
        str(sim),
    ]
    assert main(argv) == 0
    first = sim.read_bytes()
    assert main(argv) == 0
    assert sim.read_bytes() == first
    argv[argv.index("5")] = "6"
    assert main(argv) == 0
    assert sim.read_bytes() != first


def test_version_and_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"

    assert main(["no-such-command"]) == 1
    assert main(["iterate", "--grid", "many", "--out", "x.csv"]) == 1
    out = tmp_path / "t.csv"
    assert main(["iterate", "--start", "cauchy", "--out", str(out)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", ["limits", "target-curve"])
def test_bad_grid_is_a_usage_error(tmp_path, capsys, command):
    assert main([command, "--grid", "-3", "--out", str(tmp_path / "c.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_grid_below_one_segment_is_bad_parameter():
    points = generalized_lorenz([3.0, -1.0])
    for build in (
        lambda: limit_curve("primal", 0),
        lambda: TargetCurveSpec().curve(0),
        lambda: truncate_generalized(points, grid_size=0),
        lambda: empirical_quantile([1.0, 2.0], 0),
    ):
        with pytest.raises(BadParameter, match="grid_size must be at least 1"):
            build()


def test_missing_input_file_is_a_data_error(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert main(["measure", "--scenarios", str(missing), "--kind", "mad"]) == 2
    assert "data error" in capsys.readouterr().err


def nonfinite_scenario_file(tmp_path, cell):
    path, _ = scenario_file(tmp_path)
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[2] = cell
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_measure_rejects_nonfinite_cells(tmp_path, capsys, cell):
    path = nonfinite_scenario_file(tmp_path, cell)
    assert main(["measure", "--scenarios", str(path), "--kind", "variance"]) == 2
    assert f"{path}:6: non-finite value" in capsys.readouterr().err


def test_frontier_rejects_nonfinite_cells(tmp_path, capsys):
    path = nonfinite_scenario_file(tmp_path, "nan")
    out = tmp_path / "frontier.csv"
    argv = ["frontier", "--scenarios", str(path), "--kind", "mad", "--out", str(out)]
    assert main(argv) == 2
    assert f"{path}:6: non-finite value nan for A2" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_nonfinite_cells(tmp_path, capsys):
    path = nonfinite_scenario_file(tmp_path, "inf")
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--scenarios", str(path), "--window", "0", "--out", str(out)]
    assert main(argv) == 2
    assert f"{path}:6: non-finite value inf for A2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "18446744073709551617"])
def test_simulate_rejects_a_seed_outside_64_bits(tmp_path, capsys, seed):
    path, _ = scenario_file(tmp_path)
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--scenarios", str(path), "--window", "0", "--n", "20", "--seed", seed,
            "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: seed must lie in [0, 2**64), got {seed}\n"
    assert not out.exists()


def test_simulate_prints_a_constant_column_warning_as_one_line(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("A,FLAT\n0.1,0.2\n0.3,0.2\n0.2,0.2\n")
    argv = ["simulate", "--scenarios", str(path), "--window", "0", "--n", "20",
            "--out", str(tmp_path / "sim.csv")]
    result = run_module("lorenzlab", *argv, cwd=tmp_path)
    assert result.returncode == 0
    assert result.stderr == (
        "warning: constant columns ['FLAT']: rank correlations undefined, using 0\n"
    )
    # the interpreter's filters still apply: ignored, or raised as an error
    assert run_module("lorenzlab", *argv, cwd=tmp_path, flags=["-W", "ignore"]).stderr == ""
    failed = run_module("lorenzlab", *argv, cwd=tmp_path, flags=["-W", "error::UserWarning"])
    assert failed.returncode != 0 and "DegenerateColumnWarning" in failed.stderr


def test_only_lorenzlabs_warnings_are_reworded():
    python_format = warnings.formatwarning
    format_warning = _format_warning(python_format)
    args = ("constant columns ['FLAT']", DegenerateColumnWarning, "data.py", 7, "")
    assert format_warning(*args) == "warning: constant columns ['FLAT']\n"
    foreign = ("overflow encountered", RuntimeWarning, "mod.py", 7, "")
    assert format_warning(*foreign) == python_format(*foreign)
    assert python_format(*foreign) == "mod.py:7: RuntimeWarning: overflow encountered\n"


# -- odd and malformed cells --------------------------------------------------
#
# The odd cell sits in column A2 of line 6, which `measure` (first column by
# default) does not convert; every command still checks it. The messages are
# the one table reader's (`curves._read_table`), so all three commands must
# fail with the same text. A "cells" line has a cell more than the header: 3
# tickers, and a date if the file has dates.

MALFORMED = {
    "": "bad value '' for A2",
    "1e": "bad value '1e' for A2",
    "--1": "bad value '--1' for A2",
    "1.2.3": "bad value '1.2.3' for A2",
    "1e400": "non-finite value inf for A2",
    "nan": "non-finite value nan for A2",
    "cells": "expected {width} cells, got {got}",
    "date": "bad date '2024-13-01'",
}
# odd spellings csv and float accept, with the plain spelling of their
# value (None: the file as written)
ACCEPTED = {" 0.5": "0.5", "1_0": "10", '"0.5"': "0.5", "blank row": None}


def odd_scenario_file(tmp_path, dated, cell, name="scen.csv"):
    """`scenario_file`'s matrix (with dates from 2024-01-01 if `dated`),
    with `cell` put into line 6; "cells" adds a cell, "date" spoils the
    date, "blank row" inserts an empty line before line 6, and None leaves
    the file as written."""
    _, scen = scenario_file(tmp_path)
    if dated:
        scen.dates = [date(2024, 1, 1) + timedelta(days=i) for i in range(len(scen.values))]
    path = tmp_path / name
    write_scenarios_csv(scen, path)
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    if cell is None:
        pass
    elif cell == "blank row":
        lines.insert(5, "")
    elif cell == "cells":
        lines[5] += ",0.5"
    elif cell == "date":
        lines[5] = ",".join(["2024-13-01"] + cells[1:])
    else:
        lines[5] = ",".join(cells[:-1] + [cell])
    path.write_text("\n".join(lines) + "\n")
    return path


def command_argv(command, path, out):
    if command == "measure":
        return ["measure", "--scenarios", str(path), "--kind", "variance"]
    if command == "frontier":
        return ["frontier", "--scenarios", str(path), "--kind", "variance",
                "--n-points", "2", "--out", str(out)]
    return ["simulate", "--scenarios", str(path), "--window", "0", "--n", "50",
            "--out", str(out)]


@pytest.mark.parametrize("command", ["measure", "frontier", "simulate"])
@pytest.mark.parametrize(
    "dated, cell",
    [(dated, cell) for dated in (True, False) for cell in MALFORMED if dated or cell != "date"],
)
def test_malformed_cells_fail_the_same_way_everywhere(tmp_path, capsys, command, dated, cell):
    path = odd_scenario_file(tmp_path, dated, cell)
    out = tmp_path / "out.csv"
    assert main(command_argv(command, path, out)) == 2
    message = MALFORMED[cell].format(width=3 + dated, got=4 + dated)
    assert capsys.readouterr().err == f"data error: {path}:6: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["measure", "frontier", "simulate"])
@pytest.mark.parametrize("dated", [True, False], ids=["dated", "undated"])
@pytest.mark.parametrize("cell", list(ACCEPTED))
def test_odd_cells_that_csv_accepts_keep_their_values(tmp_path, capsys, command, dated, cell):
    odd = odd_scenario_file(tmp_path, dated, cell, "odd.csv")
    plain = odd_scenario_file(tmp_path, dated, ACCEPTED[cell], "plain.csv")
    outputs = []
    for path in (odd, plain):
        out = tmp_path / f"{path.stem}-out.csv"
        argv = command_argv(command, path, out)
        if command == "measure":
            argv += ["--column", "A2"]
        assert main(argv) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes() if out.exists() else None))
    assert outputs[0] == outputs[1]


# -- gs2 target options -------------------------------------------------------


def test_gs2_rejects_target_options_that_leave_its_shape(tmp_path, capsys):
    path, _ = scenario_file(tmp_path)
    base = ["measure", "--scenarios", str(path), "--kind", "gs2"]
    assert main(base + ["--beta-down", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: gs2 keeps its restricted target shape, which --beta-down ")
    assert main(base + ["--up-kuma", "0.7", "--up-power", "0.3"]) == 1
    assert "which --up-kuma, --up-power would change:" in capsys.readouterr().err
    out = tmp_path / "frontier.csv"
    argv = ["frontier", "--scenarios", str(path), "--kind", "gs2", "--down-kuma", "0.5",
            "--down-power", "0.5", "--out", str(out)]
    assert main(argv) == 1
    assert "which --down-kuma, --down-power would change:" in capsys.readouterr().err
    assert not out.exists()
    # target-curve fixes no field: --gs2 is gone, so gs2's shape is spelled out
    argv = ["target-curve", "--gs2", "--up-power", "0.3", "--out", str(tmp_path / "t.csv")]
    assert main(argv) == 1
    assert "error: unrecognized arguments: --gs2" in capsys.readouterr().err
    # gs1 reads every target option, as before
    assert main(["measure", "--scenarios", str(path), "--kind", "gs1", "--up-power", "0.3"]) == 1
    assert "up-tail weights" in capsys.readouterr().err


@pytest.mark.parametrize(
    "options, beta_up",
    [
        ([], 0.75),
        (["--beta-up", "0.6"], 0.6),
        # checked as a gs1 target, these defaults made --beta-up 0.2 a bad spec
        (["--beta-up", "0.2"], 0.2),
        (["--beta-down", "0", "--up-kuma", "1", "--up-power", "0"], 0.75),
        (["--beta-down", "0", "--up-kuma", "1", "--up-power", "0", "--beta-up", "0.6"], 0.6),
    ],
)
def test_gs2_uses_its_shape_at_beta_up(tmp_path, capsys, options, beta_up):
    path, scen = scenario_file(tmp_path)
    argv = ["measure", "--scenarios", str(path), "--kind", "gs2"] + options
    assert main(argv) == 0
    config = RiskMeasureConfig(kind="gs2", target=TargetCurveSpec.gs2_shape(beta_up))
    assert capsys.readouterr().out.strip() == format_float(measure_value(scen.values[:, 0], config))


# -- target resolution ---------------------------------------------------------

DIAGONAL = TargetCurveSpec(beta_down=0.0, beta_up=1.0)
TARGET_FIELDS = ("beta_down", "beta_up", "down_kuma", "down_power", "up_kuma", "up_power")
GS2_FIXED = tuple(name for name in TARGET_FIELDS if name != "beta_up")
# Each command prefix with the target it starts from and the fields that
# target fixes.
TARGET_BASES = [
    (["measure", "--kind", "gs1"], TargetCurveSpec(), ()),
    (["measure", "--kind", "gs2"], TargetCurveSpec.gs2_shape(), GS2_FIXED),
    (["target-curve"], TargetCurveSpec(), ()),
]
# the values an option is drawn from, besides its base's own
OTHER_TARGETS = [
    TargetCurveSpec(),
    TargetCurveSpec.gs2_shape(0.6),
    DIAGONAL,
    TargetCurveSpec(0.1, 0.6, 0.5, 0.5, 0.6, 0.4),
]


@pytest.fixture(scope="module")
def target_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("targets")
    scenario_file(directory)
    return directory


@st.composite
def target_runs(draw):
    prefix, base, fixed = draw(st.sampled_from(TARGET_BASES))
    given = {}
    for name in TARGET_FIELDS:
        if draw(st.booleans()):
            values = [getattr(base, name)] + [getattr(spec, name) for spec in OTHER_TARGETS]
            given[name] = draw(st.sampled_from(values))
    return prefix, base, fixed, given


@given(target_runs())
@settings(max_examples=150, deadline=None)
def test_a_given_target_option_is_used_or_refused(target_dir, run):
    prefix, base, fixed, given = run
    out = target_dir / ("m.json" if prefix[0] == "measure" else "t.csv")
    out.unlink(missing_ok=True)
    argv = list(prefix) + ["--out", str(out)]
    if prefix[0] == "measure":
        argv += ["--scenarios", str(target_dir / "scen.csv")]
    else:
        argv += ["--grid", "64"]
    for name, value in given.items():
        argv += ["--" + name.replace("_", "-"), repr(value)]
    printed, err = io.StringIO(), io.StringIO()
    with redirect_stdout(printed), redirect_stderr(err):
        code = main(argv)
    printed, err = printed.getvalue(), err.getvalue()
    moved = [name for name in fixed if name in given and given[name] != getattr(base, name)]
    if moved:
        assert code == 1 and not out.exists()
        named = ", ".join("--" + name.replace("_", "-") for name in moved)
        assert f", which {named} would change: " in err, err
        return
    try:
        target = replace(base, **given)
    except BadSpec as exc:
        assert (code, err) == (1, f"error: {exc}\n")
        return
    assert code == 0, err
    options = read_sidecar(out)["options"]
    assert {name: options[name.replace("_", "-")] for name in TARGET_FIELDS} == asdict(target)
    if prefix[0] == "measure":
        scen = read_scenarios_csv(target_dir / "scen.csv")
        config = RiskMeasureConfig(kind=prefix[2], target=target)
        assert printed == format_float(measure_value(scen.values[:, 0], config)) + "\n"
    else:
        assert printed == format_float(target.integral()) + "\n"
        assert read_curve_csv(out).values.tolist() == target.curve(64).values.tolist()


@pytest.mark.parametrize(
    "options, target",
    [
        (["--kind", "gs2"], TargetCurveSpec.gs2_shape()),
        (["--kind", "gs2", "--beta-up", "0.6"], TargetCurveSpec.gs2_shape(0.6)),
        (["--kind", "gs1", "--beta-down", "0", "--beta-up", "1"], DIAGONAL),
        (["--kind", "gs1", "--beta-up", "0.6"], TargetCurveSpec(beta_up=0.6)),
        # a kind that reads no target records the options given and gs1's
        # defaults for the others
        (["--kind", "variance"], TargetCurveSpec()),
        (["--kind", "cvar", "--beta-up", "0.6"], TargetCurveSpec(beta_up=0.6)),
    ],
)
def test_the_sidecar_records_the_target_the_run_used(tmp_path, options, target):
    path, _ = scenario_file(tmp_path)
    out = tmp_path / "m.json"
    assert main(["measure", "--scenarios", str(path), *options, "--out", str(out)]) == 0
    recorded = read_sidecar(out)["options"]
    assert {name: recorded[name.replace("_", "-")] for name in TARGET_FIELDS} == asdict(target)


def replay_argv(sidecar):
    """The command line that the options of a sidecar spell out."""
    argv = [sidecar["subcommand"]]
    for name, value in sidecar["options"].items():
        if value is not None:
            argv += ["--" + name, str(value)]
    return argv


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--kind", "gs2"],
        ["measure", "--kind", "gs2", "--beta-up", "0.6", "--beta-down", "0"],
        ["measure", "--kind", "gs1", "--beta-down", "0", "--beta-up", "1", "--v", "3"],
        ["measure", "--kind", "gs1", "--beta-down", "0.1", "--column", "A1"],
        ["measure", "--kind", "cvar", "--tail-fraction", "0.1"],
        ["frontier", "--kind", "gs2", "--n-points", "2"],
        ["frontier", "--kind", "gs1", "--beta-down", "0", "--beta-up", "1", "--n-points", "2"],
        ["target-curve", "--beta-down", "0", "--beta-up", "0.6", "--up-kuma", "1", "--up-power", "0",
         "--grid", "64"],
        ["target-curve", "--beta-down", "0", "--beta-up", "1", "--grid", "64"],
        ["target-curve", "--beta-down", "0.1", "--up-kuma", "0.6", "--up-power", "0.4",
         "--grid", "64"],
    ],
)
def test_replaying_a_sidecar_reproduces_the_run(tmp_path, capsys, argv):
    path, _ = scenario_file(tmp_path, t=30)
    out = tmp_path / "out"
    if argv[0] != "target-curve":
        argv = argv + ["--scenarios", str(path)]
    assert main(argv + ["--out", str(out)]) == 0
    written = sorted(p for p in tmp_path.iterdir() if p.name.startswith("out"))
    first = [p.read_bytes() for p in written], capsys.readouterr().out
    sidecar = json.loads((tmp_path / "out.run.json").read_text())
    for p in written:
        p.unlink()
    assert main(replay_argv(sidecar)) == 0
    assert sorted(p for p in tmp_path.iterdir() if p.name.startswith("out")) == written
    assert ([p.read_bytes() for p in written], capsys.readouterr().out) == first


# -- options that would do nothing ---------------------------------------------


@pytest.mark.parametrize(
    "argv, message",
    [
        (["iterate", "--mode", "primal", "--normalize"], "normalize applies to the reflected mode only"),
        # the removed second spellings: the start lognormal-logscale, the
        # target options (diagonal: --beta-down 0 --beta-up 1; gs2's shape:
        # --beta-down 0 --up-kuma 1 --up-power 0) and --tail-fraction 1 - c
        (["iterate", "--start", "uniform01", "--lognormal-log-scale"],
         "unrecognized arguments: --lognormal-log-scale"),
        (["target-curve", "--gs2", "--identity-target"], "unrecognized arguments: --gs2 --identity-target"),
        (["limits", "--mode", "simple_reflected"], "invalid choice: 'simple_reflected'"),
        (["target-curve", "--identity-target", "--beta-up", "0.6"],
         "unrecognized arguments: --identity-target"),
        (["measure", "--scenarios", "unused.csv", "--kind", "gs1", "--identity-target",
          "--beta-down", "0.1", "--up-power", "0.3"],
         "unrecognized arguments: --identity-target"),
        (["measure", "--scenarios", "unused.csv", "--kind", "cvar",
          "--tail-fraction", "0.2", "--confidence", "0.6"],
         "unrecognized arguments: --confidence 0.6"),
        (["frontier", "--scenarios", "unused.csv", "--kind", "cvar",
          "--confidence", "0.6", "--tail-fraction", "0.05"],
         "unrecognized arguments: --confidence 0.6"),
        # a tolerance no gap can fall below would make --tol do nothing
        (["iterate", "--tol", "nan"], "tol must be at least 0, got nan"),
        (["iterate", "--tol", "-1"], "tol must be at least 0, got -1.0"),
        # an option equal to gs1's default still moves a fixed target
        (["target-curve", "--identity-target", "--beta-down", "0.25"],
         "unrecognized arguments: --identity-target"),
        (["measure", "--scenarios", "unused.csv", "--kind", "gs2", "--beta-down", "0.25"],
         "gs2 keeps its restricted target shape, which --beta-down would change"),
        (["frontier", "--scenarios", "unused.csv", "--kind", "gs2", "--up-kuma", "0.8",
          "--up-power", "0.2"],
         "gs2 keeps its restricted target shape, which --up-kuma, --up-power would change"),
    ],
)
def test_options_that_would_do_nothing_are_usage_errors(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


# -- bad bytes and bad sample values ------------------------------------------


def non_utf8_input(tmp_path, command):
    """An input file for `command` holding the byte 0xff, and the argv that reads it."""
    out = str(tmp_path / "out.csv")
    if command in ("clean", "returns"):
        path = tmp_path / "prices.csv"
        path.write_bytes(b"date,A\xff\n2024-01-01,1.0\n2024-01-02,2.0\n")
        return path, [command, "--prices", str(path), "--out", out]
    if command == "iterate":
        path = tmp_path / "sample.txt"
        path.write_bytes(b"0.3 0.9\n0.5\xff 0.7\n")
        return path, ["iterate", "--start", f"sample:{path}", "--out", out]
    path, _ = scenario_file(tmp_path)
    lines = path.read_bytes().split(b"\n")
    lines[5] = b"\xff" + lines[5]
    path.write_bytes(b"\n".join(lines))
    return path, command_argv(command, path, out)


@pytest.mark.parametrize(
    "command", ["clean", "returns", "measure", "frontier", "simulate", "iterate"]
)
def test_non_utf8_input_is_a_data_error(tmp_path, capsys, command):
    path, argv = non_utf8_input(tmp_path, command)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"data error: {path}: not UTF-8 text (byte 0xff)\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["clean", "returns", "measure", "frontier", "simulate"])
def test_cell_over_csvs_field_limit_is_a_data_error(tmp_path, capsys, command):
    out = str(tmp_path / "out.csv")
    limit = csv.field_size_limit()
    cell = b"1" * (limit + 1)
    if command in ("clean", "returns"):
        path = tmp_path / "prices.csv"
        path.write_bytes(b"date,A\n2024-01-01,1.0\n2024-01-02," + cell + b"\n")
        argv = [command, "--prices", str(path), "--out", out]
    else:
        path, _ = scenario_file(tmp_path)
        lines = path.read_bytes().split(b"\n")
        lines[5] = cell + lines[5]
        path.write_bytes(b"\n".join(lines))
        argv = command_argv(command, path, out)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"data error: {path}: field larger than field limit ({limit})\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
def test_nonfinite_sample_start_is_a_data_error(tmp_path, capsys, token):
    path = tmp_path / "sample.txt"
    path.write_text(f"0.3 0.9\n{token} 0.5\n")
    out = tmp_path / "trace.csv"
    assert main(["iterate", "--start", f"sample:{path}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"data error: {path}:2: non-finite value {float(token)!r}\n"
    assert not out.exists()


def test_bad_sample_token_names_its_line_before_any_nonfinite_value(tmp_path, capsys):
    # lines end in CRLF and one is blank; the non-finite value on line 1 is
    # reported only once every token has parsed, as the table readers do
    path = tmp_path / "sample.txt"
    path.write_bytes(b"0.3 inf\r\n0.5\r\n\r\n0.9 abc\r\n")
    out = tmp_path / "trace.csv"
    assert main(["iterate", "--start", f"sample:{path}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"data error: {path}:4: bad value 'abc'\n"
    assert not out.exists()


# -- starts, options and outcomes that other tests do not reach ----------------


def library_trace_bytes(tmp_path, start, mode, max_iter, tol, normalize=False):
    path = tmp_path / "library.csv"
    write_trace_csv(run_iteration(start, mode, max_iter=max_iter, tol=tol, normalize=normalize), path)
    return path.read_bytes()


def test_sample_start_stalls_at_grid_resolution(tmp_path, capsys):
    sample = tmp_path / "two_atom.txt"
    sample.write_text("0.35\n0.9\n")
    out = tmp_path / "trace.csv"
    argv = ["iterate", "--mode", "reflected", "--start", f"sample:{sample}", "--grid", "64",
            "--max-iter", "40", "--tol", "0", "--out", str(out)]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("40 iterations, not converged (stalled at grid resolution), ")
    start = empirical_quantile([0.35, 0.9], 64)
    assert out.read_bytes() == library_trace_bytes(tmp_path, start, "reflected", 40, 0.0)
    assert read_sidecar(out)["options"]["start"] == f"sample:{sample}"


@pytest.mark.parametrize(
    "start, log_scale, family",
    [
        ("power:3", False, AnalyticFamily.power(3.0)),
        ("pareto:1,2.5", False, AnalyticFamily.pareto(1.0, 2.5)),
        ("point-mass:0.7", False, AnalyticFamily.point_mass(0.7)),
        ("kumaraswamy-limit", False, AnalyticFamily.kumaraswamy_limit()),
        # the removed --lognormal-log-scale is refused: that family is the
        # start lognormal-logscale, the last case
        ("lognormal:-0.5,0.3", True, AnalyticFamily.lognormal_logscale(-0.5, 0.3)),
        ("uniform01", False, AnalyticFamily.uniform01()),
        ("lognormal:0.5,0.2", False, AnalyticFamily.lognormal(0.5, 0.2)),
        ("kumaraswamy_limit", False, AnalyticFamily.kumaraswamy_limit()),
        ("point_mass:0.7", False, AnalyticFamily.point_mass(0.7)),
        ("lognormal-logscale:-0.5,0.3", False, AnalyticFamily.lognormal_logscale(-0.5, 0.3)),
    ],
)
def test_named_starts_are_their_families(tmp_path, capsys, start, log_scale, family):
    out = tmp_path / "trace.csv"
    argv = ["iterate", "--start", start, "--grid", "128", "--max-iter", "8", "--out", str(out)]
    if log_scale:
        assert main(argv + ["--lognormal-log-scale"]) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --lognormal-log-scale\n"
        assert not out.exists()
        return
    assert main(argv) == 0
    start_curve = analytic_quantile(family, 128)
    assert out.read_bytes() == library_trace_bytes(tmp_path, start_curve, "primal", 8, 1e-4)
    assert read_sidecar(out)["options"]["start"] == start


def test_every_family_constructor_is_a_start_name():
    constructors = [name for name, member in vars(AnalyticFamily).items()
                    if isinstance(member, classmethod)]
    assert "lognormal_logscale" in constructors
    for name in constructors:
        # no constructor takes three parameters, and an unknown name fails first
        with pytest.raises(BadParameter, match="^wrong number of parameters"):
            _parse_start(name.replace("_", "-") + ":1,2,3", 64)


@pytest.mark.parametrize(
    "start, message",
    [
        ("power:1,2", "error: wrong number of parameters in start 'power:1,2'\n"),
        ("pareto:1,x", "error: bad start parameter in 'pareto:1,x': could not convert string to float: 'x'\n"),
        ("gamma:1", "error: unknown start 'gamma'\n"),
        ("uniform01:1", "error: wrong number of parameters in start 'uniform01:1'\n"),
        ("kumaraswamy-limit:2", "error: wrong number of parameters in start 'kumaraswamy-limit:2'\n"),
    ],
)
def test_bad_start_parameters_are_usage_errors(tmp_path, capsys, start, message):
    out = tmp_path / "trace.csv"
    assert main(["iterate", "--start", start, "--out", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_identity_target_is_the_diagonal(tmp_path, capsys):
    # the diagonal is spelled --beta-down 0 --beta-up 1; --identity-target is gone
    spelled, library = tmp_path / "spelled.csv", tmp_path / "library.csv"
    assert main(["target-curve", "--beta-down", "0", "--beta-up", "1", "--grid", "64",
                 "--out", str(spelled)]) == 0
    assert capsys.readouterr().out == "0.5\n"
    write_curve_csv(DIAGONAL.curve(64), library)
    assert spelled.read_bytes() == library.read_bytes()
    path, scen = scenario_file(tmp_path)
    argv = ["measure", "--scenarios", str(path), "--kind", "gs1", "--beta-down", "0", "--beta-up", "1"]
    assert main(argv) == 0
    config = RiskMeasureConfig(kind="gs1", target=DIAGONAL)
    assert capsys.readouterr().out == format_float(measure_value(scen.values[:, 0], config)) + "\n"
    assert main(["target-curve", "--identity-target", "--out", str(tmp_path / "t.csv")]) == 1
    assert capsys.readouterr().err == "error: unrecognized arguments: --identity-target\n"


def test_simulate_window_keeps_the_last_rows(tmp_path):
    path, scen = scenario_file(tmp_path, t=60)
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--scenarios", str(path), "--window", "30", "--n", "200", "--seed", "4",
            "--out", str(out)]
    assert main(argv) == 0
    library = tmp_path / "library.csv"
    write_scenarios_csv(copula_simulate(historical_scenarios(scen, 30), n=200, seed=4), library)
    assert out.read_bytes() == library.read_bytes()
    # the copula resamples each column's own history, here its last 30 rows
    sim = read_scenarios_csv(out).values
    for j in range(scen.values.shape[1]):
        assert set(sim[:, j]) <= set(scen.values[-30:, j])
        assert not set(sim[:, j]) <= set(scen.values[-29:, j])


def test_clean_take_every_keeps_every_kth_date(tmp_path):
    prices = tmp_path / "prices.csv"
    prices.write_text(
        "date,A,B\n" + "".join(f"2024-01-{d:02d},{d},{2 * d}\n" for d in range(1, 8))
    )
    out = tmp_path / "clean.csv"
    assert main(["clean", "--prices", str(prices), "--take-every", "2", "--out", str(out)]) == 0
    assert out.read_text() == "date,A,B\n" + "".join(
        f"2024-01-{d:02d},{d},{2 * d}\n" for d in (1, 3, 5, 7)
    )
    assert read_sidecar(out)["options"]["take-every"] == 2
    assert read_sidecar(tmp_path / "clean.csv.report.json")["subcommand"] == "clean"


def test_unconverged_anchor_is_a_numeric_failure_after_the_files(tmp_path, capsys, monkeypatch):
    def unconverged_anchor(*args, **kwargs):
        result = efficient_frontier(*args, **kwargs)
        result.points[0] = replace(result.points[0], converged=False)
        return result

    monkeypatch.setattr("lorenzlab.cli.efficient_frontier", unconverged_anchor)
    path, _ = scenario_file(tmp_path)
    out = tmp_path / "frontier.csv"
    argv = ["frontier", "--scenarios", str(path), "--kind", "variance", "--n-points", "3",
            "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == "numeric failure: anchor point failed to converge\n"
    diagnostics = tmp_path / "frontier.csv.diagnostics.json"
    for written in (out, diagnostics):
        assert read_sidecar(written)["subcommand"] == "frontier"
    assert out.read_text().splitlines()[1].split(",")[2] == "false"
    assert [d["converged"] for d in json.loads(diagnostics.read_text())] == [False, True, True]


def test_frontier_quotes_a_ticker_with_a_comma(tmp_path):
    path, _ = scenario_file(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text('"A,x",B,C\n' + "".join(lines[1:]))
    out = tmp_path / "frontier.csv"
    argv = ["frontier", "--scenarios", str(path), "--kind", "variance", "--n-points", "3",
            "--out", str(out)]
    assert main(argv) == 0
    with open(out, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["target_return", "risk", "converged", "w_A,x", "w_B", "w_C"]
    assert [len(row) for row in rows] == [6, 6, 6]
    written = out.read_bytes()
    assert written.startswith(b'target_return,risk,converged,"w_A,x",w_B,w_C\r\n')
    assert written.endswith(b"\r\n")
    assert written.count(b"\n") == written.count(b"\r\n") == 4
