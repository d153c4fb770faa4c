import csv
import json
import math
from datetime import date, timedelta

import numpy as np
import pytest

from lorenzlab import (
    ScenarioMatrix,
    TargetCurveSpec,
    empirical_quantile,
    generalized_lorenz,
    limit_curve,
    truncate_generalized,
    write_scenarios_csv,
)
from lorenzlab.cli import main
from lorenzlab.curves import format_float, read_curve_csv
from lorenzlab.errors import BadParameter
from lorenzlab.risk import RiskMeasureConfig, measure_value, variance
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


def test_measure_prints_the_value(tmp_path, capsys):
    path, scen = scenario_file(tmp_path)
    assert main(["measure", "--scenarios", str(path), "--kind", "variance"]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == format_float(variance(scen.values[:, 0]))

    out = tmp_path / "report.json"
    code = main(
        [
            "measure",
            "--scenarios",
            str(path),
            "--column",
            "A2",
            "--kind",
            "variance",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["value"] == pytest.approx(variance(scen.values[:, 2]))
    assert (tmp_path / "report.json.run.json").exists()

    assert main(["measure", "--scenarios", str(path), "--column", "Z", "--kind", "mad"]) == 1


def test_measure_confidence_is_one_minus_tail(tmp_path, capsys):
    path, _ = scenario_file(tmp_path)
    base = ["measure", "--scenarios", str(path), "--kind", "cvar"]
    # 1 - 0.5 is exact in floats, so the two spellings must match bit for bit
    assert main(base + ["--tail-fraction", "0.5"]) == 0
    via_tail = capsys.readouterr().out
    assert main(base + ["--confidence", "0.5"]) == 0
    via_conf = capsys.readouterr().out
    assert via_tail == via_conf
    assert main(base + ["--confidence", "1.5"]) == 1


def test_target_curve_gs2_shape(tmp_path, capsys):
    out = tmp_path / "target.csv"
    assert main(["target-curve", "--gs2", "--grid", "512", "--out", str(out)]) == 0
    spec = TargetCurveSpec(beta_down=0.0, beta_up=0.75, up_kuma=1.0, up_power=0.0)
    assert capsys.readouterr().out.strip() == format_float(spec.integral())
    curve = read_curve_csv(out)
    assert np.allclose(curve.values, spec.curve(512).values)


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


# -- odd and malformed cells --------------------------------------------------
#
# The odd cell sits in column A2 of line 6, which `measure` (first column by
# default) does not convert; every command still checks it. The messages are
# the per-cell csv reader's, pinned as it gave them before `measure` read one
# column, so all three commands must fail with the same text.

MALFORMED = {
    "": "bad value (could not convert string to float: '')",
    "1e": "bad value (could not convert string to float: '1e')",
    "--1": "bad value (could not convert string to float: '--1')",
    "1.2.3": "bad value (could not convert string to float: '1.2.3')",
    "1e400": "non-finite value inf for A2",
    "nan": "non-finite value nan for A2",
    "cells": "wrong number of cells",
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
    assert capsys.readouterr().err == f"data error: {path}:6: {MALFORMED[cell]}\n"
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
    argv = ["target-curve", "--gs2", "--up-power", "0.3", "--out", str(tmp_path / "t.csv")]
    assert main(argv) == 1
    assert "which --up-power would change:" in capsys.readouterr().err
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


# -- options that would do nothing ---------------------------------------------


@pytest.mark.parametrize(
    "argv, message",
    [
        (["iterate", "--mode", "primal", "--normalize"], "normalize applies to the reflected mode only"),
        (["iterate", "--start", "uniform01", "--lognormal-log-scale"],
         "--lognormal-log-scale needs a lognormal start, got 'uniform01'"),
        (["target-curve", "--gs2", "--identity-target"], "--gs2 and --identity-target name different targets"),
        (["limits", "--mode", "simple_reflected"], "invalid choice: 'simple_reflected'"),
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


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
def test_nonfinite_sample_start_is_a_data_error(tmp_path, capsys, token):
    path = tmp_path / "sample.txt"
    path.write_text(f"0.3 0.9\n{token} 0.5\n")
    out = tmp_path / "trace.csv"
    assert main(["iterate", "--start", f"sample:{path}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"data error: {path}: non-finite sample value {token!r}\n"
    assert not out.exists()
