"""The three benchmark workloads.

Each workload is a closed loop with one caller: a pass runs its operations
one after another, each starting when the previous one returns. A workload
has a set-up (inputs plus a warm-up), a timed pass, per-operation
correctness checks and quality figures computed outside the timed region.

Every workload fills the same end-to-end slots, so each pass splits into a
heavy part and a light part:

    workload  heavy_s            light_s         heavy_err             light_err
    iterate   reflected_s        primal_s        reflected_sup40       primal_sup40
    frontier  frontier_convex_s  frontier_gs_s   1 + frontier_gap_rel  1 + gs_oracle_gap_rel
    pipeline  simulate step      other 9 steps   1 + copula_corr_err   1 + measure_ref_err
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import references
import lorenzlab.cli
import lorenzlab.iterate
from lorenzlab.portfolio import grid_oracle
from lorenzlab.risk import RiskMeasureConfig

ENVELOPE_SLACK = 1e-6  # rounds 2-20 may leave the envelopes by at most this
SUP40_LIMIT = 1e-4
BUDGET_TOL = 1e-8  # the frontier's documented constraint tolerances
TARGET_TOL = 1e-6
NONNEG_TOL = 1e-10
MEASURE_REF_TOL = 1e-9  # relative agreement of `measure` with its definition
CERTIFICATE_TOL = 1e-7  # a reference is trusted only below this residual
ORACLE_STEP = 0.01


def cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = lorenzlab.cli.main(argv)
    return code, out.getvalue()


def file_digest(*paths) -> str:
    return inputs.digest(*(Path(p).read_bytes() for p in paths))


class Ops:
    """Attempted and failed operation counts, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{label}: {'; '.join(problems)}")


# The host's cores change speed by up to half for minutes at a time, and
# every kind of work here slows with them. Each timing is therefore scaled by
# a fixed kernel timed just before and after it: scaled = wall * REF / kernel.
CALIBRATION_REF_S = 0.004
_CAL_SMALL = np.linspace(0.0, 1.0, 500)[::-1].copy()
_CAL_LARGE = np.linspace(0.0, 1.0, 65536)


def calibration_s() -> float:
    """Median of three timings of a fixed kernel that mixes interpreter
    work, chains of small numpy calls that allocate their results, and
    passes over a 512 KB array, like the workloads do. It runs no lorenzlab
    code."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(10000):
            acc += i * i % 7
        for _ in range(100):
            x = np.sort(_CAL_SMALL * 1.0001)
            y = np.cumsum(x)
            acc += float(np.dot(y, x)) + float(np.abs(x - y.mean()).max())
        for _ in range(5):
            np.cumsum(_CAL_LARGE * 1.0001)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scaled(wall: float, before: float, after: float) -> float:
    return wall * CALIBRATION_REF_S / (0.5 * (before + after))


class Workload:
    """Times each operation of a pass as (part, wall seconds, scaled
    seconds). With a tracer set, every operation runs twice back to back,
    untraced and then traced, so the tracing overhead is measured under the
    same machine conditions."""

    tracer = None

    def timed(self, times: dict, label: str, part: str, op):
        before = calibration_s()
        if self.tracer is not None:
            t0 = perf_counter()
            op()
            plain = perf_counter() - t0
            self.tracer.install()
            try:
                t0 = perf_counter()
                out = op()
                dt = perf_counter() - t0
            finally:
                self.tracer.uninstall()
            self.overhead_s += dt - plain
        else:
            t0 = perf_counter()
            out = op()
            dt = perf_counter() - t0
        times[label] = (part, dt, scaled(dt, before, calibration_s()))
        return out


# -- iterate ----------------------------------------------------------------------


class Iterate(Workload):
    name = "iterate"
    parts = ("reflected_s", "primal_s")

    def setup(self, work: Path, seed: int) -> str:
        self.starts = {g: inputs.five_starts(seed, g) for g in (4096, 65536)}
        run = lorenzlab.iterate.run_iteration
        warm = self.starts[4096]["uniform01"]
        run(warm, "primal", max_iter=2, tol=0.0)
        run(warm, "reflected", max_iter=2, tol=0.0, normalize=True)
        self.first = None
        return inputs.digest(*(inputs.starts_digest(s).encode() for s in self.starts.values()))

    def run_pass(self) -> dict:
        traces, times = {}, {}
        jobs = [("reflected", 4096, name, start) for name, start in self.starts[4096].items()]
        jobs += [("primal", g, name, start) for g, s in self.starts.items() for name, start in s.items()]
        for mode, grid, name, start in jobs:
            traces[mode, grid, name] = self.timed(
                times, f"{mode}/{grid}/{name}", "heavy" if mode == "reflected" else "light",
                lambda: lorenzlab.iterate.run_iteration(
                    start, mode, max_iter=40, tol=0.0, normalize=mode == "reflected"
                ),
            )
        return {"times": times, "traces": traces}

    def check(self, result: dict, ops: Ops) -> None:
        fingerprints = {}
        for key, tr in result["traces"].items():
            problems = []
            if tr.iterations != 40:
                problems.append(f"{tr.iterations} rounds, expected 40")
            worst = max(tr.envelope_violations[1:20], default=math.inf)
            if not worst <= ENVELOPE_SLACK:
                problems.append(f"rounds 2-20 leave the envelopes by {worst:.3g}")
            if not tr.sup_to_limit[-1] < SUP40_LIMIT:
                problems.append(f"sup_to_limit at round 40 is {tr.sup_to_limit[-1]:.3g}")
            fingerprints[key] = inputs.digest(
                np.array(tr.sup_to_limit).tobytes(), tr.curves[-1].values.tobytes()
            )
            if self.first is not None and fingerprints[key] != self.first[key]:
                problems.append("trace differs from the first pass")
            ops.record("/".join(map(str, key)), problems)
        if self.first is None:
            self.first = fingerprints

    def quality(self, result: dict) -> dict:
        sup = {mode: 0.0 for mode in ("primal", "reflected")}
        for (mode, _, _), tr in result["traces"].items():
            sup[mode] = max(sup[mode], tr.sup_to_limit[-1])
        return {
            "heavy_err": sup["reflected"],
            "light_err": sup["primal"],
            "named": {
                "reflected_sup40": (sup["reflected"], "1"),
                "primal_sup40": (sup["primal"], "1"),
            },
        }


# -- frontier ---------------------------------------------------------------------

_FRONTIER_RUNS = (
    ("variance", "wide", ["--kind", "variance"]),
    ("cvar", "wide", ["--kind", "cvar", "--tail-fraction", "0.1"]),
    ("gs1", "narrow", ["--kind", "gs1"]),
    ("gs2", "narrow", ["--kind", "gs2"]),
)
_CONVEX = ("variance", "cvar")
# A gs run takes about a second, short enough for one speed change of the
# host to move it by a third; untraced passes time each one three times
# back to back and keep the median.
_GS_REPEATS = 3


class Frontier(Workload):
    name = "frontier"
    parts = ("frontier_convex_s", "frontier_gs_s")

    def setup(self, work: Path, seed: int) -> str:
        self.work = work
        self.scen = inputs.frontier_scenarios(seed)
        blobs = []
        for label, values in self.scen.items():
            blob = inputs.scenario_csv(values)
            (work / f"{label}.csv").write_bytes(blob)
            blobs.append(blob)
        cli(["measure", "--scenarios", str(work / "narrow.csv"), "--kind", "variance"])
        self.first = None
        self.refs = {}
        return inputs.digest(*blobs)

    def _files(self, kind: str) -> list[Path]:
        out = self.work / f"frontier-{kind}.csv"
        diag = Path(str(out) + ".diagnostics.json")
        return [out, Path(str(out) + ".run.json"), diag, Path(str(diag) + ".run.json")]

    def run_pass(self) -> dict:
        times, codes, digests = {}, {}, {}
        for kind, label, args in _FRONTIER_RUNS:
            files = self._files(kind)
            argv = ["frontier", "--scenarios", str(self.work / f"{label}.csv"), *args,
                    "--n-points", "5", "--out", str(files[0])]
            convex = kind in _CONVEX
            repeats = 1 if convex or self.tracer is not None else _GS_REPEATS
            runs, seen = [], set()
            for _ in range(repeats):
                codes[kind], _ = self.timed(times, kind, "heavy" if convex else "light", lambda: cli(argv))
                runs.append(times[kind])
                if all(f.exists() for f in files):
                    seen.add(file_digest(*files))
            times[kind] = (runs[0][0], *(statistics.median(r[i] for r in runs) for i in (1, 2)))
            digests[kind] = seen.pop() if len(seen) == 1 else f"{len(seen)} different outputs"
        points = {}
        for kind, label, _ in _FRONTIER_RUNS:
            files = self._files(kind)
            if codes[kind] != 0 and not files[0].exists():
                points[kind] = []
                continue
            rows = files[0].read_text().splitlines()[1:]
            diag = json.loads(files[2].read_text())
            points[kind] = [
                {"risk": float(cells[1]), "converged": cells[2] == "true",
                 "weights": np.array([float(c) for c in cells[3:]]), "target": d["target"]}
                for cells, d in zip((r.split(",") for r in rows), diag)
            ]
        return {"times": times, "codes": codes, "points": points, "digests": digests}

    def check(self, result: dict, ops: Ops) -> None:
        for kind, label, _ in _FRONTIER_RUNS:
            common = []
            if result["codes"][kind] != 0:
                common.append(f"exit code {result['codes'][kind]}")
            digest = result["digests"][kind]
            if digest.endswith("outputs") or self.first is not None and digest != self.first[kind]:
                common.append(f"output or sidecar differs from the first run ({digest})")
            pts = result["points"][kind]
            if len(pts) != 5:
                ops.record(f"{kind}/frontier", common + [f"{len(pts)} points, expected 5"])
                continue
            means = self.scen[label].mean(axis=0)
            for i, p in enumerate(pts):
                problems = list(common)
                w = p["weights"]
                if not p["converged"]:
                    problems.append("not converged")
                if not abs(w.sum() - 1.0) <= BUDGET_TOL:
                    problems.append(f"budget residual {abs(w.sum() - 1.0):.3g}")
                if p["target"] is not None and not abs(means @ w - p["target"]) <= TARGET_TOL:
                    problems.append(f"target residual {abs(means @ w - p['target']):.3g}")
                if not w.min() >= -NONNEG_TOL:
                    problems.append(f"weight {w.min():.3g} below zero")
                ops.record(f"{kind}/point{i + 1}", problems)
        if self.first is None:
            self.first = result["digests"]

    def _reference(self, kind: str, target):
        key = (kind, target)
        if key not in self.refs:
            if kind == "variance":
                self.refs[key] = references.variance_qp(self.scen["wide"], target)
            elif kind == "cvar":
                self.refs[key] = references.cvar_lp(self.scen["wide"], 0.1, target)
            else:
                _, risk = grid_oracle(self.scen["narrow"], RiskMeasureConfig(kind=kind), step=ORACLE_STEP)
                self.refs[key] = (risk, ORACLE_STEP)
        return self.refs[key]

    def quality(self, result: dict) -> dict:
        convex_gap, convex_cert = -math.inf, 0.0
        for kind in _CONVEX:
            for p in result["points"][kind]:
                opt, cert = self._reference(kind, p["target"])
                if not cert <= CERTIFICATE_TOL:
                    raise RuntimeError(f"{kind} reference at {p['target']} not certified: {cert}")
                convex_gap = max(convex_gap, (p["risk"] - opt) / abs(opt))
                convex_cert = max(convex_cert, cert)
        gs_gap = -math.inf
        for kind in ("gs1", "gs2"):
            anchor = result["points"][kind][0]
            oracle, _ = self._reference(kind, None)
            gs_gap = max(gs_gap, (anchor["risk"] - oracle) / abs(oracle))
        return {
            "heavy_err": 1.0 + convex_gap,
            "light_err": 1.0 + gs_gap,
            "named": {
                "frontier_gap_rel": (convex_gap, "1"),
                "frontier_ref_residual": (convex_cert, "1"),
                "gs_oracle_gap_rel": (gs_gap, "1"),
                "gs_oracle_step": (ORACLE_STEP, "1"),
            },
        }


# -- pipeline ---------------------------------------------------------------------

_KINDS = ("variance", "mad", "cvar", "gmd", "extended_gini", "gs1", "gs2")
SIM_ROWS = 20000


class Pipeline(Workload):
    name = "pipeline"
    parts = ("simulate_s", "other_steps_s")

    def setup(self, work: Path, seed: int) -> str:
        self.work, self.seed = work, seed
        blob = inputs.price_panel_csv(seed)
        (work / "prices.csv").write_bytes(blob)
        head = b"".join(blob.splitlines(keepends=True)[:60])
        (work / "warm.csv").write_bytes(head)
        cli(["clean", "--prices", str(work / "warm.csv"), "--coverage", "0.5",
             "--out", str(work / "warm-clean.csv")])
        self.first = None
        self.column = None
        self.quality_cache = None
        return inputs.digest(blob)

    def _steps(self):
        w = self.work
        yield "clean", ["clean", "--prices", str(w / "prices.csv"), "--coverage", "0.95",
                        "--out", str(w / "clean.csv")], [w / "clean.csv", w / "clean.csv.report.json"]
        yield "returns", ["returns", "--prices", str(w / "clean.csv"), "--kind", "log",
                          "--out", str(w / "returns.csv")], [w / "returns.csv"]
        yield "simulate", ["simulate", "--scenarios", str(w / "returns.csv"), "--window", "0",
                           "--n", str(SIM_ROWS), "--seed", str(self.seed),
                           "--out", str(w / "sim.csv")], [w / "sim.csv"]
        for kind in _KINDS:
            out = w / f"measure-{kind}.json"
            yield f"measure-{kind}", ["measure", "--scenarios", str(w / "sim.csv"), "--column",
                                      self.column, "--kind", kind, "--tail-fraction", "0.1",
                                      "--out", str(out)], [out]

    def run_pass(self) -> dict:
        times, codes, digests = {}, {}, {}
        for label, argv, outputs in self._steps():
            if label.startswith("measure") and self.column is None:
                self.column = self._pick_column()
                argv[argv.index("--column") + 1] = self.column
            codes[label], _ = self.timed(times, label, "heavy" if label == "simulate" else "light",
                                         lambda: cli(argv))
            files = [p for o in outputs for p in (o, Path(str(o) + ".run.json"))]
            digests[label] = file_digest(*files) if all(p.exists() for p in files) else None
        return {"times": times, "codes": codes, "digests": digests}

    def _pick_column(self) -> str:
        """First simulated column with a positive total, which the
        Lorenz-normalised kinds need."""
        header, sim = read_matrix(self.work / "sim.csv", header=True)
        positive = np.flatnonzero(sim.sum(axis=0) > 0.0)
        return header[positive[0]] if positive.size else header[0]

    def _measures(self) -> dict:
        return {k: json.loads((self.work / f"measure-{k}.json").read_text())["value"] for k in _KINDS}

    def _quality(self) -> tuple[float, dict]:
        """Copula error and per-kind reference values, computed once: the
        outputs they read repeat byte for byte across passes (checked)."""
        if self.quality_cache is None:
            returns = read_matrix(self.work / "returns.csv", date_column=True)
            header, sim = read_matrix(self.work / "sim.csv", header=True)
            column = sim[:, header.index(self.column)]
            refs = {k: references.reference_measure(k, column, 0.1) for k in _KINDS}
            self.quality_cache = (references.copula_error(returns, sim), refs)
        return self.quality_cache

    def check(self, result: dict, ops: Ops) -> None:
        for label, _, _ in self._steps():
            problems = []
            if result["codes"][label] != 0:
                problems.append(f"exit code {result['codes'][label]}")
            elif label == "clean":
                report = json.loads((self.work / "clean.csv.report.json").read_text())
                dropped = [d["ticker"] for d in report["dropped_tickers"]]
                if dropped != [f"T{j + 1:02d}" for j in range(inputs.THIN_TICKERS)]:
                    problems.append(f"dropped tickers {dropped}")
            elif label.startswith("measure-"):
                kind = label[len("measure-"):]
                value = self._measures()[kind]
                ref = self._quality()[1][kind]
                if not math.isfinite(value):
                    problems.append(f"value {value!r} is not finite")
                elif not abs(value - ref) <= MEASURE_REF_TOL * abs(ref):
                    problems.append(f"value {value!r} disagrees with its definition {ref!r}")
            if self.first is not None and result["digests"][label] != self.first[label]:
                problems.append("output or sidecar differs from the first pass")
            ops.record(label, problems)
        if self.first is None:
            self.first = result["digests"]

    def quality(self, result: dict) -> dict:
        copula, refs = self._quality()
        measured = self._measures()
        dev = max(abs(measured[k] - refs[k]) / abs(refs[k]) for k in _KINDS)
        return {
            "heavy_err": 1.0 + copula,
            "light_err": 1.0 + dev,
            "named": {
                "copula_corr_err": (copula, "1"),
                "measure_ref_err": (dev, "1"),
            },
        }


def read_matrix(path: Path, *, date_column: bool = False, header: bool = False):
    """Numeric body of a CSV written by the CLI, optionally with its header."""
    names = path.read_text().split("\n", 1)[0].split(",")
    cols = range(1 if date_column else 0, len(names))
    values = np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols, ndmin=2)
    return (names[cols.start:], values) if header else values


WORKLOADS = {w.name: w for w in (Iterate(), Frontier(), Pipeline())}
