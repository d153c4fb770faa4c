"""lorenzlab benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload iterate|frontier|pipeline --seed N \
        --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

With --trace 0 the run sets up, then repeats timed passes for about S
seconds and reports the end-to-end metrics. With --trace 1 it runs every
operation untraced and then traced and reports the per-layer metrics,
writing every span to bench/_results/. Each run prints one line per metric, writes a
result file with the environment to bench/_results/, and prints a JSON
object {correct, attempted, failed, metrics} as its last line.
`--workload all` runs every workload untraced and traced in child processes.

The benchmark needs the lorenzlab sources in src/ next to this directory and
exits with code 2 without them.
"""

from __future__ import annotations

import os

# One caller, one thread: keep BLAS from spreading small products over cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "_results"

SETUP_REPS = 7
MIN_PASSES = 2  # the repeat-identity checks need a second pass

# Layers whose call count and self time are both reported.
CALLS_AND_SELF = (
    "curves.generalized_inverse",
    "curves.prefix_integral",
    "lorenz.reflected_transform",
    "lorenz.reflected_inverse",
    "lorenz.lorenz_transform",
    "lorenz.primal_inverse",
    "risk.measure_value",
    "portfolio.min_risk",
    "rng.normal",
    "rng.substream",
    "data.read_scenarios_csv",
    "cli.main",
)
SELF_ONLY = (
    "iterate.run_iteration",
    "iterate.envelope_violation",
    "data.copula_simulate",
    "data.write_scenarios_csv",
    "data.load_price_panel",
    "data.clean_panel",
    "data.compute_returns",
)


def import_seconds(reps: int) -> float:
    """Median wall time of a fresh interpreter that imports lorenzlab."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import lorenzlab"
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC)], check=True, timeout=120, cwd=ROOT)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def layer_metrics(tracer, setup_tracer, overhead_s: float) -> dict:
    totals = tracer.layer_totals("pass")
    out = {}
    for name in CALLS_AND_SELF:
        calls, _, self_s = totals.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = (totals.get(name, (0, 0.0, 0.0))[2], "s")
    out["curves.analytic_quantile.self_s"] = (
        setup_tracer.layer_totals("setup").get("curves.analytic_quantile", (0, 0.0, 0.0))[2], "s")
    out["portfolio.nelder_mead.calls"] = (totals.get("portfolio.nelder_mead", (0,))[0], "count")
    out["iterate.rounds"] = (sum(t.iterations for t in tracer.results["iterate.run_iteration"]), "count")
    mv_calls, mv_total, _ = totals.get("risk.measure_value", (0, 0.0, 0.0))
    out["risk.measure_value.us_per_call"] = (1e6 * mv_total / mv_calls if mv_calls else 0.0, "us")
    points = tracer.results["portfolio.min_risk"]
    out["portfolio.evals_per_point"] = (evals_under(tracer, "portfolio.min_risk") / len(points) if points else 0.0, "count")
    out["portfolio.converged_ratio"] = (sum(p.converged for p in points) / len(points) if points else 0.0, "1")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def evals_under(tracer, ancestor: str) -> int:
    """Objective evaluations: measure_value spans with `ancestor` above them."""
    spans = tracer.spans
    count = 0
    for name, parent, phase, _, _ in spans:
        if name != "risk.measure_value" or phase != "pass":
            continue
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][1]
        count += parent >= 0
    return count


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Ops

    work = BENCH / "_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = Ops()
    try:
        run = traced_run if trace else timed_run
        metrics, named = run(WORKLOADS[name], work, seed, seconds, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"metrics": metrics, "named": named, "ops": ops}


def timed_run(wl, work: Path, seed: int, seconds: float, ops) -> tuple[dict, dict]:
    """Set-up repeats, then untraced passes: the end-to-end metrics."""
    from workloads import SIM_ROWS

    imp = import_seconds(SETUP_REPS)
    setup_times, digests = [], set()
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        digests.add(wl.setup(work, seed))
        setup_times.append(perf_counter() - t0)
    ops.record("inputs", [] if len(digests) == 1 else ["regenerated inputs differ"])
    passes, start = [], perf_counter()
    while True:
        t0 = perf_counter()
        result = _pass(wl, ops)
        passes.append(result["times"])
        quality = wl.quality(result)
        last = perf_counter() - t0
        if len(passes) >= MIN_PASSES and perf_counter() - start + last > seconds:
            break
    heavy, light = wl.parts
    metrics = {
        "setup_s": (imp + statistics.median(setup_times), "s"),
        "pass_s": (part_seconds(passes, None), "s"),
        "heavy_s": (part_seconds(passes, "heavy"), "s"),
        "light_s": (part_seconds(passes, "light"), "s"),
        "heavy_err": (quality["heavy_err"], "1"),
        "light_err": (quality["light_err"], "1"),
    }
    whole = "pipeline_s" if wl.name == "pipeline" else "pass_s"
    named = {
        "setup_s": metrics["setup_s"],
        whole: metrics["pass_s"],
        heavy: metrics["heavy_s"],
        light: metrics["light_s"],
        "import_s": (imp, "s"),
        whole[:-2] + "_wall_s": (part_seconds(passes, None, wall=True), "s"),
        heavy[:-2] + "_wall_s": (part_seconds(passes, "heavy", wall=True), "s"),
        light[:-2] + "_wall_s": (part_seconds(passes, "light", wall=True), "s"),
        **quality["named"],
        "passes": (len(passes), "count"),
        "failed_share": (ops.failed / ops.attempted, "1"),
        "inputs_sha256": digests.pop() if len(digests) == 1 else "differ",
        "op_wall_seconds": {k: [p[k][1] for p in passes] for k in passes[0]},
        "op_scaled_seconds": {k: [p[k][2] for p in passes] for k in passes[0]},
        "setup_seconds": setup_times,
    }
    if wl.name == "pipeline":
        named["simulate_rows_per_s"] = (SIM_ROWS / metrics["heavy_s"][0], "1/s")
    return metrics, named


def traced_run(wl, work: Path, seed: int, seconds: float, ops) -> tuple[dict, dict]:
    """Traced set-up, then passes whose operations each run untraced and
    traced: the per-layer metrics and the spans file."""
    from spans import Tracer

    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        wl.setup(work, seed)
    finally:
        setup_tracer.uninstall()
    tracer, overheads, start = None, [], perf_counter()
    while True:
        t0 = perf_counter()
        wl.tracer, wl.overhead_s = Tracer(), 0.0
        wl.tracer.phase = "pass"
        _pass(wl, ops)
        tracer = tracer or wl.tracer
        overheads.append(wl.overhead_s)
        last = perf_counter() - t0
        if perf_counter() - start + last > seconds:
            break
    wl.tracer = None
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{wl.name}-seed{seed}-spans.csv"
    tracer.write(spans_path)
    metrics = layer_metrics(tracer, setup_tracer, statistics.median(overheads))
    return metrics, {"spans_file": str(spans_path.relative_to(ROOT))}


def part_seconds(passes: list, part, wall: bool = False) -> float:
    """Median over passes of the scaled (or wall) seconds spent in one part
    of a pass (`None` for the whole pass)."""
    col = 1 if wall else 2
    return statistics.median(
        sum(t[col] for t in times.values() if part in (None, t[0])) for times in passes
    )


def _pass(wl, ops):
    result = wl.run_pass()
    wl.check(result, ops)
    return result


def report(name: str, seed: int, seconds: float, trace: bool) -> dict:
    out = run_workload(name, seed, seconds, trace)
    ops = out["ops"]
    print(f"workload {name}, seed {seed}, trace {int(trace)}: "
          f"{ops.attempted} operations, {ops.failed} failed")
    for reason in ops.reasons:
        print(f"  FAILED {reason}")
    shown = out["named"] if not trace else {**out["metrics"], **out["named"]}
    for key, value in shown.items():
        if isinstance(value, tuple):
            print(f"  {key:<36} {value[0]:<24.10g} {value[1]}")
        elif isinstance(value, str):
            print(f"  {key:<36} {value}")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in out["metrics"].items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(seed),
        "named": {k: (list(v) if isinstance(v, tuple) else v) for k, v in out["named"].items()},
        "failures": ops.reasons,
        "result": result,
    }
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")
    return result


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = {}
    for name in ("iterate", "frontier", "pipeline"):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=600, cwd=ROOT,
            )
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                print(f"workload {name} trace {trace} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode
            summary[f"{name}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("iterate", "frontier", "pipeline", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lorenzlab" / "__init__.py").is_file():
        print(f"error: no lorenzlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = report(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
