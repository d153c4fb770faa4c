"""Span recording for the traced benchmark run.

The tracer wraps public lorenzlab names where their callers look them up
(a module attribute or a class attribute) and restores the originals
afterwards, so the untraced passes run the program unmodified. Spans stay
in memory as [name, parent, phase, start, end] and are written out once the
run has ended.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

import lorenzlab.cli
import lorenzlab.curves
import lorenzlab.iterate
import lorenzlab.portfolio
import lorenzlab.risk
from lorenzlab.curves import MonotoneCurve
from lorenzlab.rng import Xoshiro256pp

# (owner, attribute, span name). The owner is the namespace the caller
# resolves the name in, so every call from inside the package is seen once.
TARGETS = [
    (lorenzlab.cli, "main", "cli.main"),
    (lorenzlab.cli, "efficient_frontier", "portfolio.efficient_frontier"),
    (lorenzlab.cli, "measure_report", "risk.measure_report"),
    (lorenzlab.cli, "load_price_panel", "data.load_price_panel"),
    (lorenzlab.cli, "clean_panel", "data.clean_panel"),
    (lorenzlab.cli, "compute_returns", "data.compute_returns"),
    (lorenzlab.cli, "read_scenarios_csv", "data.read_scenarios_csv"),
    (lorenzlab.cli, "write_scenarios_csv", "data.write_scenarios_csv"),
    (lorenzlab.cli, "write_prices_csv", "data.write_prices_csv"),
    (lorenzlab.cli, "copula_simulate", "data.copula_simulate"),
    (lorenzlab.portfolio, "min_risk", "portfolio.min_risk"),
    (lorenzlab.portfolio, "nelder_mead", "portfolio.nelder_mead"),
    (lorenzlab.portfolio, "measure_value", "risk.measure_value"),
    (lorenzlab.risk, "measure_value", "risk.measure_value"),
    (lorenzlab.iterate, "run_iteration", "iterate.run_iteration"),
    (lorenzlab.iterate, "envelope_violation", "iterate.envelope_violation"),
    (lorenzlab.iterate, "lorenz_transform", "lorenz.lorenz_transform"),
    (lorenzlab.iterate, "primal_inverse", "lorenz.primal_inverse"),
    (lorenzlab.iterate, "reflected_transform", "lorenz.reflected_transform"),
    (lorenzlab.iterate, "reflected_inverse", "lorenz.reflected_inverse"),
    (lorenzlab.curves, "analytic_quantile", "curves.analytic_quantile"),
    (MonotoneCurve, "generalized_inverse", "curves.generalized_inverse"),
    (MonotoneCurve, "prefix_integral", "curves.prefix_integral"),
    (Xoshiro256pp, "normal", "rng.normal"),
    (Xoshiro256pp, "substream", "rng.substream"),
]

# Spans whose return values the per-layer metrics read (convergence, rounds).
KEEP_RESULTS = ("portfolio.min_risk", "iterate.run_iteration")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.results: dict[str, list] = defaultdict(list)
        self.phase = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        results = self.results[name] if name in KEEP_RESULTS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.phase, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if results is not None:
                results.append(out)
            return out

        return traced

    def install(self):
        for owner, attr, name in TARGETS:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, self._wrap(name, raw))

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def layer_totals(self, phase: str) -> dict:
        """{name: [calls, total_s, self_s]} over the spans of one phase."""
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, _, ph, start, end) in enumerate(self.spans):
            if ph != phase:
                continue
            t = totals[name]
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child[i]
        return totals

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,phase,name,start_s,end_s\n")
            t0 = self.spans[0][3] if self.spans else 0.0
            for i, (name, parent, phase, start, end) in enumerate(self.spans):
                fh.write(f"{i},{parent},{phase},{name},{start - t0:.9f},{end - t0:.9f}\n")
