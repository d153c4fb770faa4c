"""The public surface: every exported name resolves, and so does every name
the benchmark's tracer wraps (bench/spans.py, loaded read-only)."""

import importlib.util
import pathlib
import sys

import lorenzlab

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_exported_name_resolves():
    assert [name for name in lorenzlab.__all__ if not hasattr(lorenzlab, name)] == []


def test_every_traced_name_exists(monkeypatch):
    # no __pycache__ is written next to the benchmark's sources
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [
        (getattr(owner, "__name__", owner), attribute)
        for owner, attribute, _ in spans.TARGETS
        if not hasattr(owner, attribute)
    ]
    assert missing == []
