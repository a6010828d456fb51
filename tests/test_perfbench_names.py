"""The benchmark's tracer wraps package functions by name; each must exist."""

import importlib.util
from pathlib import Path

import cubenodal.cli  # noqa: F401  (loads every module the tracer looks up)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_finds_every_traced_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracing.Tracer()  # raises AttributeError on a traced name that is gone
