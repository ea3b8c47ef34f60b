"""The benchmark's traced run looks its bindings up by name on the package modules."""

import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_traced_binding_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    for module_name, attr in tracing.BINDINGS:
        module = importlib.import_module(f"ssnno.{module_name}")
        assert callable(getattr(module, attr, None)), f"ssnno.{module_name}.{attr}"
