"""The benchmark's tracer binds package names; a rename must fail here first."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_traced_layer_is_bound_on_its_owner():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [layer for layer, (owner, attr) in tracing.LAYERS.items()
               if attr not in owner.__dict__]
    assert not missing, f"layers whose attribute is gone: {missing}"
