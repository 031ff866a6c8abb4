"""The benchmark binds package names and signatures; a change must fail here first."""

import importlib.util
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_bound_on_its_owner():
    tracing = _load("tracing")
    missing = [layer for layer, (owner, attr) in tracing.LAYERS.items()
               if attr not in owner.__dict__]
    assert not missing, f"layers whose attribute is gone: {missing}"


def test_every_workload_builds():
    # building a workload constructs its plan; nothing is run
    workloads = _load("workloads")
    for name in workloads.NAMES:
        for size in (name, f"tiny-{name}"):
            assert workloads.make(size).name == size
