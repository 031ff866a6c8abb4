"""Fast self-check of the benchmark itself, on tiny plans (about ten seconds).

    python3 benchmarks/selfcheck.py

It runs every workload's code path through the real runner, with its
correctness checks and, traced, its wrapping of every layer; checks that the
metrics printed are exactly those ``BENCHMARK.json`` declares; shows that a
wrong pinned value is counted as a failed operation; and shows that the
benchmark refuses to run without the package sources.  Exits non-zero on the
first check that does not hold.
"""

import json
import shutil
import subprocess
import sys
from time import perf_counter

import run


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck failed: {message}")


def declared_metrics() -> tuple[set, set]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def measure(name: str, trace: bool) -> dict:
    result, _, _, _ = run.run_workload(name, seed=0, seconds=0.0, trace=trace,
                                       min_setups=2, max_setups=2, min_ops=2)
    return result


def check_workloads() -> None:
    end_to_end, per_layer = declared_metrics()
    for name, modes in (("tiny-sweep-cold", (False, True)),
                        ("tiny-sweep-warm", (False, True)),
                        ("tiny-verify", (True,))):
        for trace in modes:
            result = measure(name, trace)
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace={trace} failed: {result}")
            expect(set(result["metrics"]) == (per_layer if trace else end_to_end),
                   f"{name} trace={trace} reports {sorted(result['metrics'])}")
            if trace:
                values = {k: v["value"] for k, v in result["metrics"].items()}
                busy = ("properties.suite_s" if name == "tiny-verify"
                        else "harness.sweep_s")
                expect(values[busy] > 0.0, f"{name}: no {busy} span recorded")


def check_rebinding() -> None:
    import tracing
    from fracstep import assembly, fracops, gammafn, properties, quadrature, solver
    by_value = [(solver, "temporal_weights", fracops.temporal_weights),
                (properties, "singular_integral", quadrature.singular_integral),
                (fracops, "gamma_fn", gammafn.gamma_fn),
                (assembly, "gamma_fn", gammafn.gamma_fn),
                (properties, "gamma_fn", gammafn.gamma_fn)]
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        for module, attr, original in by_value:
            expect(getattr(module, attr) is not original,
                   f"{module.__name__}.{attr} is not wrapped")
    finally:
        tracer.uninstall()
    for module, attr, original in by_value:
        expect(getattr(module, attr) is original,
               f"{module.__name__}.{attr} was not restored")


def check_wrong_pin_fails() -> None:
    import workloads
    good = workloads.TINY_PINS
    (e1, e2), *rest = good
    workloads.TINY_PINS = ((e1 * (1.0 + 1e-6), e2), *rest)
    print("selfcheck: a wrong pinned value follows; its failures are expected",
          file=sys.stderr)
    try:
        result = measure("tiny-sweep-cold", trace=False)
    finally:
        workloads.TINY_PINS = good
    expect(not result["correct"] and result["failed"] == result["attempted"],
           f"a wrong pinned E1 was not counted as failed: {result}")


def check_refuses_without_sources() -> None:
    bare = run.WORK / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "benchmarks").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in (run.ROOT / "benchmarks").glob("*.py"):
            shutil.copy(path, bare / "benchmarks")
        child = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "verify",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(child.returncode != 0 and not child.stdout.strip(),
           f"ran without sources: exit {child.returncode}, stdout {child.stdout!r}")


def main() -> int:
    start = perf_counter()
    run.bootstrap()
    run.check_origin()
    check_workloads()
    check_rebinding()
    check_wrong_pin_fails()
    check_refuses_without_sources()
    print(f"selfcheck: ok ({perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
