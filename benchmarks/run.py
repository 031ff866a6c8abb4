"""fracstep benchmark: one workload per process, timed end to end or per layer.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload sweep-cold --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seconds 30   # every workload, one process each

A run sets the workload up in a fresh process (import fracstep, then the
workload's own set-up) and then runs operations back to back in the main
process until their times add up to ``--seconds``, and at least three;
``op_s`` is their median, so a slow first operation does not move it.  An
untraced run also repeats the set-up in fresh processes between operations,
spread over the run, as often as fits in about five seconds (three to twelve
times), and reports their median as ``setup_s``.  Every operation's output
is checked (see ``workloads.py``); an operation that raises or fails a check
is counted in ``failed``.

``--trace 0`` reports the end-to-end metrics ``op_s`` (median seconds per
operation), ``peak_rss_mb`` and ``setup_s``.  ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics of the
traced ones (see ``tracing.py``), including the tracing overhead.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.  Spans of a
traced run are written to ``.bench_work/spans-<workload>.jsonl``.

The package is imported from ``src/`` of this checkout and nowhere else; the
run stops with exit code 2 when it is not there.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_SETUPS = 3
MAX_SETUPS = 12
SETUP_BUDGET = 5.0
MIN_OPS = 3
END_TO_END_UNITS = {"op_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def fail(message: str):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def bootstrap() -> None:
    """Put this checkout's ``src`` first on the path, or exit with code 2.

    BLAS keeps its default thread count; ``run_metadata`` records it.
    """
    if not (SRC / "fracstep" / "__init__.py").is_file():
        fail(f"no fracstep sources under {SRC}")
    sys.path.insert(0, str(SRC))


def check_origin() -> None:
    import fracstep
    if Path(fracstep.__file__).resolve().parent != SRC / "fracstep":
        fail(f"fracstep was imported from {fracstep.__file__}")


def setup_probe(name: str, workdir: str) -> None:
    """Print the seconds taken to import fracstep and set ``name`` up."""
    start = perf_counter()
    import workloads  # imports fracstep: the import is part of the set-up
    workloads.make(name).setup(Path(workdir))
    elapsed = perf_counter() - start
    check_origin()
    print(repr(elapsed))


def time_setup(name: str, workdir: Path) -> float:
    """Seconds a fresh process takes to import fracstep and set ``name`` up in ``workdir``."""
    probe = subprocess.run(
        [sys.executable, __file__, "--setup-probe", name, "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=170)
    if probe.returncode != 0:
        sys.stderr.write(probe.stderr)
        fail(f"set-up of {name} failed")
    return float(probe.stdout.splitlines()[-1])


def setup_count(first: float, min_setups: int, max_setups: int) -> int:
    """How many set-ups an untraced run times: as many as fit in SETUP_BUDGET
    seconds, judged by the first, within ``min_setups`` .. ``max_setups``."""
    return max(min_setups, min(max_setups, int(SETUP_BUDGET / first)))


def one_operation(workload, workdir: Path, tracer=None, op: int = 0):
    """Run and check one operation; returns (seconds, problems)."""
    prepared = workload.prepare(workdir)
    if tracer is not None:
        tracer.install(op)
    try:
        start = perf_counter()
        try:
            result, error = workload.operate(prepared), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, exc
        elapsed = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        if error is not None:
            raise error
        problems = workload.check(prepared, result)
    except Exception as exc:  # so is output the check cannot read
        traceback.print_exception(exc)
        problems = [f"raised {type(exc).__name__}: {exc}"]
    for problem in problems:
        print(f"benchmark: {workload.name} operation failed: {problem}", file=sys.stderr)
    return elapsed, problems


def quartiles(values) -> str:
    if len(values) < 2:
        return "one sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"quartiles {q1:.4f} .. {q3:.4f}"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 min_setups: int = MIN_SETUPS, max_setups: int = MAX_SETUPS,
                 min_ops: int = MIN_OPS):
    """Measure one workload; returns (result object, lines for people, metadata, tracer).

    The first set-up prepares the directory the operations use.  An untraced
    run times further set-ups between operations, spread evenly over the
    ``seconds`` of operations, so that set-up and operations are sampled over
    the same stretch of time; their seconds do not count towards ``seconds``.
    """
    import tracing
    import workloads

    run_dir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        workdir = run_dir / "work"
        setup_times = [time_setup(name, workdir)]
        setups = 1 if trace else setup_count(setup_times[0], min_setups, max_setups)
        workload = workloads.make(name)
        tracer = tracing.Tracer() if trace else None
        failed = 0
        times = {False: [], True: []}
        count, spent = 0, 0.0
        while count < min_ops or spent < seconds:
            traced = trace and count % 2 == 1
            elapsed, problems = one_operation(
                workload, workdir, tracer if traced else None, op=count)
            times[traced].append(elapsed)
            spent += elapsed
            failed += bool(problems)
            count += 1
            while (len(setup_times) < setups
                   and spent >= len(setup_times) * seconds / setups):
                probe_dir = run_dir / f"setup-{len(setup_times)}"
                setup_times.append(time_setup(name, probe_dir))
                shutil.rmtree(probe_dir, ignore_errors=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = count
    untraced = times[False]
    lines = [
        f"workload {name}: {attempted} operations, seed {seed}, "
        f"trace {'on' if trace else 'off'}",
        f"  failed_ops   {failed} of {attempted} = {failed / attempted:.4g}",
    ]
    if trace:
        metrics = tracer.metrics(times[True], untraced)
        lines += tracer.table(metrics, len(times[True]))
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "op_s": statistics.median(untraced),
            "peak_rss_mb": peak_mb,
            "setup_s": statistics.median(setup_times),
        }
        lines += [
            f"  op_s         {metrics['op_s']:.4f} s   median of {len(untraced)} "
            f"operations, {quartiles(untraced)}",
            f"  peak_rss_mb  {peak_mb:.1f} MB",
            f"  setup_s      {metrics['setup_s']:.4f} s   median of {len(setup_times)} "
            f"set-ups in fresh processes, {quartiles(setup_times)}",
        ]
    units = {k: u for k, (u, _) in tracing.METRICS.items()} if trace else END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }
    meta = run_metadata(name, seed, seconds, trace, attempted)
    return result, lines, meta, tracer


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded into this process."""
    import ctypes
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def run_metadata(name, seed, seconds, trace, attempted) -> dict:
    import numpy
    import scipy
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "operations": attempted, "commit": git_commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "openblas_threads": blas_threads(),
        "nproc": os.cpu_count(), "cpu": cpu_model(),
    }


def write_spans(name: str, meta: dict, tracer) -> Path:
    path = WORK / f"spans-{name}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"meta": meta}) + "\n")
        for layer, start, end, parent, op in tracer.spans:
            fh.write(json.dumps({"layer": layer, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")
    return path


def run_all(args) -> int:
    """Every workload in its own process; nonzero exit if any was not correct."""
    import workloads
    status = 0
    for name in workloads.NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        try:
            correct = json.loads(child.stdout.splitlines()[-1])["correct"]
        except (IndexError, ValueError, KeyError):
            correct = False
        if child.returncode != 0 or not correct:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="sweep-cold, sweep-warm, verify or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bootstrap()
    if args.setup_probe:
        setup_probe(args.setup_probe, args.workdir)
        return 0
    check_origin()
    import workloads
    if args.workload == "all":
        return run_all(args)
    if args.workload is None or args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)} or all")

    result, lines, meta, tracer = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace))
    print("meta " + json.dumps(meta))
    if tracer is not None:
        lines.append(f"  spans written to {write_spans(args.workload, meta, tracer)}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
