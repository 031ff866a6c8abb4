"""Command-line front end: ``fracstep solve|sweep|verify``.

Flags use the experiment parameter names (alpha, r, c, sigma, nx, nt) so the
mapping from a table row to a command stays legible.  An optional config
file supplies flat ``key=value`` defaults, where ``key`` is a flag name
(``_`` may stand for ``-``); explicit flags override it.

Exit codes: 0 success, 2 config error, 3 domain/precondition error,
4 property-suite failure.
"""

import argparse
import json
import sys

import numpy as np

from . import fem1d, harness, solver
from .errors import FracstepError
from .fracops import TemporalGrid
from .harness import format_float, is_power_of_two
from .properties import DEFAULT_SEED, run_property_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_PROPERTIES = 4


class ConfigError(Exception):
    pass


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="fracstep",
        description="Space-time Galerkin solver for time-fractional diffusion")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value file with flag defaults")
        p.add_argument("--experiment", help=", ".join(
            "|".join(entry.aliases) for entry in harness.EXPERIMENTS.values()))
        p.add_argument("--alpha", type=float, help="fractional order in (0,1)")
        p.add_argument("--r", type=float, help="spatial power exponent")
        p.add_argument("--c", type=float, help="initial-data scale (experiment 2)")
        p.add_argument("--sigma", type=float, help="temporal exponent t^-sigma")
        p.add_argument("--mode", type=int, help="sine mode (spectral test)")
        p.add_argument("--nx", type=int, help="number of mesh cells")
        p.add_argument("--nt", type=int, help="number of time steps")
        p.add_argument("--output", help="output file path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), dest="fmt",
                       help="output format (default csv)")

    psolve = commands.add_parser("solve", help="single solve with diagnostics")
    add_common(psolve)

    psweep = commands.add_parser("sweep", help="refinement sweep and table")
    add_common(psweep)
    psweep.add_argument("--axis", choices=("space", "time"),
                        help="refined axis (default space)")
    psweep.add_argument("--levels", type=int, help="number of dyadic levels")
    psweep.add_argument("--ref-nx", type=int, dest="ref_nx",
                        help="reference mesh cells")
    psweep.add_argument("--ref-nt", type=int, dest="ref_nt",
                        help="reference time steps")
    psweep.add_argument("--cache-dir", dest="cache_dir",
                        help="reference cache directory "
                             "(default $FRACSTEP_CACHE_DIR)")

    pverify = commands.add_parser("verify", help="run the property suite")
    pverify.add_argument("--config", help="flat key=value file with flag defaults")
    pverify.add_argument("--seed", type=int, help="property-suite seed")
    return parser, commands.choices


def _apply_config_file(args: argparse.Namespace,
                       command: argparse.ArgumentParser) -> None:
    """Fill unset flags from the file; ``key`` is cast and checked as ``--key``."""
    if getattr(args, "config", None) is None:
        return
    try:
        with open(args.config, "r") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno} is not key=value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        action = command._option_string_actions.get("--" + key.replace("_", "-"))
        if action is None or action.dest in ("config", "help"):
            raise ConfigError(f"unknown config key {key!r}")
        if getattr(args, action.dest) is None:  # flags override the file
            try:
                value = (action.type or str)(value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
            if action.choices is not None and value not in action.choices:
                raise ConfigError(f"bad value for {key!r}: {value!r} (choose from "
                                  f"{', '.join(action.choices)})")
            setattr(args, action.dest, value)


def _require(args, name):
    value = getattr(args, name)
    if value is None:
        raise ConfigError(f"--{name.replace('_', '-')} is required")
    return value


def _experiment(args) -> tuple[str, harness.Experiment]:
    name = _require(args, "experiment")
    for tag, entry in harness.EXPERIMENTS.items():
        if name in entry.aliases:
            return tag, entry
    raise ConfigError(f"unknown experiment {name!r}")


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def _experiment_params(entry: harness.Experiment, args) -> dict:
    """The experiment's data flags that were given, by parameter name."""
    return {name: getattr(args, name) for name in entry.params
            if getattr(args, name) is not None}


def _write_output(args, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


def _run_solve(args) -> int:
    tag, entry = _experiment(args)
    alpha = _check_alpha(_require(args, "alpha"))
    nx = _require(args, "nx")
    nt = _require(args, "nt")
    if nx < 2 or nt < 1:
        raise ConfigError("need nx >= 2 and nt >= 1")
    for name, default in entry.params.items():
        if default is None:
            _require(args, name)
    params = _experiment_params(entry, args)
    mesh = fem1d.Mesh1D(nx)
    grid = TemporalGrid.uniform(nt)
    spec = harness.experiment_problem(tag, alpha, **params)
    field, report = solver.solve(spec, grid, mesh)

    errors = None
    if spec.exact is not None:
        e1, e2 = spec.exact.error_norms(field)
        errors = {"E1": e1, "E2": e2}

    # the summary goes to stderr when stdout carries the CSV/JSON text
    summary = sys.stdout if args.output is not None else sys.stderr
    print(f"solved {tag}: alpha={format_float(alpha)} nx={nx} nt={nt}", file=summary)
    print(f"steps={grid.num_steps} wall_s={report.wall_time:.3f} "
          f"max_residual={np.max(report.residual_norms):.3e} "
          f"energy_gap={report.energy_gap:.3e}", file=summary)
    if errors is not None:
        print(f"E1={format_float(errors['E1'])} E2={format_float(errors['E2'])}",
              file=summary)

    x = np.concatenate([[0.0], mesh.interior_nodes, [1.0]])
    u = np.concatenate([[0.0], field.values[-1], [0.0]])
    if (args.fmt or "csv") == "csv":
        lines = ["x,u_final"]
        lines += [f"{format_float(xi)},{format_float(ui)}" for xi, ui in zip(x, u)]
        if errors is not None:  # diagnostics ride along as comment lines
            lines += [f"# E1={format_float(errors['E1'])}",
                      f"# E2={format_float(errors['E2'])}"]
        text = "\n".join(lines) + "\n"
    else:
        obj = {
            "meta": {"experiment": tag, "alpha": alpha, "nx": nx, "nt": nt,
                     "params": params},
            "final_time_values": {"x": x.tolist(), "u": u.tolist()},
            "errors": errors,
            "report": {"steps": grid.num_steps,
                       "max_residual": float(np.max(report.residual_norms)),
                       "energy_gap": report.energy_gap,
                       "wall_time_s": report.wall_time},
        }
        text = json.dumps(obj, indent=2, allow_nan=False) + "\n"
    _write_output(args, text)
    return EXIT_OK


def _run_sweep(args) -> int:
    tag, entry = _experiment(args)
    axis = args.axis or "space"
    if args.alpha is not None:
        _check_alpha(args.alpha)
    for name in ("nx", "nt", "ref_nx", "ref_nt"):
        value = getattr(args, name)
        if value is not None and (value < 4 or not is_power_of_two(value)):
            raise ConfigError(f"--{name.replace('_', '-')} must be a power of "
                              f"two >= 4, got {value}")
    reference = None
    if args.ref_nx is not None or args.ref_nt is not None:
        if args.ref_nx is None or args.ref_nt is None:
            raise ConfigError("--ref-nx and --ref-nt must be given together")
        reference = (args.ref_nx, args.ref_nt)
    plan = harness.default_plan(
        tag, axis, alpha=args.alpha, params=_experiment_params(entry, args),
        nx=args.nx, nt=args.nt, count=args.levels, reference=reference)
    table = harness.run_sweep(plan, cache_dir=args.cache_dir)
    if (args.fmt or "csv") == "csv":
        text = table.to_csv_text()
    else:
        text = json.dumps(table.to_json_obj(), indent=2, allow_nan=False) + "\n"
    _write_output(args, text)
    return EXIT_OK


def _run_verify(args) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    results = run_property_suite(seed)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name:<{width}} {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} properties passed (seed {seed})")
    return EXIT_OK if failed == 0 else EXIT_PROPERTIES


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the config-error code
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        _apply_config_file(args, commands[args.command])
        if args.command == "solve":
            return _run_solve(args)
        if args.command == "sweep":
            return _run_sweep(args)
        return _run_verify(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FracstepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
