"""Command-line front end: ``fracstep solve|sweep|verify``.

Flags use the experiment parameter names (alpha, r, c, sigma, nx, nt) so the
mapping from a table row to a command stays legible; a data flag the chosen
experiment does not take is refused.  An optional config file holds flat
``key=value`` lines, where ``key`` is a flag name (``_`` may stand for
``-``).  Each line becomes a ``--key=value`` token that the same parser reads
ahead of the command line, so the last value wins and explicit flags
override the file.

Exit codes: 0 success, 2 config error, 3 domain/precondition error,
4 property-suite failure.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import fem1d, harness, solver
from .errors import BUDGET, BudgetError, FracstepError
from .fracops import TemporalGrid
from .harness import format_float, is_power_of_two
from .properties import DEFAULT_SEED, run_property_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_PROPERTIES = 4


class ConfigError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
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
                       default="csv", help="output format (default csv)")

    psolve = commands.add_parser("solve", help="single solve with diagnostics")
    add_common(psolve)

    psweep = commands.add_parser("sweep", help="refinement sweep and table")
    add_common(psweep)
    psweep.add_argument("--axis", choices=("space", "time"), default="space",
                        help="refined axis (default space)")
    psweep.add_argument("--levels", type=int, help="number of dyadic levels")
    psweep.add_argument("--ref-nx", type=int, dest="ref_nx",
                        help="reference mesh cells")
    psweep.add_argument("--ref-nt", type=int, dest="ref_nt",
                        help="reference time steps")
    psweep.add_argument("--cache-dir", dest="cache_dir",
                        default=os.environ.get("FRACSTEP_CACHE_DIR"),
                        help="reference cache directory "
                             "(default $FRACSTEP_CACHE_DIR)")

    pverify = commands.add_parser("verify", help="run the property suite")
    pverify.add_argument("--config", help="flat key=value file with flag defaults")
    pverify.add_argument("--seed", type=int, default=DEFAULT_SEED,
                         help="property-suite seed")
    return parser


def _config_tokens(path: str) -> list[str]:
    """The file's ``key=value`` lines as ``--key=value`` tokens, in order."""
    try:
        with open(path, "r") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    tokens = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno} is not key=value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if len(key) > 1 and ("config".startswith(key) or "help".startswith(key)):
            # argparse would read --config or --help here, which is not followed
            raise ConfigError(f"unknown config key {key!r}")
        tokens.append(f"--{key.replace('_', '-')}={value}")
    return tokens


def _require(args, name):
    value = getattr(args, name)
    if value is None:
        raise ConfigError(f"--{name.replace('_', '-')} is required")
    return value


def _experiment(args) -> tuple[str, harness.Experiment, dict]:
    """Tag, entry and given data flags; another experiment's data flag is refused."""
    name = _require(args, "experiment")
    for tag, entry in harness.EXPERIMENTS.items():
        if name in entry.aliases:
            data_flags = {key for other in harness.EXPERIMENTS.values()
                          for key in other.params}
            for key in sorted(data_flags - entry.params.keys()):
                if getattr(args, key) is not None:
                    raise ConfigError(f"experiment {tag} takes no --{key}")
            return tag, entry, {key: getattr(args, key) for key in entry.params
                                if getattr(args, key) is not None}
    raise ConfigError(f"unknown experiment {name!r}")


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def _check_output(path: str | None) -> None:
    """Refuse an unwritable ``--output`` before the run, without touching it."""
    if path is None:
        return
    folder = os.path.dirname(path) or "."
    target = path if os.path.exists(path) else folder
    # an empty basename is the empty path or one ending in a separator
    if ("\0" in path or not os.path.basename(path) or os.path.isdir(path)
            or not os.path.isdir(folder) or not os.access(target, os.W_OK)):
        raise ConfigError(f"cannot write output: {path!r} is not a writable file path")


def _check_resolutions(args, names) -> None:
    """Refuse a resolution above ``BUDGET`` (no solve takes it) by name, not by value."""
    for name in names:
        if (getattr(args, name) or 0) > BUDGET:
            raise BudgetError(f"--{name.replace('_', '-')} exceeds the budget of {BUDGET}")


def _write_output(args, csv_text, json_obj) -> None:
    """Write the CSV text or the JSON object, as ``--format`` asks.

    Both come as zero-argument builders, and only the requested one is
    called.  The text is built in full before the file is opened, so a
    failure leaves no partial file.
    """
    text = (csv_text() if args.fmt == "csv"
            else json.dumps(json_obj(), indent=2, allow_nan=False) + "\n")
    if args.output is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


def _run_solve(args) -> int:
    tag, entry, params = _experiment(args)
    alpha = _check_alpha(_require(args, "alpha"))
    nx = _require(args, "nx")
    nt = _require(args, "nt")
    if nx < 2 or nt < 1:
        raise ConfigError("need nx >= 2 and nt >= 1")
    for name, default in entry.params.items():
        if default is None:
            _require(args, name)
    _check_output(args.output)
    _check_resolutions(args, ("nx", "nt"))
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

    def csv_text():
        lines = ["x,u_final"]
        lines += [f"{format_float(xi)},{format_float(ui)}" for xi, ui in zip(x, u)]
        if errors is not None:  # diagnostics ride along as comment lines
            lines += [f"# E1={format_float(errors['E1'])}",
                      f"# E2={format_float(errors['E2'])}"]
        return "\n".join(lines) + "\n"

    _write_output(args, csv_text, lambda: {
        "meta": {"experiment": tag, "alpha": alpha, "nx": nx, "nt": nt,
                 "params": params},
        "final_time_values": {"x": x.tolist(), "u": u.tolist()},
        "errors": errors,
        "report": {"steps": grid.num_steps,
                   "max_residual": float(np.max(report.residual_norms)),
                   "energy_gap": report.energy_gap,
                   "wall_time_s": report.wall_time},
    })
    return EXIT_OK


def _run_sweep(args) -> int:
    tag, _, params = _experiment(args)
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
    _check_resolutions(args, ("nx", "nt", "ref_nx", "ref_nt"))
    plan = harness.default_plan(
        tag, args.axis, alpha=args.alpha, params=params,
        nx=args.nx, nt=args.nt, count=args.levels, reference=reference)
    _check_output(args.output)
    if args.cache_dir is not None and (not args.cache_dir or "\0" in args.cache_dir):
        raise ConfigError(f"cannot use the reference cache: {args.cache_dir!r} "
                          "is not a directory path")
    try:
        table = harness.run_sweep(plan, cache_dir=args.cache_dir)
    except OSError as exc:  # an unusable cache directory or an unreadable source file
        raise ConfigError(f"cannot use the reference cache: {exc}") from exc
    _write_output(args, table.to_csv_text, table.to_json_obj)
    return EXIT_OK


def _run_verify(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {args.seed}")
    results = run_property_suite(args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name:<{width}} {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} properties passed (seed {args.seed})")
    return EXIT_OK if failed == 0 else EXIT_PROPERTIES


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config is not None:  # the file's flags first, so the command line wins
            args = parser.parse_args(
                [args.command, *_config_tokens(args.config), *argv[1:]])
        if args.command == "solve":
            return _run_solve(args)
        if args.command == "sweep":
            return _run_sweep(args)
        return _run_verify(args)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the config-error code
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FracstepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
