"""Acceptance gate: every shipped guarantee at its stated tolerance.

Each criterion is one test that prints a PASS line once its assertions hold
(run with ``pytest -s`` to see the lines live).  The convergence sweeps run
at desk scale and check observed orders, not the published absolute error
digits.
"""

import csv
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import fracstep
from fracstep import assembly, fem1d, harness, properties, solver
from fracstep.fracops import TemporalGrid, temporal_weights
from fracstep.properties import (
    prop_coercivity,
    prop_duality,
    prop_semigroup,
    prop_two_sided_bound,
)

SEED = 20240801


def _suite_rngs(count):
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(SEED).spawn(count)]


def _report(num, detail):
    print(f"ACCEPTANCE {num} PASS: {detail}")


def _assert_monotone(table):
    for key in ("E1", "E2"):
        errors = [row[key] for row in table.rows]
        assert all(b < a for a, b in zip(errors, errors[1:])), \
            f"{key} not strictly decreasing: {errors}"


# --- shared sweep fixtures (criteria 4-6 assert orders, criterion 8 gaps) ---

@pytest.fixture(scope="module")
def manufactured_tables():
    start = time.perf_counter()
    spatial = harness.run_sweep(harness.default_plan("manufactured", "space"))
    temporal = harness.run_sweep(harness.default_plan("manufactured", "time"))
    return spatial, temporal, time.perf_counter() - start


@pytest.fixture(scope="module")
def experiment1_table():
    start = time.perf_counter()
    table = harness.run_sweep(harness.default_plan("experiment1", "space"))
    return table, time.perf_counter() - start


@pytest.fixture(scope="module")
def experiment3_tables():
    start = time.perf_counter()
    spatial = harness.run_sweep(harness.default_plan("experiment3", "space"))
    temporal = harness.run_sweep(harness.default_plan("experiment3", "time"))
    return spatial, temporal, time.perf_counter() - start


@pytest.fixture(scope="module")
def desk_tables(manufactured_tables, experiment1_table, experiment3_tables):
    """All eight desk tables by (experiment, axis); five reuse the fixtures above."""
    tables = {("manufactured", "space"): manufactured_tables[0],
              ("manufactured", "time"): manufactured_tables[1],
              ("experiment1", "space"): experiment1_table[0],
              ("experiment3", "space"): experiment3_tables[0],
              ("experiment3", "time"): experiment3_tables[1]}
    for key in (("experiment1", "time"), ("experiment2", "space"), ("experiment2", "time")):
        tables[key] = harness.run_sweep(harness.default_plan(*key))
    return tables


def test_criterion_1_operator_identity_suite():
    start = time.perf_counter()
    rngs = _suite_rngs(4)
    results = [
        prop_semigroup(rngs[0]),        # 1e-12 closed form
        prop_duality(rngs[1]),          # 1e-12 closed form
        prop_coercivity(rngs[2]),       # positivity + 1e-9 oracle
        prop_two_sided_bound(rngs[3]),  # positivity + boundedness
    ]
    elapsed = time.perf_counter() - start
    for result in results:
        assert result.passed, f"{result.name}: {result.detail}"
    assert elapsed < 30.0
    _report(1, f"semigroup/duality/coercivity/two-sided on 100 instances each "
               f"in {elapsed:.1f}s")


def test_criterion_2_block_system_equivalence():
    start = time.perf_counter()
    grid = TemporalGrid.uniform(16, 1.0)
    mesh = fem1d.Mesh1D(8)  # N = 7 interior unknowns
    worst = 0.0
    for alpha in (0.3, 0.5, 0.8):
        spec = harness.experiment_problem("experiment1", alpha, r=-0.8)
        loads = assembly.assemble_load(spec, grid, mesh)
        marched, _ = solver.solve(spec, grid, mesh, loads=loads)
        dense = properties.dense_block_solve(grid, mesh, alpha, loads)
        scale = float(np.max(np.abs(dense)))
        worst = max(worst, float(np.max(np.abs(marched.values - dense))) / scale)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    _report(2, f"marched vs dense block solve, J=16 N=7, rel err {worst:.2e} "
               f"in {elapsed:.1f}s")


def test_criterion_3_spectral_decoupling():
    start = time.perf_counter()
    mesh = fem1d.Mesh1D(32)
    grid = TemporalGrid.uniform(128, 1.0)
    alpha, mode = 0.6, 1
    spec = assembly.spectral_test_problem(mode, alpha)
    field, _ = solver.solve(spec, grid, mesh)
    lam = assembly.spectral_eigenvalue(mesh, mode)
    scalars = properties.scalar_solve(alpha, lam, grid, y0=1.0)
    predicted = np.outer(scalars, fem1d.sine_vector(mesh, mode))
    scale = float(np.max(np.abs(predicted)))
    per_step = np.max(np.abs(field.values - predicted), axis=1) / scale
    elapsed = time.perf_counter() - start
    assert float(np.max(per_step)) <= 1e-10
    assert elapsed < 5.0
    _report(3, f"PDE equals scalar recursion x sine at all {grid.num_steps} "
               f"steps, max rel err {np.max(per_step):.2e} in {elapsed:.1f}s")


def test_criterion_4_manufactured_convergence(manufactured_tables):
    spatial, temporal, elapsed = manufactured_tables
    _assert_monotone(spatial)
    _assert_monotone(temporal)
    e2_space = spatial.final_order("E2")
    e1_space = spatial.final_order("E1")
    e2_time = temporal.final_order("E2")
    assert abs(e2_space - 2.0) <= 0.1
    assert abs(e1_space - 1.0) <= 0.1
    assert abs(e2_time - 1.0) <= 0.1
    assert elapsed < 120.0
    _report(4, f"manufactured orders: spatial E2 {e2_space:.3f} (2.0+-0.1), "
               f"E1 {e1_space:.3f} (1.0+-0.1), temporal E2 {e2_time:.3f} "
               f"(1.0+-0.1) in {elapsed:.0f}s")


# E1/E2 of the two manufactured desk tables, frozen; numerics that move them
# must re-record them
MANUFACTURED_SPACE_ERRORS = [
    (0.11235990987350737, 0.0037712521164762749),
    (0.056277507780239634, 0.00094259757204716548),
    (0.028148524916718411, 0.00023560442097164),
    (0.014070648780411459, 5.8867221054438687e-05),
    (0.0070251936365258692, 1.4683616509048675e-05),
]
MANUFACTURED_TIME_ERRORS = [
    (0.046708694915729619, 0.014825293907008458),
    (0.023525199459624321, 0.0074037539232280824),
    (0.012138475039792528, 0.0036975695768983294),
    (0.0067869549481334168, 0.0018469681381228311),
    (0.0045599606066900186, 0.00092273533594867518),
    (0.0038060066013666386, 0.00046105260814024578),
]


def test_manufactured_tables_match_frozen_errors(manufactured_tables):
    spatial, temporal, _ = manufactured_tables
    for table, frozen in ((spatial, MANUFACTURED_SPACE_ERRORS),
                          (temporal, MANUFACTURED_TIME_ERRORS)):
        assert len(table.rows) == len(frozen)
        for row, (e1, e2) in zip(table.rows, frozen):
            assert row["E1"] == pytest.approx(e1, rel=1e-12, abs=0.0)
            assert row["E2"] == pytest.approx(e2, rel=1e-12, abs=0.0)


# The eight desk tables as pinned text: the CSV as ``to_csv_text`` writes it.
# Numerics that move a value by more than 1e-12 relative regenerate the files;
# the reference cache needs no such step, as its key carries a digest of the
# numerics modules' source.
DESK_TABLE_DIR = os.path.join(os.path.dirname(__file__), "desk_tables")
DESK_PLANS = [(experiment, axis)
              for experiment in ("experiment1", "experiment2", "experiment3", "manufactured")
              for axis in ("space", "time")]
DESK_COLUMNS = ("h", "tau", "E1", "order1", "E2", "order2")


def _pinned_desk_table(experiment, axis):
    with open(os.path.join(DESK_TABLE_DIR, f"{experiment}_{axis}.csv")) as fh:
        return list(csv.DictReader(fh))


def test_desk_tables_match_pinned(desk_tables):
    assert sorted(desk_tables) == sorted(DESK_PLANS)
    largest = {column: (0.0, None) for column in DESK_COLUMNS}
    for key, table in sorted(desk_tables.items()):
        pinned = _pinned_desk_table(*key)
        assert len(table.rows) == len(pinned), key
        for level, (row, pin) in enumerate(zip(table.rows, pinned)):
            for column in DESK_COLUMNS:
                if pin[column] == "":
                    assert row[column] is None, (key, level, column)
                    continue
                want = float(pin[column])
                move = abs(row[column] - want) / abs(want)
                if not move <= largest[column][0]:
                    largest[column] = (move, (*key, level))
    assert all(move <= 1e-12 for move, _ in largest.values()), \
        "largest relative move per column: " + "; ".join(
            f"{column} {move:.3g} at {where}" for column, (move, where) in largest.items())


def test_criterion_5_experiment1_desk_scale(experiment1_table):
    table, elapsed = experiment1_table
    _assert_monotone(table)
    e1_order = table.final_order("E1")
    e2_order = table.final_order("E2")
    # tabulated final-level orders 0.66-0.69 / 1.66-1.69, +-0.15 band
    assert 0.66 - 0.15 <= e1_order <= 0.69 + 0.15
    assert 1.66 - 0.15 <= e2_order <= 1.69 + 0.15
    assert elapsed < 600.0
    _report(5, f"experiment 1 (alpha=0.2, r=-0.8) spatial orders E1 "
               f"{e1_order:.3f} in [0.51, 0.84], E2 {e2_order:.3f} in "
               f"[1.51, 1.84] in {elapsed:.0f}s")


def test_criterion_6_experiment3_desk_scale(experiment3_tables):
    spatial, temporal, elapsed = experiment3_tables
    _assert_monotone(spatial)
    _assert_monotone(temporal)
    e1_space = spatial.final_order("E1")
    e2_space = spatial.final_order("E2")
    e1_time = temporal.final_order("E1")
    e2_time = temporal.final_order("E2")
    assert abs(e1_space - 0.9) <= 0.15
    assert abs(e2_space - 1.9) <= 0.15
    assert 0.62 - 0.15 <= e1_time <= 0.65 + 0.15
    # the tabulated temporal E2 orders drift across 0.69-0.87; the measured
    # value is reported against that band with the same +-0.15 slack
    assert 0.69 - 0.15 <= e2_time <= 0.87 + 0.15
    assert elapsed < 600.0
    _report(6, f"experiment 3 (alpha=0.8) orders: spatial E1 {e1_space:.3f} "
               f"(0.9+-0.15), E2 {e2_space:.3f} (1.9+-0.15); temporal E1 "
               f"{e1_time:.3f} in [0.47, 0.80], E2 {e2_time:.3f} reported "
               f"against band [0.69, 0.87] in {elapsed:.0f}s")


# a space sweep caches the reference field; a time sweep its block moments
@pytest.mark.parametrize("axis_args", [
    ("--axis", "space", "--nx", "4", "--levels", "2", "--nt", "16",
     "--ref-nx", "32", "--ref-nt", "16"),
    ("--axis", "time", "--nx", "4", "--nt", "4", "--levels", "2",
     "--ref-nx", "4", "--ref-nt", "16"),
], ids=["space", "time"])
def test_criterion_7_sweep_determinism(tmp_path, axis_args):
    env = dict(os.environ)
    env["FRACSTEP_CACHE_DIR"] = str(tmp_path / "cache")
    # the child imports the package this process imported
    package_root = os.path.dirname(os.path.dirname(fracstep.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    args = [sys.executable, "-m", "fracstep", "sweep", "--experiment", "exp1",
            "--alpha", "0.3", "--r", "-0.5", *axis_args]
    outputs = []
    for name in ("first.csv", "second.csv", "third.csv"):
        path = tmp_path / name
        proc = subprocess.run(args + ["--output", str(path)], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    # cold cache, warm cache and warm-again runs are byte-identical
    assert len(list((tmp_path / "cache").iterdir())) == 1
    assert outputs[0] == outputs[1] == outputs[2]
    _report(7, f"three {axis_args[1]} sweep invocations produced byte-identical "
               f"CSV ({len(outputs[0])} bytes)")


def test_criterion_8_energy_identity_everywhere(manufactured_tables,
                                                experiment1_table,
                                                experiment3_tables):
    gaps = {}
    # gaps accumulated by every solve inside the acceptance sweeps
    spatial, temporal, _ = manufactured_tables
    gaps["manufactured-space"] = spatial.meta["max_energy_gap"]
    gaps["manufactured-time"] = temporal.meta["max_energy_gap"]
    table, _ = experiment1_table
    gaps["experiment1-space"] = table.meta["max_energy_gap"]
    spatial3, temporal3, _ = experiment3_tables
    gaps["experiment3-space"] = spatial3.meta["max_energy_gap"]
    gaps["experiment3-time"] = temporal3.meta["max_energy_gap"]

    # independent post-hoc recomputation on representative solved problems
    cases = [
        ("experiment1", dict(r=-0.8), 0.3, 16, 8),
        ("experiment1", dict(r=-0.8), 0.8, 16, 8),
        ("experiment2", dict(c=1.0), 0.7, 32, 16),
        ("experiment3", {}, 0.8, 64, 32),
        ("manufactured", {}, 0.8, 64, 32),
    ]
    for tag, params, alpha, num_steps, n_cells in cases:
        spec = harness.experiment_problem(tag, alpha, **params)
        grid = TemporalGrid.uniform(num_steps, 1.0)
        mesh = fem1d.Mesh1D(n_cells)
        loads = assembly.assemble_load(spec, grid, mesh)
        field, report = solver.solve(spec, grid, mesh, loads=loads)
        weights = temporal_weights(grid, alpha)
        gaps[f"recomputed-{tag}-a{alpha}"] = max(
            report.energy_gap,
            properties.energy_identity_gap(field, weights, loads))

    worst = max(gaps.values())
    assert worst <= 1e-10, gaps
    _report(8, f"Galerkin energy identity gap <= {worst:.2e} over "
               f"{len(gaps)} solve groups (tol 1e-10)")
