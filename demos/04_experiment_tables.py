"""Desk-scale convergence tables for the nonsmooth-data experiments.

Reruns the singular-data studies at reduced reference resolutions: the
observed orders, not the absolute error digits, are the point.  Expect a
few seconds of runtime.  Reference solutions are cached under
$FRACSTEP_CACHE_DIR, which this script passes to run_sweep: run_sweep
caches only under the directory it is given, and not at all when the
variable is unset.

Experiment 1: u0 = x^r, f = x^r t^-0.49 (here alpha 0.2, r -0.8); the
low-regularity initial value caps the spatial orders near 0.7 / 1.7.
Experiment 3: u0 = 0, f = x^-0.49 t^-0.29 at alpha 0.8; the optimal-rate
regime, orders near 0.9 / 1.9 in space and toward 0.6 / 1 in time.
"""
import os

from fracstep import default_plan, run_sweep

RUNS = [
    ("experiment 1, spatial (alpha 0.2, r -0.8)",
     default_plan("experiment1", "space")),
    ("experiment 3, spatial (alpha 0.8)", default_plan("experiment3", "space")),
    ("experiment 3, temporal (alpha 0.8)", default_plan("experiment3", "time")),
]

for title, plan in RUNS:
    table = run_sweep(plan, cache_dir=os.environ.get("FRACSTEP_CACHE_DIR"))
    print(f"=== {title} ===")
    print(table.to_csv_text(), end="")
    print(f"final orders: E1 {table.final_order('E1'):.3f}  "
          f"E2 {table.final_order('E2'):.3f}  "
          f"(runtime {table.meta['runtime_s']:.1f}s)\n")
