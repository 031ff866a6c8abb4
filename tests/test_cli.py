import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time
import tracemalloc
import warnings

import pytest

from fracstep import cli, harness
from fracstep.cli import main
from fracstep.errors import BUDGET
from fracstep.harness import EXPERIMENTS, default_plan, run_sweep


# an exp3 time sweep of two levels against a 16x16 reference, a few ms per run
TINY_SWEEP = ("--experiment", "exp3", "--axis", "time", "--nx", "16", "--nt", "4",
              "--levels", "2", "--ref-nx", "16", "--ref-nt", "16")
# a resolution far above the budget: 2^14280, 4299 digits, just under the
# 4300-digit limit of int()
HUGE = str(2 ** 14280)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_manufactured_solve_writes_diagnostics(self, tmp_path, capsys):
        out_file = tmp_path / "solution.csv"
        code, out, _ = run_cli(
            capsys, "solve", "--experiment", "manufactured", "--alpha", "0.8",
            "--nx", "16", "--nt", "32", "--output", str(out_file))
        assert code == 0
        assert "E1=" in out and "E2=" in out
        lines = out_file.read_text().splitlines()
        assert lines[0] == "x,u_final"
        data = [line for line in lines[1:] if not line.startswith("#")]
        assert len(data) == 17  # nx + 1 nodes including both boundaries
        first = data[0].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
        assert any(line.startswith("# E1=") for line in lines)

    def test_alpha_out_of_range_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--experiment", "manufactured", "--alpha", "1.2",
            "--nx", "16", "--nt", "16")
        assert code == 2
        assert "alpha" in err

    def test_experiment1_smoke(self, tmp_path, capsys):
        out_file = tmp_path / "exp1.json"
        code, out, _ = run_cli(
            capsys, "solve", "--experiment", "exp1", "--alpha", "0.2",
            "--r", "-0.8", "--nx", "8", "--nt", "64",
            "--output", str(out_file), "--format", "json")
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert set(payload) == {"meta", "final_time_values", "errors", "report"}
        assert payload["errors"] is None
        assert payload["report"]["max_residual"] <= 1e-12

    @pytest.mark.parametrize("where", ["missing-dir/x.csv", ".", "missing-dir/", None,
                                       "o\0ut.csv"],
                             ids=["missing-dir", "a-dir", "trailing-separator", "empty",
                                  "nul"])
    def test_unwritable_output_fails_before_the_run(self, tmp_path, capsys, where):
        target = "" if where is None else os.path.join(str(tmp_path), where)
        code, out, err = run_cli(
            capsys, "solve", "--experiment", "manufactured", "--alpha", "0.8",
            "--nx", "8", "--nt", "4", "--output", target)
        assert code == 2
        assert out == "" and err.startswith("config error: cannot write output")
        assert not (tmp_path / "missing-dir").exists()

    def test_many_steps_not_a_power_of_two_solve(self, capsys):
        # the nodes of TemporalGrid.uniform(100000) are rounded; the march
        # must still take the grid as uniform
        code, _, err = run_cli(
            capsys, "solve", "--experiment", "manufactured", "--alpha", "0.5",
            "--nx", "2", "--nt", "100000")
        assert code == 0, err
        assert "nt=100000" in err

    def test_spectral_solve(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--experiment", "spectral", "--alpha", "0.6",
            "--mode", "2", "--nx", "16", "--nt", "16")
        assert code == 0
        # without --output stdout holds the CSV and the summary goes to stderr
        lines = out.splitlines()
        header = lines.index("x,u_final")
        assert len(lines) - header - 1 == 17  # nx + 1 nodes

    def test_json_on_stdout_parses(self, capsys):
        code, out, err = run_cli(
            capsys, "solve", "--experiment", "spectral", "--alpha", "0.6",
            "--mode", "2", "--nx", "16", "--nt", "16", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["nt"] == 16
        assert err.startswith("solved spectral")

    def test_json_solve_formats_no_node_as_csv_text(self, capsys, monkeypatch):
        # only the requested output is built: the summary's alpha, E1 and E2
        # are the only floats formatted, not the 17 nodes' CSV text
        formatted = []

        def spy(value):
            formatted.append(value)
            return harness.format_float(value)

        monkeypatch.setattr(cli, "format_float", spy)
        code, out, _ = run_cli(
            capsys, "solve", "--experiment", "manufactured", "--alpha", "0.8",
            "--nx", "16", "--nt", "8", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["final_time_values"]["x"]) == 17
        assert len(formatted) == 3

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--experiment", "exp1",
                               "--alpha", "0.2", "--nx", "8", "--nt", "8")
        assert code == 2
        assert "--r" in err

    def test_experiment1_deep_time_grid_end_to_end(self, tmp_path, capsys):
        out_file = tmp_path / "deep.csv"
        code, out, _ = run_cli(
            capsys, "solve", "--experiment", "exp1", "--alpha", "0.2",
            "--r", "-0.8", "--nx", "8", "--nt", "4096",
            "--output", str(out_file))
        assert code == 0
        assert out_file.read_text().splitlines()[0] == "x,u_final"

    def test_domain_error_exits_three(self, capsys):
        # aliasing guard trips inside the library, not at config parsing
        code, _, err = run_cli(
            capsys, "solve", "--experiment", "spectral", "--alpha", "0.6",
            "--mode", "32", "--nx", "16", "--nt", "8")
        assert code == 3
        assert "aliasing" in err

    def test_non_finite_exponent_exits_three(self, capsys):
        code, out, err = run_cli(
            capsys, "solve", "--experiment", "exp1", "--alpha", "0.5",
            "--r", "inf", "--nx", "8", "--nt", "4")
        assert code == 3
        assert "exponent must be finite" in err and out == ""

    def test_non_finite_scale_exits_three_without_warnings(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "solve", "--experiment", "exp2", "--alpha", "0.5",
                "--c", "inf", "--nx", "8", "--nt", "4")
        assert code == 3
        assert "scale must be finite" in err and out == ""
        assert not caught

    # values near 1e306 square to inf, so the step residuals are NaN; near
    # 1e158 the residuals pass but the energy sums overflow
    @pytest.mark.parametrize("scale, message", [("1e308", "residual nan"),
                                                ("1e160", "energy gap nan")])
    def test_overflowing_data_exits_three(self, capsys, scale, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "solve", "--experiment", "exp2", "--alpha", "0.5",
                "--c", scale, "--nx", "8", "--nt", "4", "--format", "json")
        assert code == 3
        assert message in err and out == ""
        assert not caught

    def test_over_budget_solve_exits_three_before_allocating(self, capsys):
        start = time.perf_counter()
        code, _, err = run_cli(
            capsys, "solve", "--experiment", "exp3", "--alpha", "0.5",
            "--nx", "100000", "--nt", "100000")
        assert code == 3
        assert "budget" in err
        assert time.perf_counter() - start < 2.0

    def test_huge_step_count_exits_three_before_allocating(self, capsys):
        # 2^40 steps: the grid's nodes alone would take 8 TiB
        code, _, err = run_cli(
            capsys, "solve", "--experiment", "exp3", "--alpha", "0.5",
            "--nx", "4", "--nt", str(1 << 40))
        assert code == 3
        assert err.startswith("error:") and "budget" in err

    @pytest.mark.parametrize("flag", ["--nx", "--nt"])
    def test_huge_resolution_is_named_not_printed(self, capsys, flag):
        # the later flag wins; its 4299 digits stay out of the message
        code, out, err = run_cli(
            capsys, "solve", "--experiment", "exp3", "--alpha", "0.5",
            "--nx", "4", "--nt", "4", flag, HUGE)
        assert code == 3 and out == ""
        assert err == f"error: {flag} exceeds the budget of {BUDGET}\n"


class TestSweep:
    def test_csv_schema_and_determinism(self, tmp_path, capsys):
        args = ("sweep", "--experiment", "manufactured", "--axis", "time",
                "--alpha", "0.8", "--nx", "32", "--nt", "8", "--levels", "3")
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_cli(capsys, *args, "--output", str(first))[0] == 0
        assert run_cli(capsys, *args, "--output", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()
        header = first.read_text().splitlines()[0]
        assert header == "h,tau,E1,order1,E2,order2"

    def test_single_level_empty_orders(self, tmp_path, capsys):
        out_file = tmp_path / "one.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--experiment", "manufactured", "--axis", "time",
            "--alpha", "0.8", "--nx", "32", "--nt", "8", "--levels", "1",
            "--output", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[3] == "" and fields[5] == ""  # no orders on a lone level

    def test_json_meta_block(self, tmp_path, capsys):
        out_file = tmp_path / "table.json"
        code, _, _ = run_cli(
            capsys, "sweep", "--experiment", "manufactured", "--axis", "time",
            "--alpha", "0.8", "--nx", "32", "--nt", "8", "--levels", "2",
            "--format", "json", "--output", str(out_file))
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert set(payload["meta"]) >= {"alpha", "experiment", "params",
                                        "h_ref", "tau_ref", "runtime_s"}

    def test_non_power_of_two_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--experiment", "manufactured", "--axis", "time",
            "--alpha", "0.8", "--nx", "24", "--nt", "8")
        assert code == 2
        assert "power of" in err

    def test_huge_step_count_exits_three_before_allocating(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--experiment", "manufactured", "--axis", "time",
            "--nx", "4", "--nt", str(1 << 40), "--levels", "1")
        assert code == 3
        assert err.startswith("error:") and "budget" in err

    def test_reference_based_sweep_with_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = ("sweep", "--experiment", "exp1", "--alpha", "0.3", "--r", "-0.5",
                "--axis", "space", "--nx", "4", "--levels", "2", "--nt", "16",
                "--ref-nx", "32", "--ref-nt", "16", "--cache-dir", str(cache))
        first = tmp_path / "c1.csv"
        second = tmp_path / "c2.csv"
        assert run_cli(capsys, *args, "--output", str(first))[0] == 0
        assert any(p.suffix == ".bin" for p in cache.iterdir())
        assert run_cli(capsys, *args, "--output", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_corrupt_cached_reference_is_recomputed(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = ("sweep", "--experiment", "exp3", "--axis", "time", "--nx", "16",
                "--nt", "4", "--levels", "3", "--ref-nx", "16", "--ref-nt", "64",
                "--cache-dir", str(cache))
        first = tmp_path / "c1.csv"
        second = tmp_path / "c2.csv"
        assert run_cli(capsys, *args, "--output", str(first))[0] == 0
        entry = next(cache.glob("*.bin"))  # its last value becomes a NaN
        entry.write_bytes(entry.read_bytes()[:-8] + b"\x00\x00\x00\x00\x00\x00\xf8\x7f")
        code, _, err = run_cli(capsys, *args, "--output", str(second))
        assert code == 0, err
        assert first.read_bytes() == second.read_bytes()

    def test_non_utf8_cache_sidecar_is_a_miss(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = ("sweep", *TINY_SWEEP)
        code, cold, _ = run_cli(capsys, *args)
        assert code == 0
        assert run_cli(capsys, *args, "--cache-dir", str(cache))[0] == 0
        (entry,) = cache.iterdir()
        entry.write_bytes(b"\xff\xfe" + entry.read_bytes()[2:])  # over the key's first bytes
        code, warm, err = run_cli(capsys, *args, "--cache-dir", str(cache))
        assert code == 0, err
        assert warm == cold

    def test_unwritable_output_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the output was checked")

        monkeypatch.setattr("fracstep.harness.run_sweep", no_sweep)
        target = tmp_path / "missing-dir" / "table.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--experiment", "manufactured", "--axis", "time",
            "--nx", "8", "--nt", "4", "--levels", "2", "--output", str(target))
        assert code == 2
        assert out == "" and err.startswith("config error: cannot write output")
        assert not target.parent.exists()

    @pytest.mark.parametrize("line, env", [("cache_dir=c\0d", None), ("cache_dir=", None),
                                           (None, "")], ids=["nul", "empty", "empty-env"])
    def test_unusable_cache_dir_fails_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                     line, env):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the cache directory was checked")

        monkeypatch.setattr("fracstep.harness.run_sweep", no_sweep)
        monkeypatch.chdir(tmp_path)
        config = ()
        if line is not None:
            pathlib.Path("run.cfg").write_text(f"{line}\n")
            config = ("--config", "run.cfg")
        if env is not None:
            monkeypatch.setenv("FRACSTEP_CACHE_DIR", env)
        before = sorted(os.listdir())
        code, out, err = run_cli(capsys, "sweep", *config, *TINY_SWEEP)
        assert code == 2 and out == ""
        assert err.startswith("config error: cannot use the reference cache")
        assert sorted(os.listdir()) == before

    def test_cache_dir_defaults_to_the_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FRACSTEP_CACHE_DIR", str(tmp_path / "env"))
        assert run_cli(capsys, "sweep", *TINY_SWEEP)[0] == 0
        assert [p.suffix for p in (tmp_path / "env").iterdir()] == [".bin"]

    @pytest.mark.parametrize("source", ["flag", "config-line"])
    def test_given_cache_dir_overrides_the_environment(self, tmp_path, capsys, monkeypatch,
                                                       source):
        monkeypatch.setenv("FRACSTEP_CACHE_DIR", str(tmp_path / "env"))
        given = tmp_path / "given"
        args = ("--cache-dir", str(given))
        if source == "config-line":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"cache_dir={given}\n")
            args = ("--config", str(cfg))
        assert run_cli(capsys, "sweep", *args, *TINY_SWEEP)[0] == 0
        assert [p.suffix for p in given.iterdir()] == [".bin"]
        assert not (tmp_path / "env").exists()

    @pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
    def test_over_budget_reference_exits_three_before_allocating(
            self, tmp_path, capsys, monkeypatch, cached):
        # each flag is within the budget, the reference's product is not; a
        # cache lookup once sized a 2 PiB read buffer before the solve's check
        monkeypatch.delenv("FRACSTEP_CACHE_DIR")
        cache = tmp_path / "cache"
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys, "sweep", "--experiment", "manufactured", "--axis", "time",
                "--nx", "4", "--nt", "8388608", "--levels", "1",
                "--ref-nx", "16777216", "--ref-nt", "16777216",
                *(("--cache-dir", str(cache)) if cached else ()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out == ""
        assert err == (f"error: solve (16777216 cells, 16777216 steps) exceeds the "
                       f"budget of {BUDGET} space-time unknowns\n")
        assert peak < 1 << 20, peak  # the finest level's grid alone is 64 MiB
        assert not cache.exists() or not any(cache.iterdir())

    def test_huge_level_count_exits_three(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--experiment", "manufactured", "--axis", "time",
            "--nx", "4", "--nt", "4", "--levels", "30000")
        assert code == 3 and out == ""
        assert err == "error: 30000 dyadic levels exceed the budget of 16777216\n"

    @pytest.mark.parametrize("flags", [
        ("--nx", HUGE), ("--nt", HUGE),
        ("--ref-nx", HUGE, "--ref-nt", "64"), ("--ref-nx", "64", "--ref-nt", HUGE),
    ], ids=["nx", "nt", "ref-nx", "ref-nt"])
    def test_huge_resolution_is_named_not_printed(self, capsys, flags):
        code, out, err = run_cli(
            capsys, "sweep", "--experiment", "manufactured", "--axis", "space",
            "--nt", "4", "--levels", "25", *flags)
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 100
        assert "budget" in err

    def test_overflowing_data_exits_three(self, tmp_path, capsys):
        # at c = 1e160 the energy sums and squared errors overflow; the JSON
        # once held Infinity and NaN
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "sweep", "--experiment", "exp2", "--axis", "time",
                "--c", "1e160", "--nx", "8", "--nt", "4", "--levels", "2",
                "--ref-nx", "8", "--ref-nt", "16", "--format", "json",
                "--cache-dir", str(tmp_path / "cache"))
        assert code == 3
        assert "not finite" in err and out == ""
        assert not caught

    def test_unusable_cache_dir_exits_two(self, tmp_path, capsys):
        # the cache directory would lie under a regular file
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run_cli(
            capsys, "sweep", "--experiment", "exp3", "--axis", "time", "--nx", "16",
            "--nt", "4", "--levels", "2", "--ref-nx", "16", "--ref-nt", "64",
            "--cache-dir", str(blocker / "cache"))
        assert code == 2
        assert err.startswith("config error:") and len(err.splitlines()) == 1
        assert out == ""

    def test_unreadable_source_exits_two(self, tmp_path, capsys, monkeypatch):
        # the cache key needs the numerics' source; without it there is no
        # fallback key, and nothing is solved or written
        monkeypatch.setattr(harness, "__file__", str(tmp_path / "gone" / "harness.py"))
        harness._source_digest.cache_clear()
        try:
            code, out, err = run_cli(capsys, "sweep", *TINY_SWEEP,
                                     "--cache-dir", str(tmp_path / "cache"))
        finally:
            harness._source_digest.cache_clear()
        assert code == 2
        assert err.startswith("config error: cannot use the reference cache:")
        assert "errors.py" in err and out == ""
        assert not (tmp_path / "cache").exists()

    def test_processes_with_other_hash_seeds_share_one_entry(self, tmp_path):
        # the key holds nothing a process draws at random, such as str hashes
        cache = tmp_path / "cache"
        package_root = os.path.dirname(os.path.dirname(harness.__file__))
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=package_root, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-m", "fracstep", "sweep", *TINY_SWEEP,
                 "--cache-dir", str(cache)], env=env, capture_output=True)
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
            if seed == "1":
                (entry,) = cache.iterdir()
                written = entry.stat().st_mtime_ns
        assert outputs[0] == outputs[1]
        assert list(cache.iterdir()) == [entry]
        assert entry.stat().st_mtime_ns == written

    def test_given_reference_replaces_the_exact_solution(self, tmp_path, capsys):
        # the manufactured time plan measures against its exact solution by
        # default; a reference level given on the command line takes over
        out_file = tmp_path / "ref.json"
        code, _, _ = run_cli(
            capsys, "sweep", "--experiment", "manufactured", "--axis", "time",
            "--nx", "16", "--nt", "16", "--levels", "3", "--ref-nx", "16",
            "--ref-nt", "256", "--format", "json", "--output", str(out_file))
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["meta"]["error_mode"] == "reference"
        assert payload["meta"]["tau_ref"] == 2.0 ** -8
        plan = default_plan("manufactured", "time", nx=16, nt=16, count=3,
                            reference=(16, 256))
        assert payload["rows"] == run_sweep(plan).rows

    def test_unset_parameters_come_from_the_desk_plan(self, tmp_path, capsys):
        out_file = tmp_path / "exp1.json"
        code, _, err = run_cli(
            capsys, "sweep", "--experiment", "exp1", "--axis", "space",
            "--nx", "4", "--levels", "2", "--nt", "16", "--ref-nx", "32",
            "--ref-nt", "16", "--cache-dir", str(tmp_path / "cache"),
            "--format", "json", "--output", str(out_file))
        assert code == 0, err
        assert json.loads(out_file.read_text())["meta"]["params"] == {"r": -0.8}


class TestExperimentNames:
    def test_help_and_readme_name_the_table_aliases(self, capsys):
        aliases = {alias for entry in EXPERIMENTS.values() for alias in entry.aliases}
        for command in ("solve", "sweep"):
            code, out, _ = run_cli(capsys, command, "--help")
            assert code == 0
            block = re.search(r"--experiment EXPERIMENT\s+(.*?)\n  -", out, re.S)
            assert set(re.split(r"[\s,|]+", block.group(1).strip())) == aliases
        readme = pathlib.Path(__file__).parents[1] / "README.md"
        section = readme.read_text().split("## Experiments", 1)[1]
        rows = re.findall(r"^\| (`.*?) \|", section, re.M)
        assert set(re.findall(r"`([^`]+)`", " ".join(rows))) == aliases


class TestConfigFile:
    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment=manufactured\nalpha=0.8\nnx=16\nnt=8\n")
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg),
                               "--nt", "16")
        assert code == 0
        assert "nt=16" in err  # the summary line, on stderr without --output

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("banana=1\n")
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert "banana" in err

    def test_key_is_the_flag_name(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment=spectral\nalpha=0.6\nmode=2\nnx=16\nnt=16\n"
                       "format=json\n")
        code, out, _ = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["meta"]["nt"] == 16

    def test_destination_name_is_not_a_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment=spectral\nalpha=0.6\nmode=2\nnx=16\nnt=16\n"
                       "fmt=xml\n")
        code, out, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert "fmt" in err and out == ""

    def test_value_outside_choices_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment=manufactured\naxis=diagonal\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "diagonal" in err

    def test_missing_file_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--config", "/nonexistent.cfg")
        assert code == 2

    def test_non_utf8_file_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe=1\n")
        code, out, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("config error: cannot read config file")

    def test_duplicated_key_takes_its_last_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment=manufactured\nalpha=0.8\nnx=16\nnt=8\nnt=32\n")
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 0
        assert "nt=32" in err

    def test_bad_value_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment=manufactured\nalpha=0.8\nnx=abc\nnt=8\n")
        code, out, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert "--nx" in err and "abc" in err and out == ""

    def test_negative_value_reaches_the_library(self, tmp_path, capsys):
        # read as --r=-inf; on the command line "--r -inf" reads -inf as a flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment=exp1\nalpha=0.5\nr=-inf\nnx=8\nnt=4\n")
        code, out, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 3
        assert "must be finite" in err and out == ""

    def test_key_may_be_an_unambiguous_prefix(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("exp=manufactured\nalpha=0.8\nnx=16\nnt=8\n")
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 0, err

    @pytest.mark.parametrize("key", ["config", "conf", "help"])
    def test_config_and_help_are_not_keys(self, tmp_path, capsys, key):
        # a --config or --help read from the file would not be followed
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"experiment=manufactured\n{key}=other.cfg\n")
        code, out, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert err == f"config error: unknown config key {key!r}\n" and out == ""


class TestDataFlags:
    def test_sweep_refuses_a_flag_the_experiment_does_not_take(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--experiment", "exp3", "--axis", "time", "--nx", "16",
            "--nt", "4", "--levels", "2", "--ref-nx", "16", "--ref-nt", "64",
            "--sigma", "0.9")
        assert code == 2
        assert "--sigma" in err and out == ""

    def test_solve_refuses_flags_the_experiment_does_not_take(self, capsys):
        code, out, err = run_cli(
            capsys, "solve", "--experiment", "manufactured", "--alpha", "0.8",
            "--nx", "16", "--nt", "8", "--r", "5", "--c", "3")
        assert code == 2
        assert err == "config error: experiment manufactured takes no --c\n"
        assert out == ""

    def test_flag_from_the_config_file_is_refused_too(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment=spectral\nalpha=0.6\nmode=2\nnx=16\nnt=16\n"
                       "sigma=0.5\n")
        code, out, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert "--sigma" in err and out == ""

    def test_flags_the_experiment_takes_pass(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--experiment", "exp1", "--alpha", "0.5", "--r", "-0.5",
            "--sigma", "0.3", "--nx", "8", "--nt", "4")
        assert code == 0, err


class TestVerify:
    def test_seeded_report_is_reproducible(self, capsys):
        code1, out1, _ = run_cli(capsys, "verify", "--seed", "7")
        code2, out2, _ = run_cli(capsys, "verify", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "PASS" in out1 and "FAIL" not in out1

    def test_negative_seed_exits_config_code(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--seed", "-1")
        assert code == 2
        assert "seed" in err and out == ""

    def test_negative_seed_in_config_file_exits_config_code(self, tmp_path, capsys):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("seed=-1\n")
        code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert "seed" in err and out == ""

    def test_property_failure_exits_four(self, capsys, tampered_gamma):
        with tampered_gamma(1e-4):
            code, out, _ = run_cli(capsys, "verify", "--seed", "3")
        assert code == 4
        assert "FAIL coercivity-pairing" in out


# a fresh process imports what the benchmark imports, solves and sweeps
# uncached, then runs the suite; it prints whether scipy.special was loaded
# before and after the suite, and the suite's passes out of its properties
_STARTUP = """
import contextlib, io, sys
import fracstep.cli
from fracstep import harness, properties
with contextlib.redirect_stdout(io.StringIO()):
    codes = [fracstep.cli.main(["solve", "--experiment", "manufactured",
                                "--alpha", "0.8", "--nx", "8", "--nt", "4"]),
             fracstep.cli.main(["sweep", *sys.argv[1:]])]
before = "scipy.special" in sys.modules
results = properties.run_property_suite(properties.DEFAULT_SEED)
print(codes, before, sum(r.passed for r in results), len(results),
      "scipy.special" in sys.modules)
"""


def test_solve_and_sweep_leave_scipy_special_unloaded():
    # scipy.special serves only the suite's oracles, which reach it through
    # scipy's lazy submodule attribute at their first call
    env = {key: value for key, value in os.environ.items()
           if key != "FRACSTEP_CACHE_DIR"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _STARTUP, *TINY_SWEEP],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,", "0]", "False", "20", "20", "True"]


class TestArgparse:
    def test_unknown_flag_exits_config_code(self, capsys):
        assert main(["solve", "--bogus", "1"]) == 2

    def test_unknown_command_exits_config_code(self, capsys):
        assert main(["dance"]) == 2


def _mutants(seed, data, count):
    """``count`` seeded corruptions of ``data`` of each kind: one flipped bit,
    a truncation, one NUL byte and random bytes of the same length."""
    rng = random.Random(seed)
    for _ in range(count):
        flipped, nul = bytearray(data), bytearray(data)
        flipped[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        nul[rng.randrange(len(data))] = 0
        yield bytes(flipped)
        yield data[:rng.randrange(len(data))]
        yield bytes(nul)
        yield rng.randbytes(len(data))


class TestFuzz:
    """Byte-level corruptions of the two files a sweep reads, its config file
    and its reference-cache entry: ``main`` exits 0, 2 or 3 and raises nothing."""

    def test_corrupted_config_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a mutated relative cache_dir stays in tmp_path
        cfg = tmp_path / "run.cfg"
        # experiment last: a truncation drops it, and the sweep exits 2 at once
        # instead of running the experiment's desk plan
        text = (b"axis=time\nnx=16\nnt=4\nlevels=2\nref_nx=16\nref_nt=16\n"
                b"cache_dir=cache\nexperiment=exp3\n")
        cfg.write_bytes(text)
        assert run_cli(capsys, "sweep", "--config", str(cfg))[0] == 0
        for mutant in _mutants(1, text, 100):
            cfg.write_bytes(mutant)
            code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
            assert code in (0, 2, 3), (mutant, err)
        cfg.unlink()
        cfg.mkdir()
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("config error: cannot read config file")

    def test_corrupted_cache_entry_is_a_miss(self, tmp_path, capsys):
        args = ("sweep", *TINY_SWEEP, "--cache-dir", str(tmp_path))
        code, cold, _ = run_cli(capsys, *args)
        assert code == 0
        (entry,) = tmp_path.iterdir()
        stored = entry.read_bytes()
        for mutant in _mutants(2, stored, 60):
            entry.write_bytes(mutant)
            code, out, err = run_cli(capsys, *args)
            assert (code, out) == (0, cold), (mutant, err)
            assert entry.read_bytes() == stored  # solved again and stored again
        entry.unlink()
        entry.mkdir()  # cannot be opened, nor replaced after the solve
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert err.startswith("config error: cannot use the reference cache")
