"""The hooks of perfbench's traced run still fit the program.

perfbench/tracing.py wraps the census kernel, enumerate_components and
the CSV export, takes len() of the censuses, iterates the checked census
twice and replays every census call on each backend. A small `variant`
with its CSV, two `tms` runs (one of them perfbench's marked_points
workload, 11 marked points) and a small `sweep` with its CSV go through
its Probe here, so a result type or signature that breaks those hooks,
or a counter identity the traced run checks, fails these tests.
The module is imported from its file and left unchanged.

The traced child imports parmirror.cli and then looks up every module it
wraps in sys.modules, so importing the CLI must load them all; it must
also stay clear of the modules that made every run pay for dataclass code
generation or for what only `sweep` uses.
"""

import gc
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

import parmirror.cli
from parmirror import cstar_fixed, kernels

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
SRC_DIR = Path(parmirror.cli.__file__).resolve().parents[1]
STARTUP_PROBE = """
import json, sys
before = set(sys.modules)
import parmirror.cli
print(json.dumps({"before": sorted(before), "after": sorted(sys.modules)}))
"""
NOT_AT_STARTUP = ("dataclasses", "inspect", "configparser", "csv")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SWEEP_GRID = "[grid]\nn = 2 3\ng = 2\nk = 1\nd = 0 1\n[sampling]\nseeds = 1 2\nscales = 1\n"


@pytest.mark.parametrize("argv", [
    ["variant", "--n", "3", "--g", "2", "--marked", "2", "--deg", "1", "--seed", "4",
     "--csv", "{tmp}/rows.csv"],
    ["tms", "--n", "5", "--g", "2", "--marked", "1", "--deg", "0", "--seed", "1"],
    ["tms", "--n", "2", "--g", "2", "--marked", "11", "--deg", "1"],
    ["sweep", "--config", "{tmp}/grid.ini", "--csv", "{tmp}/rows.csv"],
], ids=["variant", "tms", "marked_points", "sweep"])
def test_traced_run_counters_agree(tracing, tmp_path, argv):
    # the identities perfbench's check_identities asserts on a traced run
    out = tmp_path / "report.json"
    (tmp_path / "grid.ini").write_text(SWEEP_GRID, encoding="utf-8")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    rec = tracing.Recorder("contract")
    probe = tracing.Probe(rec)
    frozen = gc.get_freeze_count()
    try:
        rc = rec.call(tracing.ROOT_SPAN, parmirror.cli.main, [*argv, "--out", str(out)])
    finally:
        probe.restore()
    assert rc == 0
    assert gc.get_freeze_count() == frozen  # an argv list never freezes the heap
    assert parmirror.cli.enumerate_components is cstar_fixed.enumerate_components
    report = json.loads(out.read_text())
    entries = report["results"] if "results" in report else [report]
    stats = probe.component_stats()
    components = sum(e["component_count"] for e in entries)
    assert rec.counts["kernels.rows"] == stats["components"] == components > 0
    assert rec.counts["kernels.tuples"] == sum(
        factorial(e["params"]["n"]) ** e["params"]["k"] for e in entries)
    for e in entries:
        if "wall_count" in e:
            p = e["params"]
            assert probe.walls_by_params[p["n"], p["g"], p["k"], p["d"]] == e["wall_count"]
    assert 0 < stats["distinct_m"] <= stats["components"]
    assert 0 < stats["supported"] <= stats["components"]
    assert len(probe.census_calls) == len(entries)
    assert set(probe.backend_parity(kernels)) == set(kernels.backends())
    assert rec.counts["cstar_fixed.components_to_csv"] == (argv[0] == "variant")
    assert rec.counts["tms.dumps_canonical"] == 1
    assert rec.counts["tms.json_bytes"] == out.stat().st_size


def test_program_passes_the_census_kernel_no_keyword(tracing, tmp_path, monkeypatch):
    """perfbench's census hook, Probe._on_census(self, rows, *args), takes
    no keyword arguments and reads the first-word range from positions 6
    and 7. A build that handed the kernel its memo as memo= made the traced
    sweep_default run exit 1: every one of its 160 instances failed on the
    hook's TypeError. So every program path passes every argument to
    kernels.enumerate_census positionally, with t0_lo and t0_hi in place."""
    kinds = {param.kind for param in inspect.signature(tracing.Probe._on_census).parameters.values()}
    assert inspect.Parameter.VAR_KEYWORD not in kinds
    calls = []
    real = kernels.enumerate_census

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "enumerate_census", spy)
    (tmp_path / "grid.ini").write_text(SWEEP_GRID, encoding="utf-8")
    for argv in (["tms", "--n", "3", "--g", "2", "--marked", "2", "--deg", "1"],
                 ["variant", "--n", "3", "--g", "2", "--marked", "1", "--csv", f"{tmp_path}/rows.csv"],
                 ["sweep", "--config", f"{tmp_path}/grid.ini"]):
        calls.clear()
        assert parmirror.cli.main([*argv, "--out", str(tmp_path / "report.json")]) == 0
        assert calls, argv
        for args, kwargs in calls:
            assert not kwargs and args[6:8] == (0, None), (argv, kwargs)
            assert isinstance(args[8], dict) == (argv[0] == "sweep"), argv


def test_cli_import_loads_the_traced_modules_and_nothing_sweep_only(tracing):
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    out = subprocess.run([sys.executable, "-c", STARTUP_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    modules = json.loads(out)
    loaded = set(modules["after"]) - set(modules["before"])
    wanted = {f"parmirror.{name}" for name, _ in tracing.SPAN_TARGETS} | {"parmirror.exactpoly"}
    assert wanted <= loaded, sorted(wanted - loaded)
    assert not loaded & set(NOT_AT_STARTUP), sorted(loaded & set(NOT_AT_STARTUP))
