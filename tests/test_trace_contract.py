"""The hooks of perfbench's traced run still fit the program.

perfbench/tracing.py wraps the census kernel and enumerate_components,
takes len() of their results, iterates the components twice and replays
every census call on each backend. A small `variant` and a small `tms` run
go through its Probe here, so a result type that breaks those hooks fails
these tests. The module is imported from its file and left unchanged.
"""

import importlib.util
import json
from math import factorial
from pathlib import Path

import pytest

import parmirror.cli
from parmirror import cstar_fixed, kernels

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", [
    ["variant", "--n", "3", "--g", "2", "--marked", "2", "--deg", "1", "--seed", "4"],
    ["tms", "--n", "5", "--g", "2", "--marked", "1", "--deg", "0", "--seed", "1"],
], ids=["variant", "tms"])
def test_traced_run_counters_agree(tracing, tmp_path, argv):
    out = tmp_path / "report.json"
    rec = tracing.Recorder("contract")
    probe = tracing.Probe(rec)
    try:
        rc = rec.call(tracing.ROOT_SPAN, parmirror.cli.main, [*argv, "--out", str(out)])
    finally:
        probe.restore()
    assert rc == 0
    assert parmirror.cli.enumerate_components is cstar_fixed.enumerate_components
    report = json.loads(out.read_text())
    n, k = report["params"]["n"], report["params"]["k"]
    stats = probe.component_stats()
    assert rec.counts["kernels.rows"] == stats["components"] == report["component_count"] > 0
    assert rec.counts["kernels.tuples"] == factorial(n) ** k
    assert 0 < stats["distinct_m"] <= stats["components"]
    assert 0 < stats["supported"] <= stats["components"]
    assert len(probe.census_calls) == 1
    assert set(probe.backend_parity(kernels)) == set(kernels.backends())
