"""Tests of the benchmark's own code. None of them runs a benchmark workload.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import harness
import run
import traced_child
import tracing
from harness import OutputCheckError
from workloads import DEFAULT_SEED, WORKLOADS, OutputChecker, Workload, sha256_bytes, sweep_config_text


def _span(sid, start, end, parent=None, name="x"):
    return [sid, name, start, end, parent, "run"]


def test_self_time_subtracts_nested_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, 0),
        _span(2, 2.0, 3.0, 1),
        _span(3, 5.0, 9.0, 0),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(own.values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, 0.0, 10.0), _span(1, 2.0, 6.0, 0), _span(2, 4.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == 2.0


def test_recorder_nests_spans_and_drains_generators():
    ticks = iter(range(100))
    rec = tracing.Recorder("r", clock=lambda: float(next(ticks)))

    def leaf():
        yield from (1, 2)

    out = rec.call("outer", lambda: list(rec.call("inner", leaf)))
    assert out == [1, 2]
    (sid0, outer, *_), (sid1, inner, _s, _e, parent, run_id) = rec.spans
    assert (outer, inner, parent, run_id) == ("outer", "inner", sid0, "r")
    assert rec.counts == {"outer": 1, "inner": 1}


def _checker(tmp_path, seed, data=b'{"equal": true}\n'):
    path = tmp_path / "out.json"
    path.write_bytes(data)
    w = Workload("t", "tms", (), "tms_report", False, {"json": sha256_bytes(data)})
    return OutputChecker(w, seed, {"type": "object"}), {"json": path}


def test_pinned_digest_rejects_one_byte_change(tmp_path):
    checker, paths = _checker(tmp_path, DEFAULT_SEED)
    assert checker.check(paths) == 1
    data = bytearray(paths["json"].read_bytes())
    data[-2] ^= 0x01
    paths["json"].write_bytes(bytes(data))
    with pytest.raises(OutputCheckError, match="digest"):
        checker.check(paths)


def test_later_operations_must_reproduce_the_first(tmp_path):
    checker, paths = _checker(tmp_path, DEFAULT_SEED + 1)
    checker.check(paths)
    paths["json"].write_bytes(b'{"equal": true }\n')
    with pytest.raises(OutputCheckError, match="differ"):
        checker.check(paths)


def test_equal_false_fails(tmp_path):
    checker, paths = _checker(tmp_path, DEFAULT_SEED + 1, b'{"equal": false}\n')
    with pytest.raises(OutputCheckError, match="equal: false"):
        checker.check(paths)


def _child(code, timeout_s=30.0, **kw):
    return harness.run_child([sys.executable, "-c", code], timeout_s=timeout_s, **kw)


def test_timeout_exit_1_and_exit_2_count_as_failures():
    ops = [
        harness.verdict(_child("pass"), lambda: 1),
        harness.verdict(_child("import sys; sys.exit(1)"), lambda: 1),
        harness.verdict(_child("import sys; sys.exit(2)"), lambda: 1),
        harness.verdict(_child("import time; time.sleep(30)", timeout_s=0.5), lambda: 1),
    ]
    assert [op.reason for op in ops] == ["", "exit 1", "exit 2", "timeout"]
    assert ops[3].child.wall_s < 5
    assert harness.fail_frac(ops) == 0.75
    assert harness.summarize(ops)["pass_frac"] == 0.25


def test_times_are_scaled_by_neighbouring_calibrations():
    ref = harness.CALIBRATION_REF_S
    scales = harness.speed_scales([ref, 3 * ref, ref])
    assert scales == [0.5, 0.5]
    child = harness.ChildResult(wall_s=4.0, returncode=0, timed_out=False, maxrss_kb=2048)
    ops = [harness.OpResult(child, True, "", 2)] * 2
    metrics = harness.summarize(ops, scales)
    assert (metrics["wall_s"], metrics["instances_per_s"], metrics["peak_rss_mb"]) == (2.0, 1.0, 2.0)


def test_memory_cap_turns_blowup_into_a_failure():
    # The allocation is refused by the address-space cap before any page is touched.
    child = _child("bytearray(1 << 30)", mem_cap=256 * 1024**2)
    assert harness.verdict(child, lambda: 1).reason == "exit 1"


def test_failed_check_is_counted():
    def check():
        raise OutputCheckError("bad bytes")

    op = harness.verdict(_child("pass"), check)
    assert (op.ok, op.reason) == (False, "bad bytes")


def test_sweep_grid_at_default_seed_is_the_builtin_grid(tmp_path):
    from parmirror.tms import SweepConfig

    path = tmp_path / "grid.ini"
    path.write_text(sweep_config_text(DEFAULT_SEED))
    assert SweepConfig.from_file(str(path)) == SweepConfig.default()


def test_benchmark_json_lists_every_workload_and_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    layer_names = {m["name"] for m in spec["per_layer"]}
    assert set(tracing.SPAN_METRICS.values()) <= layer_names


def test_traced_run_of_a_tiny_instance_meets_the_identities(tmp_path):
    import parmirror.cstar_fixed
    import parmirror.tms

    before = parmirror.tms.verify_identity
    out, trace_path = tmp_path / "r.json", tmp_path / "t.json"
    rc = traced_child.main(["--trace-out", str(trace_path), "--run-id", "tiny", "--",
                            "tms", "--n", "2", "--g", "2", "--marked", "1", "--out", str(out)])
    assert rc == 0
    assert parmirror.tms.verify_identity is before
    assert not hasattr(parmirror.cstar_fixed.BivarPoly.__mul__, "__wrapped__")
    trace = json.loads(trace_path.read_text())
    metrics = tracing.layer_metrics(trace, traced_wall_s=1.0, untraced_wall_s=1.0)
    run.check_identities(trace, json.loads(out.read_text()), {**metrics, "trace.coverage": 1.0})
    assert metrics["chambers.walls"] == json.loads(out.read_text())["wall_count"]
    assert metrics["kernels.tuples"] == 2
    assert metrics["exactpoly.bivar_mul"] > 0
    assert set(metrics) >= {m for m in tracing.SPAN_METRICS.values()}


def test_identity_miss_raises():
    trace = {"walls_by_params": {"2,2,1,0": 3}}
    report = {"params": {"n": 2, "g": 2, "k": 1, "d": 0}, "component_count": 4, "wall_count": 3}
    metrics = {"kernels.rows": 4, "cstar_fixed.components": 5, "kernels.tuples": 2,
               "trace.coverage": 1.0}
    with pytest.raises(run.BenchmarkError, match="cstar_fixed.components 5"):
        run.check_identities(trace, report, metrics)
