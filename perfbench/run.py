"""End-to-end benchmark of the parmirror CLI, with a separate traced run for
per-layer numbers.

    python3 perfbench/run.py --workload cli_export --seed 1 --seconds 32 --trace 0

Closed loop from this one process: one workload child at a time, each a
fresh interpreter running ``python -m parmirror.cli ...`` from ``src/`` of
the checkout, under an address-space cap and a timeout. Every output is
checked (see workloads.py). With ``--trace 0`` the last stdout line holds
the end-to-end metrics; with ``--trace 1`` the same timed loop is followed by
one traced run, and the line holds the per-layer metrics. A result file with
the run context, every operation and the metrics goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from math import factorial
from pathlib import Path

import harness
import tracing
from workloads import DEFAULT_SEED, WORKLOADS, OutputChecker, cli_argv, output_paths

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

RUN_BUDGET_S = 170.0
OP_TIMEOUT_S = 60.0
MIN_OPS = 3
SETUP_SAMPLES = 15
SETUP_FIRST = 3
SETUP_BETWEEN = 2
COVERAGE_FLOOR = 0.9

PROBE = """\
import json, sys
import parmirror, parmirror.cli
from parmirror import kernels
try:
    import parmirror._census_cy
    reason = "compiled extension imported"
except ImportError as exc:
    reason = f"compiled extension not importable ({exc})"
print(json.dumps({"backend": parmirror.active_backend(), "reason": reason,
                  "backends": sorted(kernels.backends()), "python": sys.version}))
"""


class BenchmarkError(Exception):
    """The benchmark cannot produce trustworthy numbers."""


class Runner:
    """One benchmark run: a workload, a seed and a wall-clock budget."""

    def __init__(self, workload, seed: int):
        self.w = workload
        self.seed = seed
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.work = OUT_DIR / f"work-{workload.name}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def child(self, argv, name: str, timeout_s: float = OP_TIMEOUT_S) -> harness.ChildResult:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchmarkError("run budget exhausted")
        return harness.run_child(
            [sys.executable, *argv], env=self.env, cwd=ROOT,
            timeout_s=min(timeout_s, remaining),
            stdout_path=self.work / f"{name}.stdout", stderr_path=self.work / f"{name}.stderr",
        )

    def probe(self) -> dict:
        """Backend and interpreter facts, from a child that imports the CLI
        (which also compiles the bytecode before anything is timed)."""
        res = self.child(["-c", PROBE], "probe")
        if res.returncode != 0:
            err = (self.work / "probe.stderr").read_text(errors="replace").strip().splitlines()
            raise BenchmarkError(f"cannot import parmirror: {err[-1] if err else harness.exit_reason(res)}")
        return json.loads((self.work / "probe.stdout").read_text())

    def snippet_wall_s(self, code: str, name: str) -> float:
        """Wall time of a fresh interpreter running `code`, which must succeed."""
        res = self.child(["-c", code], name)
        if res.returncode != 0:
            raise BenchmarkError(f"{name} failed: {harness.exit_reason(res)}")
        return res.wall_s

    def operation(self, checker: OutputChecker, argv, name: str) -> harness.OpResult:
        paths = output_paths(self.w, self.work)
        for path in paths.values():
            path.unlink(missing_ok=True)
        return harness.verdict(self.child(argv, name), lambda: checker.check(paths))

    def timed_ops(self, checker: OutputChecker, seconds: float, sample_setup: bool):
        """Operations until the run has measured for `seconds` (at least
        MIN_OPS), each directly preceded by a calibration, with one more
        calibration after the last. Set-up samples are taken in bursts before
        the operations, so they span the run.

        Returns the operations, the calibration times, and per operation the
        set-up samples taken just before it.
        """
        argv = ["-m", "parmirror.cli", *cli_argv(self.w, self.seed, self.work)]
        ops, calibrations, setups = [], [], []
        start = time.perf_counter()
        while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
            burst = SETUP_FIRST if not ops else SETUP_BETWEEN
            burst = min(burst, SETUP_SAMPLES - sum(map(len, setups))) if sample_setup else 0
            setups.append([self.snippet_wall_s("import parmirror.cli", "setup") for _ in range(burst)])
            calibrations.append(self.snippet_wall_s(harness.CALIBRATION_CODE, "calibration"))
            ops.append(self.operation(checker, argv, "op"))
        calibrations.append(self.snippet_wall_s(harness.CALIBRATION_CODE, "calibration"))
        return ops, calibrations, setups

    def traced_op(self, checker: OutputChecker) -> tuple[harness.OpResult, dict | None]:
        trace_path = self.work / "trace.json"
        trace_path.unlink(missing_ok=True)
        run_id = f"{self.w.name}-seed{self.seed}"
        argv = [str(HERE / "traced_child.py"), "--trace-out", str(trace_path), "--run-id", run_id,
                "--", *cli_argv(self.w, self.seed, self.work)]
        op = self.operation(checker, argv, "traced")
        trace = json.loads(trace_path.read_text()) if op.ok else None
        return op, trace


def check_identities(trace: dict, report: dict, metrics: dict) -> None:
    """Cross-checks between the trace counters and the report; raise on any miss."""
    entries = report["results"] if "results" in report else [report]
    problems = []
    components = sum(e["component_count"] for e in entries)
    if not metrics["kernels.rows"] == metrics["cstar_fixed.components"] == components:
        problems.append(f"kernels.rows {metrics['kernels.rows']}, cstar_fixed.components "
                        f"{metrics['cstar_fixed.components']}, report components {components}")
    tuples = 0
    for e in entries:
        p = e["params"]
        tuples += factorial(p["n"]) ** p["k"]
        if "wall_count" in e:
            key = f"{p['n']},{p['g']},{p['k']},{p['d']}"
            if trace["walls_by_params"].get(key) != e["wall_count"]:
                problems.append(f"walls for {key}: trace {trace['walls_by_params'].get(key)}, "
                                f"report {e['wall_count']}")
    if metrics["kernels.tuples"] != tuples:
        problems.append(f"kernels.tuples {metrics['kernels.tuples']} != sum (n!)^k {tuples}")
    if metrics["trace.coverage"] < COVERAGE_FLOOR:
        problems.append(f"trace.coverage {metrics['trace.coverage']:.3f} < {COVERAGE_FLOOR}")
    if problems:
        raise BenchmarkError("counter identities fail: " + "; ".join(problems))


def git_commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def load_schema(name: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from parmirror import schemas
    finally:
        sys.path.pop(0)
    return schemas.load(name)


def run(args) -> dict:
    w = WORKLOADS[args.workload]
    if not (ROOT / "src" / "parmirror" / "cli.py").is_file():
        raise BenchmarkError(f"no parmirror sources under {ROOT / 'src'}")
    runner = Runner(w, args.seed)
    context = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        **runner.probe(),
    }
    checker = OutputChecker(w, args.seed, load_schema(w.schema))
    record = {"context": context}
    ops, calibrations, setups = runner.timed_ops(checker, args.seconds, sample_setup=not args.trace)
    scales = harness.speed_scales(calibrations)
    e2e = harness.summarize(ops, scales)
    raw = harness.summarize(ops)
    record.update({"calibrations_s": calibrations, "unscaled_metrics": raw})
    attempted = list(ops)
    if args.trace:
        op, trace = runner.traced_op(checker)
        attempted.append(op)
        if trace is None:
            raise BenchmarkError(f"traced run failed: {op.reason}")
        metrics = tracing.layer_metrics(trace, op.child.wall_s, raw["wall_s"])
        report = json.loads(output_paths(w, runner.work)["json"].read_text())
        check_identities(trace, report, metrics)
        (OUT_DIR / f"spans-{w.name}-seed{args.seed}.json").write_text(json.dumps(trace))
    else:
        record["setup_times_s"] = setups
        metrics = {**e2e, "setup_s": statistics.median(
            t * scale for burst, scale in zip(setups, scales) for t in burst)}
    failed = sum(1 for op in attempted if not op.ok)
    record.update({
        "ops": [{"wall_s": op.child.wall_s, "maxrss_kb": op.child.maxrss_kb, "ok": op.ok,
                 "reason": op.reason, "instances_equal": op.instances_equal} for op in attempted],
        "metrics": metrics,
    })
    name = f"result-{w.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=2) + "\n")
    return {"correct": failed == 0, "attempted": len(attempted), "failed": failed,
            "metrics": labelled(metrics, "per_layer" if args.trace else "end_to_end")}


def labelled(metrics: dict, section: str) -> dict:
    """The metrics BENCHMARK.json lists in one section, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise BenchmarkError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="parmirror end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops and reaps the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = run(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    values = ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
    print(f"perfbench {args.workload} seed={args.seed}: {result['attempted']} ops, "
          f"{result['failed']} failed; {values}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
