"""Run one child process under a memory cap and a timeout, and summarize runs.

Each timed operation is a fresh interpreter. Its wall time runs from just
before the spawn to the moment the kernel reports the exit; its peak RSS is
the child's own ``ru_maxrss`` as returned by ``os.wait4`` on that child. The
address-space cap (``RLIMIT_AS``) is set in the child only, so a regression
that blows up memory fails that one operation instead of the machine.
"""

from __future__ import annotations

import os
import resource
import select
import statistics
import subprocess
import time
from dataclasses import dataclass

MEM_CAP_BYTES = 2 * 1024**3

# A fixed pure-Python load with a working set of tens of MB (tuples, exact
# rationals, a dict), run in a fresh interpreter right before and after each
# operation. It shares no code with parmirror. On a shared machine the speed
# at which Python runs changes by tens of percent within seconds to minutes;
# the calibrations around an operation track that, and reported times are
# scaled to the speed at which the load takes CALIBRATION_REF_S.
CALIBRATION_CODE = """
from fractions import Fraction as F
rows = [(i, (i * 7) % 13, tuple(range(i % 4)), F(i % 11, 7)) for i in range(60000)]
d = {}
for r in rows:
    d[r[:2]] = d.get(r[:2], 0) + 1
"""
CALIBRATION_REF_S = 0.28


@dataclass(frozen=True)
class ChildResult:
    """How one child process ended."""

    wall_s: float
    returncode: int | None  # None when the child was killed for timing out
    timed_out: bool
    maxrss_kb: int


@dataclass(frozen=True)
class OpResult:
    """One timed operation: how the child ended plus the output verdict."""

    child: ChildResult
    ok: bool
    reason: str
    instances_equal: int


def _cap_memory(limit: int):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return apply


def _wait_exit(pid: int, timeout_s: float) -> bool:
    """Block until the child exits or the timeout passes; True on exit.

    A pidfd becomes readable the moment the child exits, so the wall time
    carries no polling delay. The child is left unreaped for os.wait4.
    """
    fd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([fd], [], [], max(timeout_s, 0.0))
        return bool(ready)
    finally:
        os.close(fd)


def run_child(argv, *, env=None, cwd=None, timeout_s: float, mem_cap: int = MEM_CAP_BYTES,
              stdout_path=None, stderr_path=None) -> ChildResult:
    """Spawn argv, wait for it with a timeout, and reap it with os.wait4."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    err = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, preexec_fn=_cap_memory(mem_cap))
        try:
            exited = _wait_exit(proc.pid, timeout_s)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        wall = time.perf_counter() - start
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        for fh in (out, err):
            if fh is not subprocess.DEVNULL:
                fh.close()
    return ChildResult(
        wall_s=wall,
        returncode=None if not exited else proc.returncode,
        timed_out=not exited,
        maxrss_kb=usage.ru_maxrss,
    )


class OutputCheckError(Exception):
    """An operation's outputs are wrong."""


def exit_reason(child: ChildResult) -> str:
    """Empty for a clean exit, else why the child counts as failed."""
    if child.timed_out:
        return "timeout"
    if child.returncode != 0:
        if child.returncode < 0:
            return f"killed by signal {-child.returncode}"
        return f"exit {child.returncode}"
    return ""


def verdict(child: ChildResult, check) -> OpResult:
    """Judge one operation. check() returns the number of instances verified
    equal or raises OutputCheckError; it runs only after a clean exit."""
    reason = exit_reason(child)
    instances = 0
    if not reason:
        try:
            instances = check()
        except OutputCheckError as exc:
            reason = str(exc)
    return OpResult(child=child, ok=not reason, reason=reason, instances_equal=instances)


def fail_frac(ops) -> float:
    """Failed operations over attempted ones."""
    ops = list(ops)
    if not ops:
        raise ValueError("no operations attempted")
    return sum(1 for op in ops if not op.ok) / len(ops)


def speed_scales(calibrations) -> list[float]:
    """Scale for the operation between each pair of neighbouring
    calibrations: CALIBRATION_REF_S over their mean, so an operation that
    ran while the machine was slow is scaled down to the reference speed."""
    return [2 * CALIBRATION_REF_S / (a + b) for a, b in zip(calibrations, calibrations[1:])]


def summarize(ops, scales=None) -> dict:
    """End-to-end metrics over the operations of one run.

    Times (each multiplied by its operation's speed scale) and memory are
    medians over the operations that passed; the pass fraction counts every
    attempted operation.
    """
    pairs = list(zip(ops, scales or [1.0] * len(ops), strict=True))
    good = [(op, s) for op, s in pairs if op.ok] or pairs
    return {
        "wall_s": statistics.median(op.child.wall_s * s for op, s in good),
        "instances_per_s": statistics.median(op.instances_equal / (op.child.wall_s * s) for op, s in good),
        "peak_rss_mb": statistics.median(op.child.maxrss_kb / 1024 for op, _ in good),
        "pass_frac": 1.0 - fail_frac(ops),
    }
