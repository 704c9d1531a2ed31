"""Time a fixed ladder of parmirror CLI runs on one or more source trees and
write the medians to a BENCH JSON file.

    python3 scripts/bench_ladder.py --tree parent=../parent --tree change=. \\
        --out BENCH_14.json [--rung "tms 7 2 1 0" ...]

Each rung is one CLI invocation (see RUNGS); ``--rung NAME``, repeatable,
times only the rungs named, in RUNGS order, and an unknown name is a usage
error (exit 2) that lists the valid ones. The ``startup`` rung runs
``--help`` and writes nothing: the interpreter, the imports, the argparse
parser that only help and a rejected command line build, and the exit.
The ``lemma 3`` rung is the cheapest real run, ``lemma --n 3`` with its
report: a named subcommand parsed from its flag table, without argparse,
so it times the fixed floor that every real process pays, and each BENCH
file tracks that floor beside the rungs that do more work.

A rung runs for RUNS rounds per tree, or for SHORT_RUNS rounds when
every run of its first round took under SHORT_S seconds: a sub-second run
sits within the machine's own swings, so three of them cannot tell two
trees apart. Each rung records its rounds.
Every run starts a fresh interpreter that runs ``parmirror.cli`` from
``<tree>/src`` as ``python -m parmirror.cli`` does, under a 2 GiB
address-space cap, with its outputs written to a temporary directory. The runs go one child at a time,
and the trees alternate within each round, so drift in machine speed falls
on every tree alike. Each child is reaped with ``os.wait4``: its wall time
runs from spawn to reap. Its peak RSS is the ``VmHWM`` line of its own
``/proc/self/status``, which the child writes at exit. ``ru_maxrss`` would
not do: on Linux it also counts the image the child had before ``exec``,
so every child would read at least this script's own RSS.

Before every run, and once after the last, a fresh interpreter runs
perfbench's calibration load (``harness.CALIBRATION_CODE``, a fixed
pure-Python load that shares no code with parmirror). A run's speed scale
is perfbench's: ``CALIBRATION_REF_S`` over the mean of the calibrations on
either side of it, so a run made while the machine was slow is scaled down
to the reference speed, and absolute times of two BENCH files, or a goal
such as "< 10 s", can be compared on the scaled medians. The two constants
are read from perfbench/harness.py by a child that imports it. A run of a
fraction of a second sits between calibrations that swing as much as it
does, so each tree and rung also records its raw median scaled once by
the reference over the median of all of the ladder's calibrations.

A run fails on a non-zero exit, a timeout or a memory-cap kill. The sha256
of each rung's output files must be the same on every run of every tree;
the file records whether it was. Per tree and rung it holds the median wall
time, raw and speed-scaled, the minimum and lower quartile of the raw
times, the median peak RSS of the runs, and every run's numbers. A shared
VM loses time in steps of tens of milliseconds that the guest cannot see,
and such steps only ever add time, so a rung's raw minimum and lower
quartile are less disturbed than its median. They are not speed-scaled:
the calibrations fall on those same steps, so a run's scale jumps with
the step its neighbouring calibrations land on. The calibration
times are recorded as well, and so is ``PYTHONDONTWRITEBYTECODE``: the
children inherit it, and when it is set every run compiles ``src/`` anew.

Each tree's git commit, dirty flag and sha256 of ``git diff HEAD`` are
recorded before the first rung and read again after the last, so a tree
that was dirty already and is edited again is caught too; if any changed,
the file lists the tree under ``trees_changed`` and the script exits 1,
since its runs did not all time the recorded state.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# name -> CLI arguments; "{tmp}" is the run's own output directory
RUNGS = {
    "startup": ["--help"],
    "lemma 3": ["lemma", "--n", "3", "--out", "{tmp}/report.json"],
    "tms 2 2 11 1": ["tms", "--n", "2", "--g", "2", "--marked", "11", "--deg", "1",
                     "--out", "{tmp}/report.json"],
    "tms 3 2 3 0": ["tms", "--n", "3", "--g", "2", "--marked", "3", "--deg", "0",
                    "--out", "{tmp}/report.json"],
    "tms 5 2 2 0": ["tms", "--n", "5", "--g", "2", "--marked", "2", "--deg", "0",
                    "--out", "{tmp}/report.json"],
    "tms 5 2 3 0": ["tms", "--n", "5", "--g", "2", "--marked", "3", "--deg", "0",
                    "--out", "{tmp}/report.json"],
    "tms 7 2 1 0": ["tms", "--n", "7", "--g", "2", "--marked", "1", "--deg", "0",
                    "--out", "{tmp}/report.json"],
    "variant 5 3 1 2 --csv": ["variant", "--n", "5", "--g", "3", "--marked", "1", "--deg", "2",
                              "--out", "{tmp}/report.json", "--csv", "{tmp}/census.csv"],
    "sweep --csv": ["sweep", "--out", "{tmp}/report.json", "--csv", "{tmp}/summary.csv"],
}

RUNS = 3
SHORT_RUNS = 12
SHORT_S = 1.0
AS_LIMIT = 2 << 30
TIMEOUT_S = 600.0

# Sets the cap, arranges for the peak RSS to be written to the file named
# by the second argument at exit, then runs the CLI module as "python -m"
# would.
BOOT = """\
import atexit, resource, runpy, sys

peak_path = sys.argv.pop(2)

def write_peak():
    with open("/proc/self/status") as status, open(peak_path, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")))

resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]),) * 2)
del sys.argv[1]
atexit.register(write_peak)
runpy.run_module("parmirror.cli", run_name="__main__", alter_sys=True)
"""
PEAK_FILE = ".vmhwm"  # in the run's directory; not one of its outputs


def run_once(tree: Path, args: list[str]) -> dict:
    """One child run of the CLI from tree/src: wall time, peak RSS, exit
    status and the sha256 of each output file."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        peak_path = Path(tmp) / PEAK_FILE
        argv = [sys.executable, "-c", BOOT, str(AS_LIMIT), str(peak_path)]
        argv += [a.replace("{tmp}", tmp) for a in args]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=tmp, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        # "VmHWM:  13824 kB"; absent when the child was killed
        peak_kb = int(peak_path.read_text().split()[1]) if peak_path.exists() else None
        digests = {}
        for path in sorted(Path(tmp).iterdir()):
            if path.name == PEAK_FILE:
                continue
            with path.open("rb") as fh:  # streamed, so this process stays small
                digests[path.name] = hashlib.file_digest(fh, "sha256").hexdigest()
    peak_mb = None if peak_kb is None else round(peak_kb / 1024, 1)
    return {"wall_s": round(wall, 4), "peak_rss_mb": peak_mb, "exit": proc.returncode,
            "sha256": digests}


def calibration_load() -> tuple[str, float]:
    """perfbench's calibration code and its reference time, from harness.py."""
    code = ("import harness, json; "
            "print(json.dumps([harness.CALIBRATION_CODE, harness.CALIBRATION_REF_S]))")
    done = subprocess.run([sys.executable, "-c", code], cwd=PERFBENCH, check=True,
                          capture_output=True, text=True)
    load, ref_s = json.loads(done.stdout)
    return load, ref_s


def calibrate(load: str) -> float:
    """Wall time of a fresh interpreter running the calibration load, which
    must succeed."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", load], check=True, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    return round(time.perf_counter() - start, 4)


def median(runs: list[dict], field: str, digits: int):
    """The median of one field over the runs, or None when there are none."""
    return round(statistics.median(r[field] for r in runs), digits) if runs else None


def lower_quartile(runs: list[dict], field: str, digits: int):
    """The lower quartile of one field over the runs, by the inclusive
    method (a single run's own value), or None when there are none."""
    values = [r[field] for r in runs]
    if len(values) < 2:
        return round(values[0], digits) if values else None
    return round(statistics.quantiles(values, n=4, method="inclusive")[0], digits)


def describe(tree: Path) -> dict:
    """The tree's git commit, whether it has uncommitted changes, and the
    sha256 of those changes as ``git diff HEAD`` prints them (None where git
    cannot tell)."""
    def git(*cmd):
        done = subprocess.run(["git", "-C", str(tree), *cmd], capture_output=True)
        return done.stdout if done.returncode == 0 else None

    commit = git("rev-parse", "--short", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    diff = git("diff", "--no-ext-diff", "HEAD")
    return {"commit": None if commit is None else commit.decode().strip(),
            "dirty": None if status is None else bool(status.strip()),
            "diff_sha256": None if diff is None else hashlib.sha256(diff).hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=PATH",
                        help="a source tree to time (repeat for each tree)")
    parser.add_argument("--out", required=True, help="write the JSON results here")
    parser.add_argument("--rung", action="append", metavar="NAME",
                        help="time only this rung (repeat for each rung; default: all)")
    args = parser.parse_args(argv)
    unknown = [name for name in args.rung or () if name not in RUNGS]
    if unknown:
        parser.error(f"unknown rung {', '.join(map(repr, unknown))}; "
                     f"valid rungs: {', '.join(map(repr, RUNGS))}")
    rungs = {name: rung_argv for name, rung_argv in RUNGS.items()
             if args.rung is None or name in args.rung}
    trees = {}
    for spec in args.tree:
        label, sep, path = spec.partition("=")
        if not sep or not label:
            parser.error(f"--tree wants LABEL=PATH, got {spec!r}")
        if not (Path(path) / "src" / "parmirror" / "cli.py").is_file():
            parser.error(f"{path} has no src/parmirror/cli.py")
        trees[label] = Path(path).resolve()

    described = {label: describe(path) for label, path in trees.items()}
    results = {}
    failed = 0
    load, ref_s = calibration_load()
    calibrations = [calibrate(load)]
    for rung, rung_argv in rungs.items():
        runs = {label: [] for label in trees}
        rounds = RUNS
        i = 0
        while i < rounds:
            order = list(trees) if i % 2 == 0 else list(reversed(trees))
            for label in order:
                run = run_once(trees[label], rung_argv)
                calibrations.append(calibrate(load))
                run["calibration_s"] = calibrations[-2:]
                # harness.speed_scales: the reference time over the mean of
                # the calibrations on either side of the run
                run["scale"] = round(2 * ref_s / sum(calibrations[-2:]), 4)
                run["scaled_wall_s"] = round(run["wall_s"] * run["scale"], 4)
                runs[label].append(run)
                print(f"{rung} [{label}] run {i + 1}: {run['wall_s']:.3f} s "
                      f"(scaled {run['scaled_wall_s']:.3f} s) "
                      f"{run['peak_rss_mb']} MB exit {run['exit']}", file=sys.stderr)
            if i == 0 and max(rs[0]["wall_s"] for rs in runs.values()) < SHORT_S:
                rounds = SHORT_RUNS
            i += 1
        digests = {json.dumps(r["sha256"], sort_keys=True) for rs in runs.values() for r in rs}
        entry = {"argv": rung_argv, "rounds": rounds, "outputs_equal": len(digests) == 1,
                 "trees": {}}
        for label, rs in runs.items():
            ok = [r for r in rs if r["exit"] == 0]
            failed += len(rs) - len(ok)
            entry["trees"][label] = {
                "median_wall_s": median(ok, "wall_s", 4),
                "median_scaled_wall_s": median(ok, "scaled_wall_s", 4),
                "min_wall_s": min((r["wall_s"] for r in ok), default=None),
                "q1_wall_s": lower_quartile(ok, "wall_s", 4),
                # filled in once every calibration has run
                "median_round_scaled_wall_s": None,
                "median_peak_rss_mb": median(ok, "peak_rss_mb", 1),
                "failed": len(rs) - len(ok),
                "runs": rs,
            }
        failed += 0 if entry["outputs_equal"] else 1
        results[rung] = entry

    round_scale = ref_s / statistics.median(calibrations)
    for entry in results.values():
        for tree in entry["trees"].values():
            if tree["median_wall_s"] is not None:
                tree["median_round_scaled_wall_s"] = round(tree["median_wall_s"] * round_scale, 4)

    out = {
        "python": sys.version.split()[0],
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "rounds": {"default": RUNS, "short": SHORT_RUNS, "short_below_s": SHORT_S},
        "as_limit_bytes": AS_LIMIT,
        "pythondontwritebytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "calibration": {"ref_s": ref_s,
                        "median_s": statistics.median(calibrations),
                        "runs_s": calibrations},
        "trees": described,
        "rungs": results,
    }
    changed = [label for label, path in trees.items() if describe(path) != described[label]]
    if changed:
        out["trees_changed"] = changed
        print(f"trees changed during the run: {', '.join(changed)}", file=sys.stderr)
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    return 1 if failed or changed else 0


if __name__ == "__main__":
    sys.exit(main())
