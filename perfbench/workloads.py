"""The benchmark's workloads and the checks on their outputs.

Each workload is one ``parmirror`` CLI invocation built from the workload
seed. At the default seed every output file must match its pinned sha256;
at any seed the first operation of a run is validated in full (exit code,
equality flags, JSON schema from ``parmirror.schemas``, CSV row counts) and
every later operation must reproduce its bytes exactly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from math import prod
from pathlib import Path

import jsonschema

from harness import OutputCheckError

DEFAULT_SEED = 1
# The built-in sweep grid; the workload seed S picks sampler seeds S..S+4.
SWEEP_GRID = {"n": "2 3", "g": "2 3", "k": "1 2", "d": "0 1"}
SWEEP_SCALES = "1/1000 1"
SWEEP_SEEDS = 5
SWEEP_INSTANCES = prod(len(v.split()) for v in (*SWEEP_GRID.values(), SWEEP_SCALES)) * SWEEP_SEEDS


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    flags: tuple[str, ...]
    schema: str
    writes_csv: bool
    pins: dict = field(default_factory=dict)  # output kind -> sha256 at DEFAULT_SEED


# Why each workload was chosen is in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "marked_points", "tms", ("--n", "2", "--g", "2", "--marked", "11", "--deg", "1"),
            "tms_report", False,
            {"json": "caa549a1f34078ce7fd6e37a7edece7ed27615b7808273686c58c72f66e5a1d3"},
        ),
        Workload(
            "sweep_default", "sweep", (), "sweep", True,
            {"json": "d1e9932eaff5236edd7b6d38fdb5700450fd03b66d966102bda457802378dc9d",
             "csv": "a8129d101287b1f7833c2646ac606eb1ba1e0fa6edf527e01bfc8d20915c8fe9"},
        ),
        Workload(
            "cli_export", "variant", ("--n", "5", "--g", "3", "--marked", "1", "--deg", "2"),
            "variant", True,
            {"json": "1c052df7d2490663c4774c96f13375e99d18387e843bde2d4c508475a771bee6",
             "csv": "60527fd3510b420e26b0c0e88a11ec4d3ebda3458eb35d044b85eefc2fc95fa9"},
        ),
    )
}


def sweep_config_text(seed: int) -> str:
    """The built-in sweep grid with seeds seed..seed+4 (seed 1 is the default grid)."""
    grid = "".join(f"{key} = {values}\n" for key, values in SWEEP_GRID.items())
    seeds = " ".join(str(seed + i) for i in range(SWEEP_SEEDS))
    return f"[grid]\n{grid}\n[sampling]\nseeds = {seeds}\nscales = {SWEEP_SCALES}\n"


def output_paths(w: Workload, workdir: Path) -> dict:
    paths = {"json": workdir / f"{w.name}.json"}
    if w.writes_csv:
        paths["csv"] = workdir / f"{w.name}.csv"
    return paths


def cli_argv(w: Workload, seed: int, workdir: Path) -> list[str]:
    """Arguments after ``python -m parmirror.cli`` for one operation."""
    paths = output_paths(w, workdir)
    argv = [w.subcommand, *w.flags]
    if w.subcommand == "sweep":
        config = workdir / "grid.ini"
        config.write_text(sweep_config_text(seed), encoding="utf-8")
        argv += ["--config", str(config)]
    else:
        argv.append(f"--seed={seed}")
    argv += ["--out", str(paths["json"])]
    if w.writes_csv:
        argv += ["--csv", str(paths["csv"])]
    return argv


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _csv_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def validate(w: Workload, outputs: dict[str, bytes], schema: dict) -> int:
    """Full check of one operation's outputs; returns instances verified equal."""
    doc = json.loads(outputs["json"])
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        raise OutputCheckError(f"JSON does not match schema {w.schema}: {exc.message}") from None
    if w.subcommand == "sweep":
        summary = doc["summary"]
        if not summary["all_equal"] or summary["failed"] or summary["instances"] != SWEEP_INSTANCES:
            raise OutputCheckError(f"sweep summary {summary}")
        rows = _csv_rows(outputs["csv"])
        if len(rows) != SWEEP_INSTANCES + 1 or any(row[4] != "True" or row[7] for row in rows[1:]):
            raise OutputCheckError("sweep CSV rows disagree with the summary")
        return summary["equal"]
    if doc["equal"] is not True:
        raise OutputCheckError("equal: false")
    if w.writes_csv:
        rows = _csv_rows(outputs["csv"])
        if len(rows) != doc["component_count"] + 1:
            raise OutputCheckError(
                f"CSV has {len(rows) - 1} rows, report says {doc['component_count']} components")
    return 1


class OutputChecker:
    """Verdicts for the operations of one run at one seed."""

    def __init__(self, w: Workload, seed: int, schema: dict):
        self.w = w
        self.seed = seed
        self.schema = schema
        self.reference: dict[str, str] | None = None
        self.instances = 0

    def check(self, paths: dict) -> int:
        """Raise OutputCheckError unless the outputs are right; returns the
        number of instances verified equal."""
        outputs = {}
        for kind, path in paths.items():
            try:
                outputs[kind] = Path(path).read_bytes()
            except FileNotFoundError:
                raise OutputCheckError(f"missing {kind} output") from None
        digests = {kind: sha256_bytes(data) for kind, data in outputs.items()}
        if self.seed == DEFAULT_SEED:
            for kind, digest in digests.items():
                if digest != self.w.pins[kind]:
                    raise OutputCheckError(f"{kind} digest {digest[:12]} != pinned {self.w.pins[kind][:12]}")
        if self.reference is None:
            self.instances = validate(self.w, outputs, self.schema)
            self.reference = digests
        elif digests != self.reference:
            raise OutputCheckError("outputs differ from the first operation of this run")
        return self.instances
