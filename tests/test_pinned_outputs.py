"""Byte pins: five CLI invocations must write exactly the pinned bytes.

Three invocations and their sha256 values are those of the benchmark's
three workloads at seed 1 (``perfbench/workloads.py``, ``WORKLOADS`` and
``sweep_config_text(1)``). Copy them from there when a change to the output
is intended; any other change to a report byte fails here. The two
``walls`` reports, one with sampled weights so that it carries the
``generic`` field, pin every wall record in enumeration order.
"""

import hashlib

import pytest

from parmirror.cli import main

# The built-in grid, as perfbench writes it for seed 1.
GRID_INI = (
    "[grid]\nn = 2 3\ng = 2 3\nk = 1 2\nd = 0 1\n"
    "\n[sampling]\nseeds = 1 2 3 4 5\nscales = 1/1000 1\n"
)

PINNED = {
    "marked_points": (
        ["tms", "--n", "2", "--g", "2", "--marked", "11", "--deg", "1", "--seed=1"],
        {"json": "caa549a1f34078ce7fd6e37a7edece7ed27615b7808273686c58c72f66e5a1d3"},
    ),
    "sweep_default": (
        ["sweep", "--config", "{grid}"],
        {"json": "d1e9932eaff5236edd7b6d38fdb5700450fd03b66d966102bda457802378dc9d",
         "csv": "a8129d101287b1f7833c2646ac606eb1ba1e0fa6edf527e01bfc8d20915c8fe9"},
    ),
    "cli_export": (
        ["variant", "--n", "5", "--g", "3", "--marked", "1", "--deg", "2", "--seed=1"],
        {"json": "1c052df7d2490663c4774c96f13375e99d18387e843bde2d4c508475a771bee6",
         "csv": "60527fd3510b420e26b0c0e88a11ec4d3ebda3458eb35d044b85eefc2fc95fa9"},
    ),
    "walls_weights": (
        ["walls", "--n", "3", "--g", "2", "--marked", "2", "--deg", "1", "--seed", "2"],
        {"json": "f41827287a344da9272f074a55ac28a2352b4f09219dd7602c191d7d0f4bc10f"},
    ),
    "walls_bare": (
        ["walls", "--n", "2", "--g", "2", "--marked", "4", "--deg", "1"],
        {"json": "3d248f29722455730e6dc9e2072e6f506b0fc810370cf527346c25dc54914886"},
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_cli_outputs_match_pinned_sha256(tmp_path, name):
    argv, pins = PINNED[name]
    grid = tmp_path / "grid.ini"
    grid.write_text(GRID_INI, encoding="utf-8")
    paths = {kind: tmp_path / f"{name}.{kind}" for kind in pins}
    argv = [arg.format(grid=grid) for arg in argv] + ["--out", str(paths["json"])]
    if "csv" in paths:
        argv += ["--csv", str(paths["csv"])]
    assert main(argv) == 0
    for kind, path in paths.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == pins[kind], kind
