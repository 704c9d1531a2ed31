"""Byte pins: twelve CLI invocations must write exactly the pinned bytes.

Three invocations and their sha256 values are those of the benchmark's
three workloads at seed 1 (``perfbench/workloads.py``, ``WORKLOADS`` and
``sweep_config_text(1)``). Copy them from there when a change to the output
is intended; any other change to a report byte fails here. The two
``walls`` reports, one with sampled weights so that it carries the
``generic`` field, pin every wall record in enumeration order. A
two-point ``variant`` with its CSV pins the "|"-joined words field. The
other six pin one report of each remaining subcommand; the three
``orbits`` reports cover an explicit gamma, the exhaustive pool of all 5^4
vectors, and the basis-plus-pairwise-sums pool taken when 11^6 > 10^6.
The three benchmark invocations are run once more with the products and
sums of the cyclotomic ring made to raise: no run path uses that ring.
They are also run as the program, in a fresh interpreter through
``python -m parmirror.cli``, and one of them through the console script's
``sys.exit(main())``: that path freezes the import-time heap, which no
in-process call does.
"""

import hashlib
import subprocess
import sys

import pytest

from conftest import child_env
from parmirror.cli import main
from parmirror.exactpoly import CycBivarPoly, CycInt

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
    "variant_two_points": (
        ["variant", "--n", "3", "--g", "2", "--marked", "2", "--deg", "1", "--seed", "4"],
        {"json": "c647ace7d25684ed9b5735b1e50a6a73d2fc76b170eb649fde88c02c789a62ca",
         "csv": "e5f4dcc70b917e83a8b0a2735dea3e9a6de21c95805d5d15c9c6c889822972e5"},
    ),
    "walls_weights": (
        ["walls", "--n", "3", "--g", "2", "--marked", "2", "--deg", "1", "--seed", "2"],
        {"json": "f41827287a344da9272f074a55ac28a2352b4f09219dd7602c191d7d0f4bc10f"},
    ),
    "walls_bare": (
        ["walls", "--n", "2", "--g", "2", "--marked", "4", "--deg", "1"],
        {"json": "3d248f29722455730e6dc9e2072e6f506b0fc810370cf527346c25dc54914886"},
    ),
    "lemma": (
        ["lemma", "--n", "7"],
        {"json": "8d5795c139ef201de567e4a9e4da3e41ef2408ec6505e77ff768a14f6a453fea"},
    ),
    "orbits_gamma": (
        ["orbits", "--n", "3", "--g", "2", "--deg", "1", "--gamma", "1,2,0,1"],
        {"json": "f8b18368ecfcba575f4b81107c6d2741236f76e571f4e0b0f5c5966f7f49ff27"},
    ),
    "orbits_exhaustive": (
        ["orbits", "--n", "5", "--g", "2", "--deg", "2"],
        {"json": "ca989787493902e092bb072432003d57d8e465eb0717c4799b61b80a24ad2e20"},
    ),
    "orbits_pairwise": (
        ["orbits", "--n", "11", "--g", "3", "--deg", "1", "--l-gamma", "3"],
        {"json": "84db920040e31668ed49fdb15def613a39627da09d2cba11fee397f1424b118f"},
    ),
    "stringy": (
        ["stringy", "--n", "5", "--g", "2", "--marked", "2"],
        {"json": "3eacc623e6ea550395ab661bc0903f634c96c1fb273d35cdc39fb9716ea7839a"},
    ),
    "section": (
        ["section", "--n", "5", "--g", "2", "--marked", "2"],
        {"json": "f41a2a5c451f73cdbff2c8373dfa97858d9c6bd375d5ce4f1e58c08935b085f9"},
    ),
}


def _assert_pinned(tmp_path, name, run=main):
    argv, pins = PINNED[name]
    grid = tmp_path / "grid.ini"
    grid.write_text(GRID_INI, encoding="utf-8")
    paths = {kind: tmp_path / f"{name}.{kind}" for kind in pins}
    argv = [arg.format(grid=grid) for arg in argv] + ["--out", str(paths["json"])]
    if "csv" in paths:
        argv += ["--csv", str(paths["csv"])]
    assert run(argv) == 0
    for kind, path in paths.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == pins[kind], kind


@pytest.mark.parametrize("name", sorted(PINNED))
def test_cli_outputs_match_pinned_sha256(tmp_path, name):
    _assert_pinned(tmp_path, name)


@pytest.mark.parametrize("name", ["marked_points", "cli_export", "sweep_default"])
def test_runs_use_no_cyclotomic_arithmetic(monkeypatch, tmp_path, name):
    # The filtered total is computed in integers; the Z[xi] ring serves
    # only the tests and the benchmark's counters.
    def refuse(self, other):
        raise AssertionError("cyclotomic arithmetic on a run path")

    for cls in (CycInt, CycBivarPoly):
        for method in ("__mul__", "__add__"):
            monkeypatch.setattr(cls, method, refuse)
    _assert_pinned(tmp_path, name)


LAUNCHERS = {
    "module": ["-m", "parmirror.cli"],
    "script": ["-c", "import sys; from parmirror.cli import main; sys.exit(main())"],
}


@pytest.mark.parametrize("name,launcher", [
    ("marked_points", "module"), ("cli_export", "module"), ("sweep_default", "module"),
    ("cli_export", "script"),
])
def test_program_outputs_match_pinned_sha256(tmp_path, name, launcher):
    env = child_env()

    def run(argv):
        proc = subprocess.run([sys.executable, *LAUNCHERS[launcher], *argv], env=env,
                              cwd=tmp_path, capture_output=True, timeout=300)
        assert proc.stderr == b""
        return proc.returncode

    _assert_pinned(tmp_path, name, run)
