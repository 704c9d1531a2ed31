"""scripts/bench_ladder.py records the state of each tree it times.

The script is imported from its file and run with one short rung, once per
tree, so its whole loop (calibration, child runs, digests, the JSON file)
runs here. A tree whose commit or dirty flag moves during a run makes it
exit 1.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LADDER_PATH = ROOT / "scripts" / "bench_ladder.py"


@pytest.fixture
def ladder(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_ladder", LADDER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RUNS", 1)
    monkeypatch.setattr(module, "RUNGS", {
        "lemma 3": ["lemma", "--n", "3", "--out", "{tmp}/report.json"],
    })
    return module


def test_ladder_records_both_trees(ladder, tmp_path):
    out = tmp_path / "bench.json"
    rc = ladder.main(["--tree", f"a={ROOT}", "--tree", f"b={ROOT}", "--out", str(out)])
    data = json.loads(out.read_text())
    assert rc == 0
    assert set(data["trees"]) == {"a", "b"}
    assert data["trees"]["a"] == data["trees"]["b"] == ladder.describe(ROOT)
    assert "trees_changed" not in data
    rung = data["rungs"]["lemma 3"]
    assert rung["outputs_equal"]
    for label in ("a", "b"):
        assert rung["trees"][label]["failed"] == 0
        assert rung["trees"][label]["median_wall_s"] > 0


def test_ladder_exits_1_when_a_tree_changes(ladder, monkeypatch, tmp_path):
    # No child runs: the state check does not depend on them.
    states = iter([{"commit": "abc", "dirty": False}, {"commit": "abc", "dirty": True}])
    monkeypatch.setattr(ladder, "describe", lambda tree: next(states))
    monkeypatch.setattr(ladder, "calibration_load", lambda: ("", 0.3))
    monkeypatch.setattr(ladder, "calibrate", lambda load: 0.3)
    monkeypatch.setattr(ladder, "run_once", lambda tree, args: {
        "wall_s": 0.1, "peak_rss_mb": 10.0, "exit": 0, "sha256": {}})
    out = tmp_path / "bench.json"
    assert ladder.main(["--tree", f"a={ROOT}", "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["trees"]["a"] == {"commit": "abc", "dirty": False}
    assert data["trees_changed"] == ["a"]
