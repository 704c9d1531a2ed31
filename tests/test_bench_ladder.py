"""scripts/bench_ladder.py records the state of each tree it times.

The script is imported from its file and run with one short rung, once per
tree, so its whole loop (calibration, child runs, digests, the JSON file)
runs here. A tree whose commit, dirty flag or diff against HEAD moves
during a run makes it exit 1.
"""

import importlib.util
import json
import subprocess
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
    # No child runs: the state check does not depend on them. A clean tree
    # turns dirty; a dirty tree is edited again, so only its diff hash moves.
    clean = {"commit": "abc", "dirty": False, "diff_sha256": "e3b0"}
    dirty = dict(clean, dirty=True, diff_sha256="1f2e")
    monkeypatch.setattr(ladder, "calibration_load", lambda: ("", 0.3))
    monkeypatch.setattr(ladder, "calibrate", lambda load: 0.3)
    monkeypatch.setattr(ladder, "run_once", lambda tree, args: {
        "wall_s": 0.1, "peak_rss_mb": 10.0, "exit": 0, "sha256": {}})
    out = tmp_path / "bench.json"
    for before, after in [(clean, dirty), (dirty, dict(dirty, diff_sha256="9c4d"))]:
        states = iter([before, after])
        monkeypatch.setattr(ladder, "describe", lambda tree: next(states))
        assert ladder.main(["--tree", f"a={ROOT}", "--out", str(out)]) == 1
        data = json.loads(out.read_text())
        assert data["trees"]["a"] == before
        assert data["trees_changed"] == ["a"]


def test_describe_sees_a_dirty_tree_edited_again(ladder, tmp_path):
    """A tree already dirty keeps its commit and dirty flag when edited
    again; the hash of its diff against HEAD moves."""
    def git(*cmd):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                        *cmd], check=True, capture_output=True)

    tracked = tmp_path / "file.txt"
    tracked.write_text("one\n")
    git("init", "-q")
    git("add", "file.txt")
    git("commit", "-q", "-m", "one")
    clean = ladder.describe(tmp_path)
    tracked.write_text("two\n")
    dirty = ladder.describe(tmp_path)
    tracked.write_text("three\n")
    edited = ladder.describe(tmp_path)
    assert clean["dirty"] is False and dirty["dirty"] is edited["dirty"] is True
    assert clean["commit"] == dirty["commit"] == edited["commit"] is not None
    assert len({clean["diff_sha256"], dirty["diff_sha256"], edited["diff_sha256"]}) == 3
