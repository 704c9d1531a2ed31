"""scripts/bench_ladder.py records the state of each tree it times.

The script is imported from its file and run with one short rung, once per
tree, so its whole loop (calibration, child runs, digests, the JSON file)
runs here. A tree whose commit, dirty flag or diff against HEAD moves
during a run makes it exit 1. The speed scales, the choice of rungs by
--rung and the per-rung minimum and lower quartile are checked on stubbed
runs and calibrations. The real ``startup`` rung runs once through the
ladder's boot.
"""

import importlib.util
import json
import statistics
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LADDER_PATH = ROOT / "scripts" / "bench_ladder.py"


def _load_ladder():
    spec = importlib.util.spec_from_file_location("bench_ladder", LADDER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def ladder(monkeypatch):
    module = _load_ladder()
    monkeypatch.setattr(module, "RUNS", 1)
    monkeypatch.setattr(module, "SHORT_RUNS", 1)
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


def test_ladder_scales_medians_by_the_median_calibration(ladder, monkeypatch, tmp_path):
    # one rung, three runs per tree: raw wall times 0.1, 0.3, 0.2 on tree a and
    # twice that on tree b; seven calibrations, one of them slow
    monkeypatch.setattr(ladder, "RUNS", 3)
    monkeypatch.setattr(ladder, "SHORT_RUNS", 3)
    calibrations = iter([0.3, 0.3, 0.9, 0.2, 0.3, 0.4, 0.3])
    wall_times = iter([0.1, 0.2, 0.6, 0.3, 0.2, 0.4])  # a, b, then b, a, then a, b
    monkeypatch.setattr(ladder, "calibration_load", lambda: ("", 0.6))
    monkeypatch.setattr(ladder, "calibrate", lambda load: next(calibrations))
    monkeypatch.setattr(ladder, "describe", lambda tree: {"commit": "abc", "dirty": False})
    monkeypatch.setattr(ladder, "run_once", lambda tree, args: {
        "wall_s": next(wall_times), "peak_rss_mb": 10.0, "exit": 0, "sha256": {}})
    out = tmp_path / "bench.json"
    assert ladder.main(["--tree", f"a={ROOT}", "--tree", f"b={ROOT}", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["calibration"]["median_s"] == 0.3
    trees = data["rungs"]["lemma 3"]["trees"]
    for label, raw in (("a", 0.2), ("b", 0.4)):
        assert trees[label]["median_wall_s"] == raw
        assert trees[label]["median_round_scaled_wall_s"] == pytest.approx(raw * 2)
        scaled = [r["wall_s"] * 1.2 / sum(r["calibration_s"]) for r in trees[label]["runs"]]
        assert trees[label]["median_scaled_wall_s"] == pytest.approx(statistics.median(scaled), abs=1e-4)
    # the minimum and lower quartile read the raw times, a 0.1, 0.3, 0.2 and
    # b 0.2, 0.6, 0.4; the lower quartile lies halfway between the two
    # smallest of three
    for label, low, q1 in (("a", 0.1, 0.15), ("b", 0.2, 0.3)):
        assert trees[label]["min_wall_s"] == pytest.approx(low, abs=1e-4)
        assert trees[label]["q1_wall_s"] == pytest.approx(q1, abs=1e-4)


def test_ladder_runs_sub_second_rungs_for_more_rounds(ladder, monkeypatch, tmp_path):
    """A rung whose first round ran under SHORT_S on every tree runs
    SHORT_RUNS rounds, and one with a slower run in its first round runs
    RUNS; each rung records its rounds."""
    monkeypatch.setattr(ladder, "RUNS", 3)
    monkeypatch.setattr(ladder, "SHORT_RUNS", 12)
    monkeypatch.setattr(ladder, "RUNGS", {"short": ["short"], "long": ["long"], "mixed": ["mixed"]})
    # mixed: tree a under SHORT_S and tree b over it in the first round
    walls = {"short": iter([0.5] * 24), "long": iter([1.5] * 6), "mixed": iter([0.9, 1.1] * 3)}
    monkeypatch.setattr(ladder, "calibration_load", lambda: ("", 0.3))
    monkeypatch.setattr(ladder, "calibrate", lambda load: 0.3)
    monkeypatch.setattr(ladder, "describe", lambda tree: {"commit": "abc", "dirty": False})
    monkeypatch.setattr(ladder, "run_once", lambda tree, args: {
        "wall_s": next(walls[args[0]]), "peak_rss_mb": 10.0, "exit": 0, "sha256": {}})
    out = tmp_path / "bench.json"
    assert ladder.main(["--tree", f"a={ROOT}", "--tree", f"b={ROOT}", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["rounds"] == {"default": 3, "short": 12, "short_below_s": ladder.SHORT_S}
    for rung, rounds in (("short", 12), ("long", 3), ("mixed", 3)):
        entry = data["rungs"][rung]
        assert entry["rounds"] == rounds
        assert [len(tree["runs"]) for tree in entry["trees"].values()] == [rounds, rounds]
    assert all(next(it, None) is None for it in walls.values())


def test_ladder_times_only_the_named_rungs(ladder, monkeypatch, tmp_path):
    """--rung, repeated, times the rungs it names in RUNGS order and no
    other; a single run is its own minimum and lower quartile."""
    monkeypatch.setattr(ladder, "RUNGS", {"one": ["one"], "two": ["two"], "three": ["three"]})
    monkeypatch.setattr(ladder, "calibration_load", lambda: ("", 0.3))
    monkeypatch.setattr(ladder, "calibrate", lambda load: 0.3)
    monkeypatch.setattr(ladder, "describe", lambda tree: {"commit": "abc", "dirty": False})
    timed = []
    monkeypatch.setattr(ladder, "run_once", lambda tree, args: timed.append(args[0]) or {
        "wall_s": 0.5, "peak_rss_mb": 10.0, "exit": 0, "sha256": {}})
    out = tmp_path / "bench.json"
    argv = ["--tree", f"a={ROOT}", "--out", str(out), "--rung", "three", "--rung", "one"]
    assert ladder.main(argv) == 0
    data = json.loads(out.read_text())
    assert list(data["rungs"]) == ["one", "three"]
    assert timed == ["one", "three"]
    tree = data["rungs"]["one"]["trees"]["a"]
    assert tree["min_wall_s"] == tree["q1_wall_s"] == tree["median_wall_s"] == 0.5


def test_ladder_refuses_an_unknown_rung(ladder, monkeypatch, capsys, tmp_path):
    """An unknown --rung is a usage error, exit 2, before anything runs;
    the message lists every valid rung."""
    monkeypatch.setattr(ladder, "RUNGS", {"tms 3 2 3 0": ["tms"], "sweep --csv": ["sweep"]})
    monkeypatch.setattr(ladder, "calibration_load", lambda: pytest.fail("a run started"))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        ladder.main(["--tree", f"a={ROOT}", "--out", str(out), "--rung", "tms 9 9 9 9"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'tms 9 9 9 9'" in err
    assert "'tms 3 2 3 0'" in err and "'sweep --csv'" in err
    assert not out.exists()


def test_startup_rung_times_a_run_that_writes_nothing():
    """The startup rung goes through the ladder's own boot: it exits 0,
    writes no output file, and the peak RSS hook still runs at exit."""
    ladder = _load_ladder()
    run = ladder.run_once(ROOT, ladder.RUNGS["startup"])
    assert run["exit"] == 0
    assert run["sha256"] == {}
    assert run["peak_rss_mb"] > 0
