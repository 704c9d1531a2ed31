"""scripts/unexecuted_lines.py lists the statements no test runs.

Its tracer and statement lister run here on a small synthetic module with
one dead branch, a docstring and a nested function.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SYNTHETIC = '''\
def sign(x):
    """The sign of x, with 0 counted positive."""
    def positive():
        """Nested docstrings are not statements that run."""
        return 1
    if x >= 0:
        return positive()
    return -1
'''


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lister_names_only_the_dead_branch(tmp_path):
    script = _load("unexecuted_lines", ROOT / "scripts" / "unexecuted_lines.py")
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC, encoding="utf-8")
    synthetic = _load("synthetic", path)
    hits = set()
    previous = sys.gettrace()
    sys.settrace(script.tracer(str(tmp_path), hits))
    try:
        assert synthetic.sign(3) == 1
    finally:
        sys.settrace(previous)
    assert script.unexecuted(path, hits) == [f"{path}:8: return -1"]
