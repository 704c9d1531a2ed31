"""List the statements of src/parmirror that the tests never run.

    python3 scripts/unexecuted_lines.py [pytest args]

Runs the tests (tier-1 by default) in this process under sys.settrace and
threading.settrace, tracing only code in src/parmirror, then prints
``file:line: source`` for each statement in a function body that never
ran, and exits with pytest's exit code. pytest's ``pythonpath`` setting in
pyproject.toml puts src/ on sys.path, so no PYTHONPATH is needed. Tests
that run the CLI in a subprocess are not traced: what only they reach is
listed here too.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "parmirror"


def tracer(prefix: str, hits: set):
    """A global trace function recording (file, line) for code under prefix."""
    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local
    return lambda frame, event, arg: local if frame.f_code.co_filename.startswith(prefix) else None


def unexecuted(path: Path, hits: set) -> list[str]:
    """Statements in function bodies of path (docstrings aside) with no hit."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    fns = [f for f in ast.walk(ast.parse(source)) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    docs = {f.body[0].lineno for f in fns if ast.get_docstring(f) is not None}
    body = {s.lineno for f in fns for b in f.body for s in ast.walk(b) if isinstance(s, ast.stmt)}
    return [f"{path}:{i}: {lines[i - 1].strip()}" for i in sorted(body - docs) if (str(path), i) not in hits]


if __name__ == "__main__":
    hits: set = set()
    trace = tracer(str(PACKAGE), hits)
    threading.settrace(trace)
    sys.settrace(trace)
    code = pytest.main(sys.argv[1:] or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    sys.settrace(None)
    print("\n".join(line for path in sorted(PACKAGE.glob("*.py")) for line in unexecuted(path, hits)))
    sys.exit(int(code))
