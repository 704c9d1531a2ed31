"""The package guards its invariants with explicit raises, never with
`assert` statements, so `python -O` checks exactly what a normal run does."""

import ast
from pathlib import Path

import pytest

import parmirror

SOURCES = sorted(Path(parmirror.__file__).parent.glob("*.py"))


def _raises_assertion_error(node) -> bool:
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_sources_found():
    assert any(path.name == "chambers.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offenders = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Raise) and _raises_assertion_error(node))
    ]
    assert offenders == [], f"{path.name}: assert or AssertionError at lines {offenders}"
