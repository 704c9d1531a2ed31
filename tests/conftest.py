import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "exact",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env(**extra) -> dict:
    """The environment of a child interpreter: this one's, with the extra
    variables set and src prepended to any inherited PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, **extra, "PYTHONPATH": path}


@pytest.fixture
def run_fresh():
    """Run a Python script in a fresh interpreter with src on its path and
    return the JSON value it prints, so that what it measures does not
    depend on which tests ran first in this one."""

    def run(code: str):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    return run
