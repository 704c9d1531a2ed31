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


@pytest.fixture
def run_fresh():
    """Run a Python script in a fresh interpreter with PYTHONPATH=src and
    return the JSON value it prints, so that what it measures does not
    depend on which tests ran first in this one."""

    def run(code: str):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    return run
