"""The benchmark's tracer wraps program callables by attribute name; a
refactor that drops one of those names breaks traced runs, caught here."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracing_install_finds_every_hook():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    result = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install()"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
