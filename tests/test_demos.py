"""The narrative demos run end to end against the public API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_demos_run():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for demo in demos:
        proc = subprocess.run(
            [sys.executable, str(demo)], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, f"{demo.name}: {proc.stderr[-2000:]}"
