"""The narrative demos run end to end against the public API.

``golden/demos.stdout.sha256`` pins each demo's stdout: one line per demo,
``<sha256>  <file name>``, in file-name order.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DEMOS = ROOT / "tests" / "golden" / "demos.stdout.sha256"


def demo_stdout_sha256() -> list[str]:
    """``<sha256>  <file name>`` of each demo's stdout; every demo must exit 0."""
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    lines = []
    for demo in demos:
        proc = subprocess.run(
            [sys.executable, str(demo)], env=env, capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, f"{demo.name}: {proc.stderr.decode()[-2000:]}"
        lines.append(f"{hashlib.sha256(proc.stdout).hexdigest()}  {demo.name}")
    return lines


def test_demos_run():
    assert demo_stdout_sha256() == GOLDEN_DEMOS.read_text().splitlines()
