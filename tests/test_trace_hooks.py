"""The benchmark's traced passes still run. ``perfbench/layers.py`` wraps
package attributes by name (``solver.close_marks``, ``rules.components``,
``rules.contains_pattern``, ...), so a refactor that drops one of them
breaks ``--trace 1`` without failing any other test."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["pattern-p3", "hard-k2"])
def test_traced_pass_runs(workload):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), workload, "3", "traced"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["counts"]["solver.states"] > 0
