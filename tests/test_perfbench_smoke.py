"""The benchmark's smoke mode runs against this checkout.

``perfbench/spans.py`` wraps public functions by name (``locate_region``,
``exact_shap``, ``plot_regions_2d``, ``eval_shallow_many``, ...) and the
smoke mode fails when one is missing or never called, so a renamed or
bypassed function fails here rather than at the next benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert lines and json.loads(lines[-1])["smoke"] == "ok", proc.stdout[-2000:]
