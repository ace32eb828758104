"""README examples run as written, so a renamed or removed public name fails the suite."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_quick_start_runs():
    section = (ROOT / "README.md").read_text().split("\n## Library quick start\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    log_density = float(proc.stdout)
    assert math.isfinite(log_density) and round(log_density, 2) == -358.06
