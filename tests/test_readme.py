"""README examples run as written, so a renamed or removed public name fails the suite."""

import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from topobayes import cli

ROOT = Path(__file__).resolve().parent.parent


def test_library_quick_start_runs():
    section = (ROOT / "README.md").read_text().split("\n## Library quick start\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    log_density = float(proc.stdout)
    assert math.isfinite(log_density) and round(log_density, 2) == -358.06


def test_command_line_examples_run(tmp_path, monkeypatch, capsys):
    # every topobayes line of the bash block, as written: about 8 s on 2 cores
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    lines = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("topobayes ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().err)
        named = [arg for arg in argv if "/" in arg]  # the files it reads and writes
        if argv[1] == "heatmap":  # its --out is the prefix of the two files it writes
            prefix = named.pop(named.index(argv[argv.index("--out") + 1]))
            named += [prefix + ".json", prefix + ".csv"]
        assert named and all(Path(p).exists() for p in named), argv
