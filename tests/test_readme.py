"""The README's library quickstart runs as printed."""

import os
import re
import subprocess
import sys
from pathlib import Path

import indivisible

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    script = "".join(blocks) + (
        "print(float(np.abs(dilation_marginal(u, 3) - gamma.matrix).max()))\n")
    env = dict(os.environ)
    package_root = str(Path(indivisible.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "indivisible"
    assert "not_unistochastic" in lines
    assert float(lines[-1]) <= 1e-10
