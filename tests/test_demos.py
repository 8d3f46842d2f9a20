"""The Python demos run to completion against the package in ``src/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_subordinator_paths.py", "02_conditional_gp.py",
                                  "03_synthetic_regression.py"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo), str(tmp_path)],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
