"""The demos run to completion against the package in ``src/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("demo", ["01_subordinator_paths.py", "02_conditional_gp.py",
                                  "03_synthetic_regression.py"])
def test_demo_runs(demo, tmp_path):
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo), str(tmp_path)],
                            env=_env(), capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_cli_pipeline_demo_runs(tmp_path):
    """gen -> fit -> predict -> simulate -> normalize through an ``ngpr`` command on PATH."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "ngpr"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m ngpr.cli "$@"\n')
    shim.chmod(0o755)
    env = _env()
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    work = tmp_path / "run"
    result = subprocess.run(["bash", str(ROOT / "demos" / "04_cli_pipeline.sh"), str(work)],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    for name in ("fit/summary.json", "predictions.csv", "prior_path.csv", "raw_unit.csv"):
        assert (work / name).is_file()
