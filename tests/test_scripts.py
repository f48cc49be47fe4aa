"""Smoke runs of the analysis scripts on a tiny budget."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, summary", [
    ("overfit_curve.py", ["--n-docs", "4", "--epochs", "2", "--e1", "1", "--every", "1"],
     "final presentF1="),
    ("pipeline_hashes.py", ["--seeds", "0", "--n-docs", "4"],
     "seed 0 report.csv "),
    ("pipeline_hashes.py", ["--seeds", "0", "--n-docs", "4"],
     "seed 0 trained/report.csv "),
])
def test_script_runs(script, args, summary):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith(summary) for line in proc.stdout.splitlines()), proc.stdout
