"""Smoke runs of the analysis scripts on a tiny budget, and the pipeline's
artifact bytes pinned to a record."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pipeline_hashes",
                                               ROOT / "scripts" / "pipeline_hashes.py")
pipeline_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pipeline_hashes)


@pytest.mark.parametrize("script, args, summaries", [
    ("overfit_curve.py", ["--n-docs", "4", "--epochs", "2", "--e1", "1", "--every", "1"],
     ["final presentF1="]),
    ("pipeline_hashes.py", ["--seeds", "0", "--n-docs", "4"],
     ["seed 0 report.csv ", "seed 0 trained/report.csv "]),
])
def test_script_runs(script, args, summaries):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for summary in summaries:
        assert any(line.startswith(summary) for line in lines), proc.stdout


def test_pipeline_artifacts_keep_their_recorded_bytes():
    # float64 results can round differently under another numpy or BLAS, so
    # the record holds only for the versions it was taken with
    record = (ROOT / "tests" / "data" / "pipeline_hashes.txt").read_text(encoding="utf-8")
    lines = [line for line in record.splitlines() if line and not line.startswith("#")]
    recorded = dict(line.split(" ", 1) for line in lines if not line.startswith("seed "))
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    running = {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}
    assert running == recorded, (
        f"hashes recorded with numpy {recorded['numpy']} and {recorded['blas']}, "
        f"this run has numpy {running['numpy']} and {running['blas']}")
    assert list(pipeline_hashes.hash_lines(0, 64)) == [l for l in lines if l.startswith("seed ")]
