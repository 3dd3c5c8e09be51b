"""Smoke runs of the experiment scripts at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, header",
    [
        (
            "bound_vs_mc_curves.py",
            ["--stations", "4", "--runs", "50", "--points", "5", "--horizon", "6"],
            "t,bound,p_fail,stderr",
        ),
        (
            "synthetic_case_study.py",
            ["--stations", "4", "--days", "2", "--z-grid", "0.5", "--capacity-grid", "4,8"],
            "label,total_fleet,total_capacity,failure_rate",
        ),
    ],
)
def test_script_runs_and_writes_its_table(tmp_path, script, args, header):
    out = tmp_path / "out.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[0] == header
