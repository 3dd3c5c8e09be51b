"""Smoke runs of the experiment scripts at tiny sizes."""

import pytest

from conftest import ROOT, fresh_python


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
    proc = fresh_python(str(ROOT / "scripts" / script), *args, "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[0] == header
