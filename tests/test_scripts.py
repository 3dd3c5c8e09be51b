"""Smoke runs of the experiment scripts at tiny sizes."""

import pytest

from fleetsizing.cli import EXIT_OK, run
from fleetsizing.ingest import save_sequences
from fleetsizing.model import save_model, save_plan
from fleetsizing.rebalance import build_plan
from fleetsizing.synth import sample_day_sequences, synthetic_imbalanced_model

from conftest import ROOT, fresh_python

PAIRINGS = ("1. sized with the plan, baseline without: ", "2. neither with a plan: ",
            "3. both with the plan: ")


def sweep_of_case_study_inputs(tmp_path):
    """``fleetsizing sweep``'s table on the inputs the case study makes at its smoke arguments."""
    model = synthetic_imbalanced_model(4, seed=0, base_rate=1.2, peak_factor=12.0)
    paths = {name: str(tmp_path / name) for name in ("model.json", "plan.json", "days.json", "sweep.csv")}
    save_model(model, paths["model.json"])
    save_plan(build_plan(model, bin_hours=1.0), paths["plan.json"])
    save_sequences(sample_day_sequences(model, 2, seed=1), paths["days.json"])
    assert run(["sweep", "--model", paths["model.json"], "--sequences", paths["days.json"],
                "--plan", paths["plan.json"], "--z-grid", "0.5", "--capacity-grid", "4,8",
                "--out", paths["sweep.csv"]]) == EXIT_OK
    return (tmp_path / "sweep.csv").read_bytes()


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
    if script == "synthetic_case_study.py":
        # the case study's table is the sweep command's, and it reports every pairing of plans
        assert out.read_bytes() == sweep_of_case_study_inputs(tmp_path)
        lines = proc.stdout.splitlines()
        assert [sum(line.startswith(p) for line in lines) for p in PAIRINGS] == [1, 1, 1], proc.stdout
