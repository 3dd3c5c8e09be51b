"""Command-line pipeline wiring, exit codes, and output determinism."""

import datetime as dt
import json
import logging

import pytest

from fleetsizing.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_INVARIANT,
    EXIT_OK,
    run,
)
from fleetsizing.model import InvariantViolationError, SystemDesign, save_model
from fleetsizing.sizing import SizingInfeasibleError, design_to_json
from fleetsizing.synth import uniform_demand_model


def write_demo_trips(path):
    """Five commute trips between raw stations 101/202/303 on ten workdays."""
    rows = ["start_time,end_time,start_station_id,end_station_id"]
    day = dt.date(2016, 5, 2)
    for _ in range(10):
        while day.weekday() >= 5:
            day += dt.timedelta(days=1)
        for hhmm, o, d in [
            ("08:15", 101, 202),
            ("08:40", 101, 303),
            ("09:10", 202, 303),
            ("17:15", 303, 101),
            ("17:40", 202, 101),
        ]:
            rows.append(f"{day}T{hhmm}:00,{day}T{hhmm[:3]}55:00,{o},{d}")
        day += dt.timedelta(days=1)
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run ingest -> plan -> size once and hand the file paths around."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {
        "trips": write_demo_trips(root / "trips.csv"),
        "model": root / "model.json",
        "sequences": root / "days.json",
        "plan": root / "plan.json",
        "design": root / "design.json",
    }
    assert (
        run(
            [
                "ingest",
                "--trips", str(paths["trips"]),
                "--model-out", str(paths["model"]),
                "--sequences-out", str(paths["sequences"]),
            ]
        )
        == EXIT_OK
    )
    assert run(["plan", "--model", str(paths["model"]), "--out", str(paths["plan"])]) == EXIT_OK
    assert (
        run(
            [
                "size",
                "--model", str(paths["model"]),
                "--plan", str(paths["plan"]),
                "--z", "0.1",
                "--T", "24",
                "--out", str(paths["design"]),
            ]
        )
        == EXIT_OK
    )
    return paths


class TestPipeline:
    def test_ingest_outputs(self, pipeline):
        model = json.loads(pipeline["model"].read_text())
        assert model["k"] == 3
        days = json.loads(pipeline["sequences"].read_text())
        assert len(days["days"]) == 10
        assert days["station_ids"] == [101, 202, 303]

    def test_size_output(self, pipeline):
        doc = json.loads(pipeline["design"].read_text())
        assert doc["z"] == 0.1
        assert len(doc["stations"]) == 3
        assert doc["bound"] <= 0.1
        assert doc["fleet"] == sum(s["v"] for s in doc["stations"])

    def test_bound_reports_feasibility(self, pipeline, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        code = run(
            [
                "bound",
                "--model", str(pipeline["model"]),
                "--design", str(pipeline["design"]),
                "--plan", str(pipeline["plan"]),
                "--T", "24",
                "--z", "0.1",
                "--curve", str(curve),
                "--points", "10",
            ]
        )
        assert code == EXIT_OK
        assert "feasible" in capsys.readouterr().out
        lines = curve.read_text().strip().splitlines()
        assert lines[0] == "t,bound"
        assert len(lines) == 11

    def test_bound_flags_overdrawn_budget(self, pipeline, tmp_path, capsys):
        tiny = tmp_path / "tiny.json"
        tiny.write_text(json.dumps(design_to_json(SystemDesign((0, 0, 0), (0, 0, 0)))))
        code = run(
            [
                "bound",
                "--model", str(pipeline["model"]),
                "--design", str(tiny),
                "--T", "24",
                "--z", "0.05",
            ]
        )
        assert code == EXIT_OK  # diagnosis, not failure
        assert "infeasible" in capsys.readouterr().out

    def test_exact_simulation(self, pipeline, tmp_path, capsys):
        small = tmp_path / "small.json"
        small.write_text(json.dumps(design_to_json(SystemDesign((1, 1, 1), (2, 2, 2)))))
        out = tmp_path / "exact.csv"
        code = run(
            [
                "simulate", "--exact",
                "--model", str(pipeline["model"]),
                "--design", str(small),
                "--T", "24",
                "--points", "8",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,p_fail"
        assert len(lines) == 9
        p = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(0.0 <= x <= 1.0 for x in p)
        assert p == sorted(p)

    def test_replay_summarizes_days(self, pipeline, tmp_path, capsys):
        out = tmp_path / "replay.csv"
        code = run(
            [
                "replay",
                "--sequences", str(pipeline["sequences"]),
                "--design", str(pipeline["design"]),
                "--plan", str(pipeline["plan"]),
                "--eta-from-model", str(pipeline["model"]),
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "day,availability_failures,capacity_failures,day_failed"
        assert len(lines) == 11
        assert "failure rate" in capsys.readouterr().out

    def test_sweep_covers_both_families(self, pipeline, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(
            [
                "sweep",
                "--model", str(pipeline["model"]),
                "--sequences", str(pipeline["sequences"]),
                "--plan", str(pipeline["plan"]),
                "--z-grid", "0.5,0.1",
                "--capacity-grid", "2,4",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        labels = [line.split(",")[0] for line in out.read_text().strip().splitlines()[1:]]
        assert "baseline-norebal-C2" in labels
        assert "baseline-rebal-C4" in labels
        assert "proposed-norebal-z0.5" in labels
        assert "proposed-rebal-z0.1" in labels


class TestDeterminism:
    def test_mc_output_is_byte_identical(self, pipeline, tmp_path):
        small = tmp_path / "small.json"
        small.write_text(json.dumps(design_to_json(SystemDesign((1, 1, 1), (3, 3, 3)))))
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert (
                run(
                    [
                        "simulate", "--mc",
                        "--model", str(pipeline["model"]),
                        "--design", str(small),
                        "--T", "24",
                        "--runs", "300",
                        "--seed", "7",
                        "--points", "20",
                        "--out", str(out),
                    ]
                )
                == EXIT_OK
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        header = outs[0].decode().splitlines()[0]
        assert header == "t,p_fail,stderr,runs"

    def test_exact_output_is_unchanged_by_debug_logging(self, pipeline, tmp_path, caplog, capsys):
        small = tmp_path / "small.json"
        small.write_text(json.dumps(design_to_json(SystemDesign((1, 1, 1), (2, 2, 2)))))
        outs = []
        for level in (logging.WARNING, logging.DEBUG):
            out = tmp_path / f"exact-{level}.csv"
            with caplog.at_level(level, logger="fleetsizing"):
                code = run(["simulate", "--exact", "--model", str(pipeline["model"]),
                            "--design", str(small), "--T", "24", "--points", "8",
                            "--out", str(out)])
            assert code == EXIT_OK
            outs.append((out.read_bytes(), capsys.readouterr().out))
        assert outs[0] == outs[1]
        assert any("joint solve:" in r.getMessage() for r in caplog.records)

    def test_replay_output_is_byte_identical(self, pipeline, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert (
                run(
                    [
                        "replay",
                        "--sequences", str(pipeline["sequences"]),
                        "--design", str(pipeline["design"]),
                        "--out", str(out),
                    ]
                )
                == EXIT_OK
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestExitCodes:
    def test_help_exits_clean(self):
        assert run(["--help"]) == EXIT_OK

    def test_missing_input_file(self, tmp_path):
        code = run(
            [
                "ingest",
                "--trips", str(tmp_path / "nope.csv"),
                "--model-out", str(tmp_path / "m.json"),
                "--sequences-out", str(tmp_path / "d.json"),
            ]
        )
        assert code == EXIT_INPUT

    def test_unknown_flag(self):
        assert run(["plan", "--frobnicate"]) == EXIT_INPUT

    def test_unknown_subcommand(self):
        assert run(["transmogrify"]) == EXIT_INPUT

    def test_no_arguments(self):
        assert run([]) == EXIT_INPUT

    def test_simulate_needs_a_mode(self, pipeline, tmp_path):
        code = run(
            [
                "simulate",
                "--model", str(pipeline["model"]),
                "--design", str(pipeline["design"]),
                "--T", "24",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("k", [2, 4])
    def test_replay_eta_model_must_match_design(self, pipeline, tmp_path, capsys, k):
        # the pipeline design has three stations
        model = tmp_path / "model.json"
        save_model(uniform_demand_model(k, 0.5, 24.0, eta_hours=0.25), model)
        code = run(
            [
                "replay",
                "--sequences", str(pipeline["sequences"]),
                "--design", str(pipeline["design"]),
                "--plan", str(pipeline["plan"]),
                "--eta-from-model", str(model),
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert code == EXIT_INPUT
        assert f"has {k} stations, design has 3" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [2, 5])
    def test_sweep_sequences_must_match_model(self, pipeline, tmp_path, capsys, k):
        # the pipeline sequences have three stations
        model = tmp_path / "model.json"
        save_model(uniform_demand_model(k, 0.5, 24.0, eta_hours=0.25), model)
        code = run(
            [
                "sweep",
                "--model", str(model),
                "--sequences", str(pipeline["sequences"]),
                "--z-grid", "0.5",
                "--capacity-grid", "4",
                "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert code == EXIT_INPUT
        assert f"sequences have 3 stations, model has {k}" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [2, 4])
    def test_replay_sequences_must_match_design(self, pipeline, tmp_path, capsys, k):
        design = tmp_path / "design.json"
        design.write_text(json.dumps(design_to_json(SystemDesign((2,) * k, (4,) * k))))
        code = run(
            [
                "replay",
                "--sequences", str(pipeline["sequences"]),
                "--design", str(design),
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert code == EXIT_INPUT
        assert f"sequences have 3 stations, design has {k}" in capsys.readouterr().err

    def test_corrupt_json_model(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run(["plan", "--model", str(bad), "--out", str(tmp_path / "p.json")])
        assert code == EXIT_INPUT

    def test_budget_out_of_reach_maps_to_2(self, pipeline, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise SizingInfeasibleError("stock sizing hit the cap")

        monkeypatch.setattr("fleetsizing.sizing.size_system", boom)
        code = run(
            [
                "size",
                "--model", str(pipeline["model"]),
                "--z", "0.1",
                "--T", "24",
                "--out", str(tmp_path / "d.json"),
            ]
        )
        assert code == EXIT_INFEASIBLE

    def test_invariant_violation_maps_to_3(self, pipeline, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise InvariantViolationError("probability mass leaked")

        monkeypatch.setattr("fleetsizing.sizing.size_system", boom)
        code = run(
            [
                "size",
                "--model", str(pipeline["model"]),
                "--z", "0.1",
                "--T", "24",
                "--out", str(tmp_path / "d.json"),
            ]
        )
        assert code == EXIT_INVARIANT

    @pytest.mark.parametrize("width", ["0", "-1", "nan", "inf"])
    def test_plan_rejects_a_bin_width_that_is_not_positive(
        self, pipeline, tmp_path, capsys, width
    ):
        out = tmp_path / "p.json"
        argv = ["plan", "--model", str(pipeline["model"]), "--out", str(out), "--bin-hours", width]
        code = run(argv)
        assert code == EXIT_INPUT
        assert "bin width" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode", [["bound", "--curve"], ["simulate", "--mc"], ["simulate", "--exact"]]
    )
    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_points_must_be_positive(self, pipeline, tmp_path, capsys, mode, points):
        out = str(tmp_path / "x.csv")
        command, flag = mode
        argv = [command, flag] if command == "simulate" else [command, flag, out]
        argv += ["--model", str(pipeline["model"]), "--design", str(pipeline["design"]),
                 "--T", "24", "--points", points]
        if command == "simulate":
            argv += ["--out", out, "--runs", "10"]
        assert run(argv) == EXIT_INPUT
        assert "--points must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--T", "nan"],
            ["bound", "--T", "nan", "--curve", "{out}"],
            ["bound", "--T", "-1"],
            ["simulate", "--exact", "--T", "nan", "--out", "{out}"],
            ["simulate", "--mc", "--T", "nan", "--runs", "10", "--out", "{out}"],
        ],
    )
    def test_time_outside_the_horizon_is_rejected(self, pipeline, tmp_path, capsys, argv):
        argv = [a.format(out=tmp_path / "x.csv") for a in argv]
        argv += ["--model", str(pipeline["model"]), "--design", str(pipeline["design"])]
        assert run(argv) == EXIT_INPUT
        assert "outside [0, 24.0]" in capsys.readouterr().err

    def test_exact_rejects_travel_delays(self, pipeline, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["simulate", "--exact", "--with-delay", "--model", str(pipeline["model"]),
                "--design", str(pipeline["design"]), "--T", "24", "--out", str(out)]
        assert run(argv) == EXIT_INPUT
        assert "--with-delay applies to --mc only" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["size", "sweep"])
    @pytest.mark.parametrize("T", ["nan", "inf"])
    def test_sizing_horizon_must_be_finite(self, pipeline, tmp_path, capsys, command, T):
        out = tmp_path / "x.out"
        argv = [command, "--model", str(pipeline["model"]), "--T", T, "--out", str(out)]
        if command == "size":
            argv += ["--z", "0.1"]
        else:
            argv += ["--sequences", str(pipeline["sequences"]), "--z-grid", "0.1",
                     "--capacity-grid", "2"]
        assert run(argv) == EXIT_INPUT
        assert "sizing horizon T must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("z", ["nan", "0", "1", "1.5", "-0.1"])
    def test_bound_rejects_a_budget_outside_the_unit_interval(self, pipeline, capsys, z):
        argv = ["bound", "--model", str(pipeline["model"]), "--design", str(pipeline["design"]),
                "--T", "24", "--z", z]
        assert run(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "budget z must lie in (0, 1)" in captured.err
        assert "feasible" not in captured.out

    @pytest.mark.parametrize("workers", ["abc", "0", "-2", ""])
    def test_worker_count_must_be_a_positive_integer(
        self, pipeline, tmp_path, capsys, monkeypatch, workers
    ):
        monkeypatch.setenv("FLEETSIZING_WORKERS", workers)
        argv = ["simulate", "--mc", "--model", str(pipeline["model"]),
                "--design", str(pipeline["design"]), "--T", "24", "--runs", "10",
                "--out", str(tmp_path / "x.csv")]
        assert run(argv) == EXIT_INPUT
        assert "FLEETSIZING_WORKERS must be a positive integer" in capsys.readouterr().err
