"""Command-line pipeline wiring, exit codes, and output determinism."""

import datetime as dt
import json
import logging
import math
import re
from types import SimpleNamespace

import pytest

from fleetsizing.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_INVARIANT,
    EXIT_OK,
    run,
)
from fleetsizing import model as model_module
from fleetsizing.ingest import estimate_demand, load_sequences, save_sequences
from fleetsizing.model import InvariantViolationError, SystemDesign, save_model
from fleetsizing.sizing import SizingInfeasibleError
from fleetsizing.synth import uniform_demand_model

from conftest import days_of, design_to_json


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

    def test_files_are_written_as_json_dump_writes_them(self, pipeline, tmp_path, monkeypatch):
        files = {name: pipeline[name] for name in ("model", "sequences", "plan", "design")}
        for path in files.values():
            doc = json.loads(path.read_text())
            expected = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
            assert path.read_bytes() == expected, path.name
        # slices of two scalars cut every container, and change no byte
        monkeypatch.setattr(model_module, "_SLICE_SCALARS", 2)
        again = {name: tmp_path / path.name for name, path in files.items()}
        assert run(["ingest", "--trips", str(pipeline["trips"]),
                    "--model-out", str(again["model"]),
                    "--sequences-out", str(again["sequences"])]) == EXIT_OK
        assert run(["plan", "--model", str(again["model"]), "--out", str(again["plan"])]) == EXIT_OK
        assert run(["size", "--model", str(again["model"]), "--plan", str(again["plan"]),
                    "--z", "0.1", "--T", "24", "--out", str(again["design"])]) == EXIT_OK
        for name, path in files.items():
            assert again[name].read_bytes() == path.read_bytes(), name

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

    @pytest.mark.parametrize("flags", [[], ["--bin-hours", "0.5", "--days", "all"]])
    def test_model_is_the_average_of_the_written_days(self, tmp_path, caplog, flags):
        trips = write_demo_trips(tmp_path / "trips.csv")
        with trips.open("a", encoding="utf-8") as fh:
            fh.write("2016-05-03T10:00:00,2016-05-03T10:20:00,202,202\n")  # round trip
            fh.write("2016-05-07T12:00:00,2016-05-07T12:30:00,303,202\n")  # Saturday
        model, days = tmp_path / "model.json", tmp_path / "days.json"
        with caplog.at_level(logging.INFO, logger="fleetsizing"):
            assert run(["ingest", "--trips", str(trips), "--model-out", str(model),
                        "--sequences-out", str(days), *flags]) == EXIT_OK
        # the round-trip count is logged once per ingest
        dropped = [r.getMessage() for r in caplog.records if "round trips" in r.getMessage()]
        assert dropped == ["dropped 1 round trips (same start and end station)"]
        bin_hours = float(flags[1]) if flags else 1.0
        again = tmp_path / "again.json"
        save_model(estimate_demand(load_sequences(days), bin_hours=bin_hours), again)
        assert again.read_bytes() == model.read_bytes()


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

    def test_mc_output_is_unchanged_by_debug_logging(
        self, pipeline, tmp_path, caplog, capsys, monkeypatch
    ):
        monkeypatch.setenv("FLEETSIZING_WORKERS", "1")
        small = tmp_path / "small.json"
        small.write_text(json.dumps(design_to_json(SystemDesign((1, 1, 1), (3, 3, 3)))))
        outs = []
        for level in (logging.WARNING, logging.DEBUG):
            out = tmp_path / f"mc-{level}.csv"
            with caplog.at_level(level, logger="fleetsizing"):
                code = run(["simulate", "--mc", "--model", str(pipeline["model"]),
                            "--design", str(small), "--plan", str(pipeline["plan"]),
                            "--T", "24", "--runs", "200", "--seed", "7", "--points", "12",
                            "--with-delay", "--out", str(out)])
            assert code == EXIT_OK
            outs.append((out.read_bytes(), capsys.readouterr().out))
        assert outs[0] == outs[1]
        lines = [r.getMessage() for r in caplog.records if r.name == "fleetsizing.simulate"]
        (line,) = lines
        found = re.fullmatch(
            r"monte carlo: 200 runs, 1 workers, (\d+) events, 0 tie-path runs, \S+ s", line
        )
        assert found and int(found.group(1)) > 0, line

    def test_ingest_output_is_unchanged_by_debug_logging(self, pipeline, tmp_path, caplog, capsys):
        outs = []
        for level in (logging.WARNING, logging.DEBUG):
            model, days = tmp_path / f"model-{level}.json", tmp_path / f"days-{level}.json"
            with caplog.at_level(level, logger="fleetsizing"):
                assert run(["ingest", "--trips", str(pipeline["trips"]), "--model-out",
                            str(model), "--sequences-out", str(days)]) == EXIT_OK
                assert run(["plan", "--model", str(model),
                            "--out", str(tmp_path / f"plan-{level}.json")]) == EXIT_OK
            outs.append((model.read_bytes(), days.read_bytes(), capsys.readouterr().out))
        assert outs[0] == outs[1]
        assert outs[0][:2] == (pipeline["model"].read_bytes(), pipeline["sequences"].read_bytes())
        lines = [r.getMessage() for r in caplog.records if r.name == "fleetsizing.model"]
        found = [re.fullmatch(r"(wrote|read) (.+): (\d+) bytes, \d+\.\d{3} s", m) for m in lines]
        assert found and all(found), lines
        # one line per file: ingest writes two, plan reads one and writes one
        logged = [(f.group(1), f.group(2), int(f.group(3))) for f in found]
        model, days, plan = (tmp_path / f"{n}-{logging.DEBUG}.json" for n in ("model", "days", "plan"))
        assert logged == [
            ("wrote", str(model), model.stat().st_size),
            ("wrote", str(days), days.stat().st_size),
            ("read", str(model), model.stat().st_size),
            ("wrote", str(plan), plan.stat().st_size),
        ]

    def test_size_and_bound_outputs_are_unchanged_by_debug_logging(
        self, pipeline, tmp_path, caplog, capsys
    ):
        model, plan = str(pipeline["model"]), str(pipeline["plan"])
        outs = []
        for level in (logging.WARNING, logging.DEBUG):
            design = tmp_path / f"design-{level}.json"
            curve = tmp_path / f"bound-{level}.csv"
            with caplog.at_level(level, logger="fleetsizing"):
                assert run(["size", "--model", model, "--plan", plan, "--z", "0.1",
                            "--T", "24", "--out", str(design)]) == EXIT_OK
                assert run(["bound", "--model", model, "--plan", plan, "--design",
                            str(design), "--T", "24", "--curve", str(curve),
                            "--points", "8"]) == EXIT_OK
                assert run(["bound", "--model", model, "--plan", plan, "--design",
                            str(design), "--T", "12"]) == EXIT_OK
            outs.append((design.read_bytes(), curve.read_bytes(), capsys.readouterr().out))
        assert outs[0] == outs[1]
        # size and both bounds aggregate the flows once each, with travel delays off
        flows = [r.getMessage() for r in caplog.records if r.name == "fleetsizing.model"
                 and r.getMessage().startswith("flow aggregation:")]
        pairs = len(json.loads(pipeline["model"].read_text())["lambda"])
        assert len(flows) == 3 and all(
            re.fullmatch(rf"flow aggregation: {pairs} pairs, 3 stations, \d+ edges, "
                         r"travel delays off, \d+\.\d{3} s", line) for line in flows
        ), flows
        passes = [r.getMessage() for r in caplog.records if r.name == "fleetsizing.station_bound"]
        line = re.compile(
            r"station pass: (\d+) columns of (\d+) stations, \d+ steps, \d+ kernel terms, "
            r"worst mass drift (\S+) \(tolerance 1e-09\)"
        )
        found = [line.fullmatch(p) for p in passes]
        assert found and all(found), passes
        assert all(float(f.group(3)) < 1e-9 for f in found)
        # the bound curve and the bound at T=12 each run all three stations in one pass
        assert [f.group(1, 2) for f in found[-2:]] == [("3", "3"), ("3", "3")]

    def test_replay_output_is_unchanged_by_debug_logging(self, pipeline, tmp_path, caplog, capsys):
        outs = []
        for level in (logging.WARNING, logging.DEBUG):
            out = tmp_path / f"replay-{level}.csv"
            with caplog.at_level(level, logger="fleetsizing"):
                assert run(["replay", "--sequences", str(pipeline["sequences"]), "--design",
                            str(pipeline["design"]), "--plan", str(pipeline["plan"]),
                            "--out", str(out)]) == EXIT_OK
            outs.append((out.read_bytes(), capsys.readouterr().out))
        assert outs[0] == outs[1]
        events = sum(len(day["events"]) for day in json.loads(pipeline["sequences"].read_text())["days"])
        failed = outs[0][0].decode().splitlines()[1:]
        failed = sum(line.endswith(",1") for line in failed)
        lines = [(r.name, r.getMessage()) for r in caplog.records
                 if r.name in ("fleetsizing.ingest", "fleetsizing.replay")]
        assert [name for name, _ in lines] == ["fleetsizing.ingest", "fleetsizing.replay"], lines
        assert re.fullmatch(rf"read 10 days, {events} events of day sequences, \d+\.\d{{3}} s",
                            lines[0][1]), lines
        assert re.fullmatch(rf"replayed 10 days, {events} events: {failed} failed days, "
                            r"\d+\.\d{3} s", lines[1][1]), lines

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

    def test_sweep_takes_no_strict_flag(self, pipeline, tmp_path, capsys):
        # a day fails at its first refusal either way, so sweep has no mode
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--model", str(pipeline["model"]),
                    "--sequences", str(pipeline["sequences"]), "--strict", "--out", str(out)])
        assert code == EXIT_INPUT
        assert "unrecognized arguments: --strict" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["replay", "sweep"])
    def test_plan_must_span_the_day(self, tmp_path, capsys, command):
        # a 72 h plan against 24 h days: its relocations at t=30, 40 and 50 h
        # fall after the day has ended
        days = tmp_path / "days.json"
        save_sequences(days_of([[(1.0, 1, 2, 0.0)]], 2), days)
        design = tmp_path / "design.json"
        design.write_text(json.dumps(design_to_json(SystemDesign((1, 1), (2, 2)))))
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"k": 2, "horizon_hours": 72.0, "rho": [{"o": 2, "d": 1, "times": [30.0, 40.0, 50.0]}]}
        ))
        model = tmp_path / "model.json"
        save_model(uniform_demand_model(2, 0.5, 72.0), model)
        out = tmp_path / "out.csv"
        argv = {
            "replay": ["replay", "--sequences", str(days), "--design", str(design),
                       "--plan", str(plan)],
            "sweep": ["sweep", "--model", str(model), "--sequences", str(days),
                      "--plan", str(plan), "--z-grid", "0.5", "--capacity-grid", "4"],
        }[command]
        assert run([*argv, "--out", str(out)]) == EXIT_INPUT
        assert "plan covers 72 h, day 2016-05-02 covers 24 h" in capsys.readouterr().err
        assert not out.exists()

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

    def test_failed_transport_solve_maps_to_3(self, pipeline, tmp_path, capsys, monkeypatch):
        calls = []

        def unsolved(*args, **kwargs):
            calls.append(args)
            return SimpleNamespace(success=False, message="numerical difficulties")

        monkeypatch.setattr("scipy.optimize.linprog", unsolved)
        out = tmp_path / "p.json"
        code = run(["plan", "--model", str(pipeline["model"]), "--out", str(out)])
        assert calls
        assert code == EXIT_INVARIANT
        assert "invariant violation" in capsys.readouterr().err
        assert not out.exists()

    # 1e-300 h would lay out about 2.4e301 bins
    @pytest.mark.parametrize("width", ["0", "-1", "nan", "inf", "1e-300"])
    def test_plan_rejects_a_bin_width_that_is_not_positive(
        self, pipeline, tmp_path, capsys, width
    ):
        out = tmp_path / "p.json"
        argv = ["plan", "--model", str(pipeline["model"]), "--out", str(out), "--bin-hours", width]
        code = run(argv)
        assert code == EXIT_INPUT
        assert "bin width" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("width", ["0", "-1", "nan", "1e-300", "0.01"])
    def test_ingest_rejects_a_bin_width_below_one_minute(self, pipeline, tmp_path, capsys, width):
        model, days = tmp_path / "m.json", tmp_path / "d.json"
        argv = ["ingest", "--trips", str(pipeline["trips"]), "--model-out", str(model),
                "--sequences-out", str(days), "--bin-hours", width]
        assert run(argv) == EXIT_INPUT
        assert "bin width" in capsys.readouterr().err
        assert not model.exists() and not days.exists()

    def test_ingest_of_a_file_with_a_byte_order_mark(self, pipeline, tmp_path, capsys):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + pipeline["trips"].read_bytes())
        model, days = tmp_path / "m.json", tmp_path / "d.json"
        assert run(["ingest", "--trips", str(marked), "--model-out", str(model),
                    "--sequences-out", str(days)]) == EXIT_OK
        assert "ingested 50 trips (0 rejected), k=3 stations, 10 days" in capsys.readouterr().out
        assert model.read_bytes() == pipeline["model"].read_bytes()
        assert days.read_bytes() == pipeline["sequences"].read_bytes()

    def test_ingest_rejects_a_repeated_column(self, pipeline, tmp_path, capsys):
        lines = pipeline["trips"].read_text().splitlines()
        trips = tmp_path / "trips.csv"
        trips.write_text("\n".join([lines[0] + ",end_station_id"] + [x + ",1" for x in lines[1:]]))
        model, days = tmp_path / "m.json", tmp_path / "d.json"
        assert run(["ingest", "--trips", str(trips), "--model-out", str(model),
                    "--sequences-out", str(days)]) == EXIT_INPUT
        assert "duplicate columns ['end_station_id']" in capsys.readouterr().err
        assert not model.exists() and not days.exists()

    @pytest.mark.parametrize("month", ["2016-5", "May 2016", "2016-05-02"])
    def test_ingest_rejects_a_month_not_in_year_month_form(self, pipeline, tmp_path, capsys, month):
        model, days = tmp_path / "m.json", tmp_path / "d.json"
        assert run(["ingest", "--trips", str(pipeline["trips"]), "--model-out", str(model),
                    "--sequences-out", str(days), "--month", month]) == EXIT_INPUT
        assert f"month must be in YYYY-MM form, got {month!r}" in capsys.readouterr().err
        assert not model.exists() and not days.exists()

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


def edited_copy(src, dst, edit):
    """Write ``edit(doc)`` of the JSON document in ``src`` to ``dst``."""
    dst.write_text(json.dumps(edit(json.loads(src.read_text()))))
    return str(dst)


def with_breakpoints(bps):
    def edit(doc):
        doc["lambda"][0].update(breakpoints=bps, values=[1.0] * len(bps))
        return doc

    return edit


def with_entry(**fields):
    """An edit that updates the model's first intensity entry."""

    def edit(doc):
        doc["lambda"][0].update(fields)
        return doc

    return edit


def replaced(path, value):
    """An edit that sets the entry at ``path`` (keys and indices) to ``value``."""

    def edit(doc):
        inner = doc
        for key in path[:-1]:
            inner = inner[key]
        inner[path[-1]] = value
        return doc

    return edit


def plan_doc(times, o=1, d=2, k=3):
    return {"k": k, "horizon_hours": 24.0, "rho": [{"o": o, "d": d, "times": times}]}


def nudged(path, by=0.5):
    """An edit that adds ``by`` to the number at ``path``."""

    def edit(doc):
        inner = doc
        for key in path[:-1]:
            inner = inner[key]
        inner[path[-1]] += by
        return doc

    return edit


class TestMalformedDocuments:
    """Documents that parse as JSON but do not describe valid inputs exit 1."""

    @pytest.mark.parametrize("bps", [[0.0, math.nan], [0.0, 30.0, math.nan]])
    @pytest.mark.parametrize("command", ["plan", "bound"])
    def test_non_finite_breakpoints(self, pipeline, tmp_path, capsys, bps, command):
        model = edited_copy(pipeline["model"], tmp_path / "m.json", with_breakpoints(bps))
        out = tmp_path / "out"
        argv = {
            "plan": ["plan", "--model", model, "--out", str(out)],
            "bound": ["bound", "--model", model, "--design", str(pipeline["design"]),
                      "--T", "24"],
        }[command]
        assert run(argv) == EXIT_INPUT
        assert "breakpoints must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("times", [[math.nan], [1.0, math.nan, 2.0]])
    @pytest.mark.parametrize("command", [["bound"], ["simulate", "--exact"]])
    def test_non_finite_relocation_instants(self, pipeline, tmp_path, capsys, times, command):
        plan = tmp_path / "p.json"
        plan.write_text(json.dumps(plan_doc(times)))
        out = tmp_path / "x.csv"
        argv = [*command, "--model", str(pipeline["model"]), "--design",
                str(pipeline["design"]), "--plan", str(plan), "--T", "24"]
        if command[0] == "simulate":
            argv += ["--out", str(out)]
        assert run(argv) == EXIT_INPUT
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "which, edit",
        [
            pytest.param("model", replaced(["lambda", 0, "values", 0], None), id="null-rate"),
            pytest.param("model", replaced(["eta", 0, 1], None), id="null-eta"),
            pytest.param("model", lambda doc: [doc], id="model-in-a-list"),
            pytest.param("design", replaced(["stations", 0, "c"], None), id="null-capacity"),
            pytest.param("design", replaced(["stations", 0, "v"], 1.5), id="fractional-stock"),
            pytest.param("design", replaced(["stations", 0, "c"], 10.25), id="fractional-capacity"),
            pytest.param("design", replaced(["stations", 0, "id"], 1.7), id="fractional-id"),
            pytest.param("plan", lambda doc: plan_doc([None]), id="null-instant"),
            pytest.param("model", nudged(["lambda", 0, "o"]), id="fractional-origin"),
            pytest.param("model", nudged(["k"], 0.25), id="fractional-station-count"),
            pytest.param("plan", lambda doc: plan_doc([1.0], o=1.5, d=2.9), id="fractional-pair"),
            pytest.param("plan", lambda doc: plan_doc([1.0], k=3.5), id="fractional-plan-k"),
            # a bool is not a number, though Python reads True as 1 and False as 0
            pytest.param("model", replaced(["lambda", 0, "o"], True), id="boolean-origin"),
            pytest.param("model", with_breakpoints([False]), id="boolean-breakpoint"),
            pytest.param("model", replaced(["lambda", 0, "values", 0], True), id="boolean-rate"),
            pytest.param("model", replaced(["eta", 0, 1], True), id="boolean-eta"),
            pytest.param("design", replaced(["stations", 0, "v"], True), id="boolean-stock"),
            pytest.param("design", replaced(["stations", 0, "id"], True), id="boolean-id"),
            pytest.param("plan", lambda doc: plan_doc([True]), id="boolean-instant"),
        ],
    )
    def test_document_with_a_wrong_value(self, pipeline, tmp_path, capsys, which, edit):
        files = {name: str(pipeline[name]) for name in ("model", "design", "plan")}
        files[which] = edited_copy(pipeline[which], tmp_path / f"{which}.json", edit)
        argv = ["bound", "--model", files["model"], "--design", files["design"],
                "--plan", files["plan"], "--T", "24"]
        assert run(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "feasible" not in captured.out

    def test_sequence_with_a_null_time(self, pipeline, tmp_path, capsys):
        edit = replaced(["days", 0, "events", 0, "t"], None)
        days = edited_copy(pipeline["sequences"], tmp_path / "days.json", edit)
        out = tmp_path / "r.csv"
        argv = ["replay", "--sequences", days, "--design", str(pipeline["design"]),
                "--out", str(out)]
        assert run(argv) == EXIT_INPUT
        assert "malformed sequence document" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("date", [None, 7.5])
    def test_sequence_with_a_date_that_is_not_a_string(self, pipeline, tmp_path, capsys, date):
        edit = replaced(["days", 0, "date"], date)
        days = edited_copy(pipeline["sequences"], tmp_path / "days.json", edit)
        out = tmp_path / "r.csv"
        argv = ["replay", "--sequences", days, "--design", str(pipeline["design"]),
                "--out", str(out)]
        assert run(argv) == EXIT_INPUT
        assert "malformed sequence document" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("t", math.nan, "event times and riding times must be finite"),
            ("eta", math.inf, "event times and riding times must be finite"),
            ("o", 1.5, "expected a whole number, got 1.5"),
            ("d", 2.75, "expected a whole number, got 2.75"),
            ("eta", -3.0, "riding times must be non-negative"),
            ("t", -0.5, "event times must lie within [0, 24.0] hours"),
            ("t", 30.0, "event times must lie within [0, 24.0] hours"),
            ("t", True, "expected a number, got True"),
            ("eta", False, "expected a number, got False"),
            ("o", True, "expected a whole number, got True"),
        ],
    )
    def test_sequence_with_a_wrong_event(self, pipeline, tmp_path, capsys, key, value, message):
        edit = replaced(["days", 0, "events", 0, key], value)
        days = edited_copy(pipeline["sequences"], tmp_path / "days.json", edit)
        out = tmp_path / "r.csv"
        argv = ["replay", "--sequences", days, "--design", str(pipeline["design"]),
                "--out", str(out)]
        assert run(argv) == EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("horizon", [-1.0, 0.0, math.inf, math.nan])
    def test_sequence_with_a_wrong_horizon(self, pipeline, tmp_path, capsys, horizon):
        # one day without events, so that no event check can catch the horizon
        def edit(doc):
            return {**doc, "horizon_hours": horizon, "days": [{"date": "2016-05-02", "events": []}]}

        days = edited_copy(pipeline["sequences"], tmp_path / "days.json", edit)
        out = tmp_path / "r.csv"
        argv = ["replay", "--sequences", days, "--design", str(pipeline["design"]),
                "--out", str(out)]
        assert run(argv) == EXIT_INPUT
        assert "horizon must be a positive finite number of hours" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path", [["days"], ["days", 0, "events"]], ids=["days", "events"])
    def test_sequence_with_an_object_for_a_list(self, pipeline, tmp_path, capsys, path):
        days = edited_copy(pipeline["sequences"], tmp_path / "days.json", replaced(path, {}))
        out = tmp_path / "r.csv"
        argv = ["replay", "--sequences", days, "--design", str(pipeline["design"]),
                "--out", str(out)]
        assert run(argv) == EXIT_INPUT
        assert "malformed sequence document" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(with_breakpoints([0.5, 2.0]), "first breakpoint must be 0",
                         id="first-breakpoint"),
            pytest.param(with_breakpoints([0.0, 5.0, 3.0]),
                         "breakpoints must be finite and strictly increasing", id="decreasing"),
            pytest.param(with_breakpoints([0.0, 24.0]),
                         "horizon_end must exceed the last breakpoint", id="at-the-horizon"),
            pytest.param(with_breakpoints([0.0, 30.0]),
                         "horizon_end must exceed the last breakpoint", id="past-the-horizon"),
            pytest.param(replaced(["lambda", 0, "values", 0], -1.0),
                         "rates must be finite and non-negative", id="negative-rate"),
            pytest.param(with_entry(breakpoints=[0.0, 1.0], values=[1.0]),
                         "need exactly one value per interval", id="length-mismatch"),
            pytest.param(with_entry(breakpoints=[], values=[]),
                         "need exactly one value per interval", id="empty-breakpoints"),
            pytest.param(lambda doc: {**doc, "lambda": doc["lambda"] + doc["lambda"][:1]},
                         "duplicate intensity entry for pair (1, 2)", id="duplicate-pair"),
            pytest.param(lambda doc: {**doc, "eta": [row[:2] for row in doc["eta"]]},
                         "eta must be a k x k matrix of hours", id="non-square-eta"),
            pytest.param(replaced(["eta", 1, 1], 0.25), "diagonal travel times must be zero",
                         id="nonzero-diagonal"),
            # a bad horizon is named as such, not as every piece's fault
            pytest.param(replaced(["horizon_hours"], 0.0),
                         "horizon must be a positive finite number of hours", id="zero-horizon"),
            pytest.param(replaced(["k"], 0), "need at least one station", id="no-stations"),
            pytest.param(replaced(["lambda", 0, "o"], 4), "origin label 4 outside 1..3",
                         id="origin-past-k"),
            pytest.param(replaced(["lambda", 0, "d"], 1), "demand between a station and itself",
                         id="diagonal-pair"),
        ],
    )
    def test_model_with_invalid_pieces(self, pipeline, tmp_path, capsys, edit, message):
        model = edited_copy(pipeline["model"], tmp_path / "m.json", edit)
        out = tmp_path / "p.json"
        assert run(["plan", "--model", model, "--out", str(out)]) == EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestReplayEtaFromModel:
    """``replay --eta-from-model`` reads the model's travel times and nothing else."""

    def replay(self, pipeline, tmp_path, model):
        out = tmp_path / "r.csv"
        code = run(["replay", "--sequences", str(pipeline["sequences"]),
                    "--design", str(pipeline["design"]), "--plan", str(pipeline["plan"]),
                    "--eta-from-model", model, "--out", str(out)])
        return code, out

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(replaced(["eta", 0, 1], None), "malformed demand model", id="null-eta"),
            pytest.param(replaced(["eta", 0, 1], True), "malformed demand model", id="boolean-eta"),
            pytest.param(replaced(["eta", 0, 1], -0.5), "travel times must be finite and non-negative",
                         id="negative-eta"),
            pytest.param(replaced(["eta", 1, 1], 0.25), "diagonal travel times must be zero",
                         id="nonzero-diagonal"),
            pytest.param(lambda doc: {**doc, "eta": [row[:2] for row in doc["eta"]]},
                         "eta must be a k x k matrix of hours", id="non-square-eta"),
            pytest.param(lambda doc: {k: v for k, v in doc.items() if k != "eta"},
                         "malformed demand model", id="missing-eta"),
            pytest.param(nudged(["k"], 0.25), "expected a whole number", id="fractional-station-count"),
            pytest.param(replaced(["horizon_hours"], 0.0), "horizon must be a positive finite",
                         id="zero-horizon"),
        ],
    )
    def test_a_bad_eta_exits_1_with_the_model_message(self, pipeline, tmp_path, capsys, edit, message):
        model = edited_copy(pipeline["model"], tmp_path / "m.json", edit)
        code, out = self.replay(pipeline, tmp_path, model)
        assert code == EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_the_intensities_are_not_read(self, pipeline, tmp_path):
        code, out = self.replay(pipeline, tmp_path, str(pipeline["model"]))
        assert code == EXIT_OK
        expected = out.read_bytes()
        broken = edited_copy(pipeline["model"], tmp_path / "m.json",
                             replaced(["lambda", 0, "values", 0], -1.0))
        code, out = self.replay(pipeline, tmp_path, broken)
        assert code == EXIT_OK
        assert out.read_bytes() == expected

    def test_eta_is_the_models_own(self, pipeline):
        doc = json.loads(pipeline["model"].read_text())
        assert model_module.eta_from_json(doc) == model_module.model_from_json(doc).eta
