"""Fresh-interpreter startup: SciPy loads only for the commands that use it.

In-process tests cannot see which modules an import pulls in, because
other test modules load ``scipy.stats`` and ``scipy.linalg``.  These
tests start a new interpreter for each check.
"""

import json

import pytest

from fleetsizing.cli import EXIT_OK, run
from fleetsizing.ingest import save_sequences
from fleetsizing.model import SystemDesign, save_model
from fleetsizing.synth import sample_day_sequences, synthetic_imbalanced_model

from conftest import design_to_json, fresh_python

# reports on stderr which SciPy modules the interpreter has loaded
REPORT_SCIPY = (
    "print('scipy modules:', sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
    "file=sys.stderr)"
)

# runs one CLI command, then reports
RUN_PROBE = (
    "import sys; from fleetsizing.cli import run; code = run(sys.argv[1:]); "
    f"{REPORT_SCIPY}; raise SystemExit(code)"
)


@pytest.mark.parametrize("module", ["fleetsizing", "fleetsizing.cli"])
def test_import_loads_no_scipy(tmp_path, module):
    proc = fresh_python("-c", f"import sys, {module}; {REPORT_SCIPY}", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "scipy modules: []" in proc.stderr


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 4-station commuter model, three of its days, its plan and a small design."""
    root = tmp_path_factory.mktemp("startup")
    paths = {name: root / f"{name}.json" for name in ("model", "days", "plan", "design")}
    model = synthetic_imbalanced_model(4, seed=0)
    save_model(model, paths["model"])
    save_sequences(sample_day_sequences(model, 3), paths["days"])
    paths["design"].write_text(json.dumps(design_to_json(SystemDesign((1, 1, 1, 1), (2, 2, 2, 2)))))
    assert run(["plan", "--model", str(paths["model"]), "--out", str(paths["plan"])]) == EXIT_OK
    return paths


COMMANDS = {
    "plan": (["plan", "--model", "{model}"], True),
    "simulate-exact": (
        ["simulate", "--exact", "--model", "{model}", "--design", "{design}", "--plan", "{plan}",
         "--T", "24", "--points", "5"],
        True,
    ),
    "size": (
        ["size", "--model", "{model}", "--plan", "{plan}", "--z", "0.2", "--T", "24"],
        False,
    ),
    "bound": (
        ["bound", "--model", "{model}", "--design", "{design}", "--plan", "{plan}", "--T", "24",
         "--z", "0.2", "--points", "5", "--curve", "{out}"],
        False,
    ),
    "simulate-mc": (
        ["simulate", "--mc", "--model", "{model}", "--design", "{design}", "--plan", "{plan}",
         "--T", "24", "--runs", "200", "--points", "5"],
        False,
    ),
    "replay": (
        ["replay", "--sequences", "{days}", "--design", "{design}", "--plan", "{plan}"], False
    ),
    "sweep": (
        ["sweep", "--model", "{model}", "--sequences", "{days}", "--plan", "{plan}",
         "--z-grid", "0.5", "--capacity-grid", "4"],
        False,
    ),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_fresh_interpreter_writes_the_in_process_bytes(
    inputs, tmp_path, capsys, monkeypatch, command
):
    template, may_load_scipy = COMMANDS[command]
    argv = [a.format(out="out", **inputs) for a in template]
    if "{out}" not in template:
        argv += ["--out", "out"]
    # the same relative output path in two directories, since some commands print it
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    assert run(argv) == EXIT_OK
    stdout = capsys.readouterr().out
    proc = fresh_python("-c", RUN_PROBE, *argv, cwd=fresh)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert (fresh / "out").read_bytes() == (here / "out").read_bytes()
    assert proc.stdout == stdout
    if not may_load_scipy:
        assert "scipy modules: []" in proc.stderr
