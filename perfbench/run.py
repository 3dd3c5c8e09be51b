"""Benchmark of the fleetsizing CLI pipeline on seeded workloads.

    python3 perfbench/run.py --workload commuter-k20 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run writes its inputs from ``--seed``, measures the cold
import in fresh interpreters (``setup_s``), then repeats the workload's
CLI commands in-process through ``fleetsizing.cli.run`` for about
``--seconds`` seconds and reports medians over those passes.  Every CLI
call and every output check is an operation; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: spans recorded around the package's public functions
(see ``tracing.py``), self time per layer, counts, and the tracing
overhead (median traced minus median untraced pipeline time).  A metric
of a layer the workload does not run reads 0.

Details of each run (passes, checks, environment, spans) are written to
``.perfbench_out/`` in the checkout; scratch inputs live under it while
the run lasts and are removed at the end.
"""

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

# Single-threaded whatever the caller's environment says.  Set before NumPy
# is imported, in this process and in the interpreters it starts.
PINNED = {
    "FLEETSIZING_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_SAMPLES = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import fleetsizing.cli; print(time.perf_counter() - t, fleetsizing.cli.__file__)"
)
MAX_MASS_DRIFT = 1e-8
COMMAND_LABELS = ("ingest", "plan", "size", "bound", "simulate", "exact", "replay")


class Ledger:
    """Operations attempted and failed; each failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
            print(f"FAILED {name}: {detail}", file=sys.stderr)
        return ok


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED)
    return env


def measure_setup():
    """Median cold import of fleetsizing.cli over fresh interpreters (first one untimed)."""
    cmd = [sys.executable, "-c", IMPORT_PROBE, str(SRC)]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            cmd, capture_output=True, text=True, env=child_env(), timeout=120, check=True
        )
        seconds, path = done.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"fresh interpreter imported {path}, not the checkout")
        if i:  # the first import writes the bytecode cache
            samples.append(float(seconds))
    return statistics.median(samples), samples


def sha256(data):
    return hashlib.sha256(data).hexdigest()


class Pass:
    """One run of every command of the workload."""

    def __init__(self, traced):
        self.traced = traced
        self.seconds = {}
        self.stdout = {}
        self.codes = {}
        self.digests = {}
        self.recorder = None

    @property
    def pipeline_s(self):
        return sum(self.seconds.values())


def run_pass(cli, tracing, wl, work, seed, run_id, traced):
    p = Pass(traced)
    recorder = tracing.Recorder(run_id) if traced else None
    commands = wl.commands(work, seed)
    with recorder.installed() if traced else nullcontext():
        for label, argv in commands:
            # Each CLI command normally runs in a fresh process: start it from
            # a heap without the previous command's garbage, untimed.
            gc.collect()
            buf = io.StringIO()
            with recorder.span("cli." + label) if traced else nullcontext():
                t0 = time.perf_counter()
                with redirect_stdout(buf):
                    code = cli.run(argv)
                p.seconds[label] = time.perf_counter() - t0
            p.codes[label] = code
            p.stdout[label] = buf.getvalue()
    p.recorder = recorder
    for name in wl.outputs(p.seconds):
        path = work / name
        p.digests[name] = sha256(path.read_bytes()) if path.exists() else "missing"
    for label, text in p.stdout.items():
        p.digests["stdout:" + label] = sha256(text.encode())
    return p


def check_pass(ledger, wl, work, p, reference):
    for label, code in p.codes.items():
        ledger.check(f"{label} exits 0", code == 0, f"exit code {code}")
    if reference is not None:
        for name, digest in p.digests.items():
            ledger.check(f"{name} digest", reference.get(name) == digest,
                         f"{digest[:12]} vs recorded {str(reference.get(name))[:12]}")
    try:
        results = wl.checks(work, p.stdout)
    except (OSError, ValueError, KeyError, IndexError, AttributeError) as exc:
        ledger.check("output checks", False, repr(exc))
        return
    for name, ok, detail in results:
        ledger.check(name, ok, detail)


# --- facts computed from the inputs and outputs -------------------------------


def _load(path):
    return json.loads(path.read_text()) if path.exists() else None


def _integral(entry, T):
    bps = entry["breakpoints"] + [math.inf]
    return sum(v * max(0.0, min(b1, T) - b0)
               for b0, b1, v in zip(bps, bps[1:], entry["values"]) if b0 < T)


def slice_states(caps, total):
    """Stock vectors with 0 <= m_i <= caps[i] summing to total (the exact solver's slice)."""
    ways = [1] + [0] * total
    for c in caps:
        nxt = [0] * (total + 1)
        for s, w in enumerate(ways):
            if w:
                for x in range(min(c, total - s) + 1):
                    nxt[s + x] += w
        ways = nxt
    return ways[total]


def facts(wl, work, rows):
    model = _load(work / "model.json")
    plan = _load(work / "plan.json")
    design = _load(work / "design.json")
    days = _load(work / "days.json")
    instants = sorted(t for e in plan["rho"] for t in e["times"]) if plan else []
    T = wl.T
    out = {"rows": rows, "k": wl.k, "relocations": len(instants)}
    out["events_per_run"] = (
        sum(_integral(e, T) for e in model["lambda"]) + sum(t <= T for t in instants)
        if wl.mc_runs else 0.0
    )
    if wl.exact:
        caps = [s["c"] for s in design["stations"]]
        out["states"] = slice_states(caps, sum(s["v"] for s in design["stations"]))
        record = [T * (i + 1) / wl.points for i in range(wl.points)]
        times = {b for e in model["lambda"] for b in e["breakpoints"] if 0.0 < b <= T}
        times |= {t for t in instants if t <= T}
        times |= set(record)
        out["pieces"] = len(times)
    else:
        out["states"] = out["pieces"] = 0
    out["replay_events"] = (
        sum(len(d["events"]) + len(instants) for d in days["days"]) if wl.replay else 0
    )
    return out


# --- per-layer metrics from traced passes -------------------------------------


def tail(values):
    """Median, and the highest of p90/p99/p99.9 with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if not n:
        return 0.0, 0.0, 50.0
    pct = 50.0
    for p in (90.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10.0:
            pct = p
    at = xs[max(0, math.ceil(pct / 100.0 * n) - 1)]
    return statistics.median(xs), at, pct


def pass_layers(tracing, rec, wl, fx):
    """Per-layer numbers of one traced pass."""
    own = rec.self_times()
    spans = rec.spans

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    evals = "station_bound.station_failure_probability"
    in_sizing = [i for i, s in enumerate(spans)
                 if s.name == evals and rec.has_ancestor(i, "sizing.size_system")]
    m = {f"{layer}.self_s": sum(o for s, o in zip(spans, own) if s.layer == layer)
         for layer in tracing.LAYERS}
    parse_s = total("ingest.parse_trips")
    mc_s = total("simulate.estimate_failure_curve")
    exact_s = total("exact.joint_transient")
    replay_s = total("replay.replay_all")
    m.update({
        "station_bound.eval_calls": count(evals),
        "sizing.evals_per_station": len(in_sizing) / wl.k if count("sizing.size_system") else 0,
        "station_bound.curve_s": total("station_bound.station_failure_curve"),
        "sizing.stock_s": total("sizing.size_station_stock"),
        "sizing.capacity_s": total("sizing.size_station_capacity"),
        "simulate.curve_s": mc_s,
        "simulate.run_ms": 1e3 * mc_s / wl.mc_runs if wl.mc_runs else 0.0,
        "simulate.us_per_event": (1e6 * mc_s / (wl.mc_runs * fx["events_per_run"])
                                  if wl.mc_runs else 0.0),
        "exact.transient_s": exact_s,
        "exact.piece_ms": 1e3 * exact_s / fx["pieces"] if fx["pieces"] else 0.0,
        "exact.max_mass_drift": max(
            (s.note for s in spans if s.name == "exact.joint_transient"), default=0.0
        ),
        "rebalance.imbalance_s": total("rebalance.compute_imbalance"),
        "rebalance.lp_s": total("rebalance.linprog"),
        "rebalance.lp_bins": count("rebalance.linprog"),
        "rebalance.discretize_s": total("rebalance.discretize_plan"),
        "model.aggregate_s": total("model.aggregate_station_flows"),
        "model.aggregate_calls": count("model.aggregate_station_flows"),
        "model.json_load_s": total("model.load_model") + total("model.load_plan"),
        "model.json_save_s": total("model.save_model") + total("model.save_plan"),
        "ingest.parse_s": parse_s,
        "ingest.rows_per_s": fx["rows"] / parse_s if parse_s else 0.0,
        "ingest.estimate_s": total("ingest.estimate_demand"),
        "ingest.sequences_s": total("ingest.extract_day_sequences"),
        "ingest.save_s": total("ingest.save_sequences"),
        "replay.events_per_s": fx["replay_events"] / replay_s if replay_s else 0.0,
        "trace.spans": len(spans),
    })
    return m


COUNTS = ("station_bound.eval_calls", "sizing.evals_per_station", "rebalance.lp_bins",
          "model.aggregate_calls", "trace.spans")


def layer_metrics(tracing, wl, passes, fx, ledger):
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    per_pass = [pass_layers(tracing, p.recorder, wl, fx) for p in traced]
    for name in COUNTS:
        values = {m[name] for m in per_pass}
        ledger.check(f"{name} repeats", len(values) == 1, f"values {sorted(values)}")
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    out["exact.max_mass_drift"] = max(m["exact.max_mass_drift"] for m in per_pass)
    if wl.exact:
        ledger.check("exact mass drift <= 1e-8",
                     out["exact.max_mass_drift"] <= MAX_MASS_DRIFT,
                     f"drift {out['exact.max_mass_drift']:.3e}")
    for label in COMMAND_LABELS:
        out[f"cli.{label}_s"] = statistics.median(p.seconds.get(label, 0.0) for p in untraced)
    evals = [1e3 * s.duration for p in traced for s in p.recorder.spans
             if s.name == "station_bound.station_failure_probability"]
    out["station_bound.eval_ms_p50"], out["station_bound.eval_ms_tail"], \
        out["station_bound.eval_tail_pct"] = tail(evals)
    out["station_bound.eval_n"] = len(evals)
    days = [1e3 * s.duration for p in traced for s in p.recorder.spans
            if s.name == "replay.replay_day"]
    out["replay.day_ms_p50"] = statistics.median(days) if days else 0.0
    out["replay.day_n"] = len(days)
    out["simulate.events_per_run"] = fx["events_per_run"]
    out["exact.states"] = fx["states"]
    out["exact.pieces"] = fx["pieces"]
    out["rebalance.relocations"] = fx["relocations"]
    out["trace.overhead_s"] = (statistics.median(p.pipeline_s for p in traced)
                               - statistics.median(p.pipeline_s for p in untraced))
    return out


# --- entry point --------------------------------------------------------------


def declared_metrics(trace):
    """Names and units BENCHMARK.json declares for this kind of run."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(PINNED)
    if not (SRC / "fleetsizing" / "cli.py").is_file():
        print(f"no package source at {SRC}; run from a fleetsizing checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import fleetsizing
    import fleetsizing.cli as cli
    import tracing
    from workloads import WORKLOADS

    if not Path(fleetsizing.__file__).resolve().is_relative_to(SRC):
        print(f"imported {fleetsizing.__file__}, not the checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    units = declared_metrics(args.trace)

    setup_s, setup_samples = measure_setup()
    run_id = f"{wl.name}-seed{args.seed}-{os.getpid()}"
    work = OUT / ("work-" + run_id)
    ledger = Ledger()
    passes = []
    recorded = json.loads(DIGESTS.read_text()).get(wl.name, {}).get(str(args.seed))
    try:
        work.mkdir(parents=True)
        rows = wl.make_inputs(work, args.seed)
        if recorded is not None:
            for name in wl.inputs():
                ledger.check(f"input {name} digest",
                             sha256((work / name).read_bytes()) == recorded.get(name),
                             "generated input differs from the recorded one")
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            p = run_pass(cli, tracing, wl, work, args.seed,
                         f"{run_id}-pass{len(passes)}", traced)
            reference = recorded if not passes else passes[0].digests
            check_pass(ledger, wl, work, p, reference)
            passes.append(p)
            elapsed = time.perf_counter() - start
            typical = statistics.median(q.pipeline_s for q in passes)
            enough = not args.trace or any(q.traced for q in passes)
            if enough and elapsed + typical > args.seconds:
                break
        fx = facts(wl, work, rows)
        if args.trace:
            values = layer_metrics(tracing, wl, passes, fx, ledger)
        else:
            values = {
                "setup_s": setup_s,
                "pipeline_s": statistics.median(p.pipeline_s for p in passes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ledger.check("metrics match BENCHMARK.json", set(values) == set(units),
                 f"extra {sorted(set(values) - set(units))}, "
                 f"missing {sorted(set(units) - set(values))}")
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    detail = {
        "result": result,
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "digests_recorded": recorded is not None,
        "failures": ledger.failures,
        "facts": fx,
        "setup_samples_s": setup_samples,
        "passes": [{"traced": p.traced, "seconds": p.seconds} for p in passes],
        "digests": passes[0].digests,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
            "pinned": PINNED,
        },
    }
    if args.trace:
        detail["dominant_layer"] = max(
            tracing.LAYERS, key=lambda layer: values[f"{layer}.self_s"]
        )
        detail["trace"] = [p.recorder.to_json() for p in passes if p.traced]
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1) + "\n")
    print(f"{wl.name} seed {args.seed}: {len(passes)} passes, "
          f"{ledger.attempted} operations, {len(ledger.failures)} failed; "
          f"details in {OUT / name}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
