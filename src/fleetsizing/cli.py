"""Command-line pipeline: ingest -> plan -> size -> bound/simulate -> replay/sweep.

Every subcommand is a pure function of its input files, flags, and seed;
CSV numbers are printed with nine significant digits so repeated runs
are byte-identical.  Exit codes: 0 success, 1 bad input, 2 sizing budget
unreachable, 3 internal invariant violation.
"""

import argparse
import json
import sys

import numpy as np

from . import exact, ingest, rebalance, replay, simulate, sizing, station_bound
from .model import (
    InvariantViolationError,
    RebalancingPlan,
    load_model,
    load_plan,
    save_model,
    save_plan,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_INVARIANT = 3


def _fmt(x):
    return "%.9g" % float(x)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_plan_or_empty(args, model):
    if getattr(args, "plan", None):
        return load_plan(args.plan)
    return RebalancingPlan.empty(model.k, model.horizon)


def _sample_times(T, points):
    if points < 1:
        raise ValueError(f"--points must be at least 1, got {points}")
    return np.linspace(0.0, T, points + 1)[1:]


# --- subcommands --------------------------------------------------------------


def cmd_ingest(args):
    parsed = ingest.parse_trips(args.trips)
    station_ids = ingest.station_set_from_trips(parsed.records)
    model = ingest.estimate_demand(
        parsed.records,
        station_ids,
        bin_hours=args.bin_hours,
        days=args.days,
        month=args.month,
    )
    save_model(model, args.model_out)
    sequences = ingest.extract_day_sequences(
        parsed.records, station_ids, days=args.days, month=args.month
    )
    ingest.save_sequences(sequences, model.k, args.sequences_out, station_ids)
    print(
        f"ingested {len(parsed.records)} trips ({parsed.n_rejected} rejected), "
        f"k={model.k} stations, {len(sequences)} days"
    )
    for reason in sorted(parsed.rejected):
        print(f"  rejected {reason}: {parsed.rejected[reason]}")
    return EXIT_OK


def cmd_plan(args):
    model = load_model(args.model)
    plan = rebalance.build_plan(model, bin_hours=args.bin_hours)
    save_plan(plan, args.out)
    print(f"planned {plan.count()} relocations over {plan.horizon:g} h")
    return EXIT_OK


def cmd_size(args):
    model = load_model(args.model)
    plan = _load_plan_or_empty(args, model)
    request = sizing.SizingRequest(args.z, args.T)
    result = sizing.size_system(model, plan, request, with_delay=args.with_delay)
    doc = sizing.result_to_json(result, args.z, args.T)
    sizing.save_design_doc(doc, args.out)
    print(
        f"sized {model.k} stations: fleet={result.design.fleet_size} "
        f"capacity={result.design.total_capacity} bound={_fmt(result.bound)}"
    )
    return EXIT_OK


def cmd_bound(args):
    if args.z is not None and not 0.0 < args.z < 1.0:
        raise ValueError("budget z must lie in (0, 1)")
    model = load_model(args.model)
    plan = _load_plan_or_empty(args, model)
    design = sizing.load_design(args.design)
    if args.curve:
        times = _sample_times(args.T, args.points)
        _, total = station_bound.system_failure_bound_curve(
            model, plan, design, times, with_delay=args.with_delay
        )
        _write_csv(args.curve, ["t", "bound"], list(zip(times, total)))
        bound = float(total[-1])
    else:
        bound = station_bound.system_failure_upper_bound(
            model, plan, design, args.T, with_delay=args.with_delay
        )
    print(f"failure bound over [0, {args.T:g}] h: {_fmt(bound)}")
    if args.z is not None:
        status = "feasible" if bound <= args.z else "infeasible"
        print(f"budget z={_fmt(args.z)}: {status}")
    return EXIT_OK


def cmd_simulate(args):
    if args.exact and args.with_delay:
        raise ValueError(
            "--with-delay applies to --mc only; the exact solver neglects travel times"
        )
    model = load_model(args.model)
    plan = _load_plan_or_empty(args, model)
    design = sizing.load_design(args.design)
    times = _sample_times(args.T, args.points)
    if args.exact:
        snapshots = exact.joint_transient(model, plan, design, times)
        rows = [(t, snap.pF) for t, snap in zip(times, snapshots)]
        _write_csv(args.out, ["t", "p_fail"], rows)
        print(f"exact failure probability at T={args.T:g}: {_fmt(rows[-1][1])}")
    else:
        curve = simulate.estimate_failure_curve(
            model,
            plan,
            design,
            args.T,
            args.runs,
            times,
            with_delay=args.with_delay,
            seed=args.seed,
        )
        rows = [(t, est.mean, est.stderr, est.n) for t, est in curve]
        _write_csv(args.out, ["t", "p_fail", "stderr", "runs"], rows)
        last = curve[-1][1]
        print(
            f"estimated failure probability at T={args.T:g}: "
            f"{_fmt(last.mean)} +/- {_fmt(last.stderr)} ({last.n} runs)"
        )
    return EXIT_OK


def cmd_replay(args):
    sequences = ingest.load_sequences(args.sequences)
    design = sizing.load_design(args.design)
    if sequences.k != design.k:
        raise ValueError(f"sequences have {sequences.k} stations, design has {design.k}")
    eta = None
    if args.eta_from_model:
        eta = load_model(args.eta_from_model).eta
        if len(eta) != design.k:
            raise ValueError(
                f"--eta-from-model model has {len(eta)} stations, design has {design.k}"
            )
    if args.plan:
        plan = load_plan(args.plan)
    else:
        horizon = sequences[0].horizon if sequences else ingest.DAY_HOURS
        plan = RebalancingPlan.empty(design.k, horizon)
    outcomes = replay.replay_all(
        sequences, plan, design, eta=eta, overflow=not args.strict
    )
    rows = [
        (o.day, o.availability_failures, o.capacity_failures, int(o.day_failed))
        for o in outcomes
    ]
    _write_csv(
        args.out,
        ["day", "availability_failures", "capacity_failures", "day_failed"],
        rows,
    )
    rate = replay.failure_rate(outcomes)
    print(f"replayed {len(outcomes)} days: failure rate {_fmt(rate)}")
    return EXIT_OK


def _parse_grid(text, cast):
    try:
        return [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad grid {text!r}: {exc}") from None


def cmd_sweep(args):
    model = load_model(args.model)
    sequences = ingest.load_sequences(args.sequences)
    if sequences.k != model.k:
        raise ValueError(f"sequences have {sequences.k} stations, model has {model.k}")
    plans = [("norebal", RebalancingPlan.empty(model.k, model.horizon))]
    if args.plan:
        plans.append(("rebal", load_plan(args.plan)))

    rows = []
    for plan_label, plan in plans:
        designs = []
        for cap in _parse_grid(args.capacity_grid, int):
            designs.append((f"baseline-{plan_label}-C{cap}", replay.baseline_design(model.k, cap)))
        for z in _parse_grid(args.z_grid, float):
            try:
                result = sizing.size_system(model, plan, sizing.SizingRequest(z, args.T))
            except sizing.SizingInfeasibleError:
                print(f"z={z:g} ({plan_label}): no feasible design, skipped", file=sys.stderr)
                continue
            designs.append((f"proposed-{plan_label}-z{z:g}", result.design))
        rows.extend(
            replay.sweep(designs, sequences, plan, eta=model.eta, overflow=not args.strict)
        )

    _write_csv(
        args.out,
        ["label", "total_fleet", "total_capacity", "failure_rate"],
        [(label, fleet, cap, rate) for label, fleet, cap, rate in rows],
    )
    print(f"swept {len(rows)} designs -> {args.out}")
    return EXIT_OK


# --- parser -------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fleetsizing",
        description="Size station-based vehicle sharing systems for failure-free service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="estimate demand and day sequences from a trip CSV")
    p.add_argument("--trips", required=True)
    p.add_argument("--model-out", required=True)
    p.add_argument("--sequences-out", required=True)
    p.add_argument("--bin-hours", type=float, default=1.0)
    p.add_argument("--days", choices=["working", "all"], default="working")
    p.add_argument("--month", default=None, help="restrict to YYYY-MM")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("plan", help="derive a rebalancing plan from demand imbalance")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bin-hours", type=float, default=1.0)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("size", help="smallest per-station stock and capacity for a budget")
    p.add_argument("--model", required=True)
    p.add_argument("--plan", default=None)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--with-delay", action="store_true")
    p.set_defaults(func=cmd_size)

    p = sub.add_parser("bound", help="per-station upper bound on failure probability")
    p.add_argument("--model", required=True)
    p.add_argument("--design", required=True)
    p.add_argument("--plan", default=None)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--z", type=float, default=None)
    p.add_argument("--with-delay", action="store_true")
    p.add_argument("--curve", default=None, help="write t,bound CSV here")
    p.add_argument("--points", type=int, default=100)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("simulate", help="failure probability by joint integration or MC")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--mc", action="store_true")
    p.add_argument("--model", required=True)
    p.add_argument("--design", required=True)
    p.add_argument("--plan", default=None)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--runs", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--with-delay", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("replay", help="replay recorded days against a design")
    p.add_argument("--sequences", required=True)
    p.add_argument("--design", required=True)
    p.add_argument("--plan", default=None)
    p.add_argument("--eta-from-model", default=None)
    p.add_argument("--strict", action="store_true", help="discard overflow vehicles")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("sweep", help="baseline and sized design families vs failure rate")
    p.add_argument("--model", required=True)
    p.add_argument("--sequences", required=True)
    p.add_argument("--plan", default=None)
    p.add_argument("--z-grid", default="0.5,0.2,0.1,0.05,0.01")
    p.add_argument("--capacity-grid", default="2,4,6,8,10,12,16,20,24,30")
    p.add_argument("--T", type=float, default=24.0)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except sizing.SizingInfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
