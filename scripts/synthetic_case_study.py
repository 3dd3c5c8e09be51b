"""Full pipeline on synthetic commuter demand: plan, size, and replay sweep.

Generates an imbalanced 20-station demand model (residential stations
empty toward business stations every morning and refill every evening),
derives a rebalancing plan, sizes the system for a 1% failure budget,
and replays 22 sampled weekdays against both the sized designs and a
family of uniform baselines.  Writes the sweep table and prints how much
fleet and parking the tailored design saves over the smallest baseline
that matches its replay failure rate.

    python3 scripts/synthetic_case_study.py --out sweep.csv
"""

import argparse
import csv

from fleetsizing.model import RebalancingPlan
from fleetsizing.rebalance import build_plan
from fleetsizing.replay import baseline_design, failure_rate, replay_all, sweep
from fleetsizing.sizing import SizingInfeasibleError, SizingRequest, size_system
from fleetsizing.synth import sample_day_sequences, synthetic_imbalanced_model


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--stations", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--base-rate", type=float, default=1.2)
    ap.add_argument("--peak-factor", type=float, default=12.0)
    ap.add_argument("--days", type=int, default=22)
    ap.add_argument("--z-grid", default="0.5,0.2,0.1,0.05,0.01")
    ap.add_argument("--capacity-grid", default="4,8,16,32,64,96,128,160,200")
    ap.add_argument("--out", default="case_study.csv")
    args = ap.parse_args()

    k = args.stations
    model = synthetic_imbalanced_model(
        k, seed=args.seed, base_rate=args.base_rate, peak_factor=args.peak_factor
    )
    empty = RebalancingPlan.empty(k, model.horizon)
    plan = build_plan(model, bin_hours=1.0)
    days = sample_day_sequences(model, args.days, seed=args.seed + 1)
    print(f"{k} stations, {plan.count()} planned relocations, {len(days)} sampled days")

    baselines = [
        (f"baseline-C{cap}", baseline_design(k, cap))
        for cap in (int(c) for c in args.capacity_grid.split(","))
    ]
    proposed = []
    sized_at = {}
    for z in (float(z) for z in args.z_grid.split(",")):
        try:
            result = size_system(model, plan, SizingRequest(z, model.horizon))
        except SizingInfeasibleError as exc:
            print(f"z={z:g}: {exc}")
            continue
        sized_at[z] = result.design
        proposed.append((f"proposed-z{z:g}", result.design))

    rows = sweep(baselines, days, empty, eta=model.eta) + sweep(proposed, days, plan, eta=model.eta)

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "total_fleet", "total_capacity", "failure_rate"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} designs to {args.out}")

    tightest = min(sized_at)
    sized = sized_at[tightest]
    target = next(r[3] for r in rows if r[0] == f"proposed-z{tightest:g}")
    for cap in range(1, 401):
        base = baseline_design(k, cap)
        if failure_rate(replay_all(days, empty, base, eta=model.eta)) <= target:
            print(
                f"z={tightest:g} design: fleet {sized.fleet_size} vs baseline "
                f"{base.fleet_size} ({sized.fleet_size / base.fleet_size:.0%}), "
                f"capacity {sized.total_capacity} vs {base.total_capacity} "
                f"({sized.total_capacity / base.total_capacity:.0%}) "
                f"at matched replay failure rate {target:g}"
            )
            break
    else:
        print("no uniform baseline matched the tailored design's failure rate")


if __name__ == "__main__":
    main()
