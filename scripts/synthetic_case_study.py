"""Full pipeline on synthetic commuter demand: plan, then ``fleetsizing sweep``.

Generates an imbalanced 20-station demand model (residential stations
empty toward business stations every morning and refill every evening),
its rebalancing plan and 22 sampled weekdays, writes the ``sweep``
command's table for them, and prints how much fleet and parking the
tightest sized design saves over the smallest uniform baseline with its
replay failure rate: sized with the plan and baseline without, neither
with a plan, and both with the plan.

    python3 scripts/synthetic_case_study.py --out sweep.csv
"""

import argparse
import tempfile
from pathlib import Path

from fleetsizing.cli import run
from fleetsizing.ingest import save_sequences
from fleetsizing.model import RebalancingPlan, save_model, save_plan
from fleetsizing.rebalance import build_plan
from fleetsizing.replay import smallest_baselines
from fleetsizing.synth import sample_day_sequences, synthetic_imbalanced_model


def share(part, whole):
    return f"{part / whole:.0%}" if whole else "n/a"  # a baseline of capacity 1 stocks nothing


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
    plan = build_plan(model, bin_hours=1.0)
    days = sample_day_sequences(model, args.days, seed=args.seed + 1)
    print(f"{k} stations, {plan.count()} planned relocations, {len(days)} sampled days")

    with tempfile.TemporaryDirectory() as tmp:
        model_path, plan_path, days_path = (f"{tmp}/{name}.json" for name in ("model", "plan", "days"))
        save_model(model, model_path)
        save_plan(plan, plan_path)
        save_sequences(days, days_path)
        code = run(["sweep", "--model", model_path, "--sequences", days_path, "--plan", plan_path,
                    "--z-grid", args.z_grid, "--capacity-grid", args.capacity_grid, "--out", args.out])
    if code:
        raise SystemExit(code)

    sized = {}  # (family, z) -> (fleet, capacity, replay failure rate)
    for line in Path(args.out).read_text(encoding="utf-8").splitlines()[1:]:
        label, fleet, capacity, rate = line.split(",")
        family, _, z = label.rpartition("-z")  # "proposed-rebal-z0.01"
        if family.startswith("proposed-"):
            # the table rounds a rate to 9 digits; it is a whole number of days over len(days)
            failed_days = round(float(rate) * len(days))
            sized[family, float(z)] = int(fleet), int(capacity), failed_days / len(days)
    both = [z for family, z in sized if family == "proposed-rebal" and ("proposed-norebal", z) in sized]
    if not both:
        raise SystemExit("no budget was feasible both with and without the plan")
    z = min(both)
    with_plan, without_plan = sized["proposed-rebal", z], sized["proposed-norebal", z]
    empty = RebalancingPlan.empty(k, model.horizon)
    base_1, base_2 = smallest_baselines(days, empty, model.eta, [with_plan[2], without_plan[2]])
    (base_3,) = smallest_baselines(days, plan, model.eta, [with_plan[2]])
    for name, (fleet, capacity, rate), base in (
        ("1. sized with the plan, baseline without", with_plan, base_1),
        ("2. neither with a plan", without_plan, base_2),
        ("3. both with the plan", with_plan, base_3),
    ):
        print(f"{name}: fleet {fleet} vs {base.fleet_size} ({share(fleet, base.fleet_size)}), "
              f"capacity {capacity} vs {base.total_capacity} ({share(capacity, base.total_capacity)})"
              f" at z={z:g}, replay failure rate {rate:g}")


if __name__ == "__main__":
    main()
