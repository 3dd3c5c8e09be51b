"""End-to-end acceptance checks for the headline guarantees.

Each test prints one `[ACCEPTANCE] <name>: PASS/FAIL (<detail>)` line (visible with
`pytest -s`) and asserts the property it names.  These are the slowest
tests in the suite; the Monte Carlo reference comparison alone takes a
few minutes of CPU.
"""

import json
import time

import numpy as np
import pytest

from fleetsizing.cli import EXIT_OK, run
from fleetsizing.exact import joint_transient, marginal_distribution
from fleetsizing.model import (
    RebalancingPlan,
    SystemDesign,
    aggregate_station_flows,
    save_model,
)
from fleetsizing.rebalance import build_plan
from fleetsizing.replay import baseline_design, failure_rate, replay_all, smallest_baselines
from fleetsizing.simulate import estimate_failure_curve
from fleetsizing.sizing import (
    SizingRequest,
    size_station_capacity,
    size_station_stock,
    size_system,
)
from fleetsizing.station_bound import station_transient, system_failure_bound_curve
from fleetsizing.ingest import save_sequences
from fleetsizing.synth import (
    sample_day_sequences,
    synthetic_imbalanced_model,
    uniform_demand_model,
)

from conftest import constant_profile, design_to_json, random_small_instance


def report(name, ok, detail=""):
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def small_instances():
    """100 random instances: k <= 3, c_i <= 4, <= 5 relocations each."""
    rng = np.random.default_rng(99)
    return [random_small_instance(rng) for _ in range(100)]


def test_joint_integrator_conserves_probability_mass(small_instances):
    worst = 0.0
    started = time.perf_counter()
    for model, plan, design in small_instances:
        times = np.linspace(model.horizon / 8.0, model.horizon, 8)
        for snap in joint_transient(model, plan, design, times):
            worst = max(worst, abs(snap.p.sum() + snap.pF - 1.0))
    elapsed = time.perf_counter() - started
    report(
        "joint integrator conserves probability mass",
        worst <= 1e-8 and elapsed < 10.0,
        f"max drift {worst:.2e}, {elapsed:.1f}s for 100 instances",
    )


def test_station_bounds_dominate_joint_marginals(small_instances):
    violations = 0
    worst = -np.inf
    for model, plan, design in small_instances:
        times = np.linspace(model.horizon / 50.0, model.horizon, 50)
        snapshots = joint_transient(model, plan, design, times)
        per_station = []
        for i in range(1, model.k + 1):
            profile = aggregate_station_flows(model, plan, with_delay=False)[i - 1]
            qs, qfs = station_transient(
                profile, design.v[i - 1], design.c[i - 1], times
            )
            per_station.append((qs, qfs))
        for j, snap in enumerate(snapshots):
            qf_sum = 0.0
            for i in range(1, model.k + 1):
                qs, qfs = per_station[i - 1]
                gap = marginal_distribution(snap, i) - qs[j]
                worst = max(worst, float(gap.max()))
                if gap.max() > 1e-8:
                    violations += 1
                qf_sum += qfs[j]
            worst = max(worst, snap.pF - qf_sum)
            if snap.pF > qf_sum + 1e-8:
                violations += 1
    report(
        "per-station bounds dominate the joint marginals",
        violations == 0,
        f"{violations} violations, worst gap {worst:.2e}",
    )


def test_bound_dominates_simulation_on_large_symmetric_network():
    k, T, runs = 50, 72.0, 20000
    model = uniform_demand_model(k, 0.05, T)
    plan = RebalancingPlan.empty(k, T)
    design = SystemDesign((50,) * k, (100,) * k)
    times = np.linspace(0.0, T, 201)[1:]

    started = time.perf_counter()
    _, bound = system_failure_bound_curve(model, plan, design, times)
    curve = estimate_failure_curve(model, plan, design, T, runs, times, seed=42)
    elapsed = time.perf_counter() - started

    p_hat = np.array([est.mean for _, est in curve])
    stderr = np.array([est.stderr for _, est in curve])

    dominated = bool(np.all(bound >= p_hat - 3.0 * stderr))
    monotone = bool(np.all(np.diff(bound) >= -1e-12)) and bool(
        np.all(np.diff(p_hat) >= 0.0)
    )
    crossing = np.argmax(bound >= 0.05)
    informative = (
        bound[crossing] >= 0.05
        and p_hat[crossing] > 0.0
        and p_hat[crossing] < bound[crossing]
    )
    report(
        "station bound tracks simulation on a 50-station network",
        dominated and monotone and informative and elapsed < 300.0,
        f"dominated={dominated} monotone={monotone} informative={informative} "
        f"{elapsed:.0f}s; bound/p_hat at 5%-crossing: "
        f"{bound[crossing]:.4f}/{p_hat[crossing]:.4f}",
    )


def test_sizing_matches_poisson_tail_closed_forms():
    # one expected rental: stock must cover the 0.5% Poisson tail
    stock = size_station_stock(constant_profile(0.0, 1.0, 1.0), 1.0, 0.005)
    # one expected return into an initially empty station: same tail
    slots = size_station_capacity(constant_profile(1.0, 0.0, 1.0), 1.0, 0, 0.005)
    report(
        "sizing reproduces Poisson-tail closed forms",
        stock == 4 and slots == 4,
        f"stock={stock} (want 4), capacity={slots} (want 4)",
    )


def test_sized_network_meets_budget_in_simulation():
    model = synthetic_imbalanced_model(20, seed=0)
    plan = RebalancingPlan.empty(20, model.horizon)
    result = size_system(model, plan, SizingRequest(0.01, 24.0))
    curve = estimate_failure_curve(
        model, plan, result.design, 24.0, 20000, [24.0], seed=11
    )
    est = curve[-1][1]
    report(
        "sized 20-station network meets its 1% budget in simulation",
        est.mean <= 0.01 + 3.0 * est.stderr,
        f"p_hat={est.mean:.5f} stderr={est.stderr:.5f} vs budget 0.01",
    )


def test_tailored_design_beats_uniform_baseline_by_wide_margin():
    model = synthetic_imbalanced_model(20, seed=0, base_rate=1.2, peak_factor=12.0)
    empty = RebalancingPlan.empty(20, model.horizon)
    plan = build_plan(model, bin_hours=1.0)
    days = sample_day_sequences(model, 22, seed=1)
    sized, target = {}, {}
    for label, p in (("plan", plan), ("none", empty)):
        sized[label] = size_system(model, p, SizingRequest(0.01, 24.0)).design
        target[label] = failure_rate(replay_all(days, p, sized[label], eta=model.eta))
    base_1, base_2 = smallest_baselines(days, empty, model.eta, [target["plan"], target["none"]])
    (base_3,) = smallest_baselines(days, plan, model.eta, [target["plan"]])

    detail = []
    for name, design, base in (
        ("sized with the plan, baseline without", sized["plan"], base_1),
        ("neither with a plan", sized["none"], base_2),
        ("both with the plan", sized["plan"], base_3),
    ):
        detail.append(
            f"{name}: fleet {design.fleet_size}/{base.fleet_size} = "
            f"{design.fleet_size / base.fleet_size:.3f}, capacity {design.total_capacity}/"
            f"{base.total_capacity} = {design.total_capacity / base.total_capacity:.3f}"
        )
    # only the first pairing is gated: the headline sizes with the plan, the baseline without
    ok = max(
        sized["plan"].fleet_size / base_1.fleet_size,
        sized["plan"].total_capacity / base_1.total_capacity,
    ) <= 0.6
    report(
        "tailored design undercuts the uniform baseline by 40%",
        ok,
        "; ".join(detail) + " (the first needs <= 0.6)",
    )


def test_seeded_commands_are_byte_identical(tmp_path):
    model = synthetic_imbalanced_model(6, seed=4)
    model_path = tmp_path / "model.json"
    save_model(model, model_path)
    design_path = tmp_path / "design.json"
    design_path.write_text(json.dumps(design_to_json(baseline_design(6, 6))))
    seq_path = tmp_path / "days.json"
    save_sequences(sample_day_sequences(model, 8, seed=3), seq_path)

    def mc(out):
        assert (
            run(
                [
                    "simulate", "--mc",
                    "--model", str(model_path),
                    "--design", str(design_path),
                    "--T", "24",
                    "--runs", "2000",
                    "--seed", "7",
                    "--out", str(out),
                ]
            )
            == EXIT_OK
        )
        return out.read_bytes()

    def rep(out):
        assert (
            run(
                [
                    "replay",
                    "--sequences", str(seq_path),
                    "--design", str(design_path),
                    "--eta-from-model", str(model_path),
                    "--out", str(out),
                ]
            )
            == EXIT_OK
        )
        return out.read_bytes()

    mc_same = mc(tmp_path / "mc1.csv") == mc(tmp_path / "mc2.csv")
    rep_same = rep(tmp_path / "r1.csv") == rep(tmp_path / "r2.csv")
    report(
        "seeded simulate/replay commands are byte-identical",
        mc_same and rep_same,
        f"simulate identical={mc_same}, replay identical={rep_same}",
    )
