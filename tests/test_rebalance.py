"""Rebalancing planner: imbalance accounting, transport solve, discretization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetsizing.model import DemandModel
from fleetsizing.rebalance import (
    ImbalanceProfile,
    balance_flows,
    build_plan,
    compute_imbalance,
    discretize_plan,
    uniform_bins,
)
from fleetsizing.synth import synthetic_imbalanced_model

from conftest import (
    brute_force_transport,
    intensities,
    random_small_instance,
    reference_integral,
)


def model_from_rates(k, rates, horizon=1.0, eta=None):
    if eta is None:
        eta = tuple(tuple(0.0 for _ in range(k)) for _ in range(k))
    return DemandModel(k, {pair: ((0.0,), (r,)) for pair, r in rates.items() if r > 0}, eta, horizon)


def reference_imbalance(model, edges):
    """delta[i, b] from a loop over the pairs and bins, in pair order."""
    delta = np.zeros((model.k, len(edges) - 1))
    for (o, d), lam in intensities(model).items():
        for b in range(len(edges) - 1):
            flow = reference_integral(lam, edges[b], edges[b + 1])
            delta[d - 1, b] += flow
            delta[o - 1, b] -= flow
    return delta


class TestComputeImbalance:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2.0, 24.0]),
        st.sampled_from([0.25, 0.3, 0.7, 1.0, 3.0, 50.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_delta_is_the_per_pair_loop(self, seed, horizon, bin_hours):
        model, _, _ = random_small_instance(np.random.default_rng(seed), k_max=5, horizon=horizon)
        edges = uniform_bins(horizon, bin_hours)
        assert compute_imbalance(model, edges).delta.tolist() == (
            reference_imbalance(model, edges).tolist()
        )

    def test_two_station_net_flow(self):
        m = model_from_rates(2, {(1, 2): 2.0, (2, 1): 1.0})
        imb = compute_imbalance(m, (0.0, 1.0))
        assert np.allclose(imb.delta[:, 0], [-1.0, 1.0])

    def test_symmetric_demand_balances(self):
        m = model_from_rates(2, {(1, 2): 1.5, (2, 1): 1.5})
        imb = compute_imbalance(m, (0.0, 0.5, 1.0))
        assert np.allclose(imb.delta, 0.0)

    def test_cycle_balances(self):
        m = model_from_rates(3, {(1, 2): 1.0, (2, 3): 1.0, (3, 1): 1.0})
        imb = compute_imbalance(m, (0.0, 1.0))
        assert np.allclose(imb.delta, 0.0)

    def test_net_flow_sums_to_zero_per_bin(self, rng):
        m = synthetic_imbalanced_model(8, seed=3)
        imb = compute_imbalance(m, uniform_bins(24.0, 1.0))
        assert np.allclose(imb.delta.sum(axis=0), 0.0, atol=1e-9)

    def test_bins_must_cover_horizon(self):
        m = model_from_rates(2, {(1, 2): 1.0})
        with pytest.raises(ValueError):
            compute_imbalance(m, (0.0, 0.5))


class TestBalanceFlows:
    def test_two_station_unique_flow(self):
        imb = ImbalanceProfile((0.0, 1.0), np.array([[-1.0], [1.0]]))
        eta = ((0.0, 0.2), (0.2, 0.0))
        rates = balance_flows(imb, eta)
        assert set(rates.rates) == {(2, 1)}
        assert rates.rates[(2, 1)][0] == pytest.approx(1.0)

    def test_balanced_profile_needs_no_flow(self):
        imb = ImbalanceProfile((0.0, 1.0), np.zeros((3, 1)))
        eta = tuple(tuple(0.1 * (o != d) for d in range(3)) for o in range(3))
        assert balance_flows(imb, eta).rates == {}

    def test_two_surplus_stations_ship_to_one_deficit(self):
        imb = ImbalanceProfile((0.0, 1.0), np.array([[-2.0], [1.0], [1.0]]))
        eta = tuple(tuple(0.25 * (o != d) for d in range(3)) for o in range(3))
        rates = balance_flows(imb, eta)
        assert rates.rates[(2, 1)][0] == pytest.approx(1.0)
        assert rates.rates[(3, 1)][0] == pytest.approx(1.0)

    def test_cost_matches_brute_force_on_integral_instances(self, rng):
        for _ in range(15):
            k = int(rng.integers(2, 5))
            # random integral deltas summing to zero
            delta = rng.integers(-3, 4, k)
            delta[-1] -= delta.sum()
            if np.all(delta == 0):
                continue
            eta = tuple(
                tuple(0.0 if o == d else round(float(rng.uniform(0.1, 1.0)), 3) for d in range(k))
                for o in range(k)
            )
            imb = ImbalanceProfile((0.0, 1.0), delta[:, None].astype(float))
            rates = balance_flows(imb, eta)
            lp_cost = sum(
                r[0] * eta[o - 1][d - 1] for (o, d), r in rates.rates.items()
            )
            surplus = [(i, int(delta[i])) for i in range(k) if delta[i] > 0]
            deficit = [(i, int(-delta[i])) for i in range(k) if delta[i] < 0]
            cost = [
                [eta[i][j] for j, _ in deficit] for i, _ in surplus
            ]
            best_cost, _ = brute_force_transport(
                [s for _, s in surplus], [d for _, d in deficit], cost
            )
            assert lp_cost == pytest.approx(best_cost, abs=1e-8)

    def test_unbalanced_bin_is_an_error(self):
        imb = ImbalanceProfile((0.0, 1.0), np.array([[1.0], [1.0]]))
        eta = ((0.0, 0.1), (0.1, 0.0))
        with pytest.raises(ValueError):
            balance_flows(imb, eta)


class TestDiscretizePlan:
    def test_three_relocations_spread_at_midpoints(self):
        from fleetsizing.rebalance import RebalanceRates

        rates = RebalanceRates(2, (8.0, 9.0), {(2, 1): np.array([3.0])})
        plan = discretize_plan(rates)
        got = plan.rho[(2, 1)]
        assert got == pytest.approx((8.0 + 1.0 / 6.0, 8.5, 8.0 + 5.0 / 6.0))

    def test_zero_rate_emits_nothing(self):
        from fleetsizing.rebalance import RebalanceRates

        rates = RebalanceRates(2, (0.0, 1.0), {(2, 1): np.array([0.0])})
        assert discretize_plan(rates).count() == 0

    def test_fractional_rates_carry_until_half(self):
        from fleetsizing.rebalance import RebalanceRates

        rates = RebalanceRates(2, tuple(float(b) for b in range(6)), {(2, 1): np.full(5, 0.4)})
        plan = discretize_plan(rates)
        times = plan.rho[(2, 1)]
        # cumulative 0.4, 0.8, 1.2, 1.6, 2.0 -> emissions in bins 2 and 4
        assert len(times) == 2
        assert 1.0 <= times[0] < 2.0
        assert 3.0 <= times[1] < 4.0

    def test_total_count_conserved_per_pair(self, rng):
        from fleetsizing.rebalance import RebalanceRates

        edges = tuple(float(b) for b in range(25))
        r = rng.uniform(0.0, 1.2, 24)
        rates = RebalanceRates(2, edges, {(1, 2): r})
        plan = discretize_plan(rates)
        assert plan.count() == int(np.floor(r.sum() + 0.5))

    def test_instants_strictly_increasing_inside_bins(self, rng):
        m = synthetic_imbalanced_model(10, seed=7)
        plan = build_plan(m, bin_hours=1.0)
        for (o, d), times in plan.rho.items():
            assert all(b > a for a, b in zip(times, times[1:]))
            assert all(0.0 < t < 24.0 for t in times)


class TestBuildPlan:
    def test_post_plan_net_flow_within_one_vehicle(self):
        m = synthetic_imbalanced_model(10, seed=11)
        edges = uniform_bins(24.0, 1.0)
        plan = build_plan(m, bin_hours=1.0)
        imb = compute_imbalance(m, edges)
        reb = np.zeros_like(imb.delta)
        for (o, d), times in plan.rho.items():
            for t in times:
                b = min(int(t), imb.delta.shape[1] - 1)
                reb[d - 1, b] += 1.0
                reb[o - 1, b] -= 1.0
        residual = imb.delta + reb
        assert np.all(np.abs(residual) <= 1.0 + 1e-9)

    def test_balanced_demand_yields_empty_plan(self):
        m = model_from_rates(3, {(1, 2): 1.0, (2, 3): 1.0, (3, 1): 1.0}, horizon=24.0)
        plan = build_plan(m, bin_hours=1.0)
        assert plan.count() == 0

    def test_plan_serializes_through_model_format(self, tmp_path):
        from fleetsizing.model import load_plan, save_plan

        m = synthetic_imbalanced_model(6, seed=2)
        plan = build_plan(m, bin_hours=2.0)
        save_plan(plan, tmp_path / "p.json")
        assert load_plan(tmp_path / "p.json").instants() == plan.instants()
