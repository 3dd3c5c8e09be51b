"""Fleet and capacity sizing against per-station failure budgets."""

import math

import pytest

from fleetsizing.model import (
    DemandModel,
    PiecewiseConstantIntensity,
    RebalancingPlan,
    aggregate_station_flows,
)
from fleetsizing.sizing import (
    SizingInfeasibleError,
    SizingRequest,
    design_from_json,
    design_to_json,
    result_to_json,
    size_station_capacity,
    size_station_joint,
    size_station_stock,
    size_system,
)
from fleetsizing.station_bound import station_failure_probability

from conftest import constant_profile

# P(Poisson(1) >= n) for the unit-demand closed forms below.
P_GE_4 = 0.01898815687615385
P_GE_5 = 0.003659846827343771


class TestStockSizing:
    def test_unit_departure_demand_needs_four_vehicles(self):
        # with budget between P(N>=5) and P(N>=4) the answer pins to 4
        profile = constant_profile(0.0, 1.0, 1.0)
        assert P_GE_5 <= 0.005 < P_GE_4
        assert size_station_stock(profile, 1.0, 0.005) == 4

    def test_no_departures_means_no_stock(self):
        profile = constant_profile(1.0, 0.0, 1.0)
        assert size_station_stock(profile, 1.0, 0.005) == 0

    def test_loose_budget_means_no_stock(self):
        profile = constant_profile(0.0, 1.0, 1.0)
        assert size_station_stock(profile, 1.0, 0.9999) == 0

    def test_result_is_minimal(self):
        profile = constant_profile(0.0, 1.0, 1.0)
        v = size_station_stock(profile, 1.0, 0.005)
        assert station_failure_probability(profile, v, None, 1.0) <= 0.005
        assert station_failure_probability(profile, v - 1, None, 1.0) > 0.005

    def test_budget_validation(self):
        profile = constant_profile(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            size_station_stock(profile, 1.0, 0.0)
        with pytest.raises(ValueError):
            size_station_stock(profile, 1.0, 1.0)

    def test_infeasible_under_tiny_search_cap(self):
        profile = constant_profile(0.0, 40.0, 1.0)
        with pytest.raises(SizingInfeasibleError):
            size_station_stock(profile, 1.0, 1e-6, search_cap=3)


class TestCapacitySizing:
    def test_unit_arrival_demand_needs_four_slots(self):
        profile = constant_profile(1.0, 0.0, 1.0)
        assert size_station_capacity(profile, 1.0, 0, 0.005) == 4

    def test_no_arrivals_means_capacity_equals_stock(self):
        profile = constant_profile(0.0, 1.0, 1.0)
        assert size_station_capacity(profile, 1.0, 4, 0.005) == 4

    def test_result_is_minimal(self):
        profile = constant_profile(1.0, 0.0, 1.0)
        c = size_station_capacity(profile, 1.0, 0, 0.005)
        assert station_failure_probability(profile, 0, c, 1.0) <= 0.005
        assert station_failure_probability(profile, 0, c - 1, 1.0) > 0.005

    def test_infeasible_under_tiny_search_cap(self):
        profile = constant_profile(40.0, 0.0, 1.0)
        with pytest.raises(SizingInfeasibleError):
            size_station_capacity(profile, 1.0, 0, 1e-6, search_cap=3)


class TestJointSizing:
    def test_joint_never_beats_its_own_budget(self):
        profile = constant_profile(0.8, 1.2, 2.0)
        v, c = size_station_joint(profile, 2.0, 0.01)
        assert station_failure_probability(profile, v, c, 2.0) <= 0.01
        assert v <= c

    def test_two_stage_total_at_least_joint_total(self):
        # the sequential split is conservative; the exhaustive scan may
        # trade stock against capacity for a smaller footprint
        profile = constant_profile(0.8, 1.2, 2.0)
        budget = 0.01
        v2 = size_station_stock(profile, 2.0, 0.5 * budget)
        c2 = size_station_capacity(profile, 2.0, v2, budget)
        vj, cj = size_station_joint(profile, 2.0, budget)
        assert vj + cj <= v2 + c2

    def test_raises_when_caps_too_small(self):
        profile = constant_profile(40.0, 40.0, 1.0)
        with pytest.raises(SizingInfeasibleError):
            size_station_joint(profile, 1.0, 1e-9, v_cap=2, c_cap=2)


class TestSizingRequest:
    def test_budget_range(self):
        with pytest.raises(ValueError):
            SizingRequest(0.0, 1.0)
        with pytest.raises(ValueError):
            SizingRequest(1.0, 1.0)
        with pytest.raises(ValueError):
            SizingRequest(0.1, 0.0)

    def test_even_split(self):
        assert SizingRequest(0.1, 1.0).station_budgets(4) == (0.025,) * 4

    def test_partition_must_match(self):
        req = SizingRequest(0.1, 1.0, partition=(0.06, 0.04))
        assert req.station_budgets(2) == (0.06, 0.04)
        with pytest.raises(ValueError):
            req.station_budgets(3)
        with pytest.raises(ValueError):
            SizingRequest(0.1, 1.0, partition=(0.2, 0.4)).station_budgets(2)
        with pytest.raises(ValueError):
            SizingRequest(0.1, 1.0, partition=(0.1, -0.0)).station_budgets(2)


def two_station_symmetric(rate=1.0, horizon=1.0):
    lam = PiecewiseConstantIntensity.constant(rate, horizon)
    eta = ((0.0, 0.0), (0.0, 0.0))
    return DemandModel(2, {(1, 2): lam, (2, 1): lam}, eta, horizon)


class TestSizeSystem:
    def test_symmetric_model_gets_identical_stations(self):
        model = two_station_symmetric()
        plan = RebalancingPlan(2, 1.0, {})
        res = size_system(model, plan, SizingRequest(0.01, 1.0))
        assert res.design.v[0] == res.design.v[1]
        assert res.design.c[0] == res.design.c[1]
        assert res.bound == pytest.approx(sum(res.station_failure))
        assert res.bound <= 0.01 + 1e-9

    def test_every_station_meets_its_share(self):
        model = two_station_symmetric(rate=2.0)
        plan = RebalancingPlan(2, 1.0, {})
        req = SizingRequest(0.02, 1.0)
        res = size_system(model, plan, req)
        for i, qf in enumerate(res.station_failure):
            assert qf <= req.z / model.k + 1e-9
            profile = aggregate_station_flows(model, plan, i + 1)
            assert qf == pytest.approx(
                station_failure_probability(
                    profile, res.design.v[i], res.design.c[i], req.T
                )
            )

    def test_tighter_budget_never_shrinks_the_design(self):
        model = two_station_symmetric(rate=1.5)
        plan = RebalancingPlan(2, 1.0, {})
        loose = size_system(model, plan, SizingRequest(0.1, 1.0)).design
        tight = size_system(model, plan, SizingRequest(0.001, 1.0)).design
        assert all(t >= l for t, l in zip(tight.v, loose.v))
        assert all(t >= l for t, l in zip(tight.c, loose.c))

    def test_horizon_mismatch_rejected(self):
        model = two_station_symmetric(horizon=1.0)
        plan = RebalancingPlan(2, 1.0, {})
        with pytest.raises(ValueError):
            size_system(model, plan, SizingRequest(0.1, 2.0))

    def test_with_delay_costs_no_less(self):
        lam = PiecewiseConstantIntensity.constant(2.0, 1.0)
        eta = ((0.0, 0.4), (0.4, 0.0))
        model = DemandModel(2, {(1, 2): lam, (2, 1): lam}, eta, 1.0)
        plan = RebalancingPlan(2, 1.0, {})
        instant = size_system(model, plan, SizingRequest(0.01, 1.0)).design
        delayed = size_system(
            model, plan, SizingRequest(0.01, 1.0), with_delay=True
        ).design
        # delayed returns thin the replenishment stream, never thicken it
        assert delayed.fleet_size >= instant.fleet_size


class TestDesignFiles:
    def test_design_roundtrip(self):
        model = two_station_symmetric()
        plan = RebalancingPlan(2, 1.0, {})
        res = size_system(model, plan, SizingRequest(0.01, 1.0))
        doc = design_to_json(res.design)
        assert design_from_json(doc) == res.design

    def test_result_document_shape(self):
        model = two_station_symmetric()
        plan = RebalancingPlan(2, 1.0, {})
        res = size_system(model, plan, SizingRequest(0.01, 1.0))
        doc = result_to_json(res, 0.01, 1.0)
        assert doc["fleet"] == res.design.fleet_size
        assert doc["capacity"] == res.design.total_capacity
        assert len(doc["stations"]) == 2
        assert doc["stations"][0]["id"] == 1
        assert math.isclose(doc["bound"], res.bound)

    def test_design_document_validation(self):
        with pytest.raises(ValueError):
            design_from_json({})
        with pytest.raises(ValueError):
            design_from_json({"stations": []})
        with pytest.raises(ValueError):
            design_from_json(
                {"stations": [{"id": 1, "v": 1, "c": 2}, {"id": 3, "v": 1, "c": 2}]}
            )

    def test_duplicate_station_ids_are_rejected(self):
        doc = {"stations": [{"id": 1, "v": 1, "c": 2}, {"id": 1, "v": 0, "c": 3}]}
        with pytest.raises(ValueError, match="more than once"):
            design_from_json(doc)
