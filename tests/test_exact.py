"""Joint stock process: vehicle moves, conservation, closed forms, dominance."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fleetsizing.exact import (
    StateSpaceTooLargeError,
    initial_joint_distribution,
    joint_apply_rebalance,
    joint_failure_probability,
    joint_step_smooth,
    joint_transient,
    marginal_distribution,
    move_vehicle,
    move_vehicle_inverse,
)
from fleetsizing.model import (
    DemandModel,
    PiecewiseConstantIntensity,
    RebalancingPlan,
    SystemDesign,
    aggregate_station_flows,
)
from fleetsizing.station_bound import station_transient, system_failure_bound_curve

from conftest import random_small_instance

P_GE_2 = 0.26424111765711533  # 1 - 2 e^-1


def two_station_model(lam_12=1.0, lam_21=0.0, horizon=1.0):
    intensities = {}
    if lam_12:
        intensities[(1, 2)] = PiecewiseConstantIntensity.constant(lam_12, horizon)
    if lam_21:
        intensities[(2, 1)] = PiecewiseConstantIntensity.constant(lam_21, horizon)
    return DemandModel(2, intensities, ((0.0, 0.0), (0.0, 0.0)), horizon)


class TestMoveVehicle:
    def test_moves_one_vehicle(self):
        assert move_vehicle((3, 4, 5), 1, 2) == (2, 5, 5)

    def test_same_station_is_identity(self):
        assert move_vehicle((3, 4, 5), 1, 1) == (3, 4, 5)

    def test_inverse_undoes_move(self):
        assert move_vehicle_inverse((2, 5, 5), 1, 2) == (3, 4, 5)
        m = (1, 0, 3)
        assert move_vehicle_inverse(move_vehicle(m, 2, 3), 2, 3) == m

    def test_intermediate_values_may_leave_bounds(self):
        # the transform itself ignores capacity constraints
        assert move_vehicle((0, 1), 1, 2) == (-1, 2)


class TestJointIntegration:
    def test_single_flow_chain_closed_form(self):
        # (1,0) -> (0,1) on the first request; the second finds station 1 empty,
        # so failure means at least two requests arrived
        m = two_station_model()
        pF = joint_failure_probability(
            m, RebalancingPlan.empty(2, 1.0), SystemDesign((1, 0), (1, 1)), 1.0
        )
        assert pF == pytest.approx(P_GE_2, abs=1e-10)

    def test_zero_demand_is_inert(self):
        m = DemandModel(2, {}, ((0.0, 0.0), (0.0, 0.0)), 1.0)
        dist = initial_joint_distribution(SystemDesign((1, 1), (2, 2)))
        out = joint_step_smooth(dist, m, 0.0, 1.0)
        assert np.allclose(out.p, dist.p)
        assert out.pF == 0.0

    def test_all_stock_at_origin_side_failure_is_first_request_tail(self):
        # with no vehicles anywhere every request fails on arrival at its origin
        m = two_station_model(lam_12=0.7)
        pF = joint_failure_probability(
            m, RebalancingPlan.empty(2, 1.0), SystemDesign((0, 0), (2, 2)), 1.0
        )
        assert pF == pytest.approx(1.0 - math.exp(-0.7), abs=1e-10)

    def test_relabeling_symmetry(self, rng):
        model, plan, design = random_small_instance(rng)
        while model.k != 2:
            model, plan, design = random_small_instance(rng)
        T = model.horizon
        pF = joint_failure_probability(model, plan, design, T)

        # swap the two station labels everywhere
        swap = {1: 2, 2: 1}
        sw_int = {(swap[o], swap[d]): pci for (o, d), pci in model.intensities.items()}
        sw_eta = ((model.eta[1][1], model.eta[1][0]), (model.eta[0][1], model.eta[0][0]))
        sw_model = DemandModel(2, sw_int, sw_eta, T)
        sw_plan = RebalancingPlan(
            2, T, {(swap[o], swap[d]): ts for (o, d), ts in plan.rho.items()}
        )
        sw_design = SystemDesign(design.v[::-1], design.c[::-1])
        assert joint_failure_probability(sw_model, sw_plan, sw_design, T) == pytest.approx(
            pF, abs=1e-12
        )

    def test_mass_conservation_along_trajectory(self, rng):
        model, plan, design = random_small_instance(rng)
        times = np.linspace(0.1, model.horizon, 12)
        snaps = joint_transient(model, plan, design, times)
        for snap in snaps:
            assert snap.p.sum() + snap.pF == pytest.approx(1.0, abs=1e-8)

    def test_failure_mass_never_decreases(self, rng):
        model, plan, design = random_small_instance(rng)
        times = np.linspace(0.1, model.horizon, 12)
        snaps = joint_transient(model, plan, design, times)
        pFs = [s.pF for s in snaps]
        assert all(b >= a - 1e-12 for a, b in zip(pFs, pFs[1:]))

    def test_state_space_cap_raises_early(self):
        k = 12
        eta = tuple(tuple(0.0 for _ in range(k)) for _ in range(k))
        m = DemandModel(k, {}, eta, 1.0)
        design = SystemDesign(tuple(2 for _ in range(k)), tuple(4 for _ in range(k)))
        with pytest.raises(StateSpaceTooLargeError, match="Monte Carlo"):
            joint_failure_probability(m, RebalancingPlan.empty(k, 1.0), design, 1.0)


class TestRebalanceJump:
    def test_moves_point_mass(self):
        dist = initial_joint_distribution(SystemDesign((1, 0), (1, 1)))
        out = joint_apply_rebalance(dist, 1, 2)
        marg = marginal_distribution(out, 2)
        assert marg[1] == pytest.approx(1.0)
        assert out.pF == 0.0

    def test_empty_origin_absorbs(self):
        dist = initial_joint_distribution(SystemDesign((0, 1), (1, 1)))
        out = joint_apply_rebalance(dist, 1, 2)
        assert out.pF == pytest.approx(1.0)

    def test_full_destination_absorbs(self):
        dist = initial_joint_distribution(SystemDesign((1, 1), (1, 1)))
        out = joint_apply_rebalance(dist, 1, 2)
        assert out.pF == pytest.approx(1.0)

    def test_jump_preserves_mass(self, rng):
        model, plan, design = random_small_instance(rng)
        dist = initial_joint_distribution(design)
        dist = joint_step_smooth(dist, model, 0.0, model.horizon / 2)
        out = joint_apply_rebalance(dist, 1, 2)
        assert out.p.sum() + out.pF == pytest.approx(1.0, abs=1e-8)


class TestMarginalDominance:
    def test_joint_marginals_below_station_bound(self, rng):
        # the per-station evaluation overestimates every joint stock probability
        for _ in range(10):
            model, plan, design = random_small_instance(rng)
            times = np.linspace(0.15, model.horizon, 8)
            snaps = joint_transient(model, plan, design, times)
            for i in range(1, model.k + 1):
                prof = aggregate_station_flows(model, plan, i)
                q, _ = station_transient(prof, design.v[i - 1], design.c[i - 1], times)
                for snap, q_row in zip(snaps, q):
                    marg = marginal_distribution(snap, i)
                    assert np.all(marg <= q_row + 1e-8)

    def test_joint_failure_below_summed_station_bound(self, rng):
        for _ in range(10):
            model, plan, design = random_small_instance(rng)
            times = np.linspace(0.15, model.horizon, 8)
            snaps = joint_transient(model, plan, design, times)
            _, total = system_failure_bound_curve(model, plan, design, times)
            for snap, bound in zip(snaps, total):
                assert snap.pF <= bound + 1e-8

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bound_dominates_exact_failure_on_random_instances(self, seed):
        # bound >= exact >= 0 at every sample time, to the joint solver's 1e-8
        # mass contract, on random piecewise-constant instances with relocations
        model, plan, design = random_small_instance(
            np.random.default_rng(seed), max_rebalances=6
        )
        assume(any(plan.rho.values()))
        times = np.linspace(model.horizon / 10.0, model.horizon, 10)
        _, bound = system_failure_bound_curve(model, plan, design, times)
        exact = [snap.pF for snap in joint_transient(model, plan, design, times)]
        for e, b in zip(exact, bound):
            assert -1e-8 <= e <= b + 1e-8
