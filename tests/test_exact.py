"""Joint stock process: relocations, conservation, closed forms, dominance."""

import logging
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fleetsizing import exact
from fleetsizing.exact import (
    StateSpaceTooLargeError,
    joint_transient,
    marginal_distribution,
)
from fleetsizing.model import (
    DemandModel,
    InvariantViolationError,
    RebalancingPlan,
    SystemDesign,
    aggregate_station_flows,
    rate_grid,
)
from fleetsizing.station_bound import station_transient, system_failure_bound_curve

from conftest import intensities, random_small_instance

P_GE_2 = 0.26424111765711533  # 1 - 2 e^-1


def two_station_model(lam_12=1.0, lam_21=0.0, horizon=1.0):
    rates = {}
    if lam_12:
        rates[(1, 2)] = ((0.0,), (lam_12,))
    if lam_21:
        rates[(2, 1)] = ((0.0,), (lam_21,))
    return DemandModel(2, rates, ((0.0, 0.0), (0.0, 0.0)), horizon)


class TestJointIntegration:
    def test_single_flow_chain_closed_form(self):
        # (1,0) -> (0,1) on the first request; the second finds station 1 empty,
        # so failure means at least two requests arrived
        m = two_station_model()
        pF = joint_transient(
            m, RebalancingPlan.empty(2, 1.0), SystemDesign((1, 0), (1, 1)), [1.0]
        )[-1].pF
        assert pF == pytest.approx(P_GE_2, abs=1e-10)

    def test_zero_demand_is_inert(self):
        m = DemandModel(2, {}, ((0.0, 0.0), (0.0, 0.0)), 1.0)
        design = SystemDesign((1, 1), (2, 2))
        (start, out) = joint_transient(m, RebalancingPlan.empty(2, 1.0), design, [0.0, 1.0])
        assert np.array_equal(out.p, start.p)
        assert start.p.max() == 1.0 and tuple(start.states[start.p.argmax()]) == (1, 1)
        assert out.pF == 0.0

    def test_all_stock_at_origin_side_failure_is_first_request_tail(self):
        # with no vehicles anywhere every request fails on arrival at its origin
        m = two_station_model(lam_12=0.7)
        pF = joint_transient(
            m, RebalancingPlan.empty(2, 1.0), SystemDesign((0, 0), (2, 2)), [1.0]
        )[-1].pF
        assert pF == pytest.approx(1.0 - math.exp(-0.7), abs=1e-10)

    def test_relabeling_symmetry(self, rng):
        model, plan, design = random_small_instance(rng)
        while model.k != 2:
            model, plan, design = random_small_instance(rng)
        T = model.horizon
        pF = joint_transient(model, plan, design, [T])[-1].pF

        # swap the two station labels everywhere
        swap = {1: 2, 2: 1}
        sw_int = {(swap[o], swap[d]): lam.pair for (o, d), lam in intensities(model).items()}
        sw_eta = ((model.eta[1][1], model.eta[1][0]), (model.eta[0][1], model.eta[0][0]))
        sw_model = DemandModel(2, sw_int, sw_eta, T)
        sw_plan = RebalancingPlan(
            2, T, {(swap[o], swap[d]): ts for (o, d), ts in plan.rho.items()}
        )
        sw_design = SystemDesign(design.v[::-1], design.c[::-1])
        assert joint_transient(sw_model, sw_plan, sw_design, [T])[-1].pF == pytest.approx(
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

    def test_mass_check_runs_after_every_piece(self):
        m = two_station_model()
        design = SystemDesign((1, 0), (1, 1))
        with mock.patch.object(exact, "_MASS_TOL", 0.0):
            with pytest.raises(InvariantViolationError, match=r"drifted by .* in piece \[0.0, 1.0\]"):
                joint_transient(m, RebalancingPlan.empty(2, 1.0), design, [1.0])[-1].pF

    def test_state_space_cap_raises_early(self):
        k = 12
        eta = tuple(tuple(0.0 for _ in range(k)) for _ in range(k))
        m = DemandModel(k, {}, eta, 1.0)
        design = SystemDesign(tuple(2 for _ in range(k)), tuple(4 for _ in range(k)))
        with pytest.raises(StateSpaceTooLargeError, match="Monte Carlo"):
            joint_transient(m, RebalancingPlan.empty(k, 1.0), design, [1.0])[-1].pF


def after_relocation(design, o=1, d=2):
    """The joint distribution after one o -> d relocation at t=0.5, no demand."""
    m = DemandModel(2, {}, ((0.0, 0.0), (0.0, 0.0)), 1.0)
    plan = RebalancingPlan(2, 1.0, {(o, d): (0.5,)})
    (snap,) = joint_transient(m, plan, design, [0.5])
    return snap


class TestRebalanceJump:
    def test_moves_point_mass(self):
        out = after_relocation(SystemDesign((1, 0), (1, 1)))
        marg = marginal_distribution(out, 2)
        assert marg[1] == pytest.approx(1.0)
        assert out.pF == 0.0

    def test_empty_origin_absorbs(self):
        out = after_relocation(SystemDesign((0, 1), (1, 1)))
        assert out.pF == pytest.approx(1.0)

    def test_full_destination_absorbs(self):
        out = after_relocation(SystemDesign((1, 1), (1, 1)))
        assert out.pF == pytest.approx(1.0)

    def test_jump_preserves_mass(self, rng):
        model, plan, design = random_small_instance(rng)
        half = model.horizon / 2
        rho = dict(plan.rho)
        rho[(1, 2)] = tuple(sorted({*rho.get((1, 2), ()), half}))
        plan = RebalancingPlan(model.k, model.horizon, rho)
        before, after = joint_transient(model, plan, design, [half - 1e-9, half])
        assert after.pF >= before.pF
        assert after.p.sum() + after.pF == pytest.approx(1.0, abs=1e-8)


class TestMarginalDominance:
    def test_joint_marginals_below_station_bound(self, rng):
        # the per-station evaluation overestimates every joint stock probability
        for _ in range(10):
            model, plan, design = random_small_instance(rng)
            times = np.linspace(0.15, model.horizon, 8)
            snaps = joint_transient(model, plan, design, times)
            for i in range(1, model.k + 1):
                prof = aggregate_station_flows(model, plan)[i - 1]
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


def reference_kernel(self, rates):
    """The kernel before the move matrix: one bincount scatter per active pair."""
    pairs = [(o, d, lam) for (o, d), lam in zip(self.pairs, rates) if lam > 0.0]
    lam_tot = sum(lam for _, _, lam in pairs)
    weights = [(self.table(o, d), lam / lam_tot) for o, d, lam in pairs]

    def kernel(cur, out):
        p, nxt = cur[:-1], out[:-1]
        nxt.fill(0.0)
        gone = 0.0
        for (src_ok, tgt, src_blocked), wt in weights:
            nxt += np.bincount(tgt, weights=wt * p[src_ok], minlength=self.n)
            if src_blocked.size:
                gone += wt * p[src_blocked].sum()
        out[-1] = cur[-1] + gone

    return lam_tot, kernel


def with_idle_pieces(model, rng):
    """The model with some pieces switched off and some pairs never active."""
    idle = {}
    for pair, lam in intensities(model).items():
        roll = rng.random()
        if roll < 0.2:
            lam = ((0.0,), (0.0,))
        elif roll < 0.6:
            lam = (lam.breakpoints, [0.0 if rng.random() < 0.5 else v for v in lam.values])
        else:
            lam = lam.pair
        idle[pair] = lam
    return DemandModel(model.k, idle, model.eta, model.horizon)


def solve(model, plan, design, times):
    """joint_transient snapshots and the failure probability at the horizon."""
    return (
        joint_transient(model, plan, design, times),
        joint_transient(model, plan, design, [model.horizon])[-1].pF,
    )


def solve_both(model, plan, design, times):
    """``solve`` with the move matrix, then with the reference kernel."""
    got = solve(model, plan, design, times)
    with mock.patch.object(exact._JointEngine, "kernel", reference_kernel):
        return got, solve(model, plan, design, times)


class TestMoveMatrixKernel:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_bincount_kernel_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        model, plan, design = random_small_instance(rng, k_max=4, max_rebalances=6)
        model = with_idle_pieces(model, rng)
        reloc = sorted(t for ts in plan.rho.values() for t in ts)
        times = sorted({*np.linspace(model.horizon / 10.0, model.horizon, 10), *reloc})
        (snaps, pF), (ref_snaps, ref_pF) = solve_both(model, plan, design, times)
        assert pF == ref_pF
        for snap, ref in zip(snaps, ref_snaps, strict=True):
            assert np.array_equal(snap.p, ref.p)
            assert snap.pF == ref.pF
            for i in range(1, model.k + 1):
                assert np.array_equal(
                    marginal_distribution(snap, i), marginal_distribution(ref, i)
                )

    def test_relocation_pairs_without_demand_and_idle_pairs(self):
        # (2, 3) only relocates, (3, 1) never has demand, (1, 2) stops halfway
        rates = {
            (1, 2): ((0.0, 0.5), (1.5, 0.0)),
            (2, 1): ((0.0,), (0.7,)),
            (3, 1): ((0.0,), (0.0,)),
        }
        eta = tuple(tuple(0.0 for _ in range(3)) for _ in range(3))
        model = DemandModel(3, rates, eta, 1.0)
        plan = RebalancingPlan(3, 1.0, {(2, 3): (0.25, 0.75), (1, 3): (0.5,)})
        design = SystemDesign((2, 1, 1), (3, 3, 3))
        (snaps, pF), (ref_snaps, ref_pF) = solve_both(model, plan, design, [0.25, 0.6, 1.0])
        assert pF == ref_pF > 0.0
        for snap, ref in zip(snaps, ref_snaps, strict=True):
            assert np.array_equal(snap.p, ref.p) and snap.pF == ref.pF

    def test_relocation_and_record_boundaries_rebuild_nothing(self):
        # constant rates; relocations at 0.25 and 0.75 and a record at 0.5 cut
        # [0, 1] into four pieces that all have the same rates
        rates = {(1, 2): ((0.0,), (1.0,)), (2, 1): ((0.0,), (0.5,))}
        model = DemandModel(2, rates, ((0.0, 0.0), (0.0, 0.0)), 1.0)
        plan = RebalancingPlan(2, 1.0, {(1, 2): (0.25,), (2, 1): (0.75,)})
        design = SystemDesign((1, 1), (2, 2))
        built = []
        kernel = exact._JointEngine.kernel

        def counting(engine, rates):
            built.append(rates)
            return kernel(engine, rates)

        with mock.patch.object(exact._JointEngine, "kernel", counting), \
                mock.patch.object(exact.np, "take", wraps=np.take) as gathers:
            snaps = joint_transient(model, plan, design, [0.5, 1.0])
        assert built == [[1.0, 0.5]]
        assert gathers.call_count == 1
        _, (ref_snaps, _) = solve_both(model, plan, design, [0.5, 1.0])
        for snap, ref in zip(snaps, ref_snaps, strict=True):
            assert np.array_equal(snap.p, ref.p) and snap.pF == ref.pF > 0.0

    def test_one_matrix_per_engine_whatever_the_active_pairs(self):
        # five pieces with five different sets of active pairs
        horizon = 1.0
        on = {
            (1, 2): ((0.0, 0.2, 0.6), (1.0, 0.0, 2.0)),
            (2, 3): ((0.0, 0.4), (0.0, 1.5)),
            (3, 1): ((0.0, 0.8), (0.5, 0.0)),
        }
        eta = tuple(tuple(0.0 for _ in range(3)) for _ in range(3))
        model = DemandModel(3, on, eta, horizon)
        _, rates = rate_grid(model.pieces)
        assert len({tuple(col > 0.0) for col in rates.T}) == 5
        with mock.patch.object(exact, "csr_matrix", wraps=exact.csr_matrix) as build:
            joint_transient(model, None, SystemDesign((2, 2, 2), (4, 4, 4)), [0.5, 1.0])
        assert build.call_count == 1

    def test_debug_line_reports_the_solve(self, caplog):
        m = two_station_model()
        with caplog.at_level(logging.DEBUG, logger="fleetsizing.exact"):
            joint_transient(
                m, RebalancingPlan.empty(2, 1.0), SystemDesign((1, 0), (1, 1)), [1.0]
            )[-1].pF
        (line,) = [r.getMessage() for r in caplog.records if r.name == "fleetsizing.exact"]
        found = re.fullmatch(
            r"joint solve: 2 slice states, 1 matrix entries, 1 pieces, (\d+) kernel terms, "
            r"worst mass drift (\S+) \(tolerance 1e-08\)",
            line,
        )
        assert found, line
        assert int(found.group(1)) > 0
        assert float(found.group(2)) < 1e-8
