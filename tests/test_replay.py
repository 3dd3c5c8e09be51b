"""Replaying recorded days against candidate designs."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetsizing import replay
from fleetsizing.ingest import DaySequences
from fleetsizing.model import RebalancingPlan, SystemDesign
from fleetsizing.replay import (
    ReplayOutcome,
    baseline_design,
    failure_rate,
    replay_all,
    replay_day,
    smallest_baselines,
    sweep,
)
from fleetsizing.simulate import compile_tables, failure_times, sample_requests
from fleetsizing.synth import sample_day_sequences, synthetic_imbalanced_model

from conftest import days_of, dense_simulate, random_small_instance


def day(events, k=2):
    return days_of([events], k)


def no_plan(k):
    return RebalancingPlan(k, 24.0, {})


class TestReplayDay:
    def test_empty_day_changes_nothing(self):
        design = SystemDesign((2, 3), (4, 4))
        out = replay_day(day(()), no_plan(2), design)
        assert not out.day_failed
        assert out.final_stocks == (2, 3)

    def test_successful_rental_moves_one_vehicle(self):
        design = SystemDesign((2, 3), (4, 4))
        out = replay_day(
            day([(8.0, 1, 2, 0.25)]), no_plan(2), design
        )
        assert out.final_stocks == (1, 4)
        assert (out.availability_failures, out.capacity_failures) == (0, 0)

    def test_rental_from_empty_station_is_skipped(self):
        design = SystemDesign((0, 3), (4, 4))
        out = replay_day(
            day([(8.0, 1, 2, 0.25)]), no_plan(2), design
        )
        assert out.availability_failures == 1
        assert out.final_stocks == (0, 3)  # trip never happened

    def test_full_station_overflow_docks_and_counts(self):
        design = SystemDesign((1, 2), (4, 2))
        out = replay_day(
            day([(8.0, 1, 2, 0.25)]), no_plan(2), design
        )
        assert out.capacity_failures == 1
        assert out.final_stocks == (0, 3)

    def test_full_station_strict_discards(self):
        design = SystemDesign((1, 2), (4, 2))
        out = replay_day(
            day([(8.0, 1, 2, 0.25)]), no_plan(2), design, overflow=False
        )
        assert out.capacity_failures == 1
        assert out.final_stocks == (0, 2)

    def test_day_keeps_running_after_a_failure(self):
        design = SystemDesign((1, 0), (4, 4))
        events = [
            (8.0, 2, 1, 0.1),  # fails: station 2 empty
            (9.0, 1, 2, 0.1),  # still goes through
            (10.0, 2, 1, 0.1),  # uses the vehicle that just docked
        ]
        out = replay_day(day(events), no_plan(2), design)
        assert out.availability_failures == 1
        assert out.final_stocks == (1, 0)

    def test_docking_vehicle_serves_same_instant_request(self):
        # the 2 -> 1 trip lands at exactly t=2; the t=2 request from
        # station 1 must see it
        design = SystemDesign((0, 1), (2, 2))
        events = [
            (1.0, 2, 1, 1.0),
            (2.0, 1, 2, 0.5),
        ]
        out = replay_day(day(events), no_plan(2), design)
        assert out.availability_failures == 0
        assert out.final_stocks == (0, 1)

    def test_relocations_move_vehicles_with_travel_time(self):
        design = SystemDesign((2, 0), (4, 4))
        plan = RebalancingPlan(2, 24.0, {(1, 2): (7.0,)})
        eta = ((0.0, 0.5), (0.5, 0.0))
        # request at station 2 before the relocation lands fails; a later
        # one is served
        events = [
            (7.2, 2, 1, 0.1),
            (8.0, 2, 1, 0.1),
        ]
        out = replay_day(day(events), plan, design, eta=eta)
        assert out.availability_failures == 1
        # station 1 sent one vehicle out and got one back via the rental
        assert out.final_stocks == (2, 0)

    def test_relocation_from_empty_station_fails(self):
        design = SystemDesign((0, 1), (2, 2))
        plan = RebalancingPlan(2, 24.0, {(1, 2): (7.0,)})
        out = replay_day(day(()), plan, design)
        assert out.availability_failures == 1
        assert out.final_stocks == (0, 1)

    def test_vehicles_are_conserved_at_every_event(self):
        # each prefix of the day ends once its last departure has docked again
        model = synthetic_imbalanced_model(6, seed=4)
        (seq,) = sample_day_sequences(model, 1, seed=9)
        design = SystemDesign((3,) * 6, (8,) * 6)
        assert seq.t.size >= 5
        for n in range(seq.t.size + 1):
            prefix = DaySequences(6, seq.horizon, seq.dates, [n], seq.t[:n], seq.o[:n], seq.d[:n],
                                  seq.eta[:n])
            assert sum(replay_day(prefix, no_plan(6), design).final_stocks) == design.fleet_size

    def test_replay_is_deterministic(self):
        model = synthetic_imbalanced_model(5, seed=1)
        (seq,) = sample_day_sequences(model, 1, seed=2)
        design = SystemDesign((2,) * 5, (5,) * 5)
        rho = {(1, 2): (9.0,), (3, 1): (10.0, 15.0)}
        plan_fwd = RebalancingPlan(5, 24.0, rho)
        plan_rev = RebalancingPlan(5, 24.0, dict(reversed(list(rho.items()))))
        eta = model.eta
        first = replay_day(seq, plan_fwd, design, eta=eta)
        second = replay_day(seq, plan_rev, design, eta=eta)
        assert first == second

    def test_station_label_bounds_checked(self):
        with pytest.raises(ValueError, match=r"^event names station outside 1\.\.1$"):
            day([(1.0, 1, 2, 0.1)], k=1)
        design = SystemDesign((1,), (2,))
        with pytest.raises(ValueError, match="sequences have 2 stations, design has 1"):
            replay_day(day([(1.0, 1, 2, 0.1)]), no_plan(1), design)

    def test_plan_and_design_sizes_must_agree(self):
        design = SystemDesign((1, 1), (2, 2))
        with pytest.raises(ValueError):
            replay_day(day(()), no_plan(3), design)

    def test_plan_and_day_horizons_must_agree(self):
        design = SystemDesign((1, 1), (2, 2))
        plan = RebalancingPlan(2, 72.0, {(2, 1): (30.0,)})
        with pytest.raises(ValueError, match="plan covers 72 h, day 2016-05-02 covers 24 h"):
            replay_day(day([(1.0, 1, 2, 0.0)]), plan, design)


class TestFailureRate:
    def outcome(self, failed, i):
        return ReplayOutcome(f"d{i}", int(failed), 0, (0,))

    def test_fractions(self):
        outs = [self.outcome(i < 11, i) for i in range(22)]
        assert failure_rate(outs) == 0.5
        assert failure_rate([self.outcome(False, 0)] * 22) == 0.0
        assert failure_rate([self.outcome(True, 0)] * 22) == 1.0

    def test_empty_input_is_an_error(self):
        with pytest.raises(ValueError):
            failure_rate([])


class TestBaselineDesign:
    def test_even_capacity_half_stocked(self):
        d = baseline_design(3, 10)
        assert d.v == (5, 5, 5)
        assert d.c == (10, 10, 10)

    def test_odd_capacity_rounds_stock_down(self):
        assert baseline_design(2, 7).v == (3, 3)

    def test_zero_capacity(self):
        d = baseline_design(2, 0)
        assert d.v == (0, 0) and d.c == (0, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            baseline_design(2, -1)


class TestSweep:
    def test_rows_and_monotone_trend(self):
        from scipy.stats import spearmanr

        model = synthetic_imbalanced_model(8, seed=5)
        sequences = sample_day_sequences(model, 22, seed=6)
        grid = [2, 4, 8, 16, 24]
        designs = [(f"C{c}", baseline_design(8, c)) for c in grid]
        rows = sweep(designs, sequences, no_plan(8), eta=model.eta)
        assert [r[0] for r in rows] == [f"C{c}" for c in grid]
        assert rows[-1][1] == 8 * 12 and rows[-1][2] == 8 * 24
        rates = [r[3] for r in rows]
        assert all(0.0 <= r <= 1.0 for r in rates)
        # more capacity should not hurt, up to sampling noise
        rho, _ = spearmanr(grid, rates)
        assert rho <= 0.0

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_a_day_fails_alike_with_and_without_overflow(self, instance_seed, day_seed):
        # a day fails at its first refusal, and up to it overflow and strict
        # replay act the same, so no sweep row depends on the mode
        model, plan, design = random_small_instance(np.random.default_rng(instance_seed))
        for seq in sample_day_sequences(model, 3, seed=day_seed):
            for eta in (None, model.eta):
                docked = replay_day(seq, plan, design, eta=eta)
                strict = replay_day(seq, plan, design, eta=eta, overflow=False)
                assert docked.day_failed == strict.day_failed

    def test_all_days_replayed(self):
        model = synthetic_imbalanced_model(4, seed=8)
        sequences = sample_day_sequences(model, 5, seed=3)
        outs = replay_all(sequences, no_plan(4), baseline_design(4, 6))
        assert [o.day for o in outs] == list(sequences.dates)


def reference_smallest_baseline(sequences, plan, eta, target):
    """The one-target search: the first uniform capacity in 1..400 that meets ``target``."""
    for cap in range(1, 401):
        base = baseline_design(sequences.k, cap)
        if failure_rate(replay_all(sequences, plan, base, eta=eta)) <= target:
            return base
    return None


class TestSmallestBaselines:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_the_one_target_search(self, seed):
        rng = np.random.default_rng(seed)
        model, plan, _ = random_small_instance(rng, max_rebalances=8)
        days = sample_day_sequences(model, int(rng.integers(1, 5)), seed=seed)
        rates = [j / len(days) for j in range(len(days) + 1)] + rng.uniform(0.0, 1.0, 2).tolist()
        picked = rng.choice(rates, 3).tolist()
        # decreasing, one repeated, and last one that no baseline can meet
        targets = sorted(picked + picked[:1], reverse=True) + [-1.0]
        got = smallest_baselines(days, plan, model.eta, targets)
        assert got == [reference_smallest_baseline(days, plan, model.eta, t) for t in targets]
        assert got[-1] is None

    def test_several_targets_cost_one_scan(self):
        model = synthetic_imbalanced_model(4, seed=8)
        days = sample_day_sequences(model, 3, seed=3)
        with mock.patch.object(replay, "replay_all", wraps=replay.replay_all) as spy:
            found = smallest_baselines(days, no_plan(4), model.eta, [0.0, 1.0, 0.0])
        assert found[1] == baseline_design(4, 1) and found[0] == found[2]
        assert spy.call_count == found[0].c[0]


class TestReplayMatchesMonteCarlo:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_same_sampled_events_same_outcome(self, instance_seed, run_seed):
        # replay with zero ride times and the Monte Carlo first-failure scan
        # are two implementations of one semantics: fed the draws of one run,
        # they agree on failure and, without one, with the dense reference's
        # final stocks
        model, plan, design = random_small_instance(
            np.random.default_rng(instance_seed), c_max=8, max_rebalances=6
        )
        T = model.horizon
        tables = compile_tables(model)
        t, pair = sample_requests(tables, T, np.random.default_rng(run_seed))
        o, d = tables.pair_o[pair], tables.pair_d[pair]
        seq = DaySequences(model.k, T, ["sampled"], [t.size], t, o, d, np.zeros(t.size))
        out = replay_day(seq, plan, design)
        [failed_at] = failure_times(model, plan, design, T, [run_seed])
        assert out.day_failed == (failed_at < np.inf)
        if not out.day_failed:
            [(_, occ, _)] = dense_simulate(model, plan, design, T, [run_seed], False, [T])
            assert out.final_stocks == tuple(occ[0].tolist())
