"""Domain types: intensity algebra, flow aggregation, timelines, JSON wire format."""

import hashlib
import itertools
import json
import math
import pickle
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fleetsizing import model as model_module
from fleetsizing.ingest import sequences_from_json
from fleetsizing.model import (
    DemandModel,
    RebalancingPlan,
    StationFlowProfile,
    SystemDesign,
    aggregate_station_flows,
    bin_integrals,
    load_model,
    load_plan,
    model_from_json,
    model_to_json,
    plan_from_json,
    plan_to_json,
    rate_grid,
    save_model,
    save_plan,
    write_json,
)
from fleetsizing.sizing import design_from_json
from fleetsizing.station_bound import _timeline
from fleetsizing.synth import synthetic_imbalanced_model, uniform_demand_model
from fleetsizing.uniformization import JUMP, RECORD

from conftest import (
    Rate,
    days_of,
    intensities,
    make_rate,
    pieces_of,
    profile_of,
    profile_rates,
    random_small_instance,
    reference_integral,
    reference_shifted,
    value_at,
)


def reference_sum_intensities(items, horizon):
    """The scalar sum: each item's ``value_at`` at every merged breakpoint, in item order."""
    items = list(items)
    if not items:
        return Rate.constant(0.0, horizon)
    merged = sorted({b for it in items for b in it.breakpoints})
    values = tuple(sum(value_at(it, s) for it in items) for s in merged)
    return Rate(tuple(merged), values, horizon)


def reference_station_flows(model, plan, station, with_delay=False):
    """One station's flow profile from a scan over every pair, as it was built per station."""
    i = station
    demand = intensities(model)
    dep_items = [lam for (o, d), lam in demand.items() if o == i]
    if with_delay:
        arr_items = [
            reference_shifted(lam, model.eta_hours(o, i)) for (o, d), lam in demand.items() if d == i
        ]
    else:
        arr_items = [lam for (o, d), lam in demand.items() if d == i]
    lambda_d = reference_sum_intensities(dep_items, model.horizon)
    lambda_a = reference_sum_intensities(arr_items, model.horizon)
    rho_d = sorted(t for (o, d), ts in plan.rho.items() if o == i for t in ts)
    if with_delay:
        rho_a = sorted(
            t + model.eta_hours(o, i)
            for (o, d), ts in plan.rho.items()
            if d == i
            for t in ts
            if t + model.eta_hours(o, i) <= model.horizon
        )
    else:
        rho_a = sorted(t for (o, d), ts in plan.rho.items() if d == i for t in ts)
    return profile_of(lambda_a, lambda_d, tuple(rho_a), tuple(rho_d))


def same_intensity(a, b):
    return (a.breakpoints, a.values, a.horizon) == (b.breakpoints, b.values, b.horizon)


def grid_points(horizon, max_size, steps=100):
    """Distinct instants strictly inside (0, horizon), on a grid of horizon / steps."""
    return st.lists(st.integers(1, steps - 1), max_size=max_size, unique=True).map(
        lambda cuts: tuple(sorted(c * horizon / steps for c in cuts))
    )


@st.composite
def piecewise_rates(draw, horizon, max_breaks=4, steps=100):
    """A piecewise-constant rate with its own breakpoints, some pieces exactly 0."""
    bps = (0.0, *draw(grid_points(horizon, max_breaks, steps)))
    rate = st.one_of(st.just(0.0), st.floats(0.0, 3.0, allow_subnormal=False))
    return Rate(bps, tuple(draw(rate) for _ in bps), horizon)


@st.composite
def models_with_plans(draw):
    """Random demand, travel times (zero, positive, past the horizon) and relocations.

    Breakpoints, travel times and relocation instants lie on a grid of
    horizon / 16, so their sums are exact, and a shifted piece or
    relocation often lands on the horizon.  A station often has no pairs.
    """
    k = draw(st.integers(2, 4))
    horizon = draw(st.sampled_from([2.0, 24.0]))
    pairs = [(o, d) for o in range(1, k + 1) for d in range(1, k + 1) if o != d]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    lam = {pair: draw(piecewise_rates(horizon, steps=16)).pair for pair in chosen}
    hops = st.one_of(st.just(0), st.integers(1, 24))  # a zero travel time, often
    eta = tuple(
        tuple(0.0 if o == d else draw(hops) * horizon / 16 for d in range(k)) for o in range(k)
    )
    moved = draw(st.lists(st.sampled_from(pairs), unique=True))
    rho = {pair: draw(grid_points(horizon, 3, steps=16)) for pair in moved}
    return DemandModel(k, lam, eta, horizon), RebalancingPlan(k, horizon, rho)


def constructor_errors(rate, horizon):
    """What a one-pair model and a profile with ``rate``, a pair, as either stream raise."""
    other = ((0.0,), (1.0,))
    return [
        first_error(lambda: DemandModel(2, {(1, 2): rate}, ((0.0, 0.0), (0.0, 0.0)), horizon)),
        first_error(lambda: StationFlowProfile(rate, other, horizon, (), ())),
        first_error(lambda: StationFlowProfile(other, rate, horizon, (), ())),
    ]


class TestPiecewiseConstantIntensity:
    """Rates as the constructors take and check them, and as the reference helpers read them."""

    def test_right_open_interval_lookup(self):
        lam = Rate((0.0, 2.0, 5.0), (1.0, 3.0, 0.5), 10.0)
        assert value_at(lam, 0.0) == 1.0
        assert value_at(lam, 1.999) == 1.0
        assert value_at(lam, 2.0) == 3.0  # right-open: new value starts at its breakpoint
        assert value_at(lam, 5.0) == 0.5
        assert value_at(lam, 10.0) == 0.5

    def test_evaluation_outside_horizon_is_an_error(self):
        lam = Rate.constant(1.0, 10.0)
        with pytest.raises(ValueError):
            value_at(lam, 10.5)
        with pytest.raises(ValueError):
            value_at(lam, -0.5)

    def test_breakpoints_must_increase(self):
        assert constructor_errors(((0.0, 3.0, 3.0), (1.0, 1.0, 1.0)), 10.0) == [
            "breakpoints must be finite and strictly increasing"] * 3
        assert constructor_errors(((1.0,), (1.0,)), 10.0) == ["first breakpoint must be 0"] * 3

    def test_rates_must_be_non_negative(self):
        assert constructor_errors(((0.0,), (-0.1,)), 10.0) == ["rates must be finite and non-negative"] * 3

    @pytest.mark.parametrize("bps", [(0.0, math.nan), (0.0, 30.0, math.nan), (0.0, math.inf)])
    def test_breakpoints_must_be_finite(self, bps):
        assert constructor_errors((bps, (1.0,) * len(bps)), 24.0) == [
            "breakpoints must be finite and strictly increasing"] * 3

    def test_integral_piecewise(self):
        lam = Rate((0.0, 2.0), (1.0, 3.0), 10.0)
        assert reference_integral(lam, 0.0, 2.0) == pytest.approx(2.0)
        assert reference_integral(lam, 1.0, 3.0) == pytest.approx(1.0 + 3.0)
        assert reference_integral(lam, 0.0, 10.0) == pytest.approx(2.0 + 24.0)
        assert reference_integral(lam, 4.0, 4.0) == 0.0
        assert bin_integrals(pieces_of([lam]), 10.0, (0.0, 2.0, 3.0, 10.0)).tolist() == [[2.0, 3.0, 21.0]]

    def test_sum_of_constants(self):
        lam = Rate.constant(0.05, 24.0)
        model = DemandModel(50, {(o, 50): lam.pair for o in range(1, 50)}, ((0.0,) * 50,) * 50, 24.0)
        total, _ = profile_rates(aggregate_station_flows(model, None)[-1])
        assert value_at(total, 12.0) == pytest.approx(2.45, rel=1e-12)

    @given(st.sampled_from([2.0, 24.0]).flatmap(lambda h: st.lists(piecewise_rates(h), max_size=6)))
    @settings(max_examples=200, deadline=None)
    def test_sum_matches_the_scalar_sum(self, items):
        # the items arrive at the last station, which sums its nonzero inflows
        horizon = items[0].horizon if items else 24.0
        k = len(items) + 1
        model = DemandModel(k, {(o, k): it.pair for o, it in enumerate(items, start=1)},
                            ((0.0,) * k,) * k, horizon)
        kept = [it for it in items if any(it.values)]
        assert same_intensity(
            profile_rates(aggregate_station_flows(model, None)[-1])[0],
            reference_sum_intensities(kept, horizon),
        )

    @given(st.sampled_from([2.0, 24.0]).flatmap(lambda h: st.lists(piecewise_rates(h), max_size=6)))
    @settings(max_examples=200, deadline=None)
    def test_rate_grid_entries_are_value_at(self, items):
        edges, rates = rate_grid(pieces_of(items))
        assert edges.tolist() == sorted({0.0, *(b for it in items for b in it.breakpoints)})
        assert rates.shape == (len(items), len(edges))
        if not items:
            return
        ends = [*edges[1:], items[0].horizon]
        for row, it in zip(rates, items):
            for j, (a, b) in enumerate(zip(edges, ends)):
                assert row[j] == value_at(it, a) == value_at(it, 0.5 * (a + b))

    def test_rate_grid_of_no_items(self):
        edges, rates = rate_grid(pieces_of([]))
        assert edges.tolist() == [0.0]
        assert rates.shape == (0, 1)

    def test_shift_by_delay_prepends_zero(self):
        shifted = reference_shifted(Rate.constant(1.0, 24.0), 0.5)
        assert value_at(shifted, 0.25) == 0.0
        assert value_at(shifted, 0.5) == 1.0
        assert value_at(shifted, 23.9) == 1.0

    def test_shift_integral_identity(self):
        # integral of the shifted intensity over [0,T] equals the original
        # integral over [0, T - eta]
        lam = Rate((0.0, 3.0, 7.0), (0.4, 1.2, 0.1), 24.0)
        eta = 1.75
        assert reference_integral(reference_shifted(lam, eta), 0.0, 24.0) == pytest.approx(
            reference_integral(lam, 0.0, 24.0 - eta), rel=1e-9
        )

    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 0.9), st.floats(0.1, 0.9))
    @settings(max_examples=50, deadline=None)
    def test_integral_is_additive(self, seed, fa, fb):
        lam = make_rate(np.random.default_rng(seed), 8.0)
        a, b = sorted((8.0 * fa, 8.0 * fb))
        whole = reference_integral(lam, 0.0, 8.0)
        parts = [reference_integral(lam, s, t) for s, t in ((0.0, a), (a, b), (b, 8.0))]
        assert sum(parts) == pytest.approx(whole, abs=1e-12)


@st.composite
def items_and_edges(draw):
    """Intensities on one horizon and bin edges on, between and 1e-9 past their breakpoints.

    Edges may repeat (zero-width bins) and may lie up to 1e-9 outside the horizon.
    """
    horizon = draw(st.sampled_from([2.0, 24.0, 7.3]))
    items = draw(st.lists(piecewise_rates(horizon, max_breaks=12), max_size=5))
    bps = sorted({0.0, horizon, *(b for it in items for b in it.breakpoints)})
    near = [*bps, *(b + 1e-9 for b in bps[1:]), *(b - 1e-9 for b in bps)]
    near += [0.5 * (a + b) for a, b in zip(bps, bps[1:])]
    edges = draw(st.lists(st.sampled_from(near), min_size=1, max_size=12))
    return horizon, items, sorted(edges)


class TestBinIntegrals:
    @given(items_and_edges())
    @settings(max_examples=300, deadline=None)
    def test_entries_are_the_scalar_integrals(self, case):
        horizon, items, edges = case
        got = bin_integrals(pieces_of(items), horizon, edges)
        assert got.shape == (len(items), len(edges) - 1)
        for row, it in zip(got.tolist(), items):
            assert row == [reference_integral(it, a, b) for a, b in zip(edges, edges[1:])]

    def test_one_bin_over_many_pieces(self):
        lam = Rate(tuple(np.arange(0.0, 24.0, 0.1)), (0.3,) * 240, 24.0)
        assert bin_integrals(pieces_of([lam]), 24.0, (0.0, 24.0))[0, 0] == reference_integral(lam, 0.0, 24.0)

    @pytest.mark.parametrize(
        "edges", [(0.0, 2.0, 1.0), (0.0, 24.1), (-0.1, 1.0), (0.0, math.nan), (0.0, math.inf), ()]
    )
    def test_bad_edges_are_rejected(self, edges):
        with pytest.raises(ValueError):
            bin_integrals(pieces_of([Rate.constant(1.0, 24.0)]), 24.0, edges)


class TestDemandModel:
    def test_diagonal_demand_rejected(self):
        with pytest.raises(ValueError):
            DemandModel(2, {(1, 1): ((0.0,), (1.0,))}, ((0.0, 0.0), (0.0, 0.0)), 24.0)

    def test_absent_pairs_have_zero_rate(self):
        m = DemandModel(2, {(1, 2): ((0.0,), (1.0,))}, ((0.0, 0.1), (0.1, 0.0)), 24.0)
        assert m.pairs() == [(1, 2)]
        assert value_at(intensities(m)[(1, 2)], 3.0) == 1.0

    def test_eta_diagonal_must_be_zero(self):
        with pytest.raises(ValueError):
            DemandModel(2, {}, ((0.5, 0.1), (0.1, 0.0)), 24.0)

    def test_horizon_mismatch_rejected(self):
        # a rate drawn for 24 h whose breakpoint is the 12 h model's horizon
        with pytest.raises(ValueError, match="^horizon_end must exceed the last breakpoint$"):
            DemandModel(2, {(1, 2): ((0.0, 12.0), (1.0, 2.0))}, ((0.0, 0.0), (0.0, 0.0)), 12.0)

    @given(
        st.integers(1, 4).flatmap(
            lambda k: st.lists(
                st.lists(st.sampled_from([0.0, -0.0, 0.5, 3.0, -1.0, math.nan, math.inf]),
                         min_size=k, max_size=k),
                min_size=k, max_size=k,
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_eta_checks_match_the_scalar_scan(self, eta):
        expected = None
        for i, row in enumerate(eta):  # the checks entry by entry, in row-major order
            for j, e in enumerate(row):
                if expected is None and (not math.isfinite(e) or e < 0.0):
                    expected = "travel times must be finite and non-negative"
                elif expected is None and i == j and e != 0.0:
                    expected = "diagonal travel times must be zero"
        if expected is None:
            assert DemandModel(len(eta), {}, eta, 24.0).eta == tuple(map(tuple, eta))
        else:
            with pytest.raises(ValueError, match=f"^{expected}$"):
                DemandModel(len(eta), {}, eta, 24.0)


class TestSystemDesign:
    def test_stock_cannot_exceed_capacity(self):
        with pytest.raises(ValueError):
            SystemDesign((3,), (2,))

    def test_totals(self):
        d = SystemDesign((1, 2), (3, 4))
        assert d.k == 2
        assert d.fleet_size == 3
        assert d.total_capacity == 7


class TestRebalancingPlan:
    def test_instants_sorted_by_time_then_labels(self):
        plan = RebalancingPlan(3, 24.0, {(2, 1): (5.0,), (1, 3): (5.0,), (3, 1): (2.0,)})
        assert plan.instants() == [(2.0, 3, 1), (5.0, 1, 3), (5.0, 2, 1)]
        assert plan.count() == 3

    def test_instants_must_be_inside_horizon(self):
        with pytest.raises(ValueError):
            RebalancingPlan(2, 24.0, {(1, 2): (24.0,)})
        with pytest.raises(ValueError):
            RebalancingPlan(2, 24.0, {(1, 2): (0.0,)})

    def test_self_relocation_rejected(self):
        with pytest.raises(ValueError):
            RebalancingPlan(2, 24.0, {(1, 1): (3.0,)})


class TestAggregateStationFlows:
    def test_uniform_all_pairs_sums(self):
        rates = {(o, d): ((0.0,), (0.05,)) for o in range(1, 51) for d in range(1, 51) if o != d}
        eta = tuple(tuple(0.0 for _ in range(50)) for _ in range(50))
        m = DemandModel(50, rates, eta, 24.0)
        lambda_a, lambda_d = profile_rates(aggregate_station_flows(m, RebalancingPlan.empty(50, 24.0))[6])
        for t in (0.0, 6.0, 23.0):
            assert value_at(lambda_a, t) == pytest.approx(2.45, rel=1e-12)
            assert value_at(lambda_d, t) == pytest.approx(2.45, rel=1e-12)

    def test_departure_rate_is_row_sum(self, rng):
        model, plan, _ = random_small_instance(rng)
        for i in range(1, model.k + 1):
            _, lambda_d = profile_rates(aggregate_station_flows(model, plan)[i - 1])
            for t in (0.0, 0.3, 1.1, 1.9):
                expected = sum(value_at(lam, t) for (o, _), lam in intensities(model).items() if o == i)
                assert value_at(lambda_d, t) == pytest.approx(expected, abs=1e-12)

    def test_delayed_arrival_turns_on_after_travel_time(self):
        m = DemandModel(2, {(1, 2): ((0.0,), (1.0,))}, ((0.0, 0.5), (0.5, 0.0)), 24.0)
        prof = aggregate_station_flows(m, RebalancingPlan.empty(2, 24.0), with_delay=True)[1]
        lambda_a, _ = profile_rates(prof)
        assert value_at(lambda_a, 0.25) == 0.0
        assert value_at(lambda_a, 0.5) == 1.0

    def test_delayed_arrival_integral_identity(self, rng):
        model, plan, _ = random_small_instance(rng)
        T = model.horizon
        for i in range(1, model.k + 1):
            lambda_a, _ = profile_rates(aggregate_station_flows(model, plan, with_delay=True)[i - 1])
            expected = sum(
                reference_integral(lam, 0.0, max(0.0, T - model.eta_hours(o, i)))
                for (o, d), lam in intensities(model).items()
                if d == i
            )
            assert reference_integral(lambda_a, 0.0, T) == pytest.approx(
                expected, rel=1e-9, abs=1e-12
            )

    def test_relocation_arrivals_shift_by_travel_time(self):
        m = DemandModel(2, {(1, 2): ((0.0,), (1.0,))}, ((0.0, 0.4), (0.4, 0.0)), 24.0)
        plan = RebalancingPlan(2, 24.0, {(1, 2): (1.0,)})
        prof = aggregate_station_flows(m, plan, with_delay=True)[1]
        assert prof.rho_a == (1.4,)
        prof_o = aggregate_station_flows(m, plan, with_delay=True)[0]
        assert prof_o.rho_d == (1.0,)

    # station 1 sends with a zero travel time, station 2 with one that shifts
    # its second piece and its relocation exactly onto the horizon, and
    # station 3 has no pairs
    @example((DemandModel(3, {(1, 2): ((0.0, 1.5), (1.0, 2.0)), (2, 1): ((0.0, 1.5), (0.5, 3.0))},
                          ((0.0, 0.0, 1.0), (0.5, 0.0, 1.0), (1.0, 1.0, 0.0)), 2.0),
              RebalancingPlan(3, 2.0, {(2, 1): (0.25, 1.5)})), True)
    @given(models_with_plans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_one_pass_matches_the_per_station_scan(self, model_plan, with_delay):
        model, plan = model_plan
        profiles = aggregate_station_flows(model, plan, with_delay=with_delay)
        assert len(profiles) == model.k
        for i, prof in enumerate(profiles, start=1):
            ref = reference_station_flows(model, plan, i, with_delay)
            for a, b in zip(prof.pieces, ref.pieces, strict=True):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert prof.horizon == ref.horizon
            assert prof.rho_a == ref.rho_a
            assert prof.rho_d == ref.rho_d

    def test_a_profile_holds_its_rates_as_read_only_pieces(self):
        lambda_a = Rate((0.0, 1.0), (0.5, 2.0), 4.0)
        lambda_d = Rate.constant(1.5, 4.0)
        prof = StationFlowProfile(lambda_a.pair, lambda_d.pair, 4.0, [0.5, 1.0], (2.0,))
        starts, values, counts = prof.pieces
        assert (starts.tolist(), values.tolist(), counts.tolist()) == ([0.0, 1.0, 0.0], [0.5, 2.0, 1.5], [2, 1])
        assert (prof.horizon, prof.rho_a, prof.rho_d) == (4.0, (0.5, 1.0), (2.0,))
        for a in prof.pieces:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        assert all(map(same_intensity, profile_rates(prof), (lambda_a, lambda_d)))

    def test_aggregation_builds_no_intensity(self, rng):
        # the model's rates were checked once, when it was built
        model, plan, _ = random_small_instance(rng, k_max=4)
        with mock.patch.object(model_module, "_checked_pieces") as checked:
            for with_delay in (False, True):
                aggregate_station_flows(model, plan, with_delay=with_delay)
        assert checked.call_count == 0

    def test_delayed_relocation_arrivals_past_horizon_are_dropped(self):
        m = DemandModel(2, {(1, 2): ((0.0,), (1.0,))}, ((0.0, 0.5), (0.5, 0.0)), 24.0)
        plan = RebalancingPlan(2, 24.0, {(1, 2): (23.8,)})
        prof = aggregate_station_flows(m, plan, with_delay=True)[1]
        assert prof.rho_a == ()


class TestMergedEventTimeline:
    def test_orders_breakpoints_then_arrivals_then_departures(self):
        prof = StationFlowProfile(((0.0, 8.0, 17.0), (1.0, 2.0, 1.0)), ((0.0,), (0.0,)), 24.0,
                                  (9.0,), (12.0,))
        pieces, ends, actions, cuts = _timeline(prof, 24.0, ())
        assert ends.tolist() == [8.0, 9.0, 12.0, 17.0, 24.0]
        assert pieces.tolist() == [
            [8.0, 1.0, 0.0], [1.0, 2.0, 0.0], [3.0, 2.0, 0.0], [5.0, 2.0, 0.0], [7.0, 1.0, 0.0]
        ]
        assert actions == [(JUMP, "arrival"), (JUMP, "departure")]
        assert cuts == [0, 0, 0, 1, 2, 2, 2]
        # events past T are dropped; a record at an event's instant comes last
        pieces, ends, actions, cuts = _timeline(prof, 9.0, [9.0, 2.0])
        assert ends.tolist() == [2.0, 8.0, 9.0]
        assert pieces.tolist() == [[2.0, 1.0, 0.0], [6.0, 1.0, 0.0], [1.0, 2.0, 0.0]]
        assert actions == [(RECORD, 1), (JUMP, "arrival"), (RECORD, 0)]
        assert cuts == [0, 0, 1, 1, 3]
        with pytest.raises(ValueError, match="record times"):
            _timeline(prof, 9.0, [9.5])

    def test_constant_intensity_empty_plan_has_no_events(self):
        prof = StationFlowProfile(((0.0,), (1.0,)), ((0.0,), (2.0,)), 24.0, (), ())
        pieces, ends, actions, cuts = _timeline(prof, 24.0, ())
        assert (pieces.tolist(), ends.tolist(), actions, cuts) == ([[24.0, 1.0, 2.0]], [24.0], [], [0, 0, 0])

    def test_simultaneous_arrival_precedes_departure(self):
        prof = StationFlowProfile(((0.0, 5.0), (0.0, 1.0)), ((0.0,), (0.0,)), 24.0, (5.0,), (5.0,))
        pieces, ends, actions, cuts = _timeline(prof, 24.0, ())
        assert pieces.tolist() == [[5.0, 0.0, 0.0], [19.0, 1.0, 0.0]]
        assert actions == [(JUMP, "arrival"), (JUMP, "departure")]
        assert cuts == [0, 0, 2, 2]

    def test_merge_is_idempotent(self, rng):
        model, plan, _ = random_small_instance(rng)
        prof = aggregate_station_flows(model, plan)[0]
        pieces, ends, actions, cuts = _timeline(prof, prof.horizon, [0.5, 1.0])
        assert np.all(np.diff(ends) > 0.0) and ends[-1] == prof.horizon
        assert cuts == sorted(cuts)
        assert [payload for kind, payload in actions if kind == RECORD] == [0, 1]
        # each piece ends where the next one starts
        assert np.allclose(np.cumsum(pieces[:, 0]), ends)


class TestWireFormat:
    def test_model_roundtrip_preserves_evaluations(self, rng):
        model, plan, _ = random_small_instance(rng)
        doc = model_to_json(model)
        again = model_from_json(json.loads(json.dumps(doc)))
        assert again.k == model.k
        assert again.horizon == model.horizon
        for o, d in model.pairs():
            for t in (0.0, 0.7, 1.5, model.horizon):
                assert value_at(intensities(again)[o, d], t) == value_at(intensities(model)[o, d], t)
            assert again.eta_hours(o, d) == model.eta_hours(o, d)

    def test_plan_roundtrip(self, rng):
        _, plan, _ = random_small_instance(rng)
        again = plan_from_json(plan_to_json(plan))
        assert again.instants() == plan.instants()
        assert again.k == plan.k

    def test_file_roundtrip(self, rng, tmp_path):
        model, plan, _ = random_small_instance(rng)
        save_model(model, tmp_path / "m.json")
        save_plan(plan, tmp_path / "p.json")
        m2 = load_model(tmp_path / "m.json")
        p2 = load_plan(tmp_path / "p.json")
        assert m2.pairs() == model.pairs()
        assert p2.instants() == plan.instants()

    def test_station_labels_are_one_based_in_files(self, rng):
        model, plan, _ = random_small_instance(rng)
        doc = model_to_json(model)
        assert all(e["o"] >= 1 and e["d"] >= 1 for e in doc["lambda"])
        assert doc["k"] == model.k

    def test_missing_key_is_a_value_error(self):
        with pytest.raises((ValueError, KeyError)):
            model_from_json({"k": 2})

    # each document is valid but for one bool where a number belongs, which
    # reads as 0 or 1 if it is taken for a number
    @pytest.mark.parametrize(
        "read, doc",
        [
            pytest.param(model_from_json, {"k": True, "horizon_hours": 24.0, "lambda": [],
                                           "eta": [[0.0]]}, id="model-k"),
            pytest.param(model_from_json, {"k": 1, "horizon_hours": True, "lambda": [],
                                           "eta": [[0.0]]}, id="model-horizon"),
            pytest.param(model_from_json, {"k": 2, "horizon_hours": 24.0, "eta": [[0, 1], [1, 0]],
                                           "lambda": [{"o": True, "d": 2, "breakpoints": [0.0],
                                                       "values": [1.0]}]}, id="model-origin"),
            pytest.param(model_from_json, {"k": 2, "horizon_hours": 24.0, "eta": [[0, 1], [1, 0]],
                                           "lambda": [{"o": 1, "d": 2, "breakpoints": [False],
                                                       "values": [1.0]}]}, id="model-breakpoint"),
            pytest.param(model_from_json, {"k": 2, "horizon_hours": 24.0, "eta": [[0, 1], [1, 0]],
                                           "lambda": [{"o": 1, "d": 2, "breakpoints": [0],
                                                       "values": [True]}]}, id="model-rate"),
            pytest.param(model_from_json, {"k": 2, "horizon_hours": 24.0, "lambda": [],
                                           "eta": [[0, True], [1, 0]]}, id="model-eta"),
            pytest.param(plan_from_json, {"k": 2, "horizon_hours": 24.0,
                                          "rho": [{"o": 1, "d": 2, "times": [True]}]},
                         id="plan-instant"),
            pytest.param(plan_from_json, {"k": 2, "horizon_hours": 24.0,
                                          "rho": [{"o": 2, "d": True, "times": [2.0]}]},
                         id="plan-destination"),
            pytest.param(design_from_json, {"stations": [{"id": 1, "v": True, "c": 2}]},
                         id="design-stock"),
            pytest.param(design_from_json, {"stations": [{"id": True, "v": 1, "c": 2}]},
                         id="design-id"),
            pytest.param(sequences_from_json, {"k": 2, "horizon_hours": 24.0, "days": [
                {"date": "2016-05-02", "events": [{"t": True, "o": 1, "d": 2, "eta": 0.5}]}]},
                         id="sequence-time"),
            pytest.param(sequences_from_json, {"k": 2, "horizon_hours": 24.0, "days": [
                {"date": "2016-05-02", "events": [{"t": 1.0, "o": 1, "d": 2, "eta": False}]}]},
                         id="sequence-riding-time"),
        ],
    )
    def test_booleans_are_not_numbers(self, read, doc):
        with pytest.raises(ValueError, match="True|False|whole numbers"):
            read(doc)
        # the same document with 1 or 0 in place of the bool is read
        read(json.loads(json.dumps(doc).replace("true", "1").replace("false", "0")))

    @pytest.mark.parametrize("value", ["24", None, [24.0]])
    def test_a_horizon_must_be_a_number(self, value):
        with pytest.raises(ValueError, match="expected a number"):
            model_from_json({"k": 1, "horizon_hours": value, "lambda": [], "eta": [[0.0]]})


# the SHA-256 of each generator model's file, as ``save_model`` writes it
GENERATED_MODELS = [
    pytest.param(lambda: synthetic_imbalanced_model(20, seed=0, base_rate=1.2, peak_factor=12.0),
                 "b5c87e1715961d5aed09ada7a287ea5d9053eecbfaae3f4cdba4d7a361a848ae", id="case-study"),
    pytest.param(lambda: synthetic_imbalanced_model(20, seed=0),
                 "12319eb888eff714108f6e80bcdf4d70f8c90fb62700f319fff2f348cdcea082", id="commuter"),
    pytest.param(lambda: uniform_demand_model(50, 0.05, 72.0),
                 "31ae9db4728c4e8bbcd192453d6a05a64ae55ac085305c7e894afbd323079caa", id="uniform-k50"),
    pytest.param(lambda: uniform_demand_model(3, 0.5, 24.0, eta_hours=0.25),
                 "72ec381d0600ec3f651476d15479e0fae268426a61305d1961b06de0fae934ce", id="uniform-k3"),
]


@pytest.mark.parametrize("build, digest", GENERATED_MODELS)
def test_generated_models_keep_their_bytes(build, digest, tmp_path):
    save_model(build(), tmp_path / "model.json")
    assert hashlib.sha256((tmp_path / "model.json").read_bytes()).hexdigest() == digest


# --- one demand representation, whatever the mapping's order ---------------


def shuffled_model(seed, k=4, horizon=4.0):
    """A model with demand on every pair, built from its mapping in a random order.

    Each station sends to and receives from k - 1 >= 3 others, so a sum
    taken in another pair order differs in its last bits.
    """
    rng = np.random.default_rng(seed)
    pairs = [(o, d) for o in range(1, k + 1) for d in range(1, k + 1) if o != d]
    rates = {}
    for i in rng.permutation(len(pairs)):
        cuts = np.sort(rng.choice(np.arange(1, 40), int(rng.integers(0, 4)), replace=False))
        bps = (0.0, *(cuts * horizon / 40).tolist())
        rates[pairs[i]] = (bps, rng.uniform(0.1, 1.5, len(bps)))
    eta = tuple(tuple(0.0 if o == d else float(rng.uniform(0.05, 0.5)) for d in range(k))
                for o in range(k))
    return DemandModel(k, rates, eta, horizon)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestOneRepresentation:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_shuffled_mapping_gives_its_round_trip_bitwise(self, seed):
        from fleetsizing.exact import joint_transient
        from fleetsizing.rebalance import compute_imbalance, uniform_bins
        from fleetsizing.simulate import compile_tables
        from fleetsizing.sizing import SizingRequest, size_system
        from fleetsizing.station_bound import system_failure_upper_bound

        model = shuffled_model(seed)
        again = model_from_json(json.loads(json.dumps(model_to_json(model))))
        assert model.pairs() == sorted(model.pairs()) == again.pairs()
        plan = RebalancingPlan(4, 4.0, {(1, 3): (0.5, 2.25), (4, 2): (1.0,)})
        design = SystemDesign((1, 2, 1, 1), (2, 3, 2, 2))
        for with_delay in (False, True):
            ours, theirs = (aggregate_station_flows(m, plan, with_delay=with_delay)
                            for m in (model, again))
            for i, (a, b) in enumerate(zip(ours, theirs, strict=True), start=1):
                # both are the scalar sum over the station's pairs in (o, d) order
                ref = reference_station_flows(model, plan, i, with_delay)
                for x, y, z in zip(a.pieces, b.pieces, ref.pieces, strict=True):
                    assert x.tobytes() == y.tobytes() == z.tobytes()
                assert (a.rho_a, a.rho_d) == (b.rho_a, b.rho_d)
            assert bits(system_failure_upper_bound(model, plan, design, 3.0, with_delay)) == bits(
                system_failure_upper_bound(again, plan, design, 3.0, with_delay))
            request = SizingRequest(0.2, 3.0)
            sized = [size_system(m, plan, request, with_delay) for m in (model, again)]
            assert sized[0].design == sized[1].design
            assert bits(sized[0].station_failure) == bits(sized[1].station_failure)
        edges = uniform_bins(4.0, 0.75)
        assert bits(compute_imbalance(model, edges).delta) == bits(compute_imbalance(again, edges).delta)
        ours, theirs = compile_tables(model), compile_tables(again)
        for name in ("pair_o", "pair_d", "pair_eta", "grid", "rates", "max_rate"):
            assert getattr(ours, name).tobytes() == getattr(theirs, name).tobytes()
        assert bits(joint_transient(model, plan, design, [3.0])[-1].pF) == bits(
            joint_transient(again, plan, design, [3.0])[-1].pF)

    def test_the_pairs_are_sorted_arrays_without_zero_demand(self):
        lam = Rate((0.0, 1.0), (0.5, 2.0), 4.0)
        zero = ((0.0, 2.0), (0.0, -0.0))
        model = DemandModel(3, {(3, 1): lam.pair, (1, 2): zero, (2, 3): lam.pair, (1, 3): lam.pair},
                            ((0.0,) * 3,) * 3, 4.0)
        assert model.pair_o.tolist() == [1, 2, 3] and model.pair_d.tolist() == [3, 3, 1]
        starts, values, counts = model.pieces
        assert starts.tolist() == [0.0, 1.0] * 3 and values.tolist() == [0.5, 2.0] * 3
        assert counts.tolist() == [2, 2, 2]
        for a in (model.pair_o, model.pair_d, *model.pieces):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        assert model.pairs() == [(1, 3), (2, 3), (3, 1)]
        assert same_intensity(intensities(model)[(2, 3)], lam)
        again = pickle.loads(pickle.dumps(model))
        assert model_to_json(again) == model_to_json(model)

    def test_readers_of_a_loaded_model_build_no_intensity(self, rng, tmp_path):
        from fleetsizing.exact import joint_transient
        from fleetsizing.rebalance import build_plan
        from fleetsizing.simulate import compile_tables
        from fleetsizing.sizing import SizingRequest, size_system
        from fleetsizing.station_bound import system_failure_upper_bound

        model, plan, design = random_small_instance(rng, k_max=3)
        save_model(model, tmp_path / "m.json")

        # loading checks the rates once, and no reader checks them again
        with mock.patch.object(model_module, "_checked_pieces", wraps=model_module._checked_pieces) as checked:
            loaded = load_model(tmp_path / "m.json")
            build_plan(loaded, bin_hours=0.5)
            size_system(loaded, plan, SizingRequest(0.3, 1.5), with_delay=True)
            system_failure_upper_bound(loaded, plan, design, 1.5)
            compile_tables(loaded)
            joint_transient(loaded, plan, design, [0.5, 1.5])
            assert model_to_json(loaded) == model_to_json(model)
        assert checked.call_count == 1


class TestPairChecks:
    """Every pair check keeps its message on each way a model is built."""

    lam = ((0.0,), (1.0,))
    eta = ((0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0))

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(True, 2)], "origin label must be an integer, got True"),
            ([(1, "2")], "destination label must be an integer, got '2'"),
            ([(1, 2), (0, 2)], "origin label 0 outside 1..3"),
            ([(1, 2 ** 70)], f"destination label {2 ** 70} outside 1..3"),
            ([(1, 2), (3, 3)], "demand between a station and itself is not allowed"),
            # the labels are checked first, then o != d
            ([(2, 2), (1, 5)], "destination label 5 outside 1..3"),
            ([(2, 2), (0, 1), (1, 2)], "origin label 0 outside 1..3"),
        ],
    )
    def test_the_constructor(self, pairs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DemandModel(3, dict.fromkeys(pairs, self.lam), self.eta, 24.0)

    def test_a_horizon_other_than_the_models(self):
        # a rate drawn for 36 h, with a breakpoint past the model's 24 h
        long = ((0.0, 30.0), (1.0, 2.0))
        message = "^horizon_end must exceed the last breakpoint$"
        with pytest.raises(ValueError, match=message):
            DemandModel(3, {(1, 2): self.lam, (2, 1): long}, self.eta, 24.0)
        doc = {"k": 3, "horizon_hours": 24.0, "eta": self.eta, "lambda": [
            {"o": 1, "d": 2, "breakpoints": [0.0], "values": [1.0]},
            {"o": 2, "d": 1, "breakpoints": list(long[0]), "values": list(long[1])}]}
        with pytest.raises(ValueError, match=message):
            model_from_json(doc)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(1, 2), (4, 1)], "origin label 4 outside 1..3"),
            ([(1, 2), (1, 1)], "demand between a station and itself is not allowed"),
            ([(2, 1), (1, 2), (2, 1), (1, 2)], "duplicate intensity entry for pair (2, 1)"),
        ],
    )
    def test_a_document(self, pairs, message):
        doc = {"k": 3, "horizon_hours": 24.0, "eta": self.eta,
               "lambda": [{"o": o, "d": d, "breakpoints": [0.0], "values": [1.0]} for o, d in pairs]}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            model_from_json(doc)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(1, 2), (4, 1)], "event names station outside 1..3"),
            ([(1, 2), (2, 2)], "demand between a station and itself is not allowed"),
        ],
    )
    def test_estimated_demand(self, pairs, message):
        from fleetsizing.ingest import estimate_demand

        doc = {"k": 3, "horizon_hours": 24.0, "days": [{"date": "2016-05-02", "events": [
            {"t": 1.0 + i, "o": o, "d": d, "eta": 0.25} for i, (o, d) in enumerate(pairs)]}]}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_demand(sequences_from_json(doc))


class TestNumbersGivenInPython:
    """Python input follows the file readers' rule: a bool or a string is no number."""

    eta = ((0.0, 0.5), (0.5, 0.0))
    one = ((0.0,), (1.0,))

    @pytest.fixture(params=[True, "1.5"], ids=["bool", "string"])
    def bad(self, request):
        return request.param

    def rejected(self, build, bad):
        with pytest.raises(TypeError, match=f"^expected a number, got {re.escape(repr(bad))}$"):
            build()

    def test_demand_rates(self, bad):
        for rate in (((0.0, bad), (1.0, 2.0)), ((0.0, 7.0), (bad, 2.0))):
            self.rejected(lambda: DemandModel(2, {(1, 2): rate}, self.eta, 24.0), bad)

    def test_travel_times(self, bad):
        self.rejected(lambda: DemandModel(2, {(1, 2): self.one}, ((0.0, bad), (0.5, 0.0)), 24.0), bad)

    def test_profile_rates(self, bad):
        for rate in (((0.0, bad), (1.0, 2.0)), ((0.0, 7.0), (bad, 2.0))):
            self.rejected(lambda: StationFlowProfile(rate, self.one, 24.0, (), ()), bad)
            self.rejected(lambda: StationFlowProfile(self.one, rate, 24.0, (), ()), bad)

    def test_profile_instants(self, bad):
        self.rejected(lambda: StationFlowProfile(self.one, self.one, 24.0, (bad,), ()), bad)
        self.rejected(lambda: StationFlowProfile(self.one, self.one, 24.0, (), (0.5, bad)), bad)

    def test_plan_instants(self, bad):
        self.rejected(lambda: RebalancingPlan(2, 24.0, {(1, 2): (bad, 3.5)}), bad)

    def test_horizons(self, bad):
        self.rejected(lambda: DemandModel(2, {(1, 2): self.one}, self.eta, bad), bad)
        self.rejected(lambda: StationFlowProfile(self.one, self.one, bad, (), ()), bad)
        self.rejected(lambda: RebalancingPlan(2, bad, {}), bad)
        self.rejected(lambda: days_of([[(0.5, 1, 2, 0.25)]], 2, horizon=bad), bad)

    def test_numpy_floats_and_ints_are_numbers(self):
        rate = ((0, np.float64(7.0)), np.array([1.5, 0.25]))
        model = DemandModel(2, {(1, 2): rate}, np.array(self.eta), 24)
        profile = StationFlowProfile(rate, self.one, 24.0, np.array([0.5]), (1,))
        plain = Rate((0.0, 7.0), (1.5, 0.25), 24.0)
        assert same_intensity(intensities(model)[(1, 2)], plain)
        assert same_intensity(profile_rates(profile)[0], plain)
        assert model.eta == self.eta and type(model.eta[0][1]) is float
        assert (profile.rho_a, profile.rho_d) == ((0.5,), (1.0,))
        assert all(type(t) is float for t in profile.rho_a + profile.rho_d)
        plan = RebalancingPlan(2, 24.0, {(1, 2): (np.float64(1.0), 3)})
        assert plan.rho == {(1, 2): (1.0, 3.0)} and all(type(t) is float for t in plan.rho[(1, 2)])


# --- the array check against the scalar checks --------------------------------


def first_error(build):
    """``build()``, or the message of the ValueError it raises."""
    try:
        return build()
    except ValueError as exc:
        return str(exc)


@st.composite
def piece_lists(draw, horizon):
    """One item's (breakpoints, values): valid, or broken in up to two of the checks' ways."""
    n = draw(st.integers(1, 4))
    inside = st.floats(0.0, horizon, exclude_min=True, exclude_max=True)
    bps = [0.0, *sorted(draw(st.lists(inside, min_size=n - 1, max_size=n - 1, unique=True)))]
    values = draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))
    faults = draw(st.lists(st.sampled_from(
        ["empty", "length", "first", "order", "breakpoint", "horizon", "rate"]
    ), max_size=2))
    for fault in faults:
        if fault == "length":
            values.append(1.0)
        elif fault == "first":
            bps[0] = draw(st.sampled_from([0.5, -1.0, math.nan]))
        elif fault == "order" and len(bps) > 1:
            bps[-1] = bps[draw(st.integers(0, len(bps) - 2))]
        elif fault == "breakpoint":
            bps.append(draw(st.sampled_from([math.nan, math.inf, -math.inf])))
            values.append(1.0)
        elif fault == "horizon":
            bps.append(draw(st.sampled_from([horizon, horizon + 1.0])))
            values.append(1.0)
        elif fault == "rate":
            values[draw(st.integers(0, len(values) - 1))] = draw(
                st.sampled_from([-0.5, math.nan, math.inf])
            )
    if "empty" in faults:
        bps, values = [], []
    whole = draw(st.booleans())  # a document may give whole numbers as ints
    return ([int(b) if whole and float(b).is_integer() else b for b in bps], values)


class TestCheckedPieces:
    @given(
        st.sampled_from([24.0, 0.15, math.nan, math.inf]).flatmap(
            lambda h: st.tuples(st.just(h), st.lists(piece_lists(h if math.isfinite(h) else 24.0),
                                                     max_size=5))
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_accepts_and_rejects_what_the_constructor_does(self, case):
        horizon, items = case
        expected = first_error(lambda: pieces_of([Rate(b, v, horizon) for b, v in items]))
        got = first_error(
            lambda: model_module._checked_pieces([b for b, _ in items], [v for _, v in items],
                                                 horizon)
        )
        if isinstance(expected, str):
            assert got == expected
        else:
            for a, b in zip(got, expected, strict=True):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# --- the writer against json.dump(indent=2) -----------------------------------

# structural bytes, quotes and backslash runs, control and non-ASCII characters
TRICKY_TEXT = st.text(
    st.sampled_from(list('[]{},:"\\ a') + ["\n", "\x00", "\x1f", "\u00e9", "\u2603", "\U0001f600"]),
    max_size=10,
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**80), 2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    TRICKY_TEXT,
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=12),
        st.dictionaries(TRICKY_TEXT, inner, max_size=6),
    ),
    max_leaves=40,
)


_WRITES = itertools.count()


def reference_bytes(doc):
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


class TestWriteJson:
    @given(DOCUMENTS)
    @settings(max_examples=200, deadline=None)
    def test_bytes_are_those_of_json_dump(self, tmp_path_factory, doc):
        # slices of 1 and 3 scalars make every container large enough to be cut
        for size in (1, 3, model_module._SLICE_SCALARS):
            # a fresh file per write: truncating the one just written can wait for its data
            path = tmp_path_factory.getbasetemp() / f"writer-{next(_WRITES)}.json"
            with mock.patch.object(model_module, "_SLICE_SCALARS", size):
                write_json(doc, path)
            assert path.read_bytes() == reference_bytes(doc)
            path.unlink()

    def test_long_lists_are_written_in_slices(self, tmp_path):
        doc = {
            "records": [{"o": i, "d": i % 7, "times": [i / 3, math.inf, -0.0], "x": {}}
                        for i in range(5000)],
            "days": [{"date": f"d{j}", "events": [{"t": t / 7, "s": "a\\\"]"} for t in range(3000)]}
                     for j in range(3)],
            "grid": [[float(i * j) for j in range(200)] for i in range(60)],
            "empty": [[], {}, [[]]],
        }
        path = tmp_path / "long.json"
        with mock.patch.object(model_module, "_reindent", wraps=model_module._reindent) as spy:
            write_json(doc, path)
        assert path.read_bytes() == reference_bytes(doc)
        # far more C-encoded slices than top-level values, each of bounded size
        assert spy.call_count > 20
        assert max(len(c.args[0]) for c in spy.call_args_list) < 400_000
