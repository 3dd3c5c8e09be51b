"""Fleet and capacity sizing against per-station failure budgets."""

import logging
import math
import re
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetsizing.model import (
    DemandModel,
    InvariantViolationError,
    PiecewiseConstantIntensity,
    RebalancingPlan,
    aggregate_station_flows,
)
from fleetsizing.sizing import (
    SizingInfeasibleError,
    SizingRequest,
    _minimal_feasible,
    design_from_json,
    design_to_json,
    result_to_json,
    size_station_capacity,
    size_station_stock,
    size_system,
)
from fleetsizing.station_bound import station_failure_probability

from conftest import constant_profile, random_small_instance

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


def size_station_joint(profile, T, budget, v_cap=60, c_cap=60):
    """Exhaustive minimum of v + c subject to the budget (small stations only).

    Cross-check oracle for the two-stage search: scans totals in
    increasing order and returns the first feasible (v, c), preferring
    the smallest stock among equal totals.
    """
    for total in range(0, v_cap + c_cap + 1):
        for v in range(0, min(total // 2, v_cap) + 1):
            c = total - v
            if c < v or c > c_cap:
                continue
            if station_failure_probability(profile, v, c, T) <= budget:
                return v, c
    raise SizingInfeasibleError("no feasible (v, c) within the search caps")


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

    @given(
        lam_a=st.floats(0.0, 2.0),
        lam_d=st.floats(0.0, 2.0),
        T=st.floats(0.25, 2.0),
        budget=st.floats(0.005, 0.5),
        relocation=st.sampled_from(["none", "arrival", "departure"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_two_stage_design_is_feasible_and_no_smaller_than_joint_minimum(
        self, lam_a, lam_d, T, budget, relocation
    ):
        rho = (0.5 * T,)
        profile = constant_profile(
            lam_a,
            lam_d,
            T,
            rho_a=rho if relocation == "arrival" else (),
            rho_d=rho if relocation == "departure" else (),
        )
        v = size_station_stock(profile, T, 0.5 * budget)
        c, qf = size_station_capacity(profile, T, v, budget, return_failure=True)
        assert v <= c
        assert qf == station_failure_probability(profile, v, c, T)
        assert qf <= budget
        vj, cj = size_station_joint(profile, T, budget)
        assert vj + cj <= v + c


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

    @pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf])
    def test_horizon_must_be_finite(self, T):
        with pytest.raises(ValueError, match="sizing horizon T must be finite and positive"):
            SizingRequest(0.1, T)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_partition_entries_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="per-station budgets must be finite and positive"):
            SizingRequest(0.1, 1.0, partition=(0.1, bad))


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
            profile = aggregate_station_flows(model, plan)[i]
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


# --- the prefetching search against the one-candidate-at-a-time search ------


def reference_minimal_feasible(f, lo, hi, cap, budget, slack, what):
    """The bracket-doubling and bisection search, one f(n) per step.

    ``sizing._minimal_feasible`` must make the same reads and decisions
    and raise the same errors while evaluating candidates in batches.
    """
    if cap < 1:
        raise ValueError("search cap must be at least 1")
    prev = f(lo)
    if prev <= budget:
        return lo
    hi = min(max(hi, lo + 1), cap)
    f_hi = f(hi)
    while True:
        if f_hi > prev + slack:
            raise InvariantViolationError(
                f"{what}: failure probability rose from {prev:.6e} to {f_hi:.6e} "
                f"while growing the bracket to {hi}; expected non-increasing"
            )
        if f_hi <= budget:
            break
        if hi >= cap:
            raise SizingInfeasibleError(
                f"{what}: failure probability {f_hi:.3e} still exceeds budget "
                f"{budget:.3e} at search cap {cap}"
            )
        lo, prev = hi, f_hi
        hi = min(2 * hi, cap)
        f_hi = f(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(mid) <= budget:
            hi = mid
        else:
            lo = mid
    return hi


class NoValue(RuntimeError):
    """f is undefined at this candidate."""


class NotRead(RuntimeError):
    """The one-candidate search never read this candidate."""


def batched(f, evaluated):
    """f as a batch evaluator: exceptions become values; records every candidate."""

    def evaluate(ns):
        out = []
        for n in ns:
            assert n not in evaluated, f"candidate {n} evaluated twice"
            evaluated.append(n)
            try:
                out.append(f(n))
            except (NoValue, NotRead) as exc:
                out.append(exc)
        return out

    return evaluate


@contextmanager
def sizing_log():
    """Messages the sizing logger emits at DEBUG inside the block."""
    messages = []

    class Collect(logging.Handler):
        def emit(self, record):
            messages.append(record.getMessage())

    logger = logging.getLogger("fleetsizing.sizing")
    handler = Collect(logging.DEBUG)
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def outcome(call):
    try:
        return ("returns", call())
    except (ValueError, InvariantViolationError, SizingInfeasibleError, NoValue) as exc:
        return ("raises", type(exc), str(exc))


@st.composite
def searches(draw):
    """A search over a random integer -> float function on 0 .. size - 1."""
    size = draw(st.integers(2, 70))
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    if draw(st.booleans()):
        values.sort(reverse=True)  # non-increasing, as sizing assumes
    undefined = draw(st.sets(st.integers(0, size - 1), max_size=3))
    cap = draw(st.integers(1, size - 1))
    lo = draw(st.one_of(st.just(0), st.integers(0, size - 1)))
    hi = draw(st.integers(0, size - 1))
    budget = draw(st.one_of(st.sampled_from(values), st.floats(0.0, 1.0)))
    slack = draw(st.sampled_from([0.0, 1e-9, 0.05, 1.0]))

    def f(n):
        if n in undefined:
            raise NoValue(f"f is undefined at {n}")
        return values[n]

    return f, (lo, hi, cap, budget, slack, "test search")


class TestPrefetchingSearch:
    @given(searches())
    @settings(max_examples=400, deadline=None)
    def test_reads_and_outcome_match_the_one_candidate_search(self, case):
        f, args = case
        reads = []

        def traced(n):
            reads.append(n)
            return f(n)

        expected = outcome(lambda: reference_minimal_feasible(traced, *args))

        def only_reference_reads(n):
            if n not in reads:
                raise NotRead(f"the reference search never read {n}")
            return f(n)

        evaluated = []
        with sizing_log() as messages:
            got = outcome(lambda: _minimal_feasible(batched(only_reference_reads, evaluated), *args))
        if got[0] == "returns":
            n, value = got[1]
            assert value == f(n)
            got = ("returns", n)
        assert got == expected
        assert set(reads) <= set(evaluated)
        if messages:
            passes, columns, read = map(int, re.findall(r"\d+", messages[-1]))
            assert read == len(reads)
            assert columns == len(evaluated)
            assert passes <= read

    def test_lo_already_feasible_reads_only_lo(self):
        evaluated = []
        n, value = _minimal_feasible(
            batched(lambda n: 1.0 / (n + 1), evaluated), 3, 8, 100, 0.5, 0.0, "lo"
        )
        assert (n, value) == (3, 0.25)
        assert 3 in evaluated

    def test_search_cap_is_honoured_by_speculation(self):
        evaluated = []
        with pytest.raises(SizingInfeasibleError, match="at search cap 5"):
            _minimal_feasible(batched(lambda n: 1.0, evaluated), 0, 2, 5, 0.5, 0.0, "cap")
        assert max(evaluated) <= 5

    def test_speculative_failure_is_raised_only_when_read(self):
        def f(n):
            if n == 40:  # the next doubling, which a feasible bracket never reads
                raise NoValue("f is undefined at 40")
            return 1.0 if n < 7 else 0.0

        evaluated = []
        n, _ = _minimal_feasible(batched(f, evaluated), 0, 20, 1000, 0.5, 0.0, "spec")
        assert n == 7
        assert 40 in evaluated

    def test_one_pass_serves_several_reads(self):
        calls = []

        def evaluate(ns):
            calls.append(list(ns))
            return [1.0 if n < 13 else 0.0 for n in ns]

        with sizing_log() as messages:
            assert _minimal_feasible(evaluate, 0, 32, 1000, 0.5, 0.0, "few")[0] == 13
        assert len(calls) < 7  # the one-candidate search evaluates 7 times
        assert "candidates read" in messages[-1]


class TestBatchedSizingMatchesOneCandidateSearch:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.01, 0.05, 0.2]))
    @settings(max_examples=12, deadline=None)
    def test_designs_and_failures_are_bitwise_equal(self, seed, z):
        model, plan, _ = random_small_instance(np.random.default_rng(seed))
        T = model.horizon
        res = size_system(model, plan, SizingRequest(z, T))
        for i in range(model.k):
            profile = aggregate_station_flows(model, plan)[i]
            z_i = z / model.k
            tail = 1e-3 * 0.5 * z_i
            v = reference_minimal_feasible(
                lambda v: station_failure_probability(profile, v, None, T, tail_tolerance=tail),
                0,
                max(1, math.ceil(profile.lambda_d.integral(0.0, T))),
                1_000_000,
                0.5 * z_i,
                2.0 * tail,
                "stock sizing",
            )
            extra = reference_minimal_feasible(
                lambda e: station_failure_probability(profile, v, v + e, T),
                0,
                max(1, math.ceil(profile.lambda_a.integral(0.0, T))),
                1_000_000,
                z_i,
                1e-9,
                "capacity sizing",
            )
            assert (res.design.v[i], res.design.c[i]) == (v, v + extra)
            assert res.station_failure[i] == station_failure_probability(profile, v, v + extra, T)
        assert res.bound == sum(res.station_failure)

    def test_capacity_search_returns_the_failure_it_read(self):
        profile = constant_profile(1.3, 0.7, 2.0, rho_a=(0.5,), rho_d=(1.5,))
        v = size_station_stock(profile, 2.0, 0.005)
        c, qf = size_station_capacity(profile, 2.0, v, 0.01, return_failure=True)
        assert c == size_station_capacity(profile, 2.0, v, 0.01)
        assert qf == station_failure_probability(profile, v, c, 2.0)

    def test_debug_log_counts_passes_per_station(self):
        model = two_station_symmetric(rate=2.0)
        with sizing_log() as messages:
            size_system(model, RebalancingPlan(2, 1.0, {}), SizingRequest(0.02, 1.0))
        assert sum("station" in m and "v=" in m for m in messages) == 2
        assert sum(m.startswith("stock sizing:") for m in messages) == 2
        assert sum(m.startswith("capacity sizing:") for m in messages) == 2
