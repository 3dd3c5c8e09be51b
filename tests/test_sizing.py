"""Fleet and capacity sizing against per-station failure budgets."""

import logging
import math
import re
from contextlib import contextmanager, suppress
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetsizing import sizing, station_bound
from fleetsizing.model import (
    DemandModel,
    InvariantViolationError,
    RebalancingPlan,
    aggregate_station_flows,
)
from fleetsizing.sizing import (
    SizingInfeasibleError,
    SizingRequest,
    _minimal_feasible,
    design_from_json,
    result_to_json,
    size_station_capacity,
    size_station_stock,
    size_system,
)
from fleetsizing.station_bound import station_failure_probability

from conftest import (
    constant_profile,
    design_to_json,
    profile_rates,
    random_small_instance,
    reference_integral,
)

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
        c = size_station_capacity(profile, T, v, budget)
        assert v <= c
        assert station_failure_probability(profile, v, c, T) <= budget
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

    @pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf])
    def test_horizon_must_be_finite(self, T):
        with pytest.raises(ValueError, match="sizing horizon T must be finite and positive"):
            SizingRequest(0.1, T)


def two_station_symmetric(rate=1.0, horizon=1.0):
    lam = ((0.0,), (rate,))
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
        lam = ((0.0,), (2.0,))
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


# --- the predicted search against the one-candidate-at-a-time search -------


def reference_minimal_feasible(f, lo, hi, cap, budget, slack, what):
    """The bracket-doubling and bisection search, one f(n) per step.

    ``sizing._minimal_feasible`` must make the same reads and decisions
    and raise the same errors while evaluating the candidates a
    prediction picks in one batch.
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


def reference_stock(profile, T, budget):
    """The stock stage as the one-candidate forward search."""
    tail = 1e-3 * budget
    return reference_minimal_feasible(
        lambda v: station_failure_probability(profile, v, None, T, tail_tolerance=tail),
        0,
        max(1, math.ceil(reference_integral(profile_rates(profile)[1], 0.0, T))),
        1_000_000,
        budget,
        2.0 * tail,
        "stock sizing",
    )


class NoValue(RuntimeError):
    """f is undefined at this candidate."""


class NotRead(RuntimeError):
    """The one-candidate search never read this candidate."""


class NoGuess(RuntimeError):
    """The prediction has no guess at this candidate."""


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
    """A search over a random integer -> float function on 0 .. size - 1, and a prediction.

    The prediction is none, exact, wrong at a few candidates, or without a
    guess from some candidate on.
    """
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

    kind = draw(st.sampled_from(["none", "exact", "perturbed", "raising"]))
    guesses = list(values)
    if kind == "perturbed":
        wrong = draw(st.dictionaries(st.integers(0, size - 1), st.floats(0.0, 1.0), min_size=1))
        guesses = [wrong.get(n, value) for n, value in enumerate(values)]
    no_guess_from = draw(st.integers(0, size)) if kind == "raising" else size

    def predict(n):
        if n >= no_guess_from:
            raise NoGuess(f"no guess at {n}")
        return guesses[n]

    return f, None if kind == "none" else predict, (lo, hi, cap, budget, slack, "test search")


class TestPrefetchingSearch:
    @given(searches())
    @settings(max_examples=400, deadline=None)
    def test_reads_and_outcome_match_the_one_candidate_search(self, case):
        f, predict, args = case
        reads = []

        def traced(n):
            reads.append(n)
            return f(n)

        expected = outcome(lambda: reference_minimal_feasible(traced, *args))
        path = []  # what the one-candidate search on the guesses reads, up to any error
        if predict is not None:
            def guessed(n):
                path.append(n)
                return predict(n)

            with suppress(Exception):
                reference_minimal_feasible(guessed, *args)

        def only_reference_reads(n):
            if n not in reads:
                raise NotRead(f"the reference search never read {n}")
            return f(n)

        evaluated = []
        with sizing_log() as messages:
            got = outcome(lambda: _minimal_feasible(
                batched(only_reference_reads, evaluated), *args, predict=predict))
        if got[0] == "returns":
            n, value = got[1]
            assert value == f(n)
            got = ("returns", n)
        assert got == expected
        assert sorted(evaluated) == sorted(set(path) | set(reads))
        passes, columns, read = map(int, re.findall(r"\d+", messages[-1]))
        assert read == len(reads)
        assert columns == len(evaluated)
        # one pass for the predicted path, one for each read off it
        assert passes == bool(path) + len(set(reads) - set(path))

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
            _minimal_feasible(
                batched(lambda n: 1.0, evaluated), 0, 2, 5, 0.5, 0.0, "cap", predict=lambda n: 1.0
            )
        assert max(evaluated) <= 5

    def test_speculative_failure_is_raised_only_when_read(self):
        def f(n):
            if n == 40:  # a doubling only the predicted search reads
                raise NoValue("f is undefined at 40")
            return 1.0 if n < 7 else 0.0

        evaluated = []
        n, _ = _minimal_feasible(
            batched(f, evaluated), 0, 20, 1000, 0.5, 0.0, "spec",
            predict=lambda n: 1.0 if n < 33 else 0.0,
        )
        assert n == 7
        assert 40 in evaluated

    def test_one_pass_serves_several_reads(self):
        calls = []

        def f(n):
            return 1.0 if n < 13 else 0.0

        def evaluate(ns):
            calls.append(list(ns))
            return [f(n) for n in ns]

        with sizing_log() as messages:
            assert _minimal_feasible(evaluate, 0, 32, 1000, 0.5, 0.0, "few", predict=f)[0] == 13
        assert len(calls) == 1  # an exact prediction; the one-candidate search evaluates 7 times
        assert messages[-1] == "few: 1 evaluation passes, 7 candidates evaluated, 7 candidates read"


def assert_one_candidate_design(model, plan, z, with_delay):
    """size_system matches the one-candidate forward searches, bitwise."""
    T = model.horizon
    res = size_system(model, plan, SizingRequest(z, T), with_delay=with_delay)
    for i in range(model.k):
        profile = aggregate_station_flows(model, plan, with_delay=with_delay)[i]
        z_i = z / model.k
        v = reference_stock(profile, T, 0.5 * z_i)
        extra = reference_minimal_feasible(
            lambda e: station_failure_probability(profile, v, v + e, T),
            0,
            max(1, math.ceil(reference_integral(profile_rates(profile)[0], 0.0, T))),
            1_000_000,
            z_i,
            1e-9,
            "capacity sizing",
        )
        assert (res.design.v[i], res.design.c[i]) == (v, v + extra)
        assert res.station_failure[i] == station_failure_probability(profile, v, v + extra, T)
    assert res.bound == sum(res.station_failure)


def capacity_passes(messages):
    return [int(re.match(r"capacity sizing: (\d+) evaluation passes", m)[1])
            for m in messages if m.startswith("capacity sizing:")]


class TestBatchedSizingMatchesOneCandidateSearch:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.01, 0.05, 0.2]), st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_designs_and_failures_are_bitwise_equal(self, seed, z, with_delay):
        model, plan, _ = random_small_instance(np.random.default_rng(seed))
        assert_one_candidate_design(model, plan, z, with_delay)

    def test_a_wrong_capacity_prediction_costs_passes_not_the_design(self):
        sweep = station_bound.availability_failure_sweep

        def overstated(profile, reach, T):
            # more escape than the truth only widens the stock screen's
            # intervals, but it raises every capacity prediction
            fail, lost, terms = sweep(profile, reach, T)
            return fail, np.sqrt(lost), terms

        model, plan, _ = random_small_instance(np.random.default_rng(3))
        with mock.patch.object(sizing, "availability_failure_sweep", overstated), \
                sizing_log() as messages:
            assert_one_candidate_design(model, plan, 0.05, True)
        assert max(capacity_passes(messages)) > 1

    def test_capacity_search_returns_the_failure_it_read(self):
        profile = constant_profile(1.3, 0.7, 2.0, rho_a=(0.5,), rho_d=(1.5,))
        v = size_station_stock(profile, 2.0, 0.005)
        c = size_station_capacity(profile, 2.0, v, 0.01)
        assert c > v
        assert station_failure_probability(profile, v, c, 2.0) <= 0.01
        assert station_failure_probability(profile, v, c - 1, 2.0) > 0.01

    def test_debug_log_counts_passes_per_station(self):
        model = two_station_symmetric(rate=2.0)
        with sizing_log() as messages:
            size_system(model, RebalancingPlan(2, 1.0, {}), SizingRequest(0.02, 1.0))
        stations = [m for m in messages if m.startswith("station ")]
        assert len(stations) == 2
        for line in stations:
            assert re.fullmatch(
                r"station \d: v=\d+ c=\d+ qf=\S+ stock_s=\d+\.\d{4} capacity_s=\d+\.\d{4}", line
            )
        assert sum(m.startswith("stock sizing:") for m in messages) == 2
        # the stock stage's sweep predicts each capacity search's path
        assert capacity_passes(messages) == [1, 1]


# --- the stock stage: screened by one backward sweep, else the forward search --


def stock_lines(messages):
    return [m for m in messages if m.startswith("stock sizing:")]


def tabled_station(fail, lost, forward):
    """Patches that make the sweep return (fail, lost) and the forward search read ``forward``."""

    def sweep(profile, reach, T):
        return np.array(fail), np.array(lost), 0

    def probabilities(profile, vs, cs, T, tail_tolerance):
        return [forward[v] for v in vs]

    return (mock.patch.object(sizing, "availability_failure_sweep", sweep),
            mock.patch.object(sizing, "station_failure_probabilities", probabilities))


# no random arrivals, so nothing escapes any truncation and each forward
# value is the same whatever the tail tolerance
DEPARTURES = constant_profile(0.0, 1.5, 2.0, rho_a=(0.5,), rho_d=(1.0, 1.5))


class TestScreenedStockStage:
    def test_a_certain_station_runs_no_forward_pass(self):
        with sizing_log() as messages:
            assert size_station_stock(constant_profile(0.0, 1.0, 1.0), 1.0, 0.005) == 4
        (line,) = stock_lines(messages)
        assert re.fullmatch(
            r"stock sizing: 1 backward sweeps to top 18, \d+ kernel terms; "
            r"every read certain, no forward pass",
            line,
        )

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_budget_equal_to_a_forward_value_takes_the_forward_path(self, offset):
        v = reference_stock(DEPARTURES, 2.0, 0.002)
        budget = station_failure_probability(DEPARTURES, v + offset, None, 2.0)
        with sizing_log() as messages:
            got = size_station_stock(DEPARTURES, 2.0, budget)
        assert got == reference_stock(DEPARTURES, 2.0, budget)
        first, forward = stock_lines(messages)
        assert "forward fallback (_Uncertain: screened value" in first
        assert "evaluation passes" in forward

    @given(st.integers(0, 2**32 - 1), st.integers(-1, 0))
    @settings(max_examples=10, deadline=None)
    def test_budget_at_a_forward_value_of_a_random_station(self, seed, offset):
        model, plan, _ = random_small_instance(np.random.default_rng(seed))
        profile = aggregate_station_flows(model, plan, with_delay=True)[0]
        T = model.horizon
        v = reference_stock(profile, T, 0.005)
        if v + offset < 0:
            return
        # the budget's own tail tolerance, so the budget is the forward value
        # the search will read
        budget = 0.005
        for _ in range(4):
            budget = station_failure_probability(
                profile, v + offset, None, T, tail_tolerance=1e-3 * budget
            )
            if not 0.0 < budget < 1.0:
                return
        assert size_station_stock(profile, T, budget) == reference_stock(profile, T, budget)

    def test_a_broken_sweep_check_takes_the_forward_path(self):
        profile = constant_profile(0.4, 1.0, 1.0, rho_d=(0.5,))
        with mock.patch.object(station_bound, "NEG_CLIP", 2.0), sizing_log() as messages:
            got = size_station_stock(profile, 1.0, 0.005)
        assert got == reference_stock(profile, 1.0, 0.005)
        assert "forward fallback (InvariantViolationError: backward sweep left" in stock_lines(messages)[0]

    def test_reads_beyond_the_top_re_run_the_sweep_higher(self):
        profile = constant_profile(0.0, 1.0, 1.0)
        with mock.patch.object(station_bound, "_unbounded_start", lambda arrivals, v: v + 1), \
                sizing_log() as messages:
            assert size_station_stock(profile, 1.0, 0.005) == 4
        (line,) = stock_lines(messages)
        assert line.startswith("stock sizing: 2 backward sweeps to top 5,")
        assert line.endswith("no forward pass")

    def test_reads_whose_top_lets_tail_escape_re_run_the_sweep_higher(self):
        # arrivals push start 1 past a top of 3 far more often than the tail
        profile = constant_profile(3.0, 1.0, 1.0)
        with mock.patch.object(station_bound, "_unbounded_start", lambda arrivals, v: v + 1), \
                sizing_log() as messages:
            got = size_station_stock(profile, 1.0, 0.005)
        assert got == reference_stock(profile, 1.0, 0.005)
        (line,) = stock_lines(messages)
        assert not line.startswith("stock sizing: 1 backward sweeps")
        assert line.endswith("no forward pass")

    def test_errors_come_from_the_forward_search(self):
        profile = constant_profile(0.0, 40.0, 1.0)
        with pytest.raises(SizingInfeasibleError, match=r"^stock sizing: .* at search cap 3$"):
            size_station_stock(profile, 1.0, 1e-6, search_cap=3)
        with pytest.raises(ValueError, match="search cap must be at least 1"):
            size_station_stock(profile, 1.0, 1e-6, search_cap=0)
        with pytest.raises(ValueError, match="outside intensity domain"):
            size_station_stock(profile, 1.5, 1e-3)

    def test_a_monotonicity_violation_raises_the_forward_message(self):
        # a station whose values rise with the stock, on both paths
        rising = [0.5 + 0.01 * n for n in range(40)]
        sweep, probabilities = tabled_station(rising, [0.0] * 40, rising)
        with sweep, probabilities:
            with pytest.raises(InvariantViolationError, match=r"^stock sizing: failure probability rose"):
                size_station_stock(constant_profile(0.0, 2.0, 1.0), 1.0, 0.01)


BUDGET, TAIL = 0.01, 1e-5  # the stock stage's tail is 1e-3 of its budget
FALLING = [min(1.0, 0.02 * 0.8 ** (n - 3)) for n in range(40)]  # crosses BUDGET between 6 and 7
FLAT = [0.5] * 16 + FALLING[16:]


def nudged_at(values, n, to):
    out = list(values)
    out[n] = to
    return out


class TestScreenedReadsAreCertifiedAgainstTheForwardValue:
    """The sweep's (fail, lost) bound each forward value to [fail - tail, fail + lost].

    In each case the forward values stay inside those bounds but decide one
    read differently from the screened value, so the stage must notice
    the read is uncertain and return the forward search's stock.
    """

    @pytest.mark.parametrize(
        "fail, lost, forward",
        [
            # escape through the sweep's top may lift start 7 over the budget
            pytest.param(nudged_at(FALLING, 7, BUDGET - TAIL / 2), nudged_at([0.0] * 40, 7, 0.9 * TAIL),
                         nudged_at(FALLING, 7, BUDGET + TAIL / 4), id="lost"),
            # a taller forward top may leave start 6 under the budget
            pytest.param(nudged_at(FALLING, 6, BUDGET + TAIL / 2), [0.0] * 40,
                         nudged_at(FALLING, 6, BUDGET - TAIL / 4), id="tail"),
            # the second bracket top (16) may rise over the first (8) by
            # more than the slack (2 tail): the first may be read a tail lower
            pytest.param(nudged_at(FLAT, 16, 0.5 + 2 * TAIL - 1e-7), [0.0] * 40,
                         nudged_at(nudged_at(FLAT, 16, 0.5 + 2 * TAIL - 1e-7), 8, 0.5 - 0.9 * TAIL),
                         id="slack"),
        ],
    )
    def test_an_uncertain_read_takes_the_forward_path(self, fail, lost, forward):
        profile = constant_profile(0.0, 8.0, 1.0)  # the search's first bracket is [0, 8]
        sweep, probabilities = tabled_station(fail, lost, forward)
        expected = outcome(lambda: reference_minimal_feasible(
            forward.__getitem__, 0, 8, 1_000_000, BUDGET, 2.0 * TAIL, "stock sizing"))
        with sweep, probabilities, sizing_log() as messages:
            got = outcome(lambda: size_station_stock(profile, 1.0, BUDGET))
        assert got == expected
        assert "forward fallback (_Uncertain" in stock_lines(messages)[0]
        # the screened values alone would have decided otherwise
        screened = outcome(lambda: reference_minimal_feasible(
            fail.__getitem__, 0, 8, 1_000_000, BUDGET, 2.0 * TAIL, "stock sizing"))
        assert screened != expected

    def test_an_exact_prediction_takes_one_forward_pass(self):
        # start 7's escape makes its screened read uncertain, but the forward
        # values are the sweep's, so the forward search's prediction is exact
        fail = nudged_at(FALLING, 7, BUDGET - TAIL / 2)
        sweep, probabilities = tabled_station(fail, nudged_at([0.0] * 40, 7, 0.9 * TAIL), fail)
        with sweep, probabilities, sizing_log() as messages:
            assert size_station_stock(constant_profile(0.0, 8.0, 1.0), 1.0, BUDGET) == 7
        first, forward = stock_lines(messages)
        assert "forward fallback (_Uncertain" in first
        assert forward == "stock sizing: 1 evaluation passes, 5 candidates evaluated, 5 candidates read"
