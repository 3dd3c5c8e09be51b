"""Per-station transient bound: closed forms, an expm oracle, MC cross-checks."""

import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetsizing import station_bound
from fleetsizing.model import (
    DemandModel,
    InvariantViolationError,
    PiecewiseConstantIntensity,
    RebalancingPlan,
    StationFlowProfile,
)
from fleetsizing.station_bound import (
    StationDistribution,
    _evolve,
    _evolve_columns,
    apply_jump,
    initial_distribution,
    station_failure_curve,
    station_failure_probabilities,
    station_failure_probability,
    station_transient,
    step_smooth,
    system_failure_upper_bound,
)

from conftest import (
    constant_profile,
    make_pci,
    mc_station_failure_fast,
    random_small_instance,
)

# frozen closed forms: Poisson tail probabilities at rate*t = 1
P_GE_1 = 0.6321205588285577  # 1 - e^-1
P_GE_2 = 0.26424111765711533  # 1 - 2 e^-1
P_GE_3 = 0.08030139707139416  # 1 - e^-1 (1 + 1 + 1/2)
P_GE_4 = 0.01898815687615385
P_GE_5 = 0.003659846827343771


class TestApplyJump:
    def test_departure_shifts_left_and_absorbs_empty_mass(self):
        dist = StationDistribution(np.array([0.2, 0.3, 0.5]), 0.0, 0.0)
        out = apply_jump(dist, "departure")
        assert np.allclose(out.q, [0.3, 0.5, 0.0])
        assert out.qF == pytest.approx(0.2)

    def test_arrival_shifts_right_and_absorbs_full_mass(self):
        dist = StationDistribution(np.array([0.2, 0.3, 0.5]), 0.0, 0.0)
        out = apply_jump(dist, "arrival")
        assert np.allclose(out.q, [0.0, 0.2, 0.3])
        assert out.qF == pytest.approx(0.5)

    def test_arrival_with_no_mass_at_capacity_absorbs_nothing(self):
        dist = StationDistribution(np.array([1.0, 0.0, 0.0]), 0.0, 0.0)
        out = apply_jump(dist, "arrival")
        assert np.allclose(out.q, [0.0, 1.0, 0.0])
        assert out.qF == 0.0

    def test_jump_preserves_total_mass(self, rng):
        q = rng.dirichlet(np.ones(6)) * 0.9
        dist = StationDistribution(q, 0.1, 0.0)
        for kind in ("arrival", "departure"):
            out = apply_jump(dist, kind)
            assert out.q.sum() + out.qF == pytest.approx(1.0, abs=1e-12)


class TestStepSmooth:
    def test_zero_rates_leave_distribution_unchanged(self):
        prof = constant_profile(0.0, 0.0, 1.0)
        dist = initial_distribution(2, 4)
        out = step_smooth(dist, prof, 0.0, 1.0)
        assert np.allclose(out.q, dist.q)
        assert out.qF == 0.0
        assert out.t == 1.0

    def test_empty_station_pure_departures(self):
        # every departure request fails immediately from stock 0
        prof = constant_profile(0.0, 1.0, 1.0)
        dist = step_smooth(initial_distribution(0, 5), prof, 0.0, 1.0)
        assert dist.qF == pytest.approx(P_GE_1, abs=1e-12)

    def test_pure_arrivals_fill_to_capacity(self):
        # failure iff at least 3 arrivals hit a 2-slot station
        prof = constant_profile(1.0, 0.0, 1.0)
        dist = step_smooth(initial_distribution(0, 2), prof, 0.0, 1.0)
        assert dist.qF == pytest.approx(P_GE_3, abs=1e-12)

    def test_matches_matrix_exponential(self, rng):
        lam_a, lam_d = 0.8, 1.3
        c = 5
        prof = constant_profile(lam_a, lam_d, 2.0)
        q0 = rng.dirichlet(np.ones(c + 1))
        dist = StationDistribution(q0.copy(), 0.0, 0.0)
        out = step_smooth(dist, prof, 0.0, 2.0)

        # independent route: dense generator over states 0..c plus failure
        n = c + 2
        G = np.zeros((n, n))
        for j in range(c + 1):
            G[j, j] = -(lam_a + lam_d)
            if j >= 1:
                G[j - 1, j] += lam_d
            else:
                G[c + 1, j] += lam_d
            if j <= c - 1:
                G[j + 1, j] += lam_a
            else:
                G[c + 1, j] += lam_a
        p0 = np.concatenate([q0, [0.0]])
        p1 = scipy.linalg.expm(G * 2.0) @ p0
        assert np.allclose(out.q, p1[:-1], atol=1e-10)
        assert out.qF == pytest.approx(p1[-1], abs=1e-10)

    def test_long_piece_is_split_internally(self):
        # rate * length far beyond one uniformization step still conserves mass
        prof = constant_profile(40.0, 40.0, 10.0)
        out = step_smooth(initial_distribution(3, 6), prof, 0.0, 10.0)
        assert out.q.sum() + out.qF == pytest.approx(1.0, abs=1e-9)
        assert out.qF > 0.99  # heavy traffic on a tiny station almost surely fails


class TestStationFailureProbability:
    def test_pure_death_from_empty(self):
        prof = constant_profile(0.0, 1.0, 1.0)
        assert station_failure_probability(prof, 0, 5, 1.0) == pytest.approx(
            P_GE_1, abs=1e-12
        )

    def test_poisson_tail_with_unbounded_capacity(self):
        prof = constant_profile(0.0, 1.0, 1.0)
        assert station_failure_probability(prof, 4, None, 1.0) == pytest.approx(
            P_GE_5, rel=1e-9
        )
        assert station_failure_probability(prof, 3, None, 1.0) == pytest.approx(
            P_GE_4, rel=1e-9
        )

    def test_against_station_monte_carlo(self):
        prof = constant_profile(1.0, 1.0, 1.0, rho_d=(0.5,))
        exact = station_failure_probability(prof, 1, 1, 1.0)
        p_hat, stderr = mc_station_failure_fast(prof, 1, 1, 1.0, 10**6, seed=42)
        assert abs(p_hat - exact) <= 3.0 * stderr

    def test_stock_above_capacity_rejected(self):
        prof = constant_profile(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            station_failure_probability(prof, 3, 2, 1.0)

    def test_horizon_overrun_rejected(self):
        prof = constant_profile(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            station_failure_probability(prof, 1, 2, 1.5)

    def test_truncation_tolerance_is_respected(self):
        prof = constant_profile(2.0, 0.5, 4.0)
        loose = station_failure_probability(prof, 2, None, 4.0, tail_tolerance=1e-6)
        tight = station_failure_probability(prof, 2, None, 4.0, tail_tolerance=1e-12)
        assert abs(loose - tight) < 1e-6

    def test_failure_curve_non_decreasing(self, rng):
        prof = StationFlowProfile(
            make_pci(rng, 2.0), make_pci(rng, 2.0), (0.7,), (1.3,)
        )
        times = np.linspace(0.1, 2.0, 25)
        curve = station_failure_curve(prof, 1, 3, times)
        assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))

    def test_transient_conserves_mass_everywhere(self, rng):
        prof = StationFlowProfile(
            make_pci(rng, 2.0), make_pci(rng, 2.0), (0.4, 1.1), (0.9,)
        )
        times = np.linspace(0.05, 2.0, 20)
        q, qF = station_transient(prof, 2, 4, times)
        total = q.sum(axis=1) + qF
        assert np.all(np.abs(total - 1.0) < 1e-9)
        assert np.all(np.diff(qF) >= -1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_mass_conservation_on_random_profiles(self, seed):
        r = np.random.default_rng(seed)
        prof = StationFlowProfile(
            make_pci(r, 2.0),
            make_pci(r, 2.0),
            tuple(sorted(r.uniform(0.1, 1.9, r.integers(0, 3)))),
            tuple(sorted(r.uniform(0.1, 1.9, r.integers(0, 3)))),
        )
        c = int(r.integers(1, 5))
        v = int(r.integers(0, c + 1))
        times = np.linspace(0.2, 2.0, 7)
        q, qF = station_transient(prof, v, c, times)
        assert np.all(np.abs(q.sum(axis=1) + qF - 1.0) < 1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_more_stock_never_hurts_when_parking_is_unbounded(self, seed):
        r = np.random.default_rng(seed)
        prof = StationFlowProfile(make_pci(r, 1.5), make_pci(r, 1.5), (), ())
        qfs = [
            station_failure_probability(prof, v, None, 1.5, tail_tolerance=1e-12)
            for v in range(5)
        ]
        assert all(b <= a + 1e-10 for a, b in zip(qfs, qfs[1:]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_more_parking_never_hurts_at_fixed_stock(self, seed):
        r = np.random.default_rng(seed)
        prof = StationFlowProfile(make_pci(r, 1.5), make_pci(r, 1.5), (), ())
        v = int(r.integers(0, 3))
        qfs = [station_failure_probability(prof, v, c, 1.5) for c in range(v, v + 5)]
        assert all(b <= a + 1e-10 for a, b in zip(qfs, qfs[1:]))


class TestSystemBound:
    def test_sum_over_identical_stations(self):
        pci = PiecewiseConstantIntensity.constant(0.4, 1.0)
        m = DemandModel(2, {(1, 2): pci, (2, 1): pci}, ((0.0, 0.0), (0.0, 0.0)), 1.0)
        plan = RebalancingPlan.empty(2, 1.0)
        from fleetsizing.model import aggregate_station_flows

        per_station = station_failure_probability(
            aggregate_station_flows(m, plan, 1), 1, 2, 1.0
        )
        from fleetsizing.model import SystemDesign

        bound = system_failure_upper_bound(m, plan, SystemDesign((1, 1), (2, 2)), 1.0)
        assert bound == pytest.approx(2.0 * per_station, rel=1e-12)

    def test_zero_demand_zero_bound(self):
        from fleetsizing.model import SystemDesign

        m = DemandModel(3, {}, tuple(tuple(0.0 for _ in range(3)) for _ in range(3)), 1.0)
        bound = system_failure_upper_bound(
            m, RebalancingPlan.empty(3, 1.0), SystemDesign((1, 1, 1), (2, 2, 2)), 1.0
        )
        assert bound == 0.0

    def test_bound_is_reported_unclamped(self):
        # heavy symmetric traffic on tiny stations: each qF near 1, sum near k
        pci = PiecewiseConstantIntensity.constant(5.0, 2.0)
        pairs = {(o, d): pci for o in range(1, 4) for d in range(1, 4) if o != d}
        m = DemandModel(3, pairs, tuple(tuple(0.0 for _ in range(3)) for _ in range(3)), 2.0)
        from fleetsizing.model import SystemDesign

        bound = system_failure_upper_bound(
            m, RebalancingPlan.empty(3, 2.0), SystemDesign((0, 0, 0), (1, 1, 1)), 2.0
        )
        assert bound > 1.0


def random_profile(r, horizon, max_rate=8.0):
    """Piecewise-constant rates, either stream possibly silent, with relocations."""

    def rate():
        if r.random() < 0.2:
            return PiecewiseConstantIntensity.zero(horizon)
        return make_pci(r, horizon, max_rate=max_rate, max_pieces=4)

    def instants():
        return tuple(sorted(np.round(r.uniform(0.05, 0.95 * horizon, r.integers(0, 4)), 6)))

    return StationFlowProfile(rate(), rate(), instants(), instants())


def outcome(call):
    try:
        return ("returns", call())
    except InvariantViolationError as exc:
        return ("raises", str(exc))


class TestColumnKernel:
    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_every_column_is_bitwise_the_one_column_evolve(self, seed, cap_absorbs):
        r = np.random.default_rng(seed)
        horizon = float(r.choice([1.0, 4.0]))  # rate * piece length up past a substep
        prof = random_profile(r, horizon, max_rate=float(r.choice([3.0, 25.0])))
        jumps = prof.rho_a + prof.rho_d
        T = float(r.choice([horizon, r.uniform(0.1, horizon), *jumps]))
        m = int(r.integers(1, 8))
        tops = r.integers(0, 14, m)
        starts = [int(r.integers(0, top + 1)) for top in tops]
        q, qF, lost, errors = _evolve_columns(prof, starts, tops, T, cap_absorbs)
        assert errors == [None] * m
        for i, (v, top) in enumerate(zip(starts, tops)):
            q1, qF1, lost1, _ = _evolve(prof, v, int(top), T, cap_absorbs)
            assert qF[i] == qF1
            assert lost[i] == lost1
            assert np.array_equal(q[i, : top + 1], q1)
            assert not q[i, top + 1 :].any()

    def test_piece_check_failure_is_the_one_column_error(self):
        prof = constant_profile(2.0, 1.0, 1.0, rho_a=(0.5,))
        with mock.patch.object(station_bound, "_MASS_TOL", 0.0):
            _, _, _, errors = _evolve_columns(prof, [0, 1], [1, 3], 1.0, True)
            for error, (v, c) in zip(errors, [(0, 1), (1, 3)]):
                with pytest.raises(InvariantViolationError) as one_column:
                    _evolve(prof, v, c, 1.0, True)
                assert str(error) == str(one_column.value)


class TestStationFailureProbabilities:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_each_entry_is_the_one_start_result(self, seed):
        r = np.random.default_rng(seed)
        prof = random_profile(r, 2.0)
        n = int(r.integers(1, 9))
        vs = [int(x) for x in r.integers(0, 10, n)]
        cs = [None if r.random() < 0.5 else v + int(r.integers(0, 8)) for v in vs]
        tail = float(r.choice([1e-3, 1e-9]))
        # small first truncations and a low doubling limit, so that columns
        # double different numbers of times and some run out of room; a low
        # cell limit splits the batch into several passes
        with mock.patch.object(station_bound, "_unbounded_start", lambda p, v, T: v + 1), \
                mock.patch.object(station_bound, "_MAX_TRUNCATION", 20), \
                mock.patch.object(station_bound, "_MAX_BATCH_CELLS", int(r.choice([40, 1 << 21]))):
            got = station_failure_probabilities(prof, vs, cs, 2.0, tail_tolerance=tail)
            for v, c, value in zip(vs, cs, got):
                one = outcome(
                    lambda: station_failure_probability(prof, v, c, 2.0, tail_tolerance=tail)
                )
                if isinstance(value, InvariantViolationError):
                    assert one == ("raises", str(value))
                else:
                    assert one == ("returns", value)

    def test_truncation_limit_fails_only_its_column(self):
        prof = constant_profile(6.0, 0.5, 2.0)
        with mock.patch.object(station_bound, "_unbounded_start", lambda p, v, T: v + 1), \
                mock.patch.object(station_bound, "_MAX_TRUNCATION", 10):
            finite, unlimited = station_failure_probabilities(prof, [2, 2], [4, None], 2.0)
        assert finite == station_failure_probability(prof, 2, 4, 2.0)
        assert isinstance(unlimited, InvariantViolationError)
        assert "grew unreasonably" in str(unlimited)

    def test_invalid_start_is_rejected_up_front(self):
        prof = constant_profile(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            station_failure_probabilities(prof, [1, 3], [2, 2], 1.0)
        with pytest.raises(ValueError):
            station_failure_probabilities(prof, [1], [None], 1.0, tail_tolerance=0.0)
