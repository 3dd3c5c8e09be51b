"""Per-station transient bound: closed forms, an expm oracle, MC cross-checks."""

import math
import re
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
    RebalancingPlan,
)
from fleetsizing.station_bound import (
    _evolve_columns,
    availability_failure_sweep,
    station_failure_curve,
    station_failure_probabilities,
    station_failure_probability,
    station_transient,
    system_failure_upper_bound,
)
from fleetsizing.uniformization import uniformize

from conftest import (
    Rate,
    constant_profile,
    make_rate,
    mc_station_failure_fast,
    profile_of,
    profile_rates,
    random_small_instance,
    value_at,
)

# frozen closed forms: Poisson tail probabilities at rate*t = 1
P_GE_1 = 0.6321205588285577  # 1 - e^-1
P_GE_2 = 0.26424111765711533  # 1 - 2 e^-1
P_GE_3 = 0.08030139707139416  # 1 - e^-1 (1 + 1 + 1/2)
P_GE_4 = 0.01898815687615385
P_GE_5 = 0.003659846827343771


# --- one-column reference -----------------------------------------------------
#
# The evolution as it was written before the column kernel: one start, one
# Poisson series per piece with freshly allocated terms, and its own event
# schedule.  The column kernel must reproduce it bitwise.

REF_POISSON_TAIL = 1e-13
REF_MAX_RATE_STEP = 30.0
REF_NEG_CLIP = -1e-12


def reference_advance(q, qF, lost, lam_a, lam_d, dt, cap_absorbs):
    """Propagate (q, qF, lost) over dt hours of constant rates."""
    lam = lam_a + lam_d
    if lam == 0.0 or dt == 0.0:
        return q, qF, lost
    pa = lam_a / lam
    pd = lam_d / lam
    n_sub = max(1, math.ceil(lam * dt / REF_MAX_RATE_STEP))
    x = lam * (dt / n_sub)
    for _ in range(n_sub):
        cur, cur_f, cur_l = q, qF, lost
        w = math.exp(-x)
        acc = w * cur
        acc_f = w * cur_f
        acc_l = w * cur_l
        wsum = w
        n = 0
        while wsum < 1.0 - REF_POISSON_TAIL:
            n += 1
            nxt = np.zeros_like(cur)
            if pa:
                nxt[1:] += pa * cur[:-1]
            if pd:
                nxt[:-1] += pd * cur[1:]
            top_flux = pa * cur[-1]
            nxt_f = cur_f + pd * cur[0] + (top_flux if cap_absorbs else 0.0)
            nxt_l = cur_l + (0.0 if cap_absorbs else top_flux)
            w *= x / n
            acc += w * nxt
            acc_f += w * nxt_f
            acc_l += w * nxt_l
            wsum += w
            cur, cur_f, cur_l = nxt, nxt_f, nxt_l
        rem = 1.0 - wsum
        q = acc + rem * cur
        qF = acc_f + rem * cur_f
        lost = acc_l + rem * cur_l
    return q, qF, lost


def reference_guard(q, qF, lost, where, mass_tol):
    """Clamp rounding negatives and verify mass conservation per piece."""
    if q.min() < 0.0:
        if q.min() <= REF_NEG_CLIP:
            raise InvariantViolationError(f"negative probability {q.min():.3e} {where}")
        q = np.maximum(q, 0.0)
        total = q.sum() + qF + lost
        q = q / total
        qF /= total
        lost /= total
    drift = abs(q.sum() + qF + lost - 1.0)
    if drift >= mass_tol:
        raise InvariantViolationError(f"probability mass drifted by {drift:.3e} {where}")
    return q, qF, lost


def reference_arrival(q, qF, lost, cap_absorbs):
    out = np.empty_like(q)
    out[0] = 0.0
    out[1:] = q[:-1]
    top = q[-1]
    if cap_absorbs:
        return out, qF + top, lost
    return out, qF, lost + top


def reference_departure(q, qF, lost):
    out = np.empty_like(q)
    out[-1] = 0.0
    out[:-1] = q[1:]
    return out, qF + q[0], lost


def reference_evolve(profile, v, c_eff, T, cap_absorbs, record_times=(), mass_tol=1e-9):
    """Run one station from its point-mass start to T.

    Returns (q, qF, lost, recorded) with one (q copy, qF) per record time;
    record times coinciding with an event see the post-event state.
    """
    lambda_a, lambda_d = profile_rates(profile)
    bps = sorted(set(lambda_a.breakpoints) | set(lambda_d.breakpoints))
    schedule = [(t, 0, None) for t in bps if 0.0 < t <= T]
    schedule += [(t, 1, None) for t in profile.rho_a if t <= T]
    schedule += [(t, 2, None) for t in profile.rho_d if t <= T]
    schedule += [(min(t, T), 3, idx) for idx, t in enumerate(record_times)]
    schedule.sort(key=lambda e: (e[0], e[1]))

    q = np.zeros(c_eff + 1)
    q[v] = 1.0
    qF = 0.0
    lost = 0.0
    t = 0.0
    recorded = [None] * len(record_times)

    def run_to(t_next):
        nonlocal q, qF, lost, t
        if t_next > t:
            la = value_at(lambda_a, 0.5 * (t + t_next))
            ld = value_at(lambda_d, 0.5 * (t + t_next))
            q, qF, lost = reference_advance(q, qF, lost, la, ld, t_next - t, cap_absorbs)
            q, qF, lost = reference_guard(q, qF, lost, f"at t={t_next}", mass_tol)
            t = t_next

    for ev_t, rank, payload in schedule:
        run_to(ev_t)
        if rank == 1:
            q, qF, lost = reference_arrival(q, qF, lost, cap_absorbs)
        elif rank == 2:
            q, qF, lost = reference_departure(q, qF, lost)
        elif rank == 3:
            recorded[payload] = (q.copy(), qF)
    run_to(T)
    return q, qF, lost, recorded


# --- relocation jumps and the uniformization step ----------------------------


def around_relocations(v, c, rho_a=(), rho_d=()):
    """(q, qF) at t=1.2 and t=1.8 around relocations at t=1.5; rates stop at t=1."""
    rate = Rate((0.0, 1.0), (1.5, 0.0), 2.0)
    q, qF = station_transient(profile_of(rate, rate, rho_a, rho_d), v, c, [1.2, 1.8])
    return (q[0], qF[0]), (q[1], qF[1])


class TestApplyJump:
    def test_departure_shifts_left_and_absorbs_empty_mass(self):
        (q, qF), (out, outF) = around_relocations(1, 2, rho_d=(1.5,))
        assert q.min() > 0.0
        assert np.array_equal(out, [q[1], q[2], 0.0])
        assert outF == qF + q[0]

    def test_arrival_shifts_right_and_absorbs_full_mass(self):
        (q, qF), (out, outF) = around_relocations(1, 2, rho_a=(1.5,))
        assert q.min() > 0.0
        assert np.array_equal(out, [0.0, q[0], q[1]])
        assert outF == qF + q[2]

    def test_arrival_with_no_mass_at_capacity_absorbs_nothing(self):
        prof = constant_profile(0.0, 0.0, 1.0, rho_a=(0.5,))
        q, qF = station_transient(prof, 0, 2, [1.0])
        assert np.array_equal(q[0], [0.0, 1.0, 0.0])
        assert qF[0] == 0.0

    def test_jump_preserves_total_mass(self):
        for kind in ("rho_a", "rho_d"):
            for jumps in [(1.5,), (1.5, 1.5), (1.5, 1.5, 1.5)]:
                (q, qF), (out, outF) = around_relocations(2, 4, **{kind: jumps})
                assert q.sum() + qF == pytest.approx(1.0, abs=1e-12)
                assert out.sum() + outF == pytest.approx(1.0, abs=1e-12)


def birth_death_kernel(lam_a, lam_d):
    """(rate, kernel) of one station on ``[q_0 .. q_c, qF]``, full and empty failing."""
    lam = lam_a + lam_d
    pa, pd = (lam_a / lam, lam_d / lam) if lam else (0.0, 0.0)

    def kernel(cur, out):
        q = cur[:-1]
        out[:-1] = 0.0
        out[1:-1] += pa * q[:-1]
        out[:-2] += pd * q[1:]
        out[-1] = cur[-1] + pd * q[0] + pa * q[-1]

    return lam, kernel


def smooth_step(q0, lam_a, lam_d, dt):
    """(q, qF) after dt hours of constant rates from the stock distribution q0."""
    state = np.append(np.asarray(q0, dtype=float), 0.0)
    rate, kernel = birth_death_kernel(lam_a, lam_d)
    uniformize(state, rate, dt, kernel)
    return state[:-1], state[-1]


def point_mass(v, c):
    q = np.zeros(c + 1)
    q[v] = 1.0
    return q


class TestStepSmooth:
    def test_zero_rates_leave_distribution_unchanged(self):
        q, qF = smooth_step(point_mass(2, 4), 0.0, 0.0, 1.0)
        assert np.array_equal(q, point_mass(2, 4))
        assert qF == 0.0

    def test_empty_station_pure_departures(self):
        # every departure request fails immediately from stock 0
        _, qF = smooth_step(point_mass(0, 5), 0.0, 1.0, 1.0)
        assert qF == pytest.approx(P_GE_1, abs=1e-12)

    def test_pure_arrivals_fill_to_capacity(self):
        # failure iff at least 3 arrivals hit a 2-slot station
        _, qF = smooth_step(point_mass(0, 2), 1.0, 0.0, 1.0)
        assert qF == pytest.approx(P_GE_3, abs=1e-12)

    def test_matches_matrix_exponential(self, rng):
        lam_a, lam_d = 0.8, 1.3
        c = 5
        q0 = rng.dirichlet(np.ones(c + 1))
        q, qF = smooth_step(q0, lam_a, lam_d, 2.0)

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
        assert np.allclose(q, p1[:-1], atol=1e-10)
        assert qF == pytest.approx(p1[-1], abs=1e-10)

    def test_long_piece_is_split_internally(self):
        # rate * length far beyond one uniformization step still conserves mass
        q, qF = smooth_step(point_mass(3, 6), 40.0, 40.0, 10.0)
        assert q.sum() + qF == pytest.approx(1.0, abs=1e-9)
        assert qF > 0.99  # heavy traffic on a tiny station almost surely fails


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

    @pytest.mark.parametrize("rho_a, rho_d", [((0.5, math.nan), ()), ((), (math.nan, 1.0)), ((math.inf,), ())])
    def test_instants_that_are_not_finite_are_rejected(self, rho_a, rho_d):
        # a NaN passes the order and range checks, and the bound would drop it
        with pytest.raises(ValueError, match="instants must be finite and lie within"):
            constant_profile(1.0, 1.0, 2.0, rho_a, rho_d)

    @pytest.mark.parametrize("v, c", [(True, 2), (1, True), (False, None), (np.int64(1), False)])
    def test_a_bool_is_no_stock_or_capacity(self, v, c):
        prof = constant_profile(1.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="must be a non-negative integer"):
            station_failure_probability(prof, v, c, 1.0)

    def test_failure_curve_non_decreasing(self, rng):
        prof = profile_of(
            make_rate(rng, 2.0), make_rate(rng, 2.0), (0.7,), (1.3,)
        )
        times = np.linspace(0.1, 2.0, 25)
        curve = station_failure_curve(prof, 1, 3, times)
        assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))

    def test_transient_conserves_mass_everywhere(self, rng):
        prof = profile_of(
            make_rate(rng, 2.0), make_rate(rng, 2.0), (0.4, 1.1), (0.9,)
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
        prof = profile_of(
            make_rate(r, 2.0),
            make_rate(r, 2.0),
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
        prof = profile_of(make_rate(r, 1.5), make_rate(r, 1.5), (), ())
        qfs = [
            station_failure_probability(prof, v, None, 1.5, tail_tolerance=1e-12)
            for v in range(5)
        ]
        assert all(b <= a + 1e-10 for a, b in zip(qfs, qfs[1:]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_more_parking_never_hurts_at_fixed_stock(self, seed):
        r = np.random.default_rng(seed)
        prof = profile_of(make_rate(r, 1.5), make_rate(r, 1.5), (), ())
        v = int(r.integers(0, 3))
        qfs = [station_failure_probability(prof, v, c, 1.5) for c in range(v, v + 5)]
        assert all(b <= a + 1e-10 for a, b in zip(qfs, qfs[1:]))


class TestSystemBound:
    def test_sum_over_identical_stations(self):
        lam = Rate.constant(0.4, 1.0)
        m = DemandModel(2, {(1, 2): lam.pair, (2, 1): lam.pair}, ((0.0, 0.0), (0.0, 0.0)), 1.0)
        plan = RebalancingPlan.empty(2, 1.0)
        from fleetsizing.model import aggregate_station_flows

        per_station = station_failure_probability(
            aggregate_station_flows(m, plan)[0], 1, 2, 1.0
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
        lam = Rate.constant(5.0, 2.0)
        pairs = {(o, d): lam.pair for o in range(1, 4) for d in range(1, 4) if o != d}
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
            return Rate.constant(0.0, horizon)
        return make_rate(r, horizon, max_rate=max_rate, max_pieces=4)

    def instants():
        return tuple(sorted(np.round(r.uniform(0.05, 0.95 * horizon, r.integers(0, 4)), 6)))

    return profile_of(rate(), rate(), instants(), instants())


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
        # unordered, some at a jump (post-jump state) or at T
        times = [*r.uniform(0.0, T, r.integers(0, 4)), *(t for t in jumps if t <= T), T]
        times = [float(t) for t in r.permutation(times)]
        q, qF, lost, errors, (qF_at, q_at) = _evolve_columns(
            [prof] * m, starts, tops, T, cap_absorbs, times, keep_q=True
        )
        assert errors == [None] * m
        for i, (v, top) in enumerate(zip(starts, tops)):
            q1, qF1, lost1, recorded1 = reference_evolve(prof, v, int(top), T, cap_absorbs, times)
            assert qF[i] == qF1
            assert lost[i] == lost1
            assert np.array_equal(q[i, : top + 1], q1)
            assert not q[i, top + 1 :].any()
            assert len(recorded1) == len(qF_at) == len(q_at)
            for r, (q1_at, qF1_at) in enumerate(recorded1):
                assert qF_at[r, i] == qF1_at
                assert np.array_equal(q_at[r, i, : top + 1], q1_at)
                assert not q_at[r, i, top + 1 :].any()

    def test_piece_check_failure_is_the_one_column_error(self):
        prof = constant_profile(2.0, 1.0, 1.0, rho_a=(0.5,))
        with mock.patch.object(station_bound, "_MASS_TOL", 0.0):
            errors = _evolve_columns([prof, prof], [0, 1], [1, 3], 1.0, True)[3]
        for error, (v, c) in zip(errors, [(0, 1), (1, 3)]):
            with pytest.raises(InvariantViolationError) as one_column:
                reference_evolve(prof, v, c, 1.0, True, mass_tol=0.0)
            assert str(error) == str(one_column.value)


def station_profile(r, horizon):
    """One station of a multi-station pass: own breakpoints, rates and relocations.

    A station may be silent all along, may have pieces where both streams
    are silent, and may be busy enough that a piece needs several substeps.
    """
    instants = lambda: tuple(sorted(np.round(r.uniform(0.05, 0.95 * horizon, r.integers(0, 4)), 6)))
    if r.random() < 0.2:
        silent = Rate.constant(0.0, horizon)
        return profile_of(silent, silent, instants(), instants())

    def rate():
        lam = make_rate(r, horizon, max_rate=float(r.choice([3.0, 25.0, 60.0])), max_pieces=4)
        values = [0.0 if r.random() < 0.3 else v for v in lam.values]
        return Rate(lam.breakpoints, values, horizon)

    return profile_of(rate(), rate(), instants(), instants())


class TestMultiStationPass:
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_every_row_is_bitwise_its_own_station_alone(self, seed, cap_absorbs, strict):
        r = np.random.default_rng(seed)
        horizon = float(r.choice([1.0, 4.0]))
        stations = [station_profile(r, horizon) for _ in range(r.integers(1, 5))]
        jumps = sorted({t for p in stations for t in p.rho_a + p.rho_d})
        T = float(r.choice([horizon, r.uniform(0.1, horizon), *jumps]))
        m = int(r.integers(1, 9))
        profiles = [stations[i] for i in r.integers(0, len(stations), m)]
        tops = r.integers(0, 14, m)
        starts = [int(r.integers(0, top + 1)) for top in tops]
        # unordered; every relocation instant up to T is also a record time
        times = [*r.uniform(0.0, T, r.integers(0, 4)), *(t for t in jumps if t <= T), T]
        times = [float(t) for t in r.permutation(times)]
        # a tolerance of 1e-300 fails every row whose mass is not exactly 1,
        # while the rows of silent stations stay point masses and pass
        tol = 1e-300 if strict else station_bound._MASS_TOL
        with mock.patch.object(station_bound, "_MASS_TOL", tol):
            q, qF, lost, errors, (qF_at, q_at) = _evolve_columns(
                profiles, starts, tops, T, cap_absorbs, times, keep_q=True
            )
        assert qF_at.shape == (len(times), m) and q_at.shape[:2] == (len(times), m)
        for i, (prof, v, top) in enumerate(zip(profiles, starts, tops)):
            # a row that fails a check keeps evolving, so every row matches
            q1, qF1, lost1, recorded1 = reference_evolve(prof, v, int(top), T, cap_absorbs, times)
            assert qF[i] == qF1
            assert lost[i] == lost1
            assert np.array_equal(q[i, : top + 1], q1)
            assert not q[i, top + 1 :].any()
            for at, (q1_at, qF1_at) in enumerate(recorded1):
                assert qF_at[at, i] == qF1_at
                assert np.array_equal(q_at[at, i, : top + 1], q1_at)
                assert not q_at[at, i, top + 1 :].any()
            silent = not prof.pieces[1].any()
            if not strict or silent:
                assert errors[i] is None
            elif errors[i] is not None:
                # the failure names an event time of the row's own station
                found = re.fullmatch(r"probability mass drifted by \S+ at t=(\S+)", str(errors[i]))
                assert found, str(errors[i])
                own = {*prof.pieces[0].tolist(), *prof.rho_a, *prof.rho_d, *times, T}
                assert float(found.group(1)) in own

    def test_failing_row_is_its_station_alone_and_the_others_finish(self):
        busy = constant_profile(2.0, 1.0, 1.0, rho_a=(0.5,))
        other = constant_profile(0.5, 3.0, 1.0, rho_d=(0.25, 0.75))
        silent = constant_profile(0.0, 0.0, 1.0, rho_a=(0.3,))
        profiles, starts, tops = [busy, silent, other, busy], [0, 1, 2, 1], [1, 4, 3, 3]
        with mock.patch.object(station_bound, "_MASS_TOL", 0.0):
            _, _, _, strict_errors, _ = _evolve_columns(profiles, starts, tops, 1.0, True)
        with mock.patch.object(station_bound, "_MASS_TOL", 1e-300):
            q, qF, _, errors, _ = _evolve_columns(profiles, starts, tops, 1.0, True)
        for i, (prof, v, c) in enumerate(zip(profiles, starts, tops)):
            with pytest.raises(InvariantViolationError) as alone:
                reference_evolve(prof, v, c, 1.0, True, mass_tol=0.0)
            # the same check fails at the same time of the row's own timeline
            # (the drift it prints is summed in another order)
            assert str(strict_errors[i]).split(" by ")[0] == str(alone.value).split(" by ")[0]
            assert str(strict_errors[i]).split(" at ")[1] == str(alone.value).split(" at ")[1]
        assert errors[1] is None
        assert all(isinstance(errors[i], InvariantViolationError) for i in (0, 2, 3))
        q1, qF1, _, _ = reference_evolve(silent, 1, 4, 1.0, True)
        assert np.array_equal(q[1, :5], q1) and qF[1] == qF1 == 0.0


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
        with mock.patch.object(station_bound, "_unbounded_start", lambda arrivals, v: v + 1), \
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
        with mock.patch.object(station_bound, "_unbounded_start", lambda arrivals, v: v + 1), \
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


# --- the backward sweep against the forward columns ---------------------------


def sweep_profile(r, horizon, T):
    """``random_profile`` with some pieces silenced and relocations possibly at t=0 and t=T."""
    prof = random_profile(r, horizon)

    def silenced(lam):
        values = [0.0 if r.random() < 0.3 else x for x in lam.values]
        return Rate(lam.breakpoints, values, horizon)

    rho = {name: list(getattr(prof, name)) for name in ("rho_a", "rho_d")}
    for t in (0.0, T):
        for name in rho:
            rho[name] += [t] * int(r.integers(0, 3))
    lambda_a, lambda_d = map(silenced, profile_rates(prof))
    return profile_of(lambda_a, lambda_d, sorted(rho["rho_a"]), sorted(rho["rho_d"]))


class TestAvailabilityFailureSweep:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_every_start_is_the_forward_value_within_the_certified_margin(self, seed):
        # sizing accepts a screened stock read only if the forward value of
        # start x lies in [fail - tail, fail + lost], widened by 1e-9 of the
        # budget (1e3 tail) and 1e-12 of the value for rounding
        r = np.random.default_rng(seed)
        horizon = 2.0
        T = horizon if r.random() < 0.5 else round(float(r.uniform(0.2, horizon)), 6)
        prof = sweep_profile(r, horizon, T)
        fail, lost, terms = availability_failure_sweep(prof, int(r.integers(0, 6)), T)
        n = len(fail)
        assert terms >= 0
        for tail in (1e-3, 1e-9):
            forward = np.array(station_failure_probabilities(prof, list(range(n)), [None] * n, T, tail))
            allow = 1e-9 * (1e3 * tail) + 1e-12 * fail
            assert np.all(forward >= fail - tail - allow)
            assert np.all(forward <= fail + lost + allow)
        # more stock never fails more, and a higher start escapes no less often
        assert np.all(np.diff(fail) <= 1e-15) and np.all(np.diff(lost) >= -1e-15)
        assert np.all(fail + lost <= 1.0 + 1e-9)

    def test_closed_forms_of_pure_departures(self):
        # no arrivals: fail(v) = P(Poisson(1) >= v + 1) and nothing escapes
        fail, lost, _ = availability_failure_sweep(constant_profile(0.0, 1.0, 1.0), 3, 1.0)
        assert fail[:4] == pytest.approx([P_GE_1, P_GE_2, P_GE_3, P_GE_4], rel=1e-12)
        assert not lost.any()

    @pytest.mark.parametrize("rho_a, expected", [((), [1.0, 1.0, 0.0]), ((1.0,), [1.0, 0.0, 0.0])])
    def test_relocations_at_zero_and_at_T_run_in_forward_order(self, rho_a, expected):
        # departures at t=0 and t=T; an arrival at T runs before the
        # departure at T, as in the forward timeline, and saves start 1
        prof = constant_profile(0.0, 0.0, 1.0, rho_a=rho_a, rho_d=(0.0, 1.0))
        fail, _, terms = availability_failure_sweep(prof, 3, 1.0)
        assert terms == 0
        assert fail[:3].tolist() == expected
        assert expected == [station_failure_probability(prof, v, None, 1.0) for v in range(3)]
        early = availability_failure_sweep(prof, 3, 0.5)[0]
        assert early[:2].tolist() == [1.0, 0.0]  # by T = 0.5 only the departure at 0 has run

    def test_boundaries_stay_exact_through_many_pieces(self):
        # the failed boundary enters start 0 through the departure at t=0,
        # after every piece's series has run over it
        prof = profile_of(
            make_rate(np.random.default_rng(3), 5.0, max_rate=9.0, max_pieces=6),
            make_rate(np.random.default_rng(4), 5.0, max_rate=9.0, max_pieces=6),
            (1.0, 2.5, 4.0),
            (0.0, 3.0),
        )
        fail, lost, terms = availability_failure_sweep(prof, 4, 5.0)
        assert terms > 100
        assert fail[0] == 1.0 and lost[0] == 0.0

    def test_top_too_tall_and_bad_horizon_are_errors(self):
        prof = constant_profile(1.0, 1.0, 1.0)
        with mock.patch.object(station_bound, "_MAX_BATCH_CELLS", 40):
            with pytest.raises(InvariantViolationError, match="grew unreasonably"):
                availability_failure_sweep(prof, 30, 1.0)
        with pytest.raises(ValueError):
            availability_failure_sweep(prof, 3, 1.5)
