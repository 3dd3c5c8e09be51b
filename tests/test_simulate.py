"""Monte Carlo estimator: reproducibility contract, thinning, statistical checks."""

import logging
import re
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetsizing.exact import joint_transient, marginal_distribution
from fleetsizing.model import (
    DemandModel,
    RebalancingPlan,
    SystemDesign,
)
from fleetsizing.simulate import (
    _bins,
    compile_tables,
    estimate_failure_curve,
    failure_times,
    sample_requests,
)
from fleetsizing.station_bound import system_failure_bound_curve
from fleetsizing.synth import sample_day_sequences, synthetic_imbalanced_model, uniform_demand_model

from conftest import (
    Rate,
    dense_simulate,
    intensities,
    random_small_instance,
    reference_integral,
    reference_requests,
)

P_GE_2 = 0.26424111765711533  # 1 - 2 e^-1


def reference_marginals(runs, station, capacity):
    """Stock distribution of the 1-based ``station`` at each sample time over
    the reference ``runs``, with standard errors; failed runs hold no stock."""
    occ = np.stack([run[1][:, station - 1] for run in runs])
    valid = np.stack([run[2] for run in runs])
    counts = np.array(
        [np.bincount(occ[valid[:, j], j], minlength=capacity + 1) for j in range(occ.shape[1])]
    )
    mean = counts / len(runs)
    return mean, np.sqrt(mean * (1.0 - mean) / len(runs))


SHARED_INSTANTS = (0.5, 1.0, 1.5)


@st.composite
def small_systems(draw, horizon=2.0):
    """Random model, plan and design with k in 2..8; relocations share instants."""
    k = draw(st.integers(2, 8))
    pairs = [(o, d) for o in range(1, k + 1) for d in range(1, k + 1) if o != d]
    demand = {}
    for pair in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)):
        split = draw(st.sampled_from([None, 0.5, 1.3]))
        rates = draw(st.lists(st.floats(0.0, 6.0), min_size=2, max_size=2))
        demand[pair] = ((0.0,), (rates[0],)) if split is None else ((0.0, split), tuple(rates))
    eta_choices = st.sampled_from([0.0, 0.1, 0.5, 1.0])
    eta = tuple(
        tuple(0.0 if o == d else draw(eta_choices) for d in range(k)) for o in range(k)
    )
    model = DemandModel(k, demand, eta, horizon)
    rho = {}
    moves = st.tuples(
        st.sampled_from(pairs),
        st.one_of(st.sampled_from(SHARED_INSTANTS), st.floats(0.01, horizon - 0.01)),
    )
    for pair, t in draw(st.lists(moves, max_size=8)):
        rho[pair] = tuple(sorted(set(rho.get(pair, ())) | {t}))
    plan = RebalancingPlan(k, horizon, rho)
    c = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
    v = [draw(st.integers(0, ci)) for ci in c]
    return model, plan, SystemDesign(tuple(v), tuple(c))


@st.composite
def tied_systems(draw, horizon=2.0):
    """``small_systems`` in which a relocation lands at the instant another leaves.

    With travel delays, relocation a -> i leaves at t0 and lands at 2 t0,
    when relocation i -> b leaves.  Station i has no other traffic and
    starts empty or full, so the order of the two decides whether it
    refuses one; at every tie the arrival goes first.
    """
    model, plan, design = draw(small_systems(horizon))
    k = model.k
    i = draw(st.integers(1, k))
    others = st.sampled_from([s for s in range(1, k + 1) if s != i])
    a, b = draw(others), draw(others)
    t0 = draw(st.sampled_from([0.125, 0.25, 0.5]))
    eta = [list(row) for row in model.eta]
    eta[a - 1][i - 1] = t0
    demand = {pair: lam.pair for pair, lam in intensities(model).items() if i not in pair}
    rho = {pair: ts for pair, ts in plan.rho.items() if i not in pair}
    rho[(a, i)], rho[(i, b)] = (t0,), (2 * t0,)
    v, c = list(design.v), list(design.c)
    c[i - 1] = max(c[i - 1], 1)
    v[i - 1] = c[i - 1] if draw(st.booleans()) else 0
    v[a - 1] = max(v[a - 1], 1)
    c[a - 1] = max(c[a - 1], 1)
    return (DemandModel(k, demand, eta, horizon), RebalancingPlan(k, horizon, rho),
            SystemDesign(tuple(v), tuple(c)))


def busy_network(k=16, horizon=6.0):
    """Stations 2..k trade at 0.5-3.5 per hour per pair, station 1 sees no traffic.

    Rates change at 2.5 h, travel times are 0, 0.2 or 0.6 h, and relocations
    among stations 2..k share the ``SHARED_INSTANTS``.
    """
    rng = np.random.default_rng(11)
    demand = {
        (o, d): ((0.0, 2.5), tuple(rng.uniform(0.5, 3.5, 2)))
        for o in range(2, k + 1)
        for d in range(2, k + 1)
        if o != d
    }
    eta = tuple(
        tuple(0.0 if o == d else float(rng.choice([0.0, 0.2, 0.6])) for d in range(k))
        for o in range(k)
    )
    rho = {}
    for _ in range(30):
        o, d = (int(x) for x in rng.choice(np.arange(2, k + 1), 2, replace=False))
        t = float(rng.choice(SHARED_INSTANTS)) if rng.random() < 0.5 else rng.uniform(0, horizon)
        rho[(o, d)] = tuple(sorted(set(rho.get((o, d), ())) | {round(t, 6)}))
    return DemandModel(k, demand, eta, horizon), RebalancingPlan(k, horizon, rho)


def two_station_model(lam_12=1.0, lam_21=0.0, horizon=1.0):
    rates = {}
    if lam_12:
        rates[(1, 2)] = ((0.0,), (lam_12,))
    if lam_21:
        rates[(2, 1)] = ((0.0,), (lam_21,))
    return DemandModel(2, rates, ((0.0, 0.0), (0.0, 0.0)), horizon)


class TestSimulateRun:
    def test_zero_demand_never_fails(self):
        m = DemandModel(2, {}, ((0.0, 0.0), (0.0, 0.0)), 1.0)
        plan = RebalancingPlan.empty(2, 1.0)
        design = SystemDesign((1, 2), (2, 2))
        assert np.all(failure_times(m, plan, design, 1.0, [5]) == np.inf)
        times = [0.25, 0.5, 1.0]
        [(failed_at, occ, valid)] = dense_simulate(m, plan, design, 1.0, [5], False, times)
        assert failed_at == np.inf
        assert np.all(occ == np.array([[1, 2]] * 3))
        assert valid.all()

    def test_fails_exactly_at_second_request(self):
        # single flow 1->2 with one vehicle at 1: the first request is served,
        # the second finds station 1 empty.  Re-derive the request times from
        # the documented stream layout (Poisson counts per pair, then times).
        m = two_station_model()
        design = SystemDesign((1, 0), (1, 1))
        plan = RebalancingPlan.empty(2, 1.0)
        expected = []
        for seed in range(25):
            rng = np.random.default_rng(seed)
            count = rng.poisson(np.array([1.0]) * 1.0)[0]
            times = np.sort(rng.uniform(0.0, 1.0, count))
            expected.append(float(times[1]) if count >= 2 else np.inf)
        failed = failure_times(m, plan, design, 1.0, range(25))
        assert failed.dtype == np.float64 and failed.tolist() == expected

    def test_identical_seed_identical_run(self, rng):
        model, plan, design = random_small_instance(rng)
        seeds = [7, 3, 7]
        a = failure_times(model, plan, design, model.horizon, seeds)
        b = failure_times(model, plan, design, model.horizon, seeds)
        assert a.tobytes() == b.tobytes()
        assert a[0] == a[2]

    def test_different_seeds_differ(self):
        m = two_station_model(lam_12=3.0, lam_21=3.0)
        design = SystemDesign((1, 1), (2, 2))
        plan = RebalancingPlan.empty(2, 1.0)
        assert len(set(failure_times(m, plan, design, 1.0, range(20)).tolist())) > 1

    def test_zero_delay_snapshots_conserve_fleet(self, rng):
        for _ in range(5):
            model, plan, design = random_small_instance(rng)
            st = np.linspace(0.05, model.horizon, 9)
            seeds = range(3, 8)
            refs = dense_simulate(model, plan, design, model.horizon, seeds, False, st)
            failed = failure_times(model, plan, design, model.horizon, seeds)
            assert failed.tolist() == [ref[0] for ref in refs]
            for _, occ, valid in refs:
                assert np.all(occ.sum(axis=1)[valid] == design.fleet_size)

    def test_delayed_arrivals_cannot_land_before_travel_time(self):
        # station 1 holds far more stock than requests can drain, station 2
        # has no parking at all, so the only possible failure is an arrival
        # into station 2 -- which is delayed by eta = 0.4 h
        m = DemandModel(2, {(1, 2): ((0.0,), (50.0,))}, ((0.0, 0.4), (0.4, 0.0)), 1.0)
        design = SystemDesign((200, 0), (200, 0))
        plan = RebalancingPlan.empty(2, 1.0)
        failed = failure_times(m, plan, design, 1.0, range(10), with_delay=True)
        assert np.all(np.isfinite(failed))  # ~50 arrivals hit zero parking
        assert np.all(failed >= 0.4)


class TestEstimateFailureCurve:
    def test_matches_exact_two_station_chain(self):
        m = two_station_model()
        design = SystemDesign((1, 0), (1, 1))
        plan = RebalancingPlan.empty(2, 1.0)
        curve = estimate_failure_curve(m, plan, design, 1.0, 100_000, [1.0], seed=0)
        _, est = curve[-1]
        assert abs(est.mean - P_GE_2) <= 3.0 * est.stderr

    def test_single_failing_run_is_a_step(self):
        m = two_station_model(lam_12=50.0)
        design = SystemDesign((0, 0), (1, 1))
        plan = RebalancingPlan.empty(2, 1.0)
        [failed_at] = failure_times(m, plan, design, 1.0, [1])
        assert failed_at < 1.0
        times = np.linspace(0.01, 1.0, 50)
        curve = estimate_failure_curve(m, plan, design, 1.0, 1, times, seed=1)
        for t, est in curve:
            assert est.mean == (1.0 if t >= failed_at else 0.0)

    def test_curve_is_non_decreasing(self, rng):
        model, plan, design = random_small_instance(rng)
        times = np.linspace(0.05, model.horizon, 30)
        curve = estimate_failure_curve(model, plan, design, model.horizon, 500, times, seed=2)
        means = [est.mean for _, est in curve]
        assert all(b >= a for a, b in zip(means, means[1:]))

    def test_doubling_runs_halves_stderr(self):
        m = two_station_model(lam_12=1.0, lam_21=1.0)
        design = SystemDesign((1, 1), (1, 1))
        plan = RebalancingPlan.empty(2, 1.0)
        [( _, e1)] = estimate_failure_curve(m, plan, design, 1.0, 4000, [1.0], seed=0)
        [( _, e2)] = estimate_failure_curve(m, plan, design, 1.0, 8000, [1.0], seed=0)
        ratio = e2.stderr / e1.stderr
        assert ratio == pytest.approx(1.0 / np.sqrt(2.0), rel=0.1)

    @pytest.mark.parametrize("with_delay", [False, True])
    def test_estimate_dominated_by_station_bound(self, rng, with_delay):
        for _ in range(5):
            model, plan, design = random_small_instance(rng)
            times = np.linspace(0.2, model.horizon, 6)
            curve = estimate_failure_curve(
                model, plan, design, model.horizon, 4000, times, with_delay=with_delay, seed=8
            )
            _, total = system_failure_bound_curve(model, plan, design, times, with_delay)
            for (t, est), bound in zip(curve, total):
                assert est.mean <= bound + 3.0 * max(est.stderr, 1e-4)

    def test_delayed_bound_dominates_simulation_with_relocations(self):
        # until the first failure every departure succeeds, so each station sees
        # the delayed arrival streams the bound uses; rides take 15-90 minutes
        lam = {
            (1, 2): ((0.0, 1.5), (1.2, 0.4)),
            (2, 3): ((0.0, 2.0), (0.3, 0.9)),
            (3, 1): ((0.0,), (0.7,)),
            (2, 1): ((0.0, 1.0, 3.0), (0.2, 0.8, 0.3)),
            (1, 3): ((0.0,), (0.3,)),
        }
        eta = ((0.0, 0.75, 1.25), (0.5, 0.0, 1.0), (1.5, 0.25, 0.0))
        model = DemandModel(3, lam, eta, 4.0)
        plan = RebalancingPlan(3, 4.0, {(3, 1): (1.0, 2.5), (1, 2): (2.0,), (2, 3): (3.2,)})
        design = SystemDesign((4, 4, 3), (8, 8, 8))
        times = np.linspace(0.5, 3.5, 7)
        curve = estimate_failure_curve(
            model, plan, design, 3.5, 4000, times, with_delay=True, seed=11
        )
        _, delayed = system_failure_bound_curve(model, plan, design, times, with_delay=True)
        _, undelayed = system_failure_bound_curve(model, plan, design, times, with_delay=False)
        floor = np.array([est.mean - 3.0 * est.stderr for _, est in curve])
        assert np.all(delayed >= floor)
        assert np.all(delayed < 1.0)
        # the check has teeth: the bound that ignores riding times falls below
        assert np.any(undelayed < floor)


class TestEstimateMarginals:
    """Stock marginals read from the dense reference runs."""

    def test_zero_demand_point_mass(self):
        m = DemandModel(2, {}, ((0.0, 0.0), (0.0, 0.0)), 1.0)
        design = SystemDesign((1, 2), (2, 2))
        runs = dense_simulate(
            m, RebalancingPlan.empty(2, 1.0), design, 1.0, range(200), False, [0.5, 1.0]
        )
        mean, _ = reference_marginals(runs, 2, design.c[1])
        assert np.allclose(mean[:, 2], 1.0)

    def test_matches_exact_marginals(self):
        m = two_station_model(lam_12=1.0, lam_21=0.8, horizon=1.0)
        design = SystemDesign((1, 1), (2, 2))
        plan = RebalancingPlan.empty(2, 1.0)
        times = [0.4, 1.0]
        snaps = joint_transient(m, plan, design, times)
        runs = dense_simulate(m, plan, design, 1.0, range(4, 4 + 30_000), False, times)
        mean, stderr = reference_marginals(runs, 1, design.c[0])
        for row, snap in enumerate(snaps):
            exact = marginal_distribution(snap, 1)
            for j in range(design.c[0] + 1):
                dev = abs(mean[row, j] - exact[j])
                assert dev <= 3.0 * max(stderr[row, j], 1e-4)

    def test_marginals_partition_the_unfailed_mass(self, rng):
        model, plan, design = random_small_instance(rng)
        times = np.linspace(0.2, model.horizon, 5)
        n = 800
        curve = estimate_failure_curve(model, plan, design, model.horizon, n, times, seed=6)
        runs = dense_simulate(model, plan, design, model.horizon, range(6, 6 + n), False, times)
        for i in range(1, model.k + 1):
            mean, _ = reference_marginals(runs, i, design.c[i - 1])
            for row, (t, fail) in enumerate(curve):
                assert mean[row].sum() == pytest.approx(1.0 - fail.mean, abs=1e-12)


class TestProcessPool:
    @pytest.mark.parametrize("with_delay", [False, True])
    def test_two_workers_match_serial(self, rng, monkeypatch, with_delay):
        model, plan, design = random_small_instance(rng)
        seeds = range(5, 305)
        monkeypatch.setenv("FLEETSIZING_WORKERS", "1")
        serial = failure_times(model, plan, design, model.horizon, seeds, with_delay)
        monkeypatch.setenv("FLEETSIZING_WORKERS", "2")
        pooled = failure_times(model, plan, design, model.horizon, seeds, with_delay)
        assert pooled.dtype == serial.dtype and pooled.tobytes() == serial.tobytes()
        # the runs must fail and survive for the comparison to mean anything
        assert 0 < np.isfinite(serial).sum() < len(seeds)

    def test_one_run_starts_no_pool(self, rng, monkeypatch):
        model, plan, design = random_small_instance(rng)
        serial = failure_times(model, plan, design, model.horizon, [3])
        monkeypatch.setenv("FLEETSIZING_WORKERS", "2")
        with mock.patch("fleetsizing.simulate.ProcessPoolExecutor") as pool:
            run = failure_times(model, plan, design, model.horizon, [3])
        pool.assert_not_called()
        assert run.tobytes() == serial.tobytes()


class TestThinning:
    def test_constant_rate_interarrivals_are_exponential(self):
        lam = 2.0
        m = two_station_model(lam_12=lam, horizon=50.0)
        tables = compile_tables(m)
        rng = np.random.default_rng(123)
        gaps = []
        for _ in range(200):
            times, _ = sample_requests(tables, 50.0, rng)
            gaps.extend(np.diff(times))
        stat = scipy.stats.kstest(gaps, "expon", args=(0.0, 1.0 / lam))
        assert stat.pvalue > 0.01

    def test_piecewise_rate_bin_counts_match_integrals(self):
        lam = Rate((0.0, 5.0, 10.0), (2.0, 0.2, 1.0), 20.0)
        m = DemandModel(2, {(1, 2): lam.pair}, ((0.0, 0.0), (0.0, 0.0)), 20.0)
        tables = compile_tables(m)
        rng = np.random.default_rng(7)
        edges = [0.0, 5.0, 10.0, 20.0]
        counts = np.zeros(3)
        n_rep = 400
        for _ in range(n_rep):
            times, _ = sample_requests(tables, 20.0, rng)
            counts += np.histogram(times, bins=edges)[0]
        for b, (a, t1) in enumerate(zip(edges[:-1], edges[1:])):
            expected = reference_integral(lam, a, t1) * n_rep
            assert abs(counts[b] - expected) <= 4.0 * np.sqrt(expected)

    def test_one_bin_grid_reads_like_the_grid_lookup(self):
        # a redundant breakpoint splits the same rates into two bins, so the
        # run draws its thinning marks and reads them against the grid; with
        # one bin it keeps every candidate without drawing them
        T = 2.0
        rates = {(1, 2): 1.5, (2, 3): 0.4, (3, 1): 2.25, (1, 3): 7.0}
        eta = ((0.0, 0.1, 0.2), (0.1, 0.0, 0.3), (0.2, 0.3, 0.0))
        flat = DemandModel(3, {p: ((0.0,), (r,)) for p, r in rates.items()}, eta, T)
        split = DemandModel(3, {p: ((0.0, 0.7), (r, r)) for p, r in rates.items()}, eta, T)
        one_bin, two_bins = compile_tables(flat), compile_tables(split)
        assert one_bin.rates.shape[1] == 1 and two_bins.rates.shape[1] == 2
        for seed in range(20):
            for t_end in (T, 1.3):
                a = sample_requests(one_bin, t_end, np.random.default_rng(seed))
                b = sample_requests(two_bins, t_end, np.random.default_rng(seed))
                assert len(a[0]) > 0
                for x, y in zip(a, b):
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        plan = RebalancingPlan(3, T, {(2, 1): (0.5, 1.0), (3, 2): (1.0,)})
        design = SystemDesign((10, 3, 2), (12, 8, 20))
        for with_delay in (False, True):
            for t_end in (T, 1.3):
                a = failure_times(flat, plan, design, t_end, range(200), with_delay)
                b = failure_times(split, plan, design, t_end, range(200), with_delay)
                assert a.tobytes() == b.tobytes()
                assert 0 < np.isfinite(a).sum() < len(a)

    def test_thinning_never_emits_events_where_rate_is_zero(self):
        m = DemandModel(2, {(1, 2): ((0.0, 5.0), (0.0, 3.0))}, ((0.0, 0.0), (0.0, 0.0)), 10.0)
        tables = compile_tables(m)
        rng = np.random.default_rng(9)
        for _ in range(50):
            times, _ = sample_requests(tables, 10.0, rng)
            assert np.all(times >= 5.0)


class PastTheLastEdge:
    """A generator whose one candidate lands at 1 + 5e-10 h, with every mark ``mark``."""

    def __init__(self, mark):
        self._mark = mark
        self._draws = 0

    def poisson(self, lam):
        return np.ones(len(lam), dtype=np.int64)

    def uniform(self, low, high, size):
        self._draws += 1
        return np.full(size, 1.0 + 5e-10 if self._draws == 1 else self._mark)


class TestLastBin:
    def test_a_candidate_past_the_last_edge_reads_the_last_bin(self, monkeypatch):
        # T may exceed the 1 h horizon by 1e-9; a candidate in [horizon, T)
        # reads the last bin, where a mark of 0.2 keeps it (0.2 * 2 < 0.5)
        # and one of 0.3 drops it (0.3 * 2 >= 0.5; the first bin would keep it)
        T = 1.0 + 1e-9
        model = DemandModel(2, {(1, 2): ((0.0, 0.5), (2.0, 0.5))}, ((0.0, 0.0), (0.0, 0.0)), 1.0)
        tables = compile_tables(model)
        assert tables.grid.tolist() == [0.0, 0.5]
        design = SystemDesign((0, 0), (1, 1))
        monkeypatch.delenv("FLEETSIZING_WORKERS", raising=False)
        for mark, kept in ((0.2, True), (0.3, False)):
            t, pair = sample_requests(tables, T, PastTheLastEdge(mark))
            assert t.tolist() == ([1.0 + 5e-10] if kept else [])
            assert pair.tolist() == ([0] if kept else [])
            with mock.patch.object(np.random, "default_rng", lambda seed: PastTheLastEdge(mark)):
                for with_delay in (False, True):
                    failed = failure_times(model, None, design, T, [0], with_delay)
                    assert failed.tolist() == ([1.0 + 5e-10] if kept else [np.inf])


class TestSyntheticDays:
    """Synthetic days are the Monte Carlo sampler's runs over the horizon."""

    @pytest.mark.parametrize("seed", range(4))
    def test_days_are_the_reference_draws_in_time_order(self, seed):
        flat = uniform_demand_model(3, 0.7, 24.0, eta_hours=0.3)
        ragged, _, _ = random_small_instance(np.random.default_rng(seed), k_max=4)
        models = [flat, ragged, synthetic_imbalanced_model(6, seed=seed)]
        assert [compile_tables(m).rates.shape[1] > 1 for m in models] == [False, True, True]
        for model in models:
            days = sample_day_sequences(model, 5, seed=seed)
            tables = compile_tables(model)
            for i, day in enumerate(days):
                rng = np.random.default_rng((seed, i))
                drawn = reference_requests(tables, model.horizon, rng)
                order = np.argsort(drawn[0], kind="stable")
                for got, want in zip((day.t, day.o, day.d, day.eta), drawn, strict=True):
                    assert got.dtype == want.dtype and got.tobytes() == want[order].tobytes()
            assert days.t.size > 0


class TestBinRead:
    def test_bins_match_the_grid_search(self):
        # every edge exactly, and the float one ulp either side of it
        model, _ = busy_network()
        grids = [
            compile_tables(model).grid, np.array([0.0, 0.7, 1.0, 2.5, 6.0]), np.array([0.0, 3.0])
        ]
        for grid in grids:
            t = np.sort(np.concatenate([
                [0.0],
                grid,
                np.nextafter(grid, -np.inf),
                np.nextafter(grid, np.inf),
                np.random.default_rng(3).uniform(0.0, grid[-1], 50),
            ]))
            bins = _bins(t, grid)
            assert bins.tolist() == (np.searchsorted(grid, t, side="right") - 1).tolist()
            assert bins.min() == -1 and bins.max() == len(grid) - 1
            assert _bins(t[:0], grid).tolist() == []


REAL_DEFAULT_RNG = np.random.default_rng


class QuarterHourTimes:
    """``default_rng(seed)`` with a run's candidate times floored to quarter hours.

    A run's first ``uniform`` draw is its candidate times, so requests then
    share instants with each other and with relocations on the same grid.
    """

    def __init__(self, seed):
        self._rng = REAL_DEFAULT_RNG(seed)
        self._draws = 0

    def poisson(self, lam):
        return self._rng.poisson(lam)

    def uniform(self, low, high, size):
        self._draws += 1
        draws = self._rng.uniform(low, high, size)
        return np.floor(draws * 4.0) / 4.0 if self._draws == 1 else draws


def failures_and_ties(caplog, *args, **kwargs):
    """``failure_times(*args, **kwargs)`` and the tie-path runs its DEBUG line counts."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="fleetsizing.simulate"):
        failed = failure_times(*args, **kwargs)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "fleetsizing.simulate"]
    return failed, int(re.search(r", (\d+) tie-path runs, ", line).group(1))


class TestTiePath:
    """Runs take the full lexicographic sort only where a request's tie can matter."""

    def test_shared_instants_and_zero_travel_times_take_no_tie_path(self, caplog):
        model, plan = busy_network()
        k = model.k
        design = SystemDesign((0,) + (15,) * (k - 1), (0,) + (30,) * (k - 1))
        demand = {pair: lam.pair for pair, lam in intensities(model).items()}
        zero_eta = DemandModel(k, demand, ((0.0,) * k,) * k, model.horizon)
        for m, with_delay in ((model, False), (zero_eta, True)):
            seeds = range(40, 48)
            failed, ties = failures_and_ties(caplog, m, plan, design, m.horizon, seeds, with_delay)
            refs = dense_simulate(m, plan, design, m.horizon, seeds, with_delay, [m.horizon])
            assert failed.tolist() == [ref[0] for ref in refs]
            assert ties == 0

    def test_same_station_request_ties_take_the_tie_path(self, caplog, monkeypatch):
        # requests 1->2 and 2->3 on the quarter-hour grid meet each other and
        # the relocations 2->1 at 0.5 h and 3->2 at 1 h; a run needs the tie
        # path where one event leaves a station at the instant another
        # arrives there (the plan alone has no such pair)
        T = 2.0
        lam = {(1, 2): ((0.0,), (0.8,)), (2, 3): ((0.0,), (0.4,))}
        eta = ((0.0, 0.5, 0.25), (0.25, 0.0, 0.5), (0.5, 0.25, 0.0))
        model = DemandModel(3, lam, eta, T)
        plan = RebalancingPlan(3, T, {(2, 1): (0.5,), (3, 2): (1.0,)})
        monkeypatch.setattr(np.random, "default_rng", QuarterHourTimes)
        tables = compile_tables(model)
        seeds = range(60)
        needs_tie_path = []
        for seed in seeds:
            t, pair = sample_requests(tables, T, QuarterHourTimes(seed))
            events = list(zip(t, tables.pair_o[pair], tables.pair_d[pair]))
            events += [(0.5, 2, 1), (1.0, 3, 2)]
            leaving = {(te, oe) for te, oe, _ in events}
            needs_tie_path.append(any((te, de) in leaving for te, _, de in events))
        assert 0 < sum(needs_tie_path) < len(seeds)
        for design in (SystemDesign((1, 1, 0), (1, 1, 1)), SystemDesign((1, 0, 1), (2, 2, 1))):
            for with_delay in (False, True):
                failed, ties = failures_and_ties(caplog, model, plan, design, T, seeds, with_delay)
                refs = dense_simulate(model, plan, design, T, seeds, with_delay, [T])
                assert failed.tolist() == [ref[0] for ref in refs]
                # with travel delays, arrivals go before departures at every
                # instant, the reference's rule, so no run needs the tie path
                assert ties == (0 if with_delay else sum(needs_tie_path))


class TestSegmentedScanMatchesDenseReference:
    """The segmented first-failure scan against the dense (events x k) reference."""

    @settings(max_examples=60, deadline=None)
    @given(small_systems(), st.integers(0, 2**16), st.booleans())
    def test_runs_match(self, system, seed, with_delay):
        model, plan, design = system
        seeds = range(seed, seed + 2)
        refs = dense_simulate(model, plan, design, 2.0, seeds, with_delay, [2.0])
        failed = failure_times(model, plan, design, 2.0, seeds, with_delay)
        assert failed.tolist() == [ref[0] for ref in refs]

    @settings(max_examples=25, deadline=None)
    @given(small_systems(), st.integers(0, 2**16), st.booleans())
    def test_estimates_match(self, system, seed, with_delay):
        model, plan, design = system
        times = np.array([0.25, 1.0, 1.5, 2.0])
        n = 6
        refs = dense_simulate(model, plan, design, 2.0, range(seed, seed + n), with_delay, times)
        curve = estimate_failure_curve(
            model, plan, design, 2.0, n, times, with_delay=with_delay, seed=seed
        )
        for t, est in curve:
            hits = sum(f <= t for f, _, _ in refs)
            assert est.mean == hits / n

    @settings(max_examples=40, deadline=None)
    @given(tied_systems(), st.integers(0, 2**16))
    def test_tied_relocation_runs_match(self, system, seed):
        model, plan, design = system
        seeds = range(seed, seed + 2)
        refs = dense_simulate(model, plan, design, 2.0, seeds, True, [2.0])
        failed = failure_times(model, plan, design, 2.0, seeds, True)
        assert failed.tolist() == [ref[0] for ref in refs]

    def test_busy_network_matches(self):
        # hundreds of entries per station segment, relocations at shared
        # instants, and in each design a station with no parking and no
        # traffic; the first design also starts station 2 full
        model, plan = busy_network()
        k = model.k
        times = np.union1d(np.linspace(0.0, model.horizon, 13), SHARED_INSTANTS)
        designs = [
            SystemDesign((0, 40) + (60,) * (k - 2), (0, 40) + (120,) * (k - 2)),
            SystemDesign((0,) + (60,) * (k - 1), (0,) + (120,) * (k - 1)),
            SystemDesign((0,) + (15,) * (k - 1), (0,) + (30,) * (k - 1)),
        ]
        n = 4
        failures = []
        for design in designs:
            for with_delay in (False, True):
                seeds = range(40, 40 + n)
                refs = dense_simulate(model, plan, design, model.horizon, seeds, with_delay, times)
                failed = failure_times(model, plan, design, model.horizon, seeds, with_delay)
                assert failed.tolist() == [ref[0] for ref in refs]
                failures.extend(failed.tolist())
                curve = estimate_failure_curve(
                    model, plan, design, model.horizon, n, times, with_delay=with_delay, seed=40
                )
                for t, est in curve:
                    assert est.mean == np.count_nonzero(failed <= t) / n
                # T = 0: no request and no relocation is due, so the run has no events
                [ref] = dense_simulate(model, plan, design, 0.0, [40], with_delay, [0.0])
                assert ref[0] == np.inf and np.array_equal(ref[1], [design.v])
                assert failure_times(model, plan, design, 0.0, [40], with_delay).tolist() == [np.inf]
        # the comparison must see runs that fail early, late and never
        failed = [f for f in failures if f < np.inf]
        assert np.inf in failures and min(failed) < 1.0 and max(failed) > 3.0
        tables = compile_tables(model)
        _, pair = sample_requests(tables, model.horizon, np.random.default_rng(40))
        stations = np.concatenate([tables.pair_o[pair], tables.pair_d[pair]])
        entries = np.bincount(stations - 1, minlength=k)
        assert entries[0] == 0 and entries[1:].min() >= 200

    def test_tied_relocations_keep_lexicographic_order(self):
        # relocations 2->1 and 1->2 share instants; demand adds requests
        m = DemandModel(2, {(1, 2): ((0.0,), (1.0,))}, ((0.0, 0.5), (0.5, 0.0)), 2.0)
        plan = RebalancingPlan(2, 2.0, {(1, 2): (0.5, 1.0), (2, 1): (0.5, 1.0)})
        for design in (SystemDesign((0, 1), (1, 1)), SystemDesign((1, 1), (2, 2))):
            for with_delay in (False, True):
                refs = dense_simulate(m, plan, design, 2.0, range(20), with_delay, [2.0])
                failed = failure_times(m, plan, design, 2.0, range(20), with_delay)
                assert failed.tolist() == [ref[0] for ref in refs]

    def test_tied_arrival_lands_before_departure(self):
        # with delay, the 2->1 relocation lands at station 1 at t = 1.0, the
        # instant the 1->2 relocation leaves it: arrivals go first, so the
        # departure finds the vehicle; a time-only stable order would not
        m = DemandModel(2, {}, ((0.0, 0.5), (0.5, 0.0)), 2.0)
        plan = RebalancingPlan(2, 2.0, {(2, 1): (0.5,), (1, 2): (1.0,)})
        design = SystemDesign((0, 1), (1, 1))
        assert failure_times(m, plan, design, 2.0, [0], with_delay=True).tolist() == [np.inf]
        [(failed_at, occ, _)] = dense_simulate(m, plan, design, 2.0, [0], True, [1.0, 2.0])
        assert failed_at == np.inf
        assert np.array_equal(occ, [[0, 0], [0, 1]])
