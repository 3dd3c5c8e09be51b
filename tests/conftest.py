"""Shared helpers: random small instances and independent brute-force oracles."""

import itertools
import os
import subprocess
import sys
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest

from fleetsizing.ingest import DaySequences
from fleetsizing.model import (
    DemandModel,
    PiecewiseConstantIntensity,
    RebalancingPlan,
    StationFlowProfile,
    SystemDesign,
)
from fleetsizing.simulate import _plan_arrays, compile_tables

ROOT = Path(__file__).resolve().parents[1]


def fresh_python(*args, cwd):
    """Run a new interpreter that imports the package from this checkout's ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    ))
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=120
    )


def days_of(days, k, horizon=24.0):
    """DaySequences of ``days``, each a list of (t, o, d, eta) events, dated daily from 2016-05-02."""
    events = [event for day in days for event in day]
    t, o, d, eta = zip(*events) if events else ((),) * 4
    dates = [f"2016-05-{2 + i:02d}" for i in range(len(days))]
    return DaySequences(k, horizon, dates, list(map(len, days)), t, o, d, eta)


def make_pci(rng, horizon, max_rate=2.0, max_pieces=3):
    """Random piecewise-constant rate on [0, horizon]."""
    n = int(rng.integers(1, max_pieces + 1))
    if n == 1:
        bps = (0.0,)
    else:
        interior = np.sort(rng.uniform(0.05 * horizon, 0.95 * horizon, n - 1))
        bps = (0.0, *np.round(interior, 6))
    values = tuple(np.round(rng.uniform(0.0, max_rate, n), 6))
    return PiecewiseConstantIntensity(bps, values, horizon)


def intensities(model):
    """The model's demand as an (o, d) -> PiecewiseConstantIntensity dict, in (o, d) order."""
    starts, values, counts = model.pieces
    ends = np.cumsum(counts)
    return {
        pair: PiecewiseConstantIntensity(starts[a:b], values[a:b], model.horizon)
        for pair, a, b in zip(model.pairs(), ends - counts, ends)
    }


def profile_rates(profile):
    """A station profile's arrival and departure rates, as two PiecewiseConstantIntensity."""
    starts, values, counts = profile.pieces
    cut = counts[:1]
    return tuple(
        PiecewiseConstantIntensity(b, v, profile.horizon)
        for b, v in zip(np.split(starts, cut), np.split(values, cut))
    )


def clamped(pci, t):
    """``t`` clamped to ``[0, horizon_end]`` of ``pci``; more than 1e-9 outside is an error."""
    if t < -1e-9 or t > pci.horizon_end + 1e-9:
        raise ValueError(f"time {t} outside intensity domain [0, {pci.horizon_end}]")
    return min(max(t, 0.0), pci.horizon_end)


def value_at(pci, t):
    """The rate of ``pci`` at time t: ``values[j]`` on ``[breakpoints[j], breakpoints[j+1])``."""
    return pci.values[bisect_right(pci.breakpoints, clamped(pci, t)) - 1]


def reference_integral(pci, a, b):
    """The integral of ``pci`` over [a, b] by a walk over its own breakpoints.

    Times are ``clamped`` as ``value_at`` clamps them; the pieces are
    added left to right.
    """
    a, b = clamped(pci, a), clamped(pci, b)
    if b < a:
        raise ValueError("integral bounds must satisfy a <= b")
    bp, vals = pci.breakpoints, pci.values
    ia = bisect_right(bp, a) - 1
    ib = bisect_right(bp, b) - 1
    if ia == ib:
        return vals[ia] * (b - a)
    total = vals[ia] * (bp[ia + 1] - a)
    for j in range(ia + 1, ib):
        total += vals[j] * (bp[j + 1] - bp[j])
    total += vals[ib] * (b - bp[ib])
    return total


def reference_shifted(pci, delay):
    """``pci`` delayed by ``delay`` hours within the same horizon.

    The shifted function is 0 on ``[0, delay)`` and whatever falls past
    the horizon is discarded; a delay of 0 returns ``pci`` itself.
    """
    delay = float(delay)
    if delay < 0.0:
        raise ValueError("delay must be non-negative")
    if delay == 0.0:
        return pci
    if delay >= pci.horizon_end:
        return PiecewiseConstantIntensity.constant(0.0, pci.horizon_end)
    bps = [0.0]
    vals = [0.0]
    for b, v in zip(pci.breakpoints, pci.values):
        s = b + delay
        if s >= pci.horizon_end:
            break
        bps.append(s)
        vals.append(v)
    return PiecewiseConstantIntensity(tuple(bps), tuple(vals), pci.horizon_end)


def random_small_instance(rng, k_max=3, c_max=4, max_rebalances=5, horizon=2.0):
    """Random tiny system: model, plan, and design exactly representable jointly."""
    k = int(rng.integers(2, k_max + 1))
    intensities = {}
    for o in range(1, k + 1):
        for d in range(1, k + 1):
            if o != d and rng.random() < 0.8:
                intensities[(o, d)] = make_pci(rng, horizon)
    eta = tuple(
        tuple(0.0 if o == d else round(float(rng.uniform(0.05, 0.3)), 6) for d in range(k))
        for o in range(k)
    )
    model = DemandModel(k, intensities, eta, horizon)

    rho = {}
    n_reb = int(rng.integers(0, max_rebalances + 1))
    for _ in range(n_reb):
        o = int(rng.integers(1, k + 1))
        d = int(rng.integers(1, k + 1))
        if o == d:
            continue
        t = round(float(rng.uniform(0.05 * horizon, 0.95 * horizon)), 6)
        times = set(rho.get((o, d), ()))
        times.add(t)
        rho[(o, d)] = tuple(sorted(times))
    plan = RebalancingPlan(k, horizon, rho)

    c = tuple(int(rng.integers(1, c_max + 1)) for _ in range(k))
    v = tuple(int(rng.integers(0, ci + 1)) for ci in c)
    return model, plan, SystemDesign(v, c)


def dense_first_failure(t_sorted, station_rows, delta_rows, check_o, check_d, v, c):
    """Slow reference scan over a dense (events x stations) stock matrix.

    ``station_rows``/``delta_rows`` are (n, 2): each event touches up to
    two stations (0-based; -1 = unused slot).  ``check_o[n]`` is the
    station whose emptiness fails the event (-1 = no check), ``check_d``
    likewise for fullness.  Returns (failed_at, cumulative stock changes),
    with failed_at inf if no event fails.
    """
    n = len(t_sorted)
    k = len(v)
    delta = np.zeros((n, k), dtype=np.int32)
    rows = np.arange(n)
    for slot in range(station_rows.shape[1]):
        st_ = station_rows[:, slot]
        used = st_ >= 0
        np.add.at(delta, (rows[used], st_[used]), delta_rows[used, slot])
    cum = np.cumsum(delta, axis=0)
    before = v[np.newaxis, :] + cum - delta
    bad = np.zeros(n, dtype=bool)
    m = check_o >= 0
    bad[m] |= before[rows[m], check_o[m]] == 0
    m = check_d >= 0
    bad[m] |= before[rows[m], check_d[m]] == c[check_d[m]]
    if bad.any():
        return float(t_sorted[int(bad.argmax())]), cum
    return np.inf, cum


def reference_requests(tables, T, rng):
    """Thinned request events over [0, T]: (times, origins, dests, etas), unsorted.

    The draws of ``simulate.sample_requests`` -- candidate counts, times,
    then one mark per candidate -- thinned in the order they were drawn,
    with each time's rate bin found by a search of the grid.
    """
    counts = rng.poisson(tables.max_rate * T)
    times = rng.uniform(0.0, T, int(counts.sum()))
    pair_idx = np.repeat(np.arange(len(counts)), counts)
    marks = rng.uniform(0.0, 1.0, len(times))
    bins = np.searchsorted(tables.grid, times, side="right") - 1
    keep = marks * tables.max_rate[pair_idx] < tables.rates[pair_idx, bins]
    times, pair_idx = times[keep], pair_idx[keep]
    return (
        times,
        tables.pair_o[pair_idx],
        tables.pair_d[pair_idx],
        tables.pair_eta[pair_idx],
    )


def dense_simulate(model, plan, design, T, seeds, with_delay, sample_times):
    """Runs replayed in full lexicographic event order through the dense scan.

    Run ``seed`` draws the same streams as ``simulate.failure_times`` does
    for it, through ``reference_requests``.  Returns one (failed_at,
    occupancy, occupancy_valid) per seed: failed_at is inf for a run that
    never fails, ``occupancy[s]`` holds every station's stock at
    ``sample_times[s]``, and rows at or after failed_at are flagged invalid
    (the failed state is no stock state).
    """
    tables = compile_tables(model)
    t_pl, o_pl, d_pl, eta_pl = _plan_arrays(model, plan)
    keep = t_pl <= T
    t_pl, o_pl, d_pl, eta_pl = t_pl[keep], o_pl[keep], d_pl[keep], eta_pl[keep]
    v = np.asarray(design.v, dtype=np.int32)
    c = np.asarray(design.c, dtype=np.int32)
    sample_times = np.asarray(sample_times, dtype=float)
    runs = []
    for seed in seeds:
        t_req, o_req, d_req, eta_req = reference_requests(tables, T, np.random.default_rng(seed))
        t_all = np.concatenate([t_req, t_pl])
        o_all = np.concatenate([o_req, o_pl]).astype(np.int64)
        d_all = np.concatenate([d_req, d_pl]).astype(np.int64)
        eta_all = np.concatenate([eta_req, eta_pl])
        if not with_delay:
            order = np.lexsort((d_all, o_all, t_all))
            t_s = t_all[order]
            o_s = o_all[order] - 1
            d_s = d_all[order] - 1
            station_rows = np.stack([o_s, d_s], axis=1)
            delta_rows = np.tile(np.array([-1, 1], dtype=np.int32), (len(t_s), 1))
            failed_at, cum = dense_first_failure(
                t_s, station_rows, delta_rows, o_s.copy(), d_s.copy(), v, c
            )
        else:
            arr_keep = t_all + eta_all <= T
            t_ev = np.concatenate([t_all, (t_all + eta_all)[arr_keep]])
            st_ev = np.concatenate([o_all, d_all[arr_keep]]) - 1
            kind = np.concatenate(
                [np.full(len(t_all), 2, np.int8), np.ones(int(arr_keep.sum()), np.int8)]
            )
            sign = np.where(kind == 2, -1, 1).astype(np.int32)
            order = np.lexsort((st_ev, kind, t_ev))
            t_s = t_ev[order]
            st_s = st_ev[order]
            sign_s = sign[order]
            station_rows = np.stack([st_s, np.full_like(st_s, -1)], axis=1)
            delta_rows = np.stack([sign_s, np.zeros_like(sign_s)], axis=1)
            check_o = np.where(sign_s < 0, st_s, -1)
            check_d = np.where(sign_s > 0, st_s, -1)
            failed_at, cum = dense_first_failure(
                t_s, station_rows, delta_rows, check_o, check_d, v, c
            )
        pos = np.searchsorted(t_s, sample_times, side="right")
        padded = np.vstack([np.zeros((1, len(v)), dtype=cum.dtype), cum])
        runs.append((failed_at, v[np.newaxis, :] + padded[pos], sample_times < failed_at))
    return runs


def design_to_json(design):
    """The design.json document of ``design``: each station's id, stock and capacity."""
    return {
        "stations": [
            {"id": i + 1, "v": design.v[i], "c": design.c[i]} for i in range(design.k)
        ]
    }


def brute_force_transport(supply, demand, cost):
    """Minimum-cost integral transport by exhaustive enumeration.

    supply/demand are small integer vectors with equal sums; cost[i][j]
    is the unit cost from supply node i to demand node j.  Returns
    (min_cost, flows) with flows a tuple-of-tuples matrix.
    """
    n, m = len(supply), len(demand)
    best = (float("inf"), None)

    def feasible_rows(remaining_demand, s):
        # all ways to split s units across the demand nodes within remaining capacity
        if len(remaining_demand) == 1:
            if s <= remaining_demand[0]:
                yield (s,)
            return
        for first in range(min(s, remaining_demand[0]) + 1):
            for rest in feasible_rows(remaining_demand[1:], s - first):
                yield (first, *rest)

    def walk(i, remaining, rows, acc):
        nonlocal best
        if acc >= best[0]:
            return
        if i == n:
            if all(r == 0 for r in remaining):
                best = (acc, tuple(rows))
            return
        for row in feasible_rows(remaining, supply[i]):
            walk(
                i + 1,
                [r - x for r, x in zip(remaining, row)],
                rows + [row],
                acc + sum(x * cost[i][j] for j, x in enumerate(row)),
            )

    walk(0, list(demand), [], 0.0)
    return best


def mc_station_failure(profile, v, c, T, n_runs, seed):
    """Monte Carlo estimate of one station's failure probability.

    Independent arrival/departure Poisson streams plus the profile's
    forced jump instants, replayed until the first refused event:
    a departure (or departure jump) from stock 0, or an arrival (or
    arrival jump) at stock c.  Returns (p_hat, stderr).
    """
    rng = np.random.default_rng(seed)
    lambda_a, lambda_d = profile_rates(profile)
    grid = sorted(
        {0.0, T}
        | {b for b in lambda_a.breakpoints if b < T}
        | {b for b in lambda_d.breakpoints if b < T}
    )
    failures = 0
    for _ in range(n_runs):
        events = []
        for t0, t1 in zip(grid[:-1], grid[1:]):
            mid = 0.5 * (t0 + t1)
            for pci, kind in ((lambda_a, +1), (lambda_d, -1)):
                rate = value_at(pci, mid)
                n = rng.poisson(rate * (t1 - t0))
                events.extend((float(t), 0, kind) for t in rng.uniform(t0, t1, n))
        events.extend((t, 1, +1) for t in profile.rho_a if t <= T)
        events.extend((t, 1, -1) for t in profile.rho_d if t <= T)
        # at equal times: arrivals before departures (rank by -kind)
        events.sort(key=lambda e: (e[0], -e[2]))
        stock = v
        for _, _, kind in events:
            if kind > 0:
                if stock == c:
                    failures += 1
                    break
                stock += 1
            else:
                if stock == 0:
                    failures += 1
                    break
                stock -= 1
    p = failures / n_runs
    return p, float(np.sqrt(p * (1.0 - p) / n_runs))


def mc_station_failure_fast(profile, v, c, T, n_runs, seed):
    """Vectorized version of mc_station_failure for constant-rate profiles.

    Pads every run's event list to the maximum count and finds the first
    refused event from cumulative stock sums (before the first refusal
    every event succeeds, so plain cumulative bookkeeping is exact).
    """
    assert profile.pieces[2].tolist() == [1, 1]
    rng = np.random.default_rng(seed)
    lam_a, lam_d = profile.pieces[1].tolist()
    jumps_t = np.array(
        [t for t in profile.rho_a if t <= T] + [t for t in profile.rho_d if t <= T]
    )
    jumps_kind = np.array(
        [1] * sum(t <= T for t in profile.rho_a) + [-1] * sum(t <= T for t in profile.rho_d),
        dtype=np.int32,
    )
    n_a = rng.poisson(lam_a * T, n_runs)
    n_d = rng.poisson(lam_d * T, n_runs)
    width = int((n_a + n_d).max()) + len(jumps_t)
    times = np.full((n_runs, width), np.inf)
    kinds = np.zeros((n_runs, width), dtype=np.int32)
    for counts, offsets, kind in ((n_a, np.zeros(n_runs, int), 1), (n_d, n_a, -1)):
        total = int(counts.sum())
        if total == 0:
            continue
        draws = rng.uniform(0.0, T, total)
        rows = np.repeat(np.arange(n_runs), counts)
        idx = np.concatenate([np.arange(n) for n in counts])
        col = np.repeat(offsets, counts) + idx
        times[rows, col] = draws
        kinds[rows, col] = kind
    if len(jumps_t):
        base = width - len(jumps_t)
        times[:, base:] = jumps_t[np.newaxis, :]
        kinds[:, base:] = jumps_kind[np.newaxis, :]
    # arrivals before departures on (measure-zero) ties, then pad to the end
    order = np.lexsort((-kinds, times), axis=1)
    rows = np.arange(n_runs)[:, np.newaxis]
    t_s = times[rows, order]
    k_s = kinds[rows, order]
    k_s[~np.isfinite(t_s)] = 0
    cum = np.cumsum(k_s, axis=1)
    before = v + cum - k_s
    bad = ((k_s < 0) & (before == 0)) | ((k_s > 0) & (before == c))
    failures = int(bad.any(axis=1).sum())
    p = failures / n_runs
    return p, float(np.sqrt(p * (1.0 - p) / n_runs))


def all_states(caps):
    """Every stock vector within the per-station capacities."""
    return list(itertools.product(*[range(ci + 1) for ci in caps]))


@pytest.fixture
def rng():
    return np.random.default_rng(20160502)


def constant_profile(lam_a, lam_d, horizon, rho_a=(), rho_d=()):
    return StationFlowProfile(
        PiecewiseConstantIntensity.constant(lam_a, horizon),
        PiecewiseConstantIntensity.constant(lam_d, horizon),
        rho_a,
        rho_d,
    )
