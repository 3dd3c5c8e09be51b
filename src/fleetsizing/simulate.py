"""Monte Carlo estimation of the joint failure probability.

Request streams are sampled per origin-destination pair by thinning: a
homogeneous candidate stream at the pair's maximum rate is generated
over [0, T] (Poisson count, then i.i.d. uniform times), and each
candidate is kept with probability rate(t)/max_rate.

Reproducibility contract: run i of an estimate seeded with ``seed`` uses
the stream ``numpy.random.default_rng(seed + i)``, and each run draws,
in this fixed order: (1) one Poisson candidate count per pair, pairs
sorted by (o, d); (2) all candidate times in one uniform block, laid out
pair-by-pair in the same order; (3) one uniform thinning mark per
candidate, aligned with the times.  Runs are therefore independent of
scheduling: one driver serves ``simulate_run`` and both estimators, and
fans the runs out over FLEETSIZING_WORKERS processes, never more than
there are runs (so one run starts no pool), without changing any result.
``sample_requests`` is that sampler, and synthetic days
(``synth.sample_day_sequences``) draw with it too.

Within a run, events are replayed in time order; events at the same
instant go by (origin, destination), and with travel delays arrivals go
before departures, then by station.  The events are sorted by time alone
and the full lexicographic sort runs only when sorted times tie (for
example, relocations at a shared instant), so the order is the same
either way.  Until the first unserved request the trajectory coincides
with unconstrained stock bookkeeping (every earlier event succeeded), so
the run is vectorized as one segmented scan: each event becomes one
entry per station it touches (-1 at the origin, +1 at the destination,
or a single entry with travel delays), the entries are stably sorted by
station, and a prefix sum restarted at each station's segment gives the
stock before every entry.  The earliest entry that takes from an empty
station or adds to a full one is where the run enters the failed state.
Cost per run is O(n log n) in the n events, independent of the station
count; stocks at sample times are read from the same sorted entries.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import check_design, checked_plan, rate_grid

_WORKERS_ENV = "FLEETSIZING_WORKERS"


@dataclass(frozen=True)
class EstimateWithCI:
    """Binomial mean with its standard error sqrt(mean*(1-mean)/n)."""

    mean: float
    stderr: float
    n: int


@dataclass
class SimulationRun:
    """One sampled trajectory.

    ``failed_at`` is the time of the first unserved request, or None.
    ``occupancy[s]`` holds the per-station stocks at ``sample_times[s]``;
    rows at or after ``failed_at`` are flagged invalid (the system is in
    the failed state, not in any stock state).
    """

    seed: int
    failed_at: float
    sample_times: np.ndarray
    occupancy: np.ndarray
    occupancy_valid: np.ndarray


@dataclass
class MarginalEstimate:
    """Estimated P(station holds j vehicles, not failed) per sample time."""

    times: np.ndarray
    mean: np.ndarray  # (len(times), c_i + 1)
    stderr: np.ndarray
    n: int


@dataclass
class RequestTables:
    """Demand model compiled to flat arrays for fast per-run sampling."""

    k: int
    horizon: float
    pair_o: np.ndarray
    pair_d: np.ndarray
    pair_eta: np.ndarray
    grid: np.ndarray
    rates: np.ndarray  # (n_pairs, n_bins)
    max_rate: np.ndarray


def compile_tables(model):
    """The model's pairs, sorted by (o, d), and their rates on one shared grid."""
    pairs = model.pairs()
    edges, rates = rate_grid([model.intensities[pair] for pair in pairs])
    return RequestTables(
        k=model.k,
        horizon=model.horizon,
        pair_o=np.asarray([o for o, _ in pairs], dtype=np.int64),
        pair_d=np.asarray([d for _, d in pairs], dtype=np.int64),
        pair_eta=np.asarray([model.eta_hours(o, d) for o, d in pairs], dtype=float),
        grid=np.append(edges, model.horizon),
        rates=rates,
        max_rate=rates.max(axis=1),
    )


def _plan_arrays(model, plan):
    inst = checked_plan(model, plan).instants()
    t = np.asarray([e[0] for e in inst], dtype=float)
    o = np.asarray([e[1] for e in inst], dtype=np.int64)
    d = np.asarray([e[2] for e in inst], dtype=np.int64)
    eta = np.asarray([model.eta_hours(oo, dd) for _, oo, dd in inst], dtype=float)
    return t, o, d, eta


def sample_requests(tables, T, rng):
    """Thinned request events over [0, T]: (times, origins, dests, etas), unsorted."""
    n_pairs = len(tables.max_rate)
    if n_pairs == 0:
        z = np.zeros(0)
        return z, z.astype(np.int64), z.astype(np.int64), z
    counts = rng.poisson(tables.max_rate * T)
    total = int(counts.sum())
    times = rng.uniform(0.0, T, total)
    marks = rng.uniform(0.0, 1.0, total)
    pair_idx = np.repeat(np.arange(n_pairs), counts)
    bins = np.searchsorted(tables.grid, times, side="right") - 1
    keep = marks * tables.max_rate[pair_idx] < tables.rates[pair_idx, bins]
    times = times[keep]
    pair_idx = pair_idx[keep]
    return (
        times,
        tables.pair_o[pair_idx],
        tables.pair_d[pair_idx],
        tables.pair_eta[pair_idx],
    )


def _time_order(t, *tiebreaks):
    """Time order of events, ties broken by ``np.lexsort((*tiebreaks, t))``.

    Distinct times have one order, which any sort finds; the plain argsort
    is the fastest.  Only when sorted times tie (relocations at a shared
    instant, say) does the lexsort run.  Returns the permutation and the
    sorted times.
    """
    order = np.argsort(t)
    t_s = t[order]
    if (t_s[1:] == t_s[:-1]).any():
        order = np.lexsort((*tiebreaks, t))
        t_s = t[order]
    return order, t_s


def _segmented_scan(st, up, v, c):
    """Per-station stock bookkeeping over entries that each move one vehicle.

    ``st`` holds the 0-based station of each entry and ``up`` is 1 where the
    entry adds a vehicle and 0 where it removes one, entries in event order.
    A stable sort by station makes each station's entries one segment, still
    in event order.  Returns ``(perm, st_sorted, prefix, base, refused)``:
    sorted entry ``i`` is entry ``perm[i]``; ``prefix[i]`` is the signed sum
    of the sorted entries before ``i``, so the stock before it is
    ``base[st_sorted[i]] + prefix[i]``; ``refused[i]`` marks a removal from
    stock 0 or an addition at stock c.
    """
    k = len(v)
    perm = np.argsort(st, kind="stable")
    st_sorted = st[perm]
    up_sorted = up[perm]
    seg_start = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(st, minlength=k), out=seg_start[1:])
    prefix = np.zeros(len(st) + 1, dtype=np.int64)
    np.cumsum(2 * up_sorted - 1, out=prefix[1:])
    base = v - prefix[seg_start[:-1]]
    # the prefix at which an entry is refused: -base for a removal (stock 0),
    # c - base for an addition (stock c); removals first, then additions
    refusing_prefix = np.concatenate([-base, c - base])
    refused = prefix[:-1] == refusing_prefix[st_sorted + k * up_sorted]
    return perm, st_sorted, prefix, base, refused


def _simulate_prepared(tables, plan_arrays, v, c, T, seed, with_delay, sample_times, stations):
    rng = np.random.default_rng(seed)
    t_req, o_req, d_req, eta_req = sample_requests(tables, T, rng)
    t_pl, o_pl, d_pl, eta_pl = plan_arrays
    keep = t_pl <= T
    t_all = np.concatenate([t_req, t_pl[keep]])
    o_all = np.concatenate([o_req, o_pl[keep]])
    d_all = np.concatenate([d_req, d_pl[keep]])
    eta_all = np.concatenate([eta_req, eta_pl[keep]])
    # a narrow station key lets the stable argsort run as a radix sort
    key = np.int16 if len(v) <= np.iinfo(np.int16).max else np.int64

    if not with_delay:
        order, t_s = _time_order(t_all, d_all, o_all)
        # entries [o0, d0, o1, d1, ...]: each event removes at o, adds at d
        per_event = 2
        st = np.empty(2 * len(t_s), dtype=key)
        st[0::2] = o_all[order] - 1
        st[1::2] = d_all[order] - 1
        up = np.arange(len(st)) & 1
    else:
        per_event = 1
        arr_keep = t_all + eta_all <= T
        t_ev = np.concatenate([t_all, (t_all + eta_all)[arr_keep]])
        st_ev = np.concatenate([o_all, d_all[arr_keep]]) - 1
        # kind rank: arrivals (1) before departures (2) at equal times
        kind = np.concatenate(
            [np.full(len(t_all), 2, np.int8), np.ones(int(arr_keep.sum()), np.int8)]
        )
        order, t_s = _time_order(t_ev, st_ev, kind)
        st = st_ev[order].astype(key)
        up = (kind[order] == 1).astype(np.int64)
    perm, st_sorted, prefix, base, refused = _segmented_scan(st, up, v, c)
    hits = perm[refused]
    failed_at = float(t_s[hits.min() // per_event]) if hits.size else None

    if sample_times is None:
        return failed_at, None, None
    # stock after the first ``pos`` events: each station's sorted entries
    # carry increasing keys (station, event), so a search counts those < pos
    stride = len(t_s) + 1
    entry_key = st_sorted.astype(np.int64) * stride + perm // per_event
    pos = np.searchsorted(t_s, sample_times, side="right")
    idx = np.searchsorted(entry_key, stations * stride + pos[:, np.newaxis])
    occ = base[stations] + prefix[idx]
    valid = (
        np.ones(len(sample_times), dtype=bool)
        if failed_at is None
        else sample_times < failed_at
    )
    return failed_at, occ, valid


def simulate_run(model, plan, design, T, seed, with_delay=False, sample_times=None):
    """Sample one trajectory; see the module docstring for the RNG contract."""
    if sample_times is not None:
        sample_times = np.asarray(sample_times, dtype=float)
    ((failed_at, occ, valid),) = _collect(
        model, plan, design, T, [seed], with_delay, sample_times, range(model.k)
    )
    return SimulationRun(seed, failed_at, sample_times, occ, valid)


def _worker_count():
    raw = os.environ.get(_WORKERS_ENV, "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{_WORKERS_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


def _run_batch(seeds, **prepared):
    return [_simulate_prepared(seed=int(s), **prepared) for s in seeds]


def _collect(model, plan, design, T, seeds, with_delay, sample_times=None, stations=()):
    """Each seed's ``(failed_at, occupancy of the 0-based stations, valid)``, in seed order."""
    if len(seeds) < 1:
        raise ValueError("need at least one run")
    check_design(model, design)
    if not 0.0 <= T <= model.horizon + 1e-9:
        raise ValueError(f"simulation end {T} outside [0, {model.horizon}]")
    run_batch = partial(
        _run_batch,
        tables=compile_tables(model),
        plan_arrays=_plan_arrays(model, plan),
        v=np.asarray(design.v, dtype=np.int32),
        c=np.asarray(design.c, dtype=np.int32),
        T=T,
        with_delay=with_delay,
        sample_times=sample_times,
        stations=np.asarray(stations, dtype=np.int64),
    )
    workers = min(_worker_count(), len(seeds))
    if workers == 1:
        return run_batch(seeds)
    chunks = [chunk for chunk in np.array_split(seeds, workers * 4) if len(chunk)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [run for batch in pool.map(run_batch, chunks) for run in batch]


def estimate_failure_curve(
    model, plan, design, T, n_runs, sample_times, with_delay=False, seed=0
):
    """Empirical failure probability at each sample time, with standard errors.

    Run i uses seed ``seed + i``; the estimate at t is the fraction of
    runs whose first unserved request happened at or before t.
    """
    sample_times = np.asarray(sample_times, dtype=float)
    runs = _collect(model, plan, design, T, np.arange(seed, seed + n_runs), with_delay)
    failed_sorted = np.sort([np.inf if f is None else f for f, _, _ in runs])
    out = []
    for t in sample_times:
        hits = int(np.searchsorted(failed_sorted, t, side="right"))
        p = hits / n_runs
        out.append((float(t), EstimateWithCI(p, math.sqrt(p * (1.0 - p) / n_runs), n_runs)))
    return out


def estimate_marginals(
    model, plan, design, T, n_runs, station, sample_times, with_delay=False, seed=0
):
    """Empirical stock distribution of one station at each sample time.

    Failed runs contribute to no stock state, so the distribution sums to
    one minus the failure estimate.
    """
    sample_times = np.asarray(sample_times, dtype=float)
    if not 1 <= station <= model.k:
        raise ValueError(f"station label {station} outside 1..{model.k}")
    runs = _collect(
        model, plan, design, T, np.arange(seed, seed + n_runs), with_delay,
        sample_times, [station - 1],
    )
    counts = np.zeros((len(sample_times), design.c[station - 1] + 1), dtype=np.int64)
    t_idx = np.arange(len(sample_times))
    for _, occ, valid in runs:
        np.add.at(counts, (t_idx[valid], occ[valid, 0]), 1)
    mean = counts / n_runs
    stderr = np.sqrt(mean * (1.0 - mean) / n_runs)
    return MarginalEstimate(sample_times, mean, stderr, n_runs)
