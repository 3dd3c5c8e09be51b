"""Monte Carlo estimation of the joint failure probability.

Request streams are sampled per origin-destination pair by thinning: a
homogeneous candidate stream at the pair's maximum rate is generated
over [0, T] (Poisson count, then i.i.d. uniform times), and each
candidate is kept with probability rate(t)/max_rate.  When the model's
rate grid has a single bin (every pair's rate is constant), each
candidate's rate is read from that bin without a grid search; the
values are those of the search, which would find the same bin.

Reproducibility contract: run i of an estimate seeded with ``seed`` uses
the stream ``numpy.random.default_rng(seed + i)``, and each run draws,
in this fixed order: (1) one Poisson candidate count per pair, pairs
sorted by (o, d); (2) all candidate times in one uniform block, laid out
pair-by-pair in the same order; (3) one uniform thinning mark per
candidate, aligned with the times.  Runs are therefore independent of
scheduling: one driver serves ``failure_times`` and
``estimate_failure_curve``, and fans the runs out over FLEETSIZING_WORKERS
processes, never more than there are runs (so one run starts no pool),
without changing any result.
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
entry per station it touches (an int8 step, -1 at the origin and +1 at
the destination, or a single entry with travel delays), the entries are
stably sorted by a station key of the narrowest unsigned type (a radix
sort), and an int32 prefix sum, read relative to each station segment's
start, gives the stock after every entry.  A station first refuses at
its first entry whose stock after it leaves [0, c]: a removal from 0
leaves it below, an addition at c above.  The earliest such entry over
all stations is where the run enters the failed state.  Cost per run is
O(n log n) in the n events, independent of the station count.
"""

import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import check_design, checked_plan, rate_grid

log = logging.getLogger(__name__)

_WORKERS_ENV = "FLEETSIZING_WORKERS"


@dataclass(frozen=True)
class EstimateWithCI:
    """Binomial mean with its standard error sqrt(mean*(1-mean)/n)."""

    mean: float
    stderr: float
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
    edges, rates = rate_grid(model.pieces)
    return RequestTables(
        k=model.k,
        horizon=model.horizon,
        pair_o=model.pair_o.astype(np.int64),
        pair_d=model.pair_d.astype(np.int64),
        pair_eta=np.array(model.eta)[model.pair_o - 1, model.pair_d - 1],
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


def _sample_pairs(tables, T, rng):
    """Thinned request times over [0, T] and the index of each one's pair, unsorted."""
    counts = rng.poisson(tables.max_rate * T)
    total = int(counts.sum())
    times = rng.uniform(0.0, T, total)
    marks = rng.uniform(0.0, 1.0, total)
    pair_idx = np.repeat(np.arange(len(counts)), counts)
    if tables.rates.shape[1] == 1:
        # every candidate lies in the only bin of the grid
        rate = tables.rates[:, 0].take(pair_idx)
    else:
        bins = np.searchsorted(tables.grid, times, side="right") - 1
        rate = tables.rates[pair_idx, bins]
    keep = marks * tables.max_rate[pair_idx] < rate
    if keep.all():
        return times, pair_idx
    return times[keep], pair_idx[keep]


def sample_requests(tables, T, rng):
    """Thinned request events over [0, T]: (times, origins, dests, etas), unsorted."""
    times, pair_idx = _sample_pairs(tables, T, rng)
    return (
        times,
        tables.pair_o[pair_idx],
        tables.pair_d[pair_idx],
        tables.pair_eta[pair_idx],
    )


def _run(seed, tables, keys, plan, v, c, T, with_delay):
    """One run: ``(failed_at, events)``, with ``failed_at`` inf if it never fails.

    ``keys`` holds each pair's 0-based origin and destination station keys,
    ``plan`` the (t, o, d, eta) of the relocations that start by T, with the
    same keys; ``events`` counts the run's requests and relocations.
    """
    t, pair_idx = _sample_pairs(tables, T, np.random.default_rng(seed))
    plan_t, plan_o, plan_d, plan_eta = plan
    t = np.concatenate([t, plan_t])
    o = np.concatenate([keys[0].take(pair_idx), plan_o])
    d = np.concatenate([keys[1].take(pair_idx), plan_d])
    events = len(t)
    if with_delay:
        arrive = t + np.concatenate([tables.pair_eta.take(pair_idx), plan_eta])
        landed = arrive <= T
        t = np.concatenate([t, arrive[landed]])
        st = np.concatenate([o, d[landed]])
        step = np.ones(len(t), dtype=np.int8)
        step[:events] = -1
        # ties: arrivals (step +1) before departures, then by station
        tiebreaks = (st, -step)
        per_event = 1
    else:
        tiebreaks = (d, o)
        per_event = 2
    order = np.argsort(t)
    t_s = t.take(order)
    if (t_s[1:] == t_s[:-1]).any():
        order = np.lexsort((*tiebreaks, t))
        t_s = t.take(order)
    if with_delay:
        st = st.take(order)
        step = step.take(order)
    else:
        # entries [o0, d0, o1, d1, ...]: each event removes at o, adds at d
        st = np.empty(2 * events, dtype=o.dtype)
        st[0::2] = o.take(order)
        st[1::2] = d.take(order)
        step = np.empty(2 * events, dtype=np.int8)
        step[0::2] = -1
        step[1::2] = 1

    # a stable sort by station makes each station's entries one segment in
    # event order
    perm = np.argsort(st, kind="stable")
    counts = np.bincount(st, minlength=len(v))
    prefix = np.zeros(len(st) + 1, dtype=np.int32)
    np.cumsum(step.take(perm), dtype=np.int32, out=prefix[1:])
    base = v - prefix[np.cumsum(counts) - counts]
    # a station's first entry that takes its stock out of [0, c] is the first
    # one it refuses; a negative stock reads as a large unsigned number
    after = prefix[1:] + np.repeat(base, counts)
    refused = after.view(np.uint32) > np.repeat(c, counts).view(np.uint32)
    failed_at = float(t_s[perm[refused].min() // per_event]) if refused.any() else np.inf
    return failed_at, events


def _worker_count():
    raw = os.environ.get(_WORKERS_ENV, "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{_WORKERS_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


def _run_batch(seeds, **prepared):
    return [_run(int(seed), **prepared) for seed in seeds]


def failure_times(model, plan, design, T, seeds, with_delay=False):
    """Each seed's first-failure time, in seed order; inf for a run that never fails.

    The run seeded ``seed`` draws from ``default_rng(seed)`` as the module
    docstring lays out, and ends at T.
    """
    if len(seeds) < 1:
        raise ValueError("need at least one run")
    check_design(model, design)
    if not 0.0 <= T <= model.horizon + 1e-9:
        raise ValueError(f"simulation end {T} outside [0, {model.horizon}]")
    start = time.perf_counter()
    tables = compile_tables(model)
    plan_t, plan_o, plan_d, plan_eta = _plan_arrays(model, plan)
    due = plan_t <= T
    # the narrowest station key: the stable sort by station then runs as a
    # radix sort, in one pass over the entries up to 256 stations
    key_type = np.min_scalar_type(model.k - 1)
    run_batch = partial(
        _run_batch,
        tables=tables,
        keys=((tables.pair_o - 1).astype(key_type), (tables.pair_d - 1).astype(key_type)),
        plan=(
            plan_t[due],
            (plan_o[due] - 1).astype(key_type),
            (plan_d[due] - 1).astype(key_type),
            plan_eta[due],
        ),
        v=np.asarray(design.v, dtype=np.int32),
        c=np.asarray(design.c, dtype=np.int32),
        T=T,
        with_delay=with_delay,
    )
    workers = min(_worker_count(), len(seeds))
    if workers == 1:
        runs = run_batch(seeds)
    else:
        chunks = [chunk for chunk in np.array_split(seeds, workers * 4) if len(chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = [run for batch in pool.map(run_batch, chunks) for run in batch]
    log.debug(
        "monte carlo: %d runs, %d workers, %d events, %.3f s",
        len(runs), workers, sum(events for _, events in runs), time.perf_counter() - start,
    )
    return np.array([failed_at for failed_at, _ in runs], dtype=float)


def estimate_failure_curve(
    model, plan, design, T, n_runs, sample_times, with_delay=False, seed=0
):
    """Empirical failure probability at each sample time, with standard errors.

    Run i uses seed ``seed + i``; the estimate at t is the fraction of
    runs whose first unserved request happened at or before t.
    """
    sample_times = np.asarray(sample_times, dtype=float)
    failed_sorted = np.sort(
        failure_times(model, plan, design, T, np.arange(seed, seed + n_runs), with_delay)
    )
    out = []
    for t in sample_times:
        hits = int(np.searchsorted(failed_sorted, t, side="right"))
        p = hits / n_runs
        out.append((float(t), EstimateWithCI(p, math.sqrt(p * (1.0 - p) / n_runs), n_runs)))
    return out
