"""Monte Carlo estimation of the joint failure probability.

Request streams are sampled per origin-destination pair by thinning: a
homogeneous candidate stream at the pair's maximum rate is generated
over [0, T] (Poisson count, then i.i.d. uniform times), and each
candidate is kept with probability rate(t)/max_rate.

Reproducibility contract: one sampler, ``sample_requests``, draws the
requests of every Monte Carlo run and of every synthetic day
(``synth.sample_day_sequences``).  Run i of an estimate seeded with
``seed`` uses the stream ``numpy.random.default_rng(seed + i)``, and each
draw takes, in this fixed order: (1) one Poisson candidate count per
pair, pairs sorted by (o, d); (2) all candidate times in one uniform
block, laid out pair-by-pair in the same order; (3) one uniform thinning
mark per candidate, aligned with the times.  The candidates are sorted by
time once, and each mark is read in that order against its candidate's
rate bin; a time at or past the grid's last edge reads the last bin.
When the model's rate grid has a single bin, every candidate is kept
(mark * rate < rate for every mark in [0, 1)), so the marks, the last
draw, are skipped, and no other number moves.  A synthetic day keeps its
requests in that order, so requests of one day at one exact instant go in
sort order, not by pair (with real draws, a chance of about 1e-9 a day).
Runs are independent of scheduling: one driver serves ``failure_times``
and ``estimate_failure_curve``, and fans the runs out over
FLEETSIZING_WORKERS processes, never more than there are runs (so one run
starts no pool), without changing any result.

Within a run, events are replayed in time order; events at the same
instant go by (origin, destination), and with travel delays arrivals go
before departures, then by station.  A run's requests come from the
sampler in time order (it reads each candidate's rate bin with one search
of the sorted times per grid edge).  The plan's entries are put in the
replay order once per estimate, and a run merges its requests in with one
stable sort of the sorted pieces (with travel delays, the requests'
arrivals get one sort of their own first).
Only entries of one station at one instant with opposite steps can
change a stock path; entries of one step commute.  With travel delays
the pieces go request arrivals, plan entries, request departures, so the
merge puts every arrival at an instant before every departure, and no
run needs more.  Without them, a run in which a request ties another
event, and some station has one event leaving and one arriving at that
instant, takes the full lexicographic sort (the tie path); the DEBUG
line counts those runs.

Until the first unserved request the trajectory coincides with
unconstrained stock bookkeeping (every earlier event succeeded), so the
run is vectorized as one segmented scan: each event becomes one entry
per station it touches (an int8 step, -1 at the origin and +1 at the
destination, or a single entry with travel delays), the entries are
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

    pair_o: np.ndarray
    pair_d: np.ndarray
    pair_eta: np.ndarray
    grid: np.ndarray
    rates: np.ndarray  # (n_pairs, n_bins)
    max_rate: np.ndarray


def compile_tables(model):
    """The model's pairs, sorted by (o, d), and their rates on one shared grid.

    ``grid`` holds the bins' left edges, so a time at or past the last edge
    reads the last bin.
    """
    grid, rates = rate_grid(model.pieces)
    return RequestTables(
        pair_o=model.pair_o.astype(np.int64),
        pair_d=model.pair_d.astype(np.int64),
        pair_eta=np.array(model.eta)[model.pair_o - 1, model.pair_d - 1],
        grid=grid,
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
    """A run's thinned requests over [0, T]: ``(times, pair)`` in time order.

    ``pair`` indexes the tables' pairs.  The draws go as the module
    docstring lays out: candidate counts, then times, sorted once; each
    candidate's mark is read in that order, and a one-bin grid draws none.
    """
    counts = rng.poisson(tables.max_rate * T)
    t = rng.uniform(0.0, T, int(counts.sum()))
    pair = np.arange(len(counts)).repeat(counts)
    order = t.argsort()
    t, pair = t.take(order), pair.take(order)
    if tables.rates.shape[1] > 1:
        marks = rng.uniform(0.0, 1.0, len(t)).take(order)
        keep = marks * tables.max_rate.take(pair) < tables.rates[pair, _bins(t, tables.grid)]
        t, pair = t[keep], pair[keep]
    return t, pair


def _bins(t, grid):
    """``np.searchsorted(grid, t, side="right") - 1`` for sorted times ``t``.

    One search of the sorted times per grid edge finds where each bin's
    times start, and a ``repeat`` labels the runs in between.
    """
    starts = t.searchsorted(grid)
    sizes = np.empty(len(grid) + 1, dtype=np.intp)
    sizes[0], sizes[-1] = starts[0], len(t) - starts[-1]
    np.subtract(starts[1:], starts[:-1], out=sizes[1:-1])
    return np.arange(-1, len(grid)).repeat(sizes)


def _opposite_ties(t, o, d):
    """Whether an event leaves some station at an instant when another arrives there."""
    t = t.tolist()
    return not set(zip(t, o.tolist())).isdisjoint(zip(t, d.tolist()))


def _run(seed, tables, keys, plan, plan_events, plan_ties, v, c, T, with_delay):
    """One run: ``(failed_at, events, tie_path)``, ``failed_at`` inf if it never fails.

    ``keys`` holds each pair's 0-based origin and destination station keys.
    ``plan`` holds the entries of the ``plan_events`` relocations that start
    by T, with the same keys, in the reference order: (t, o, d) sorted by
    (t, o, d) without delays, (t, station, step) of their departures and
    landed arrivals sorted by (t, -step, station) with them.  ``plan_ties``
    counts the plan's adjacent equal times.  ``events`` counts the run's
    requests and relocations; ``tie_path`` is whether the run took the full
    lexicographic sort.
    """
    t, pair = sample_requests(tables, T, np.random.default_rng(seed))
    o, d = keys[0].take(pair), keys[1].take(pair)
    events = len(t) + plan_events
    tie_path = False
    if with_delay:
        arrive = t + tables.pair_eta.take(pair)
        landed = arrive <= T
        arrive, d = arrive[landed], d[landed]
        first = arrive.argsort()
        plan_t, plan_st, plan_step = plan
        t = np.concatenate([arrive.take(first), plan_t, t])
        st = np.concatenate([d.take(first), plan_st, o])
        step = np.concatenate(
            [np.ones(len(arrive), np.int8), plan_step, np.full(len(o), -1, np.int8)]
        )
        order = t.argsort(kind="stable")
        t, st, step = t.take(order), st.take(order), step.take(order)
        per_event = 1
    else:
        plan_t, plan_o, plan_d = plan
        if plan_events:
            t = np.concatenate([t, plan_t])
            o = np.concatenate([o, plan_o])
            d = np.concatenate([d, plan_d])
            order = t.argsort(kind="stable")
            t, o, d = t.take(order), o.take(order), d.take(order)
        if np.count_nonzero(t[1:] == t[:-1]) > plan_ties and _opposite_ties(t, o, d):
            tie_path = True
            order = np.lexsort((d, o, t))
            t, o, d = t.take(order), o.take(order), d.take(order)
        # entries [o0, d0, o1, d1, ...]: each event removes at o, adds at d
        st = np.empty(2 * len(t), dtype=o.dtype)
        st[0::2] = o
        st[1::2] = d
        step = np.empty(2 * len(t), dtype=np.int8)
        step[0::2] = -1
        step[1::2] = 1
        per_event = 2

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
    failed_at = float(t[perm[refused].min() // per_event]) if refused.any() else np.inf
    return failed_at, events, tie_path


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
    # the narrowest station key: the stable sort by station then runs as a
    # radix sort, in one pass over the entries up to 256 stations
    key_type = np.min_scalar_type(model.k - 1)
    plan_t, plan_o, plan_d, plan_eta = _plan_arrays(model, plan)
    due = plan_t <= T
    plan_t, plan_eta = plan_t[due], plan_eta[due]
    plan_o, plan_d = (plan_o[due] - 1).astype(key_type), (plan_d[due] - 1).astype(key_type)
    if with_delay:
        arrive = plan_t + plan_eta
        landed = arrive <= T
        t = np.concatenate([plan_t, arrive[landed]])
        st = np.concatenate([plan_o, plan_d[landed]])
        step = np.ones(len(t), dtype=np.int8)
        step[: len(plan_t)] = -1
        order = np.lexsort((st, -step, t))
        entries = (t[order], st[order], step[order])
    else:
        # the plan lists its relocations by (t, o, d), the reference order
        entries = (plan_t, plan_o, plan_d)
    run_batch = partial(
        _run_batch,
        tables=tables,
        keys=((tables.pair_o - 1).astype(key_type), (tables.pair_d - 1).astype(key_type)),
        plan=entries,
        plan_events=len(plan_t),
        plan_ties=int(np.count_nonzero(entries[0][1:] == entries[0][:-1])),
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
        "monte carlo: %d runs, %d workers, %d events, %d tie-path runs, %.3f s",
        len(runs), workers, sum(run[1] for run in runs), sum(run[2] for run in runs),
        time.perf_counter() - start,
    )
    return np.array([run[0] for run in runs], dtype=float)


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
