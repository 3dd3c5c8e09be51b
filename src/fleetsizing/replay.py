"""Deterministic replay of recorded rental days against a candidate design.

Each day is replayed as a discrete-event pass: rental departures take a
vehicle (or record an availability failure and skip the trip), the
matching arrival docks it after the trip's riding time, and scheduled
relocations move one vehicle with the same rules.  Unlike the analytic
model, the day keeps running after a failure -- the metric is the
fraction of days with at least one failure, so every failure must be
observed, not only the first.

One event order serves every design.  A trip is a departure, -1 at its
origin at time t, and an arrival, +1 at its destination at t + ride.  A
day's trips are its rentals in recorded order, then the plan's
relocations in ``plan.instants()`` order, each riding ``eta[o][d]``
hours (zero when eta is omitted).  Within a day, entries go by time,
and at one instant:

1. arrivals of trips that left earlier, in the order their departures ran
   (by departure time, then trip);
2. departures by trip, each followed at once by its own arrival when
   ``t + ride == t`` in floats (a zero ride, or one too small to move t).

So entries sort by (day, time, departure time, trip, departure before
arrival), which is the order a heap of pending events pops them in.  A
refused departure skips its trip's arrival.  Arrivals that land after
the horizon keep their place in this order: replay docks them and counts
their refusals, while the Monte Carlo of ``simulate`` stops at T.

Until a day's first refusal, each station's stock is its initial stock
plus a path that no design changes.  Let ``need`` be minus the path's
lowest point and ``peak`` its highest, both floored at 0: the day fails
under (v, c) exactly when some station has ``v < need`` or
``v + peak > c`` (``envelopes``).  So ``sweep`` and ``smallest_baselines``
read every design's failure rate off one pass over the days.
"""

import logging
import time
from dataclasses import dataclass

import numpy as np

from .model import SystemDesign

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ReplayOutcome:
    day: str
    availability_failures: int
    capacity_failures: int
    final_stocks: tuple

    @property
    def day_failed(self):
        return self.availability_failures + self.capacity_failures > 0


def _check(sequences, plan, k):
    """Raise if the plan or the days do not fit k stations or one another (no days: no check)."""
    if not len(sequences):
        return
    if plan.k != k:
        raise ValueError(f"plan is for {plan.k} stations, design for {k}")
    if plan.horizon != sequences.horizon:
        raise ValueError(f"plan covers {plan.horizon:g} h, day {sequences.dates[0]} "
                         f"covers {sequences.horizon:g} h")
    if sequences.k != k:
        raise ValueError(f"sequences have {sequences.k} stations, design has {k}")


def _events(sequences, plan, eta):
    """Every day's entries in replay order, as (day, station, step, trip) arrays.

    Station is 0-based, step is -1 for a departure and +1 for an arrival,
    and trip numbers the departures: the rentals, then the plan's
    relocations day after day.  Step is int8 and the others int32.
    """
    days = len(sequences)
    instants = np.array(plan.instants(), dtype=float).reshape(-1, 3)
    t_pl = instants[:, 0]
    o_pl, d_pl = instants[:, 1:].T.astype(np.intp)
    ride_pl = np.zeros(t_pl.size) if eta is None else np.asarray(eta, dtype=float)[o_pl - 1, d_pl - 1]
    day = np.concatenate([np.repeat(np.arange(days, dtype=np.int32), sequences.counts),
                          np.repeat(np.arange(days, dtype=np.int32), t_pl.size)])
    t = np.concatenate([sequences.t, np.tile(t_pl, days)])
    lands = t + np.concatenate([sequences.eta, np.tile(ride_pl, days)])
    station = np.concatenate([sequences.o, np.tile(o_pl, days), sequences.d, np.tile(d_pl, days)],
                             dtype=np.int32, casting="same_kind") - 1
    n = t.size
    arrival = np.arange(2 * n) >= n  # entries are the n departures, then their n arrivals
    # by day, time, departure time, trip, then departure before arrival: at one
    # instant, arrivals of trips that left earlier come first
    order = np.lexsort((arrival, np.tile(np.arange(n), 2), np.tile(t, 2), np.concatenate([t, lands]),
                        np.tile(day, 2)))
    trip = (order % n).astype(np.int32)
    return day[trip], station[order], np.where(arrival[order], np.int8(1), np.int8(-1)), trip


def replay_all(sequences, plan, design, eta=None, overflow=True):
    """Replay every day of a DaySequences against one design, one outcome per day.

    eta supplies relocation travel times as a k x k matrix of hours (zero
    when omitted; rentals always ride for their recorded duration).  In
    overflow mode a vehicle arriving at a full station docks anyway and
    the violation is counted; with overflow=False it is discarded
    instead.  The plan must span the same horizon as the days.
    """
    t0 = time.perf_counter()
    _check(sequences, plan, design.k)
    day, station, step, trip = _events(sequences, plan, eta)
    ends = np.searchsorted(day, np.arange(len(sequences)), side="right").tolist()
    refused = bytearray(trip.size // 2)
    c = design.c
    outcomes = []
    for date, a, b in zip(sequences.dates, [0, *ends], ends):
        stocks = list(design.v)
        availability = capacity = 0
        for s, dock, i in zip(station[a:b].tolist(), step[a:b].tolist(), trip[a:b].tolist()):
            if dock < 0:
                if stocks[s] == 0:
                    availability += 1
                    refused[i] = 1
                else:
                    stocks[s] -= 1
            elif not refused[i]:
                full = stocks[s] >= c[s]
                capacity += full
                if overflow or not full:
                    stocks[s] += 1
        outcomes.append(ReplayOutcome(date, availability, capacity, tuple(stocks)))
    log.debug("replayed %d days, %d events: %d failed days, %.3f s", len(outcomes),
              sequences.t.size, sum(o.day_failed for o in outcomes), time.perf_counter() - t0)
    return outcomes


def replay_day(seq, plan, design, eta=None, overflow=True):
    """``replay_all`` of a one-day DaySequences, such as ``sequences[i]``: its one outcome."""
    (outcome,) = replay_all(seq, plan, design, eta=eta, overflow=overflow)
    return outcome


def _rate(failed, days):
    if not days:
        raise ValueError("no replay outcomes to aggregate")
    return int(failed) / days


def failure_rate(outcomes):
    """Fraction of replayed days that saw at least one failure."""
    return _rate(sum(o.day_failed for o in outcomes), len(outcomes))


def envelopes(sequences, plan, eta=None):
    """Each day's ``need`` and ``peak`` at each station, as two (days, k) int arrays.

    A station's path is the running sum of its entries' steps in replay
    order; ``need`` is minus its lowest point and ``peak`` its highest,
    both floored at 0.  Day i fails under (v, c) exactly when some station
    s has ``v[s] < need[i, s]`` or ``v[s] + peak[i, s] > c[s]``.
    """
    t0 = time.perf_counter()
    _check(sequences, plan, sequences.k)
    day, station, step, _ = _events(sequences, plan, eta)
    key = day.astype(np.int64) * sequences.k + station  # int64: days x k may pass int32
    order = np.argsort(key, kind="stable")
    key, step = key[order], step[order]
    path = np.cumsum(step)
    start = np.flatnonzero(np.diff(key, prepend=-1))
    before = path[start] - step[start]  # the running sum where each (day, station) begins
    need, peak = (np.zeros((len(sequences), sequences.k), dtype=np.intp) for _ in range(2))
    need.flat[key[start]] = np.maximum(before - np.minimum.reduceat(path, start), 0)
    peak.flat[key[start]] = np.maximum(np.maximum.reduceat(path, start) - before, 0)
    log.debug("enveloped %d days, %d entries, %.3f s", len(sequences), key.size,
              time.perf_counter() - t0)
    return need, peak


def baseline_design(k, per_station_capacity):
    """Equal capacity everywhere, half of it (rounded down) stocked."""
    if per_station_capacity < 0:
        raise ValueError("capacity must be non-negative")
    return SystemDesign((per_station_capacity // 2,) * k, (per_station_capacity,) * k)


def smallest_baselines(sequences, plan, eta, targets):
    """The least uniform baseline that meets each target failure rate.

    Entry i is the ``baseline_design`` of least capacity C >= 1 whose
    ``failure_rate`` under ``plan`` is at most ``targets[i]``; a negative
    target raises ValueError.  C serves a day when ``C // 2 >= need`` and
    ``C - C // 2 >= peak`` at every station, so the day's least capacity
    is ``max(2 need, 2 peak - 1, 1)``, and the rate only changes there.
    """
    if not all(target >= 0 for target in targets):
        raise ValueError("target failure rates must be non-negative")
    need, peak = envelopes(sequences, plan, eta)
    least = np.sort(np.maximum(np.maximum(2 * need, 2 * peak - 1).max(axis=1), 1))
    caps = np.unique(np.append(least, 1))
    failed = least.size - np.searchsorted(least, caps, side="right")
    rates = [_rate(f, least.size) for f in failed.tolist()]
    # rates fall as caps grow, and the largest cap serves every day
    return [baseline_design(sequences.k, int(caps[sum(r > target for r in rates)]))
            for target in targets]


def sweep(designs, sequences, plan, eta=None):
    """Failure rate for each labelled design, as rows ready for a curve table.

    A day fails at its first refusal, and up to it overflow and strict
    replay act the same, so the rates hold for either.
    """
    for _, design in designs:
        _check(sequences, plan, design.k)
    need, peak = envelopes(sequences, plan, eta)
    rows = []
    for label, design in designs:
        v, c = np.array(design.v), np.array(design.c)
        failed = ((v < need) | (v + peak > c)).any(axis=1).sum()
        rows.append((label, design.fleet_size, design.total_capacity, _rate(failed, len(sequences))))
    return rows
