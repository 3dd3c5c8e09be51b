"""Deterministic replay of recorded rental days against a candidate design.

Each day is replayed as a discrete-event pass: rental departures take a
vehicle (or record an availability failure and skip the trip), the
matching arrival docks it after the trip's riding time, and scheduled
relocations move one vehicle with the same rules.  Unlike the analytic
model, the day keeps running after a failure -- the metric is the
fraction of days with at least one failure, so every failure must be
observed, not only the first.

Simultaneous events process arrivals before departures (a vehicle that
docks at time t is available to a request at time t); remaining ties
fall back on scheduling order, which is itself deterministic.
"""

import heapq
import logging
import time
from dataclasses import dataclass
from itertools import repeat

from .model import SystemDesign

log = logging.getLogger(__name__)

_ARRIVAL, _DEPARTURE = 1, 2

# largest per-station capacity a baseline search tries
MAX_BASELINE_CAPACITY = 400


@dataclass(frozen=True)
class ReplayOutcome:
    day: str
    availability_failures: int
    capacity_failures: int
    final_stocks: tuple

    @property
    def day_failed(self):
        return self.availability_failures + self.capacity_failures > 0


def replay_day(seq, plan, design, eta=None, overflow=True):
    """Replay one day's rentals plus the plan's relocations against a design.

    ``seq`` is a one-day DaySequences, such as ``sequences[i]``.  eta
    supplies relocation travel times as a k x k matrix of hours (zero
    when omitted; rentals always ride for their recorded duration).  In
    overflow mode a vehicle arriving at a full station docks anyway and
    the violation is counted; with overflow=False it is discarded
    instead.  The plan must span the same horizon as the day.
    """
    k = design.k
    if plan.k != k:
        raise ValueError(f"plan is for {plan.k} stations, design for {k}")
    (date,) = seq.dates
    if plan.horizon != seq.horizon:
        raise ValueError(f"plan covers {plan.horizon:g} h, day {date} covers {seq.horizon:g} h")
    if seq.k != k:
        raise ValueError(f"sequences have {seq.k} stations, design has {k}")
    stocks = list(design.v)
    availability = capacity = 0

    n = seq.t.size
    heap = list(zip(seq.t.tolist(), repeat(_DEPARTURE), range(n), seq.o.tolist(),
                    seq.d.tolist(), seq.eta.tolist()))
    heapq.heapify(heap)
    order = n
    for t, o, d in plan.instants():
        delay = eta[o - 1][d - 1] if eta is not None else 0.0
        heapq.heappush(heap, (t, _DEPARTURE, order, o, d, delay))
        order += 1

    while heap:
        t, kind, _, o, d, ride = heapq.heappop(heap)
        if kind == _DEPARTURE:
            if stocks[o - 1] == 0:
                availability += 1
            else:
                stocks[o - 1] -= 1
                heapq.heappush(heap, (t + ride, _ARRIVAL, order, o, d, 0.0))
                order += 1
        else:
            full = stocks[d - 1] >= design.c[d - 1]
            capacity += full
            if overflow or not full:
                stocks[d - 1] += 1

    return ReplayOutcome(date, availability, capacity, tuple(stocks))


def failure_rate(outcomes):
    """Fraction of replayed days that saw at least one failure."""
    if not outcomes:
        raise ValueError("no replay outcomes to aggregate")
    return sum(1 for o in outcomes if o.day_failed) / len(outcomes)


def replay_all(sequences, plan, design, eta=None, overflow=True):
    """Replay every day of a DaySequences against one design, one outcome per day."""
    t0 = time.perf_counter()
    outcomes = [replay_day(seq, plan, design, eta=eta, overflow=overflow) for seq in sequences]
    log.debug("replayed %d days, %d events: %d failed days, %.3f s", len(outcomes),
              sequences.t.size, sum(o.day_failed for o in outcomes), time.perf_counter() - t0)
    return outcomes


def baseline_design(k, per_station_capacity):
    """Equal capacity everywhere, half of it (rounded down) stocked."""
    if per_station_capacity < 0:
        raise ValueError("capacity must be non-negative")
    return SystemDesign((per_station_capacity // 2,) * k, (per_station_capacity,) * k)


def smallest_baselines(sequences, plan, eta, targets):
    """The least uniform baseline that meets each target failure rate, or None.

    Entry i is the first ``baseline_design`` of capacity 1..MAX_BASELINE_CAPACITY
    whose ``failure_rate`` under ``plan`` is at most ``targets[i]``.  One upward
    scan serves every target and stops once each is met.
    """
    found = [None] * len(targets)
    cap = 0
    while None in found and cap < MAX_BASELINE_CAPACITY:
        cap += 1
        design = baseline_design(sequences.k, cap)
        rate = failure_rate(replay_all(sequences, plan, design, eta=eta))
        found = [f or (design if rate <= t else None) for f, t in zip(found, targets)]
    return found


def sweep(designs, sequences, plan, eta=None):
    """Failure rate for each labelled design, as rows ready for a curve table.

    A day fails at its first refusal, and up to it overflow and strict
    replay act the same, so the rates hold for either.
    """
    return [
        (label, design.fleet_size, design.total_capacity,
         failure_rate(replay_all(sequences, plan, design, eta=eta)))
        for label, design in designs
    ]
