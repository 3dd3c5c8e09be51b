"""Demand estimation and replay sequences from historical trip logs.

Input is a trip CSV with header columns ``start_time``, ``end_time``,
``start_station_id``, ``end_station_id`` (extra columns are ignored,
timestamps are ISO-8601 local time).  Station ids in the file are
arbitrary; they are relabelled to dense 1..k in the order of sorted raw
ids, and the mapping is carried alongside every artifact that needs it.

Trips are filtered (day kind, month), labelled and clocked once, into
``DaySequences``: every kept day's rentals as columns of request time,
origin, destination and riding time, in (day, time) order, checked once
when built.  Demand is their average, a single typical-day profile: the
rate for a pair in an hour bin is the rental count in that bin across
all days divided by (number of days x bin width).  Travel times are
per-pair medians with a global-median fallback for unseen pairs.  Round
trips (start station == end station) move no stock and are dropped,
with a count reported.
"""

import csv
import logging
import time
from dataclasses import dataclass, field
from datetime import datetime
from itertools import chain

import numpy as np

from .model import (
    _NUMBER_TYPES,
    DemandModel,
    _checked_horizon,
    _checked_pairs,
    check_bin_width,
    number,
    parsing,
    read_json,
    whole_number,
    write_json,
)

log = logging.getLogger(__name__)

DAY_HOURS = 24.0

_REQUIRED_COLUMNS = ("start_time", "end_time", "start_station_id", "end_station_id")


@dataclass(frozen=True)
class TripRecord:
    start_time: datetime
    end_time: datetime
    start_station: int
    end_station: int

    @property
    def duration_hours(self):
        return (self.end_time - self.start_time).total_seconds() / 3600.0

    @property
    def is_round_trip(self):
        return self.start_station == self.end_station


@dataclass
class TripParseResult:
    records: list
    rejected: dict = field(default_factory=dict)

    @property
    def n_rejected(self):
        return sum(self.rejected.values())


def _parse_row(row, lookup):
    try:
        start = datetime.fromisoformat(row[lookup["start_time"]])
        end = datetime.fromisoformat(row[lookup["end_time"]])
        o = int(row[lookup["start_station_id"]])
        d = int(row[lookup["end_station_id"]])
        backwards = end < start  # a TypeError when one timestamp alone has a UTC offset
    except (ValueError, IndexError, TypeError):
        return None, "malformed"
    if backwards:
        return None, "ends_before_start"
    return TripRecord(start, end, o, d), None


def parse_trips(path, station_set=None):
    """Read a trip CSV, keeping valid rows and counting the rest by reason.

    station_set, when given, restricts the accepted station ids; rows
    naming other stations are rejected with a diagnostic.  Malformed rows
    are never fatal.
    """
    records = []
    rejected = {}

    def reject(reason, row_no, detail=""):
        rejected[reason] = rejected.get(reason, 0) + 1
        log.debug("row %d rejected (%s)%s", row_no, reason, detail)

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty trip file") from None
        lookup = {name.strip(): i for i, name in enumerate(header)}
        missing = [c for c in _REQUIRED_COLUMNS if c not in lookup]
        if missing:
            raise ValueError(f"{path}: missing required columns {missing}")
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            record, reason = _parse_row(row, lookup)
            if record is None:
                reject(reason, row_no)
                continue
            if station_set is not None and (
                record.start_station not in station_set
                or record.end_station not in station_set
            ):
                reject(
                    "unknown_station",
                    row_no,
                    f": {record.start_station} -> {record.end_station}",
                )
                continue
            records.append(record)
    if rejected:
        log.info(
            "parsed %d trips from %s, rejected %d (%s)",
            len(records),
            path,
            sum(rejected.values()),
            ", ".join(f"{k}={v}" for k, v in sorted(rejected.items())),
        )
    return TripParseResult(records, rejected)


def station_set_from_trips(trips):
    """Sorted raw station ids appearing in the trips; index+1 is the label."""
    ids = set()
    for trip in trips:
        ids.add(trip.start_station)
        ids.add(trip.end_station)
    return tuple(sorted(ids))


def _day_passes(date, days, month):
    if month is not None and f"{date.year:04d}-{date.month:02d}" != month:
        return False
    if days == "working":
        return date.weekday() < 5
    if days == "all":
        return True
    raise ValueError(f"unknown day filter {days!r} (expected 'working' or 'all')")


def _filter_trips(trips, days, month):
    kept = []
    n_round = 0
    for trip in trips:
        if not _day_passes(trip.start_time.date(), days, month):
            continue
        if trip.is_round_trip:
            n_round += 1
            continue
        kept.append(trip)
    if n_round:
        log.info("dropped %d round trips (same start and end station)", n_round)
    return kept


def estimate_demand(sequences, bin_hours=1.0):
    """Average recorded days into a typical-day DemandModel.

    ``sequences`` is a DaySequences (``extract_day_sequences``,
    ``load_sequences``), whose ``k`` fixes the station count.  The rate of
    pair (o, d) in bin b is the number of o->d rentals starting in that bin
    across all days, divided by the exposure len(sequences) * bin_hours, so
    integrating the model over the day and multiplying by the day count
    recovers the rental counts exactly.
    """
    if sequences.horizon != DAY_HOURS:
        raise ValueError(f"demand is estimated from {DAY_HOURS:g} h days")
    check_bin_width(bin_hours)
    # count whole bins rather than take a float modulo: 24 % 0.1 == 0.0999...
    n_bins = round(DAY_HOURS / bin_hours)
    if n_bins < 1 or abs(n_bins * bin_hours - DAY_HOURS) > 1e-9:
        raise ValueError("bin_hours must evenly divide 24")
    t, rides = sequences.t, sequences.eta
    if not t.size:
        raise ValueError("no trips left after filtering; cannot estimate demand")

    # pairs are numbered in the order they are first seen
    k, n_days = sequences.k, len(sequences)
    keys, first, inverse = np.unique(sequences.o * (k + 1) + sequences.d, return_index=True,
                                     return_inverse=True)
    pair, n_pairs = np.argsort(np.argsort(first))[inverse], keys.size
    seen = np.divmod(keys[np.argsort(first)], k + 1)
    o, d = _checked_pairs(k, np.column_stack(seen).ravel().tolist())
    hits = pair * n_bins + np.minimum((t / bin_hours).astype(np.intp), n_bins - 1)
    values = np.bincount(hits, minlength=n_pairs * n_bins) / (n_days * bin_hours)
    pieces = np.tile(np.arange(n_bins) * bin_hours, n_pairs), values, np.full(n_pairs, n_bins)

    # each pair's median riding time, then the global one, as statistics.median
    # takes them: a stable sort, then the middle entry or the mean of the two
    x = np.concatenate([rides[np.lexsort((rides, pair))], rides[np.lexsort((pair, rides))]])
    n = np.append(np.bincount(pair, minlength=n_pairs), t.size)
    mid = np.cumsum(n) - n + n // 2
    median = np.where(n % 2 == 1, x[mid], (x[mid - 1] + x[mid]) / 2)
    eta = np.full((k, k), median[-1])
    eta[o - 1, d - 1] = median[:-1]
    np.fill_diagonal(eta, 0.0)

    log.info("estimated demand for k=%d stations from %d trips over %d days", k, t.size, n_days)
    return DemandModel._of_pieces(k, o, d, pieces, eta.tolist(), DAY_HOURS)


# --- per-day replay sequences -------------------------------------------------


@dataclass(frozen=True, eq=False, init=False)
class DaySequences:
    """Recorded days of rentals between stations 1..k over ``horizon`` hours, as columns.

    Day i is ``dates[i]``; its ``counts[i]`` events follow those of the
    days before it in the read-only columns ``t``, ``o``, ``d`` and
    ``eta``: a request at hour t from station o to d, riding eta hours, in
    time order within the day.  ``len()`` counts the days, ``sequences[i]``
    is day i as a one-day DaySequences whose columns are views of these,
    and equal DaySequences have bitwise equal columns.
    """

    k: int
    horizon: float
    dates: tuple

    def __init__(self, k, horizon, dates, counts, t, o, d, eta):
        horizon = _checked_horizon(horizon)
        counts, t, eta = np.array(counts, np.intp), np.array(t, float), np.array(eta, float)
        day = np.repeat(np.arange(counts.size), counts)
        if not (np.isfinite(t) & np.isfinite(eta)).all():
            raise ValueError("event times and riding times must be finite")
        if (eta < 0.0).any():
            raise ValueError("riding times must be non-negative")
        if not ((t >= 0.0) & (t <= horizon)).all():
            raise ValueError(f"event times must lie within [0, {horizon}] hours")
        if ((t[1:] < t[:-1]) & (day[1:] == day[:-1])).any():
            raise ValueError("events must be ordered by time")
        # labels as read may be Python ints past intp's range
        if not all(((x >= 1) & (x <= k)).all() for x in map(np.asarray, (o, d))):
            raise ValueError(f"event names station outside 1..{k}")
        columns = dict(counts=counts, t=t, o=np.array(o, np.intp), d=np.array(d, np.intp), eta=eta)
        for a in columns.values():
            a.flags.writeable = False
        vars(self).update(columns, k=k, horizon=horizon, dates=tuple(dates))

    def __len__(self):
        return len(self.dates)

    def __getitem__(self, i):
        i = range(len(self))[i]  # an IndexError past either end
        events = slice(int(self.counts[:i].sum()), int(self.counts[: i + 1].sum()))
        day = object.__new__(DaySequences)
        vars(day).update({key: getattr(self, key)[events] for key in ("t", "o", "d", "eta")},
                         k=self.k, horizon=self.horizon, dates=self.dates[i : i + 1],
                         counts=self.counts[i : i + 1])
        return day

    def __eq__(self, other):
        if not isinstance(other, DaySequences):
            return NotImplemented
        return (self.k, self.horizon, self.dates) == (other.k, other.horizon, other.dates) and all(
            getattr(self, c).tobytes() == getattr(other, c).tobytes() for c in ("counts", "t", "o", "d", "eta")
        )


def extract_day_sequences(trips, station_ids=None, days="working", month=None):
    """The filtered calendar days of ``trips``, each day's events in start-time order.

    station_ids fixes the raw-id -> label mapping and the station count k
    (sorted raw ids of the kept trips when omitted).
    """
    kept = _filter_trips(trips, days, month)
    if station_ids is None:
        station_ids = station_set_from_trips(kept)
    label = {raw: i + 1 for i, raw in enumerate(station_ids)}

    def column(values, dtype=float):
        return np.fromiter(values, dtype, len(kept))

    started = [trip.start_time for trip in kept]
    day = column((s.toordinal() for s in started), np.intp)
    t = column(s.hour + s.minute / 60.0 + s.second / 3600.0 for s in started)
    order = np.lexsort((t, day))  # stable: trips that start together keep their order
    dates, counts = np.unique(day[order], return_counts=True)
    o = column((label[trip.start_station] for trip in kept), np.intp)
    d = column((label[trip.end_station] for trip in kept), np.intp)
    eta = column(trip.duration_hours for trip in kept)
    return DaySequences(len(station_ids), DAY_HOURS,
                        [datetime.fromordinal(x).date().isoformat() for x in dates.tolist()],
                        counts, t[order], o[order], d[order], eta[order])


def sequences_to_json(sequences, station_ids=None):
    columns = (getattr(sequences, key).tolist() for key in ("t", "o", "d", "eta"))
    events = [{"t": t, "o": o, "d": d, "eta": eta} for t, o, d, eta in zip(*columns)]
    ends = np.cumsum(sequences.counts).tolist()
    doc = {
        "k": sequences.k,
        "horizon_hours": sequences.horizon,
        "days": [{"date": date, "events": events[a:b]}
                 for date, a, b in zip(sequences.dates, [0, *ends], ends)],
    }
    if station_ids is not None:
        doc["station_ids"] = list(station_ids)
    return doc


def _column(values, labels):
    """One field of a document's events as an array.

    ``whole_number`` (for station ``labels``) or ``number`` reads the values
    only when some value is not an int (or, for a number, a float).
    """
    if not set(map(type, values)) <= ({int} if labels else _NUMBER_TYPES):
        values = list(map(whole_number if labels else number, values))
    return np.array(values)


def sequences_from_json(doc):
    t0 = time.perf_counter()
    with parsing("sequence"):
        k, horizon = whole_number(doc["k"]), number(doc["horizon_hours"])
        days = doc["days"]
        events = [day["events"] for day in days]
        if not all(type(x) is list for x in (days, *events)):  # not the keys of an object
            raise TypeError("expected lists of days and of events")
        dates = [day["date"] for day in days]
        for date in dates:
            if type(date) is not str:
                raise TypeError(f"expected a date string, got {date!r}")
        flat = list(chain.from_iterable(events))
        t, o, d, eta = (_column([e[key] for e in flat], key in "od") for key in ("t", "o", "d", "eta"))
        sequences = DaySequences(k, horizon, dates, list(map(len, events)), t, o, d, eta)
    log.debug("read %d days, %d events of day sequences, %.3f s",
              len(sequences), t.size, time.perf_counter() - t0)
    return sequences


def load_sequences(path):
    return sequences_from_json(read_json(path))


def save_sequences(sequences, path, station_ids=None):
    write_json(sequences_to_json(sequences, station_ids), path)
