"""Demand estimation and replay sequences from historical trip logs.

Input is a trip CSV with header columns ``start_time``, ``end_time``,
``start_station_id``, ``end_station_id`` (extra columns are ignored,
timestamps are ISO-8601 local time).  Station ids in the file are
arbitrary; they are relabelled to dense 1..k in the order of sorted raw
ids, and the mapping is carried alongside every artifact that needs it.

Trips are filtered (day kind, month), labelled and clocked once, into
per-day rental sequences.  Demand is their average, a single typical-day
profile: the rate for a pair in an hour bin is the rental count in that
bin across all days divided by (number of days x bin width).  Travel
times are per-pair medians with a global-median fallback for unseen
pairs.  Round trips (start station == end station) move no stock and are
dropped, with a count reported.
"""

import csv
import logging
import math
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .model import (
    DemandModel,
    _checked_pairs,
    _checked_size,
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
    if any(seq.horizon != DAY_HOURS for seq in sequences):
        raise ValueError(f"demand is estimated from {DAY_HOURS:g} h days")
    check_bin_width(bin_hours)
    # count whole bins rather than take a float modulo: 24 % 0.1 == 0.0999...
    n_bins = round(DAY_HOURS / bin_hours)
    if n_bins < 1 or abs(n_bins * bin_hours - DAY_HOURS) > 1e-9:
        raise ValueError("bin_hours must evenly divide 24")
    events = [e for seq in sequences for e in seq.events]
    if not events:
        raise ValueError("no trips left after filtering; cannot estimate demand")

    # pairs are numbered in the order they are first seen
    index = {}
    pair = np.fromiter((index.setdefault((e.o, e.d), len(index)) for e in events), np.intp, len(events))
    t, rides = np.array([(e.t, e.eta) for e in events]).T
    k, n_pairs, n_days = sequences.k, len(index), len(sequences)
    _checked_size(k, DAY_HOURS)
    o, d = _checked_pairs(k, [label for key in index for label in key])
    hits = pair * n_bins + np.minimum((t / bin_hours).astype(np.intp), n_bins - 1)
    values = np.bincount(hits, minlength=n_pairs * n_bins) / (n_days * bin_hours)
    pieces = np.tile(np.arange(n_bins) * bin_hours, n_pairs), values, np.full(n_pairs, n_bins)

    # each pair's median riding time, then the global one, as statistics.median
    # takes them: a stable sort, then the middle entry or the mean of the two
    x = np.concatenate([rides[np.lexsort((rides, pair))], rides[np.lexsort((pair, rides))]])
    n = np.append(np.bincount(pair, minlength=n_pairs), len(events))
    mid = np.cumsum(n) - n + n // 2
    median = np.where(n % 2 == 1, x[mid], (x[mid - 1] + x[mid]) / 2)
    eta = np.full((k, k), median[-1])
    eta[o - 1, d - 1] = median[:-1]
    np.fill_diagonal(eta, 0.0)

    log.info("estimated demand for k=%d stations from %d trips over %d days", k, len(events), n_days)
    return DemandModel._of_pieces(k, o, d, pieces, eta.tolist(), DAY_HOURS)


# --- per-day replay sequences -------------------------------------------------


@dataclass(frozen=True)
class RentalEvent:
    """One observed rental: request at hour t, o -> d, riding time eta hours."""

    t: float
    o: int
    d: int
    eta: float


@dataclass(frozen=True)
class DaySequence:
    date: str
    events: tuple
    horizon: float = DAY_HOURS

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        if not all(math.isfinite(e.t) and math.isfinite(e.eta) for e in self.events):
            raise ValueError("event times and riding times must be finite")
        if any(e.eta < 0.0 for e in self.events):
            raise ValueError("riding times must be non-negative")
        if any(not 0.0 <= e.t <= self.horizon for e in self.events):
            raise ValueError(f"event times must lie within [0, {self.horizon}] hours")
        if any(
            a.t > b.t for a, b in zip(self.events, self.events[1:])
        ):
            raise ValueError("events must be ordered by time")


def extract_day_sequences(trips, station_ids=None, days="working", month=None):
    """One DaySequence per filtered calendar day, events in start-time order.

    station_ids fixes the raw-id -> label mapping and the station count k
    (sorted raw ids of the kept trips when omitted).
    """
    kept = _filter_trips(trips, days, month)
    if station_ids is None:
        station_ids = station_set_from_trips(kept)
    label = {raw: i + 1 for i, raw in enumerate(station_ids)}

    by_date = {}
    for trip in kept:
        started = trip.start_time
        t = started.hour + started.minute / 60.0 + started.second / 3600.0
        event = RentalEvent(
            t, label[trip.start_station], label[trip.end_station], trip.duration_hours
        )
        by_date.setdefault(started.date(), []).append(event)

    sequences = []
    for date in sorted(by_date):
        events = sorted(by_date[date], key=lambda e: e.t)
        sequences.append(DaySequence(date.isoformat(), tuple(events)))
    return DaySequences(sequences, len(station_ids))


def sequences_to_json(sequences, k, station_ids=None):
    doc = {
        "k": k,
        "horizon_hours": sequences[0].horizon if sequences else DAY_HOURS,
        "days": [
            {
                "date": seq.date,
                "events": [
                    {"t": e.t, "o": e.o, "d": e.d, "eta": e.eta} for e in seq.events
                ],
            }
            for seq in sequences
        ],
    }
    if station_ids is not None:
        doc["station_ids"] = list(station_ids)
    return doc


class DaySequences(list):
    """The day sequences of one file, with the station count ``k`` it states."""

    def __init__(self, days, k):
        super().__init__(days)
        self.k = k


def sequences_from_json(doc):
    with parsing("sequence"):
        k = whole_number(doc["k"])
        horizon = number(doc["horizon_hours"])
        sequences = []
        for day in doc["days"]:
            events = tuple(
                RentalEvent(
                    number(e["t"]), whole_number(e["o"]), whole_number(e["d"]), number(e["eta"])
                )
                for e in day["events"]
            )
            date = day["date"]
            if type(date) is not str:
                raise TypeError(f"expected a date string, got {date!r}")
            sequences.append(DaySequence(date, events, horizon))
        return DaySequences(sequences, k)


def load_sequences(path):
    return sequences_from_json(read_json(path))


def save_sequences(sequences, k, path, station_ids=None):
    write_json(sequences_to_json(sequences, k, station_ids), path)
