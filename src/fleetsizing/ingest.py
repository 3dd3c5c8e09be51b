"""Demand estimation and replay sequences from historical trip logs.

Input is a trip CSV with header columns ``start_time``, ``end_time``,
``start_station_id``, ``end_station_id`` (extra columns are ignored,
timestamps are ISO-8601 local time).  Station ids in the file are
arbitrary; they are relabelled to dense 1..k in the order of sorted raw
ids, and the mapping is carried alongside every artifact that needs it.

Demand is averaged into a single typical-day profile: the rate for a
pair in an hour bin is the trip count in that bin across all filtered
days divided by (number of days x bin width).  Travel times are per-pair
medians with a global-median fallback for unseen pairs.  Round trips
(start station == end station) move no stock and are dropped everywhere,
with a count reported.
"""

import csv
import json
import logging
from dataclasses import dataclass, field
from datetime import datetime
from statistics import median

from .model import DemandModel, PiecewiseConstantIntensity

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
    except (ValueError, IndexError):
        return None, "malformed"
    if end < start:
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
    return kept, n_round


def estimate_demand(trips, station_ids=None, bin_hours=1.0, days="working", month=None):
    """Average filtered trips into a typical-day DemandModel.

    station_ids fixes the raw-id -> label mapping (sorted raw ids when
    omitted).  The rate of pair (o, d) in bin b is the number of o->d
    trips starting in that bin across all filtered days, divided by the
    exposure n_days * bin_hours, so integrating the model over the day
    and multiplying by n_days recovers the trip counts exactly.
    """
    # count whole bins rather than take a float modulo: 24 % 0.1 == 0.0999...
    n_bins = round(DAY_HOURS / bin_hours) if bin_hours > 0.0 else 0
    if n_bins < 1 or abs(n_bins * bin_hours - DAY_HOURS) > 1e-9:
        raise ValueError("bin_hours must evenly divide 24")
    kept, _ = _filter_trips(trips, days, month)
    if not kept:
        raise ValueError("no trips left after filtering; cannot estimate demand")
    if station_ids is None:
        station_ids = station_set_from_trips(kept)
    label = {raw: i + 1 for i, raw in enumerate(station_ids)}
    k = len(station_ids)

    dates = set()
    counts = {}
    durations = {}
    for trip in kept:
        dates.add(trip.start_time.date())
        o = label[trip.start_station]
        d = label[trip.end_station]
        started = trip.start_time
        hour = started.hour + started.minute / 60.0 + started.second / 3600.0
        b = min(int(hour / bin_hours), n_bins - 1)
        key = (o, d)
        if key not in counts:
            counts[key] = [0] * n_bins
        counts[key][b] += 1
        durations.setdefault(key, []).append(trip.duration_hours)

    n_days = len(dates)
    breakpoints = tuple(b * bin_hours for b in range(n_bins))
    intensities = {}
    for key, per_bin in counts.items():
        values = tuple(c / (n_days * bin_hours) for c in per_bin)
        intensities[key] = PiecewiseConstantIntensity(breakpoints, values, DAY_HOURS)

    global_eta = median(t for ts in durations.values() for t in ts)
    eta = [[0.0] * k for _ in range(k)]
    for o in range(1, k + 1):
        for d in range(1, k + 1):
            if o == d:
                continue
            ts = durations.get((o, d))
            eta[o - 1][d - 1] = median(ts) if ts else global_eta

    log.info(
        "estimated demand for k=%d stations from %d trips over %d days",
        k,
        len(kept),
        n_days,
    )
    return DemandModel(k, intensities, tuple(tuple(row) for row in eta), DAY_HOURS)


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
        if any(
            a.t > b.t for a, b in zip(self.events, self.events[1:])
        ):
            raise ValueError("events must be ordered by time")


def extract_day_sequences(trips, station_ids=None, days="working", month=None):
    """One DaySequence per filtered calendar day, events in start-time order."""
    kept, _ = _filter_trips(trips, days, month)
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
    return sequences


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
    try:
        k = int(doc["k"])
        horizon = float(doc["horizon_hours"])
        days = doc["days"]
    except KeyError as exc:
        raise ValueError(f"sequence document is missing key {exc}") from exc
    sequences = []
    for day in days:
        events = tuple(
            RentalEvent(float(e["t"]), int(e["o"]), int(e["d"]), float(e["eta"]))
            for e in day["events"]
        )
        sequences.append(DaySequence(day["date"], events, horizon))
    return DaySequences(sequences, k)


def load_sequences(path):
    with open(path, "r", encoding="utf-8") as fh:
        return sequences_from_json(json.load(fh))


def save_sequences(sequences, k, path, station_ids=None):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sequences_to_json(sequences, k, station_ids), fh, indent=2, sort_keys=True)
        fh.write("\n")
