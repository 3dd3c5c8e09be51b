"""Demand estimation and replay sequences from historical trip logs.

Input is a trip CSV with header columns ``start_time``, ``end_time``,
``start_station_id``, ``end_station_id`` (extra columns are ignored,
timestamps are ISO-8601 local time, a leading byte-order mark is
skipped).  ``parse_trips`` reads it in one pass into ``Trips``: columns
of start date, start hour, riding time and raw origin and destination
ids.  Station ids in the file are arbitrary int64 values written in
ASCII digits; they are relabelled to dense 1..k in the order of sorted
raw ids, and the mapping is carried alongside every artifact that needs
it.

Trips are filtered (day kind, month) by masks over those columns,
labelled and sorted once, into ``DaySequences``: every kept day's
rentals as columns of request time, origin, destination and riding
time, in (day, time) order, checked once when built.  Demand is their
average, a single typical-day profile: the rate for a pair in an hour
bin is the rental count in that bin across all days divided by (number
of days x bin width).  Travel times are per-pair medians with a
global-median fallback for unseen pairs.  Round trips (start station ==
end station) move no stock and are dropped, with a count reported.
"""

import csv
import logging
import re
import time
from dataclasses import dataclass, field
from datetime import date, datetime
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
_STATION_ID = re.compile(r"\s*[+-]?[0-9]+\s*")
_MONTH = re.compile(r"[0-9]{4}-(0[1-9]|1[0-2])")


@dataclass(frozen=True, eq=False)
class Trips:
    """Parsed trips as read-only columns in file order, and the rows rejected by reason.

    Trip i starts on the date with ordinal ``day[i]`` at hour ``t[i]``
    (local clock, whole seconds), rides ``ride[i]`` hours and goes from raw
    station ``o[i]`` to ``d[i]``.  ``len()`` counts the trips.
    """

    day: np.ndarray
    t: np.ndarray
    ride: np.ndarray
    o: np.ndarray
    d: np.ndarray
    rejected: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, dtype in (("day", np.int64), ("t", float), ("ride", float), ("o", np.int64),
                            ("d", np.int64)):
            column = np.array(getattr(self, name), dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self):
        return self.t.size

    @property
    def n_rejected(self):
        return sum(self.rejected.values())


def _station_id(cell):
    """A station id cell: an optionally signed run of ASCII digits that fits int64."""
    if not _STATION_ID.fullmatch(cell) or not -(2**63) <= (raw := int(cell)) < 2**63:
        raise ValueError(f"bad station id {cell!r}")
    return raw


def parse_trips(path):
    """Read a trip CSV into columns, counting the rows it rejects by reason.

    Rows that do not parse are ``malformed`` and trips that end before they
    start ``ends_before_start``; neither is fatal.
    """
    columns = day, t, ride, o, d = [], [], [], [], []
    rejected = {}
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [name.strip() for name in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty trip file") from None
        missing = [c for c in _REQUIRED_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"{path}: missing required columns {missing}")
        repeated = [c for c in _REQUIRED_COLUMNS if header.count(c) > 1]
        if repeated:
            raise ValueError(f"{path}: duplicate columns {repeated}")
        i_start, i_end, i_o, i_d = map(header.index, _REQUIRED_COLUMNS)
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                start = datetime.fromisoformat(row[i_start])
                end = datetime.fromisoformat(row[i_end])
                stations = _station_id(row[i_o]), _station_id(row[i_d])
                # a TypeError when one timestamp alone has a UTC offset
                reason = "ends_before_start" if end < start else None
            except (ValueError, IndexError, TypeError):
                reason = "malformed"
            if reason:
                rejected[reason] = rejected.get(reason, 0) + 1
                log.debug("row %d rejected (%s)", row_no, reason)
                continue
            day.append(start.toordinal())
            t.append(start.hour + start.minute / 60.0 + start.second / 3600.0)
            ride.append((end - start).total_seconds() / 3600.0)
            o.append(stations[0])
            d.append(stations[1])
    trips = Trips(*columns, rejected)
    if rejected:
        log.info(
            "parsed %d trips from %s, rejected %d (%s)",
            len(trips),
            path,
            trips.n_rejected,
            ", ".join(f"{k}={v}" for k, v in sorted(rejected.items())),
        )
    return trips


def station_set_from_trips(trips):
    """Sorted raw station ids appearing in the trips; index+1 is the label."""
    return tuple(np.unique(np.concatenate([trips.o, trips.d])).tolist())


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

    ``days`` keeps working days or all days, ``month`` (``YYYY-MM``) one
    month; round trips are dropped.  station_ids fixes the raw-id -> label
    mapping and the station count k (sorted raw ids of the kept trips when
    omitted).
    """
    if days not in ("working", "all"):
        raise ValueError(f"unknown day filter {days!r} (expected 'working' or 'all')")
    if month is not None and not _MONTH.fullmatch(month):
        raise ValueError(f"month must be in YYYY-MM form, got {month!r}")
    keep = (trips.day + 6) % 7 < 5 if days == "working" else np.ones(len(trips), bool)
    if month is not None:
        ordinals = np.unique(trips.day).tolist()
        in_month = [x for x in ordinals if date.fromordinal(x).isoformat()[:7] == month]
        keep &= np.isin(trips.day, in_month)
    round_trip = trips.o == trips.d
    n_round = int((keep & round_trip).sum())
    if n_round:
        log.info("dropped %d round trips (same start and end station)", n_round)
    kept = np.flatnonzero(keep & ~round_trip)

    raw = np.concatenate([trips.o[kept], trips.d[kept]])
    if station_ids is None:
        station_ids = tuple(np.unique(raw).tolist())
    for raw_id in station_ids:
        if not -(2**63) <= raw_id < 2**63:
            raise ValueError(f"station id {raw_id} in station_ids does not fit int64")
    ids = np.array(station_ids, np.int64)
    unique, counts = np.unique(ids, return_counts=True)
    if (counts > 1).any():
        raise ValueError(f"station id {unique[counts > 1][0]} appears twice in station_ids")
    unknown = raw[~np.isin(raw, ids)]
    if unknown.size:
        raise ValueError(f"trip names station {unknown[0]}, which station_ids does not list")
    rank = np.argsort(ids, kind="stable")
    o, d = (rank[np.searchsorted(ids[rank], raw)] + 1).reshape(2, -1)

    day, t = trips.day[kept], trips.t[kept]
    order = np.lexsort((t, day))  # stable: trips that start together keep their order
    dates, counts = np.unique(day[order], return_counts=True)
    return DaySequences(len(station_ids), DAY_HOURS,
                        [date.fromordinal(x).isoformat() for x in dates.tolist()],
                        counts, t[order], o[order], d[order], trips.ride[kept][order])


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
