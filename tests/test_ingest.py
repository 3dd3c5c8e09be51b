"""Trip-log ingestion: CSV parsing, demand estimation, per-day sequences."""

import csv
import datetime as dt
import json
import math
from dataclasses import dataclass
from statistics import median

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetsizing.ingest import (
    DaySequences,
    estimate_demand,
    extract_day_sequences,
    load_sequences,
    parse_trips,
    save_sequences,
    sequences_from_json,
    station_set_from_trips,
)
from fleetsizing.model import number, parsing, whole_number
from fleetsizing.synth import (
    sample_day_sequences,
    synthetic_imbalanced_model,
    uniform_demand_model,
)

from conftest import days_of, intensities, reference_integral, value_at

HEADER = "start_time,end_time,start_station_id,end_station_id"


def write_trips(path, rows, header=HEADER):
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


def working_days(year, month):
    day = dt.date(year, month, 1)
    while day.month == month:
        if day.weekday() < 5:
            yield day
        day += dt.timedelta(days=1)


def month_of_commutes(path):
    """Two 22->36 trips on every working day of May 2016 (44 total)."""
    rows = []
    for day in working_days(2016, 5):
        rows.append(f"{day}T08:15:00,{day}T08:30:00,22,36")
        rows.append(f"{day}T08:45:00,{day}T09:15:00,22,36")
    return write_trips(path, rows)


class TestParseTrips:
    def test_single_row(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv", ["2016-05-02T08:15:00,2016-05-02T08:30:00,22,36"]
        )
        trips = parse_trips(path)
        assert (len(trips), trips.n_rejected, trips.rejected) == (1, 0, {})
        assert trips.day.tolist() == [dt.date(2016, 5, 2).toordinal()]
        assert (trips.t.tolist(), trips.ride.tolist()) == ([8.25], [0.25])
        assert (trips.o.tolist(), trips.d.tolist()) == ([22], [36])
        assert trips.o.dtype == trips.d.dtype == np.int64

    def test_columns_are_read_only(self, tmp_path):
        trips = parse_trips(month_of_commutes(tmp_path / "t.csv"))
        for column in (trips.day, trips.t, trips.ride, trips.o, trips.d):
            with pytest.raises(ValueError):
                column[0] = 1

    def test_column_order_is_free(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv",
            ["36,extra,2016-05-02T08:15:00,22,2016-05-02T08:30:00"],
            header="end_station_id,notes,start_time,start_station_id,end_time",
        )
        trips = parse_trips(path)
        assert (trips.o.tolist(), trips.d.tolist()) == ([22], [36])

    def test_rejection_reasons_are_counted(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv",
            [
                "2016-05-02T08:15:00,2016-05-02T08:30:00,22,36",
                "2016-05-02T09:00:00,2016-05-02T08:30:00,22,36",  # ends first
                "not-a-date,2016-05-02T08:30:00,22,36",
                "2016-05-02T08:15:00,2016-05-02T08:30:00,twenty,36",
                "2016-05-02T08:15:00,2016-05-02T08:30:00,22,99",
                "2016-05-02T08:15:00+02:00,2016-05-02T08:30:00,22,36",  # one offset
                "2016-05-02T09:00:00,2016-05-02T08:30:00,22",  # ends first, but short
            ],
        )
        trips = parse_trips(path)
        assert trips.o.tolist() == [22, 22]
        assert trips.rejected == {"ends_before_start": 1, "malformed": 4}
        assert trips.n_rejected == 5

    @pytest.mark.parametrize("cell, raw", [
        ("22", 22), (" 22 ", 22), ("+22", 22), ("022", 22), ("-5", -5), ("\t7\u00a0", 7),
        (str(2**63 - 1), 2**63 - 1), (str(-(2**63)), -(2**63)),
        ("2_2", None), ("\u0662\u0662", None), ("22.0", None), ("", None), ("2 2", None),
        ("0x16", None), ("+-2", None), ("\u00b2", None), (str(2**63), None), (str(-(2**63) - 1), None),
    ])
    def test_station_ids_are_ascii_digits_that_fit_int64(self, tmp_path, cell, raw):
        path = tmp_path / "t.csv"
        path.write_text(f'{HEADER}\n2016-05-02T08:15:00,2016-05-02T08:30:00,"{cell}",36\n',
                        encoding="utf-8")
        trips = parse_trips(path)
        if raw is None:
            assert (len(trips), trips.rejected) == (0, {"malformed": 1})
        else:
            assert (trips.o.tolist(), trips.rejected) == ([raw], {})

    def test_offsets_on_both_timestamps_are_kept(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv", ["2016-05-02T08:15:00+02:00,2016-05-02T07:30:00+01:00,22,36"]
        )
        trips = parse_trips(path)
        assert (trips.t.tolist(), trips.ride.tolist()) == ([8.25], [0.25])

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv",
            ["2016-05-02T08:15:00,2016-05-02T08:30:00,22,36", "", "  ,, ,"],
        )
        trips = parse_trips(path)
        assert len(trips) == 1
        assert trips.n_rejected == 0

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        plain = month_of_commutes(tmp_path / "plain.csv")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        trips, expected = parse_trips(marked), parse_trips(plain)
        assert len(trips) == 44 and trips.rejected == {}
        for column in ("day", "t", "ride", "o", "d"):
            assert getattr(trips, column).tobytes() == getattr(expected, column).tobytes()

    def test_missing_column_is_fatal(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv",
            ["2016-05-02T08:15:00,2016-05-02T08:30:00,22"],
            header="start_time,end_time,start_station_id",
        )
        with pytest.raises(ValueError, match="end_station_id"):
            parse_trips(path)

    def test_a_repeated_required_column_is_fatal(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv",
            ["2016-05-02T08:15:00,2016-05-02T08:30:00,22,36,x,x,2016-05-02T09:15:00"],
            header=HEADER + ",notes,notes, start_time",
        )
        with pytest.raises(ValueError, match=r"duplicate columns \['start_time'\]"):
            parse_trips(path)

    def test_empty_file_is_fatal(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            parse_trips(path)

    def test_station_set_from_trips_sorts_raw_ids(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv",
            [
                "2016-05-02T08:15:00,2016-05-02T08:30:00,36,22",
                "2016-05-02T08:20:00,2016-05-02T08:40:00,7,36",
            ],
        )
        assert station_set_from_trips(parse_trips(path)) == (7, 22, 36)


class TestEstimateDemand:
    def test_two_trips_one_day_one_bin(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv",
            [
                "2016-05-02T08:15:00,2016-05-02T08:30:00,22,36",
                "2016-05-02T08:45:00,2016-05-02T09:15:00,22,36",
            ],
        )
        model = estimate_demand(extract_day_sequences(parse_trips(path)))
        lam = intensities(model)[(1, 2)]
        assert value_at(lam, 8.5) == pytest.approx(2.0)
        assert value_at(lam, 9.5) == 0.0
        assert model.k == 2

    def test_rates_average_over_observed_days(self, tmp_path):
        model = estimate_demand(
            extract_day_sequences(parse_trips(month_of_commutes(tmp_path / "t.csv")))
        )
        # 44 trips in bin [8, 9) over 22 working days
        assert value_at(intensities(model)[(1, 2)], 8.25) == pytest.approx(2.0)

    def test_exposure_identity(self, tmp_path):
        model = estimate_demand(
            extract_day_sequences(parse_trips(month_of_commutes(tmp_path / "t.csv")))
        )
        n_days = 22
        total = sum(
            reference_integral(lam, 0.0, model.horizon) * n_days
            for lam in intensities(model).values()
        )
        assert total == pytest.approx(44.0, abs=1e-9)

    def test_riding_times_are_pair_medians(self, tmp_path):
        model = estimate_demand(
            extract_day_sequences(parse_trips(month_of_commutes(tmp_path / "t.csv")))
        )
        # durations alternate 0.25 and 0.5 hours
        assert model.eta[0][1] == pytest.approx(0.375)
        # unobserved pair falls back to the global median
        assert model.eta[1][0] == pytest.approx(0.375)

    def test_weekends_are_excluded_by_default(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv",
            [
                "2016-05-02T08:15:00,2016-05-02T08:30:00,22,36",  # Monday
                "2016-05-07T08:15:00,2016-05-07T08:30:00,36,22",  # Saturday
            ],
        )
        trips = parse_trips(path)
        model = estimate_demand(extract_day_sequences(trips))
        assert (2, 1) not in intensities(model)
        everything = estimate_demand(extract_day_sequences(trips, days="all"))
        assert (2, 1) in intensities(everything)

    def test_month_filter(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv",
            [
                "2016-04-29T08:15:00,2016-04-29T08:30:00,22,36",
                "2016-05-02T08:15:00,2016-05-02T08:30:00,22,36",
            ],
        )
        model = estimate_demand(extract_day_sequences(parse_trips(path), month="2016-05"))
        assert reference_integral(intensities(model)[(1, 2)], 0.0, 24.0) == pytest.approx(1.0)

    def test_round_trips_are_dropped(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv",
            [
                "2016-05-02T08:15:00,2016-05-02T08:30:00,22,36",
                "2016-05-02T09:15:00,2016-05-02T09:30:00,22,22",
            ],
        )
        model = estimate_demand(extract_day_sequences(parse_trips(path)))
        assert set(intensities(model)) == {(1, 2)}

    def test_row_order_does_not_matter(self, tmp_path):
        rows = month_of_commutes(tmp_path / "t.csv").read_text().splitlines()[1:]
        forward = estimate_demand(extract_day_sequences(parse_trips(tmp_path / "t.csv")))
        reversed_trips = parse_trips(write_trips(tmp_path / "r.csv", rows[::-1]))
        backward = estimate_demand(extract_day_sequences(reversed_trips))
        assert intensities(forward).keys() == intensities(backward).keys()
        for key, lam in intensities(forward).items():
            other = intensities(backward)[key]
            assert lam.breakpoints == other.breakpoints
            assert lam.values == other.values
        assert forward.eta == backward.eta

    def test_bin_width_must_divide_the_day(self, tmp_path):
        days = extract_day_sequences(parse_trips(month_of_commutes(tmp_path / "t.csv")))
        estimate_demand(days, bin_hours=2.0)  # fine
        with pytest.raises(ValueError):
            estimate_demand(days, bin_hours=7.0)
        with pytest.raises(ValueError):
            estimate_demand(days, bin_hours=0.0)
        with pytest.raises(ValueError):
            estimate_demand(days, bin_hours=48.0)

    @pytest.mark.parametrize("bin_hours", [0.1, 0.2, 0.25, 0.5, 1.5])
    def test_decimal_bin_widths_that_divide_the_day(self, tmp_path, bin_hours):
        days = extract_day_sequences(parse_trips(month_of_commutes(tmp_path / "t.csv")))
        model = estimate_demand(days, bin_hours=bin_hours)
        n_bins = round(24 / bin_hours)
        for lam in intensities(model).values():
            assert len(lam.breakpoints) == n_bins
        # integrating over the day recovers the two trips per working day
        per_day = sum(reference_integral(lam, 0.0, 24.0) for lam in intensities(model).values())
        assert per_day == pytest.approx(2.0)

    def test_nothing_left_after_filtering_is_an_error(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv",
            ["2016-05-07T08:15:00,2016-05-07T08:30:00,22,36"],  # Saturday
        )
        with pytest.raises(ValueError, match="no trips"):
            estimate_demand(extract_day_sequences(parse_trips(path)))

    def test_explicit_station_ids_fix_labels(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv", ["2016-05-02T08:15:00,2016-05-02T08:30:00,36,22"]
        )
        trips = parse_trips(path)
        model = estimate_demand(extract_day_sequences(trips, station_ids=(7, 22, 36)))
        assert model.k == 3
        assert set(intensities(model)) == {(3, 2)}


    def test_days_sampled_from_a_model(self):
        model = synthetic_imbalanced_model(4, seed=3)
        days = sample_day_sequences(model, 5, seed=2)
        estimate = estimate_demand(days, bin_hours=3.0)
        assert estimate.k == 4
        total = sum(
            reference_integral(lam, 0.0, 24.0) * len(days)
            for lam in intensities(estimate).values()
        )
        assert total == pytest.approx(days.t.size)
        assert estimate.eta == model.eta

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_per_pair_loop(self, seed):
        # the estimate as a loop over the events and statistics.median per
        # pair; riding times repeat, and include both zeros, so ties occur
        rng = np.random.default_rng(seed)
        k, bin_hours = int(rng.integers(2, 6)), float(rng.choice([0.5, 1.0, 3.0, 24.0]))
        days = days_of([
            [
                (float(t), int(o), int(d), float(rng.choice([0.0, -0.0, -0.0, 0.0, 0.25, 0.3])))
                for t, o, d in zip(np.sort(rng.choice([0.0, 3.5, 7.25, 11.0, 23.9, 24.0], n)),
                                   rng.integers(1, k + 1, n), rng.integers(1, k + 1, n))
                if o != d
            ]
            for n in rng.integers(1, 30, int(rng.integers(1, 4)))
        ], k)
        if not days.t.size:
            return
        n_bins = round(24 / bin_hours)
        counts, durations = {}, {}
        for t, o, d, eta in zip(*(c.tolist() for c in (days.t, days.o, days.d, days.eta))):
            counts.setdefault((o, d), [0] * n_bins)[min(int(t / bin_hours), n_bins - 1)] += 1
            durations.setdefault((o, d), []).append(eta)
        overall = median(t for ts in durations.values() for t in ts)
        model = estimate_demand(days, bin_hours)
        assert sorted(counts) == list(intensities(model))
        for key, per_bin in counts.items():
            lam = intensities(model)[key]
            assert lam.breakpoints == tuple(b * bin_hours for b in range(n_bins))
            assert lam.values == tuple(c / (len(days) * bin_hours) for c in per_bin)
        expected = [[0.0 if o == d else median(durations[o, d]) if (o, d) in durations else overall
                     for d in range(1, k + 1)] for o in range(1, k + 1)]
        assert np.array(model.eta).tobytes() == np.array(expected).tobytes()

    def test_days_must_last_24_hours(self):
        days = sample_day_sequences(uniform_demand_model(2, 0.5, 72.0), 2)
        with pytest.raises(ValueError, match="24 h days"):
            estimate_demand(days)


class TestDaySequences:
    def test_full_month_yields_22_working_days(self, tmp_path):
        sequences = extract_day_sequences(
            parse_trips(month_of_commutes(tmp_path / "t.csv"))
        )
        assert (len(sequences), sequences.k) == (22, 2)
        assert sequences.dates[0] == "2016-05-02"
        assert sequences.counts.tolist() == [2] * 22
        assert (sequences.t[0], sequences.o[0], sequences.d[0]) == (8.25, 1, 2)
        assert sequences.eta[0] == pytest.approx(0.25)

    def test_events_come_out_in_time_order(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv",
            [
                "2016-05-02T10:00:00,2016-05-02T10:30:00,22,36",
                "2016-05-02T08:15:00,2016-05-02T08:30:00,36,22",
            ],
        )
        (seq,) = extract_day_sequences(parse_trips(path))
        assert seq.t.tolist() == [8.25, 10.0]

    def test_ties_keep_input_order(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv",
            [
                "2016-05-02T08:15:00,2016-05-02T08:30:00,36,22",
                "2016-05-02T08:15:00,2016-05-02T08:45:00,22,36",
            ],
        )
        (seq,) = extract_day_sequences(parse_trips(path))
        assert list(zip(seq.o.tolist(), seq.d.tolist())) == [(2, 1), (1, 2)]

    def test_round_trips_are_dropped_here_too(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv",
            [
                "2016-05-02T08:15:00,2016-05-02T08:30:00,22,36",
                "2016-05-02T09:15:00,2016-05-02T09:30:00,36,36",
            ],
        )
        (seq,) = extract_day_sequences(parse_trips(path))
        assert seq.t.size == 1

    @pytest.mark.parametrize("month", ["2016-5", "2016-13", "2016-00", "16-05", "2016-05-01",
                                       "2016/05", "\u0662016-05", ""])
    def test_month_must_be_year_dash_month(self, tmp_path, month):
        trips = parse_trips(month_of_commutes(tmp_path / "t.csv"))
        with pytest.raises(ValueError, match=f"^month must be in YYYY-MM form, got {month!r}$"):
            extract_day_sequences(trips, month=month)

    def test_day_filter_is_checked_without_trips(self, tmp_path):
        trips = parse_trips(write_trips(tmp_path / "t.csv", []))
        assert len(extract_day_sequences(trips, days="all")) == 0
        with pytest.raises(ValueError, match="unknown day filter 'weekend'"):
            extract_day_sequences(trips, days="weekend")

    def test_a_station_missing_from_station_ids_is_named(self, tmp_path):
        trips = parse_trips(month_of_commutes(tmp_path / "t.csv"))
        with pytest.raises(ValueError, match="^trip names station 36, which station_ids does not list$"):
            extract_day_sequences(trips, station_ids=(7, 22))
        # labels follow the order of station_ids, sorted or not
        (day, *_) = extract_day_sequences(trips, station_ids=(36, 5, 22))
        assert (day.k, day.o.tolist(), day.d.tolist()) == (3, [3, 3], [1, 1])

    def test_a_repeated_station_id_is_named(self, tmp_path):
        trips = parse_trips(
            write_trips(tmp_path / "t.csv", ["2016-05-02T08:15:00,2016-05-02T08:30:00,22,36"])
        )
        with pytest.raises(ValueError, match="^station id 22 appears twice in station_ids$"):
            extract_day_sequences(trips, station_ids=(22, 22, 36))

    def test_a_station_id_past_int64_is_named(self, tmp_path):
        trips = parse_trips(
            write_trips(tmp_path / "t.csv", ["2016-05-02T08:15:00,2016-05-02T08:30:00,22,36"])
        )
        with pytest.raises(ValueError, match=f"^station id {2**63} in station_ids does not fit"):
            extract_day_sequences(trips, station_ids=(22, 36, 2**63))

    def test_sequence_file_roundtrip(self, tmp_path):
        sequences = extract_day_sequences(
            parse_trips(month_of_commutes(tmp_path / "t.csv"))
        )
        out = tmp_path / "days.json"
        save_sequences(sequences, out, station_ids=(22, 36))
        loaded = load_sequences(out)
        assert loaded == sequences
        doc = json.loads(out.read_text())
        assert doc["k"] == 2
        assert doc["station_ids"] == [22, 36]
        assert doc["horizon_hours"] == 24.0

    def test_a_day_is_a_read_only_view(self):
        days = days_of([[(1.0, 1, 2, 0.5)], [], [(2.0, 2, 1, 0.0), (3.0, 1, 2, 0.25)]], 2)
        assert len(days) == 3 and [len(day) for day in days] == [1, 1, 1]
        last = days[2]
        assert last.dates == ("2016-05-04",) and last.counts.tolist() == [2]
        assert last.t.tolist() == [2.0, 3.0] and np.shares_memory(last.t, days.t)
        assert days[-1] == last and days[1].t.size == 0
        with pytest.raises(IndexError):
            days[3]
        with pytest.raises(ValueError):
            days.eta[0] = 1.0
        # equality is bitwise: a ride of -0.0 is not one of 0.0
        assert days != days_of([[(1.0, 1, 2, 0.5)], [], [(2.0, 2, 1, -0.0), (3.0, 1, 2, 0.25)]], 2)

    def test_unordered_events_are_rejected(self):
        with pytest.raises(ValueError, match="^events must be ordered by time$"):
            days_of([[(2.0, 1, 2, 0.1), (1.0, 2, 1, 0.1)]], 2)


def reference_sequences_from_json(doc):
    """The per-event reader the column reader replaced, as (date, events) per day.

    It reads each field of each event with ``number`` or ``whole_number``,
    runs the old per-day checks on each day as soon as it is read, and
    checks the labels last, as replay did.
    """
    with parsing("sequence"):
        k = whole_number(doc["k"])
        horizon = number(doc["horizon_hours"])
        days = []
        for day in doc["days"]:
            events = [(number(e["t"]), whole_number(e["o"]), whole_number(e["d"]), number(e["eta"]))
                      for e in day["events"]]
            date = day["date"]
            if type(date) is not str:
                raise TypeError(f"expected a date string, got {date!r}")
            if not all(math.isfinite(t) and math.isfinite(eta) for t, _, _, eta in events):
                raise ValueError("event times and riding times must be finite")
            if any(eta < 0.0 for *_, eta in events):
                raise ValueError("riding times must be non-negative")
            if any(not 0.0 <= t <= horizon for t, *_ in events):
                raise ValueError(f"event times must lie within [0, {horizon}] hours")
            if any(a[0] > b[0] for a, b in zip(events, events[1:])):
                raise ValueError("events must be ordered by time")
            days.append((date, events))
    if not all(1 <= x <= k for _, events in days for e in events for x in e[1:3]):
        raise ValueError(f"event names station outside 1..{k}")
    return days


FIELDS = ("t", "o", "d", "eta")


@st.composite
def sequence_documents(draw):
    """A days.json document of a few days, with at most one fault in one event."""
    k = draw(st.integers(1, 4))
    horizon = draw(st.sampled_from([24.0, 72.0, 0.5, 3]))
    time = st.one_of(st.floats(0.0, horizon), st.integers(0, int(horizon)), st.just(-0.0))
    ride = st.one_of(st.floats(0.0, 1e6), st.integers(0, 10**30), st.just(-0.0))
    label = st.integers(1, k) | st.integers(1, k).map(float)
    days = []
    for n in draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)):
        times = sorted(draw(st.lists(time, min_size=n, max_size=n)))
        days.append({"date": f"2016-05-{len(days) + 2:02d}", "events": [
            {"t": t, "o": draw(label), "d": draw(label), "eta": draw(ride)} for t in times]})
    doc = {"k": k, "horizon_hours": horizon, "days": days}
    fault = draw(st.sampled_from([None, "bool", "string", "fraction", "huge-int", "huge-float",
                                  "nan", "inf", "negative-eta", "outside", "unordered", "label"]))
    if fault == "unordered":
        # the latest time, then the earliest, in two events of one day
        events = draw(st.sampled_from([day["events"] for day in days]))
        if len(events) > 1:
            j = draw(st.integers(1, len(events) - 1))
            events[j - 1]["t"], events[j]["t"] = horizon, 0.0
        return doc
    events = [e for day in days for e in day["events"]]
    if fault is None or not events:
        return doc
    key = draw(st.sampled_from({"fraction": "od", "label": "od", "negative-eta": ["eta"],
                                "outside": "t"}.get(fault, FIELDS)))
    draw(st.sampled_from(events))[key] = {
        "bool": draw(st.booleans()),
        "string": draw(st.sampled_from(["1", "x"])),
        "fraction": 1.5,
        "huge-int": draw(st.sampled_from([10**30, -(10**30)])),
        "huge-float": 1e300,
        "nan": math.nan,
        "inf": draw(st.sampled_from([math.inf, -math.inf])),
        "negative-eta": -0.25,
        "outside": draw(st.sampled_from([-0.5, horizon + 0.5])),
        "label": draw(st.sampled_from([0, k + 1])),
    }[fault]
    return doc


class TestColumnReader:
    @given(sequence_documents())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_per_event_reader(self, doc):
        try:
            expected = reference_sequences_from_json(doc)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                sequences_from_json(doc)
            assert str(got.value) == str(exc)
            return
        sequences = sequences_from_json(doc)
        assert sequences.k == doc["k"] and sequences.horizon == doc["horizon_hours"]
        assert list(sequences.dates) == [date for date, _ in expected]
        assert sequences.counts.tolist() == [len(events) for _, events in expected]
        events = [e for _, day in expected for e in day]
        for i, key in enumerate(FIELDS):
            column = np.array([e[i] for e in events], sequences.o.dtype if key in "od" else float)
            assert vars(sequences)[key].tobytes() == column.tobytes(), key
        assert sequences == sequences_from_json(json.loads(json.dumps(doc)))


# --- the per-record trip parser the columns replaced ------------------------


@dataclass(frozen=True)
class TripRecord:
    start_time: dt.datetime
    end_time: dt.datetime
    start_station: int
    end_station: int


def reference_parse_trips(path):
    """Each kept row as a TripRecord, and the rejected rows counted by reason."""
    records, rejected = [], {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        lookup = {name.strip(): i for i, name in enumerate(next(reader))}
        for row in reader:
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                start = dt.datetime.fromisoformat(row[lookup["start_time"]])
                end = dt.datetime.fromisoformat(row[lookup["end_time"]])
                o = int(row[lookup["start_station_id"]])
                d = int(row[lookup["end_station_id"]])
                backwards = end < start
            except (ValueError, IndexError, TypeError):
                rejected["malformed"] = rejected.get("malformed", 0) + 1
                continue
            if backwards:
                rejected["ends_before_start"] = rejected.get("ends_before_start", 0) + 1
                continue
            records.append(TripRecord(start, end, o, d))
    return records, rejected


def reference_station_set(records):
    return tuple(sorted({x for r in records for x in (r.start_station, r.end_station)}))


def reference_filter_trips(records, days, month):
    kept = []
    for trip in records:
        date = trip.start_time.date()
        if month is not None and f"{date.year:04d}-{date.month:02d}" != month:
            continue
        if days == "working" and date.weekday() >= 5:
            continue
        if trip.start_station != trip.end_station:
            kept.append(trip)
    return kept


def reference_extract_day_sequences(records, station_ids=None, days="working", month=None):
    kept = reference_filter_trips(records, days, month)
    if station_ids is None:
        station_ids = reference_station_set(kept)
    label = {raw: i + 1 for i, raw in enumerate(station_ids)}
    started = [trip.start_time for trip in kept]
    day = np.array([s.toordinal() for s in started], np.intp)
    t = np.array([s.hour + s.minute / 60.0 + s.second / 3600.0 for s in started], float)
    order = np.lexsort((t, day))
    dates, counts = np.unique(day[order], return_counts=True)
    o = np.array([label[trip.start_station] for trip in kept], np.intp)
    d = np.array([label[trip.end_station] for trip in kept], np.intp)
    eta = np.array([(trip.end_time - trip.start_time).total_seconds() / 3600.0 for trip in kept],
                   float)
    return DaySequences(len(station_ids), 24.0,
                        [dt.date.fromordinal(x).isoformat() for x in dates.tolist()],
                        counts, t[order], o[order], d[order], eta[order])


OFFSETS = [None, dt.timezone.utc, dt.timezone(dt.timedelta(hours=2)),
           dt.timezone(dt.timedelta(hours=-5, minutes=-30))]


@st.composite
def trip_rows(draw):
    """One CSV row: mostly a trip, some round trips, some malformed, some blank."""
    kind = draw(st.sampled_from(["trip"] * 6 + ["malformed", "blank"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " , ,,"]))
    # Thursday 28 April to Tuesday 3 May 2016: two months and a weekend
    start = dt.datetime(2016, 4, 28) + dt.timedelta(
        days=draw(st.integers(0, 5)), hours=draw(st.sampled_from([0, 8, 23])),
        minutes=draw(st.sampled_from([0, 15, 59])), seconds=draw(st.sampled_from([0, 30, 59])),
        microseconds=draw(st.sampled_from([0, 500000, 999999])))
    # ties, rides past midnight, and trips that end before they start
    end = start + dt.timedelta(minutes=draw(st.sampled_from([-5, 0, 20, 90, 600])))
    offsets = draw(st.sampled_from(OFFSETS)), draw(st.sampled_from(OFFSETS))
    start, end = (x.replace(tzinfo=tz).isoformat() for x, tz in zip((start, end), offsets))
    o, d = draw(st.sampled_from(["3", "7", " 22", "-1"])), draw(st.sampled_from(["3", "7", "22"]))
    if kind == "malformed":
        return draw(st.sampled_from([
            ",".join(["not-a-date", end, o, d]),
            ",".join([start, end, "x", d]),
            ",".join([start, end, o]),  # a cell short
        ]))
    return ",".join([start, end, o, d])


class TestTripColumns:
    @given(st.lists(trip_rows(), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_match_the_record_parser(self, tmp_path_factory, rows):
        path = write_trips(tmp_path_factory.mktemp("trips") / "t.csv", rows)
        trips = parse_trips(path)
        records, rejected = reference_parse_trips(path)
        assert (len(trips), trips.rejected) == (len(records), rejected)
        station_ids = station_set_from_trips(trips)
        assert station_ids == reference_station_set(records)
        for ids in (station_ids, None):
            for days, month in (("working", None), ("all", None), ("all", "2016-05")):
                expected = reference_extract_day_sequences(records, ids, days, month)
                assert extract_day_sequences(trips, ids, days, month) == expected
