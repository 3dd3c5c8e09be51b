"""Trip-log ingestion: CSV parsing, demand estimation, per-day sequences."""

import datetime as dt
import json
import math
from statistics import median

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetsizing.ingest import (
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

from conftest import days_of, reference_integral

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
        result = parse_trips(path)
        assert result.n_rejected == 0
        (trip,) = result.records
        assert trip.start_station == 22
        assert trip.end_station == 36
        assert trip.duration_hours == pytest.approx(0.25)
        assert not trip.is_round_trip

    def test_column_order_is_free(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv",
            ["36,extra,2016-05-02T08:15:00,22,2016-05-02T08:30:00"],
            header="end_station_id,notes,start_time,start_station_id,end_time",
        )
        (trip,) = parse_trips(path).records
        assert (trip.start_station, trip.end_station) == (22, 36)

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
            ],
        )
        result = parse_trips(path, station_set={22, 36})
        assert len(result.records) == 1
        assert result.rejected == {
            "ends_before_start": 1,
            "malformed": 3,
            "unknown_station": 1,
        }
        assert result.n_rejected == 5

    def test_offsets_on_both_timestamps_are_kept(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv", ["2016-05-02T08:15:00+02:00,2016-05-02T07:30:00+01:00,22,36"]
        )
        (trip,) = parse_trips(path).records
        assert trip.duration_hours == pytest.approx(0.25)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv",
            ["2016-05-02T08:15:00,2016-05-02T08:30:00,22,36", "", "  ,, ,"],
        )
        result = parse_trips(path)
        assert len(result.records) == 1
        assert result.n_rejected == 0

    def test_missing_column_is_fatal(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv",
            ["2016-05-02T08:15:00,2016-05-02T08:30:00,22"],
            header="start_time,end_time,start_station_id",
        )
        with pytest.raises(ValueError, match="end_station_id"):
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
        assert station_set_from_trips(parse_trips(path).records) == (7, 22, 36)


class TestEstimateDemand:
    def test_two_trips_one_day_one_bin(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv",
            [
                "2016-05-02T08:15:00,2016-05-02T08:30:00,22,36",
                "2016-05-02T08:45:00,2016-05-02T09:15:00,22,36",
            ],
        )
        model = estimate_demand(extract_day_sequences(parse_trips(path).records))
        lam = model.intensities[(1, 2)]
        assert lam.value_at(8.5) == pytest.approx(2.0)
        assert lam.value_at(9.5) == 0.0
        assert model.k == 2

    def test_rates_average_over_observed_days(self, tmp_path):
        model = estimate_demand(
            extract_day_sequences(parse_trips(month_of_commutes(tmp_path / "t.csv")).records)
        )
        # 44 trips in bin [8, 9) over 22 working days
        assert model.intensities[(1, 2)].value_at(8.25) == pytest.approx(2.0)

    def test_exposure_identity(self, tmp_path):
        model = estimate_demand(
            extract_day_sequences(parse_trips(month_of_commutes(tmp_path / "t.csv")).records)
        )
        n_days = 22
        total = sum(
            reference_integral(lam, 0.0, model.horizon) * n_days
            for lam in model.intensities.values()
        )
        assert total == pytest.approx(44.0, abs=1e-9)

    def test_riding_times_are_pair_medians(self, tmp_path):
        model = estimate_demand(
            extract_day_sequences(parse_trips(month_of_commutes(tmp_path / "t.csv")).records)
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
        records = parse_trips(path).records
        model = estimate_demand(extract_day_sequences(records))
        assert (2, 1) not in model.intensities
        everything = estimate_demand(extract_day_sequences(records, days="all"))
        assert (2, 1) in everything.intensities

    def test_month_filter(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv",
            [
                "2016-04-29T08:15:00,2016-04-29T08:30:00,22,36",
                "2016-05-02T08:15:00,2016-05-02T08:30:00,22,36",
            ],
        )
        model = estimate_demand(extract_day_sequences(parse_trips(path).records, month="2016-05"))
        assert reference_integral(model.intensities[(1, 2)], 0.0, 24.0) == pytest.approx(1.0)

    def test_round_trips_are_dropped(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv",
            [
                "2016-05-02T08:15:00,2016-05-02T08:30:00,22,36",
                "2016-05-02T09:15:00,2016-05-02T09:30:00,22,22",
            ],
        )
        model = estimate_demand(extract_day_sequences(parse_trips(path).records))
        assert set(model.intensities) == {(1, 2)}

    def test_row_order_does_not_matter(self, tmp_path):
        records = parse_trips(month_of_commutes(tmp_path / "t.csv")).records
        forward = estimate_demand(extract_day_sequences(records))
        backward = estimate_demand(extract_day_sequences(list(reversed(records))))
        assert forward.intensities.keys() == backward.intensities.keys()
        for key, lam in forward.intensities.items():
            other = backward.intensities[key]
            assert lam.breakpoints == other.breakpoints
            assert lam.values == other.values
        assert forward.eta == backward.eta

    def test_bin_width_must_divide_the_day(self, tmp_path):
        days = extract_day_sequences(parse_trips(month_of_commutes(tmp_path / "t.csv")).records)
        estimate_demand(days, bin_hours=2.0)  # fine
        with pytest.raises(ValueError):
            estimate_demand(days, bin_hours=7.0)
        with pytest.raises(ValueError):
            estimate_demand(days, bin_hours=0.0)
        with pytest.raises(ValueError):
            estimate_demand(days, bin_hours=48.0)

    @pytest.mark.parametrize("bin_hours", [0.1, 0.2, 0.25, 0.5, 1.5])
    def test_decimal_bin_widths_that_divide_the_day(self, tmp_path, bin_hours):
        days = extract_day_sequences(parse_trips(month_of_commutes(tmp_path / "t.csv")).records)
        model = estimate_demand(days, bin_hours=bin_hours)
        n_bins = round(24 / bin_hours)
        for lam in model.intensities.values():
            assert len(lam.breakpoints) == n_bins
        # integrating over the day recovers the two trips per working day
        per_day = sum(reference_integral(lam, 0.0, 24.0) for lam in model.intensities.values())
        assert per_day == pytest.approx(2.0)

    def test_nothing_left_after_filtering_is_an_error(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv",
            ["2016-05-07T08:15:00,2016-05-07T08:30:00,22,36"],  # Saturday
        )
        with pytest.raises(ValueError, match="no trips"):
            estimate_demand(extract_day_sequences(parse_trips(path).records))

    def test_explicit_station_ids_fix_labels(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv", ["2016-05-02T08:15:00,2016-05-02T08:30:00,36,22"]
        )
        records = parse_trips(path).records
        model = estimate_demand(extract_day_sequences(records, station_ids=(7, 22, 36)))
        assert model.k == 3
        assert set(model.intensities) == {(3, 2)}


    def test_days_sampled_from_a_model(self):
        model = synthetic_imbalanced_model(4, seed=3)
        days = sample_day_sequences(model, 5, seed=2)
        estimate = estimate_demand(days, bin_hours=3.0)
        assert estimate.k == 4
        total = sum(
            reference_integral(lam, 0.0, 24.0) * len(days)
            for lam in estimate.intensities.values()
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
        assert sorted(counts) == list(model.intensities)
        for key, per_bin in counts.items():
            lam = model.intensities[key]
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
            parse_trips(month_of_commutes(tmp_path / "t.csv")).records
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
        (seq,) = extract_day_sequences(parse_trips(path).records)
        assert seq.t.tolist() == [8.25, 10.0]

    def test_ties_keep_input_order(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv",
            [
                "2016-05-02T08:15:00,2016-05-02T08:30:00,36,22",
                "2016-05-02T08:15:00,2016-05-02T08:45:00,22,36",
            ],
        )
        (seq,) = extract_day_sequences(parse_trips(path).records)
        assert list(zip(seq.o.tolist(), seq.d.tolist())) == [(2, 1), (1, 2)]

    def test_round_trips_are_dropped_here_too(self, tmp_path):
        path = write_trips(
            tmp_path / "t.csv",
            [
                "2016-05-02T08:15:00,2016-05-02T08:30:00,22,36",
                "2016-05-02T09:15:00,2016-05-02T09:30:00,36,36",
            ],
        )
        (seq,) = extract_day_sequences(parse_trips(path).records)
        assert seq.t.size == 1

    def test_sequence_file_roundtrip(self, tmp_path):
        sequences = extract_day_sequences(
            parse_trips(month_of_commutes(tmp_path / "t.csv")).records
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
