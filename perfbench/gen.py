"""Seeded input files for the benchmark workloads, in the README formats.

Nothing here imports ``fleetsizing``: the inputs depend only on the
seed and on NumPy's ``PCG64`` stream, so a later change to the
package's own synthetic generator or Monte Carlo sampler cannot change
what a workload feeds the pipeline.

Commuter trip logs follow the shape of ``scripts/synthetic_case_study.py``:
stations 1..k/2 are residential, the rest business, each station has a
lognormal popularity weight, and residential-to-business demand peaks in
the 7-10 h morning window while business-to-residential demand peaks in
the 16-19 h evening window.  The weights are fixed lognormal quantiles
that the seed only permutes within each half, so every seed offers the
same demand and the same spread of station sizes; the seed moves which
station is busy and the sampled trips.  That keeps the work per run
steady across seeds while the inputs still differ.
"""

import json
from datetime import date, datetime, timedelta
from statistics import NormalDist

import numpy as np

PERIODS = (0.0, 7.0, 10.0, 16.0, 19.0, 24.0)
START_DAY = date(2016, 5, 2)  # a Monday


def _weights(k, rng, sigma=0.5):
    """Lognormal quantiles with mean one, the same set for every seed.

    Residential stations (the first k // 2) take every other quantile and
    business stations the rest; the seed shuffles each half only, so the
    demand between and within the halves is the same for every seed.
    """
    z = [NormalDist().inv_cdf((i + 0.5) / k) for i in range(k)]
    w = np.exp(sigma * np.asarray(z))
    w /= w.mean()
    res = np.arange(0, 2 * (k // 2), 2)
    return np.concatenate([rng.permutation(w[res]), rng.permutation(np.delete(w, res))])


def commuter_rates(k, rng, base_rate, peak_factor, off_factor=0.25):
    """(k, k, 5) per-pair rates in the five day periods; zero on the diagonal."""
    w = _weights(k, rng)
    res = np.arange(k) < k // 2
    factors = np.empty((k, k, 5))
    factors[:] = (off_factor, 1.0, 1.0, 1.0, off_factor)
    res_biz = res[:, None] & ~res[None, :]
    biz_res = ~res[:, None] & res[None, :]
    factors[res_biz] = (off_factor, peak_factor, 1.0, off_factor, off_factor)
    factors[biz_res] = (off_factor, off_factor, 1.0, peak_factor, off_factor)
    scale = base_rate * np.outer(w, w) / (k - 1)
    np.fill_diagonal(scale, 0.0)
    return scale[:, :, None] * factors


def _weekdays(n):
    out = []
    day = START_DAY
    while len(out) < n:
        if day.weekday() < 5:
            out.append(day)
        day += timedelta(days=1)
    return out


def write_commuter_trips(path, k, seed, base_rate, peak_factor, n_days,
                         ride_minutes=15):
    """Write a commuter trip log; returns the number of data rows.

    Each weekday draws one Poisson count per (pair, period) and uniform
    start times inside the period, truncated to whole seconds.  Every ride
    lasts ``ride_minutes``, like the fixed 0.25 h pair travel time of the
    package's synthetic commuter model; with varying rides every pair
    gets its own median travel time and the travel-delay profiles gain a
    breakpoint per pair, which multiplies sizing cost.  Raw station ids
    are ``1000 + 7 * i`` so that ingest has to relabel them.
    """
    rng = np.random.default_rng(seed)
    rates = commuter_rates(k, rng, base_rate, peak_factor)
    widths = np.diff(PERIODS)
    o_idx, d_idx, p_idx = np.nonzero(rates > 0.0)
    means = rates[o_idx, d_idx, p_idx] * widths[p_idx]
    raw_ids = 1000 + 7 * np.arange(k)
    lines = ["trip_id,start_time,end_time,start_station_id,end_station_id"]
    n_rows = 0
    for day in _weekdays(n_days):
        counts = rng.poisson(means)
        rep = np.repeat(np.arange(len(means)), counts)
        start_h = np.asarray(PERIODS)[p_idx[rep]] + rng.uniform(
            0.0, 1.0, len(rep)
        ) * widths[p_idx[rep]]
        start_s = np.floor(start_h * 3600.0)
        order = np.lexsort((rep, start_s))
        midnight = datetime(day.year, day.month, day.day)
        for j in order:
            t0 = midnight + timedelta(seconds=int(start_s[j]))
            t1 = t0 + timedelta(minutes=ride_minutes)
            n_rows += 1
            lines.append(
                f"{n_rows},{t0.isoformat()},{t1.isoformat()},"
                f"{raw_ids[o_idx[rep[j]]]},{raw_ids[d_idx[rep[j]]]}"
            )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return n_rows


def _dump(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_symmetric_model(path, k, rate, horizon):
    """model.json: every ordered pair requests at one constant rate, zero travel time."""
    doc = {
        "k": k,
        "horizon_hours": float(horizon),
        "lambda": [
            {"o": o, "d": d, "breakpoints": [0.0], "values": [float(rate)]}
            for o in range(1, k + 1)
            for d in range(1, k + 1)
            if o != d
        ],
        "eta": [[0.0] * k for _ in range(k)],
    }
    _dump(doc, path)


def write_uniform_design(path, k, stock, capacity):
    """design.json with the same stock and capacity at every station."""
    doc = {
        "stations": [
            {"id": i, "v": int(stock), "c": int(capacity)} for i in range(1, k + 1)
        ]
    }
    _dump(doc, path)
