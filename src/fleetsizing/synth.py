"""Synthetic demand generators for experiments and self-contained tests.

Two shapes: a flat all-pairs model (every ordered pair shares one
constant rate), and a commuter-style model with residential and business
halves, lognormal station popularity weights, and opposing morning and
evening peaks -- deliberately imbalanced so that rebalancing and
per-station sizing have something to exploit.  A sampler turns any model
into synthetic "recorded" weekdays for the replay pipeline.
"""

from datetime import date, timedelta

import numpy as np

from .ingest import DAY_HOURS, DaySequences
from .model import DemandModel
from .simulate import compile_tables, sample_requests


def uniform_demand_model(k, rate, horizon, eta_hours=0.0):
    """Every ordered pair requests at the same constant rate."""
    rates = dict.fromkeys(((o, d) for o in range(1, k + 1) for d in range(1, k + 1) if o != d),
                          ((0.0,), (rate,)))
    eta = tuple(
        tuple(0.0 if o == d else float(eta_hours) for d in range(k)) for o in range(k)
    )
    return DemandModel(k, rates, eta, horizon)


def synthetic_imbalanced_model(
    k,
    seed=0,
    base_rate=0.08,
    peak_factor=6.0,
    off_factor=0.25,
    eta_hours=0.25,
):
    """Commuter-pattern demand over a 24 h day.

    Stations 1..k/2 are residential, the rest business.  Rates follow
    lognormal popularity weights per station; residential->business
    demand is boosted during the 7-10 morning peak and suppressed in the
    16-19 evening peak, and vice versa, with quiet shoulders elsewhere.
    """
    if k < 2:
        raise ValueError("need at least two stations")
    rng = np.random.default_rng(seed)
    weights = rng.lognormal(mean=0.0, sigma=0.5, size=k)
    weights /= weights.mean()
    n_res = k // 2
    kinds = ["res" if i < n_res else "biz" for i in range(k)]

    breakpoints = (0.0, 7.0, 10.0, 16.0, 19.0)

    def factors(kind_o, kind_d):
        # (night, morning, midday, evening, late) multipliers
        if kind_o == "res" and kind_d == "biz":
            return (off_factor, peak_factor, 1.0, off_factor, off_factor)
        if kind_o == "biz" and kind_d == "res":
            return (off_factor, off_factor, 1.0, peak_factor, off_factor)
        return (off_factor, 1.0, 1.0, 1.0, off_factor)

    rates = {}
    for o in range(1, k + 1):
        for d in range(1, k + 1):
            if o == d:
                continue
            scale = base_rate * weights[o - 1] * weights[d - 1] / (k - 1)
            values = tuple(scale * f for f in factors(kinds[o - 1], kinds[d - 1]))
            rates[(o, d)] = (breakpoints, values)

    eta = tuple(
        tuple(0.0 if o == d else float(eta_hours) for d in range(k)) for o in range(k)
    )
    return DemandModel(k, rates, eta, DAY_HOURS)


def _next_weekday(day):
    day += timedelta(days=1)
    while day.weekday() >= 5:
        day += timedelta(days=1)
    return day


def sample_day_sequences(model, n_days, seed=0, start=date(2016, 5, 2)):
    """Draw synthetic weekdays from the model, one independent NHPP each.

    Day i is drawn as a Monte Carlo run over the horizon (see
    ``simulate.sample_requests``) from ``numpy.random.default_rng((seed,
    i))``; dates are consecutive weekdays from ``start``.  Events carry the
    model's pair travel times.
    """
    tables = compile_tables(model)
    dates, draws = [], []
    day = start
    if day.weekday() >= 5:
        day = _next_weekday(day)
    for i in range(n_days):
        draws.append(sample_requests(tables, model.horizon, np.random.default_rng((seed, i))))
        dates.append(day.isoformat())
        day = _next_weekday(day)
    t, pair = (np.concatenate(c) for c in zip(*draws)) if draws else ((), [])
    columns = (tables.pair_o[pair], tables.pair_d[pair], tables.pair_eta[pair])
    return DaySequences(model.k, model.horizon, dates, [len(c[0]) for c in draws], t, *columns)
