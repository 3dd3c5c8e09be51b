"""Domain types for station-based vehicle sharing systems.

Time is measured in hours from the start of the planning horizon.
Station labels are dense and 1-based in every public interface and in
every file format; internal arrays are 0-based.

A ``DemandModel`` keeps its pairs sorted by (o, d) and their rates as
arrays concatenated in that order, which every reader takes and every
sum over pairs follows.  The order depends on the pairs alone, so a model
and its JSON round trip give bitwise the same numbers.
"""

import json
import logging
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np

log = logging.getLogger(__name__)

_TIME_EPS = 1e-9


class InvariantViolationError(RuntimeError):
    """A numerical invariant (mass conservation, monotone bracket) failed."""


def _float_tuple(xs):
    return tuple(float(x) for x in xs)


@dataclass(frozen=True)
class PiecewiseConstantIntensity:
    """Non-negative piecewise-constant rate (events/hour) on ``[0, horizon_end]``.

    ``breakpoints[j]`` is the start of the j-th interval: the function
    equals ``values[j]`` on ``[breakpoints[j], breakpoints[j+1])`` and
    ``values[-1]`` on ``[breakpoints[-1], horizon_end]``.  The first
    breakpoint must be 0, so the intervals cover the whole horizon.
    Evaluation outside ``[0, horizon_end]`` is an error.
    """

    breakpoints: tuple
    values: tuple
    horizon_end: float

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", _float_tuple(self.breakpoints))
        object.__setattr__(self, "values", _float_tuple(self.values))
        object.__setattr__(self, "horizon_end", float(self.horizon_end))
        bp, vals = self.breakpoints, self.values
        if not bp or len(bp) != len(vals):
            raise ValueError("need exactly one value per interval")
        if bp[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if not all(map(math.isfinite, bp)) or any(b >= a for b, a in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be finite and strictly increasing")
        if not math.isfinite(self.horizon_end) or self.horizon_end <= bp[-1]:
            raise ValueError("horizon_end must exceed the last breakpoint")
        if any(not math.isfinite(v) or v < 0.0 for v in vals):
            raise ValueError("rates must be finite and non-negative")

    @classmethod
    def constant(cls, rate, horizon_end):
        return cls((0.0,), (float(rate),), horizon_end)


_PIECE_CHECKS = (
    "need exactly one value per interval",
    "first breakpoint must be 0",
    "breakpoints must be finite and strictly increasing",
    "horizon_end must exceed the last breakpoint",
    "rates must be finite and non-negative",
)


def _number_lists(lists):
    """``lists`` of real numbers as tuples of floats.

    A number is an int or a float; anything else (a bool, a string, None)
    is ``number``'s TypeError.
    """
    if set(map(type, chain.from_iterable(lists))) <= {float}:
        return list(map(tuple, lists))  # float() would keep each number as it is
    return [tuple(map(number, xs)) for xs in lists]


def _owners(ends, wrong):
    """The item of each true entry of ``wrong``, for items that end at ``ends``."""
    return np.searchsorted(ends, np.flatnonzero(wrong), "right")


def _checked_pieces(breakpoints, values, horizon_end):
    """The pieces of ``PiecewiseConstantIntensity(b, v, horizon_end)`` for each b, v of the lists.

    Returns them concatenated, as ``_pieces`` does, having checked them as
    arrays.  Given numbers, it accepts exactly what the constructor accepts
    and, when some item is invalid, raises the constructor's message for
    the first such item.  Unlike the constructor, it rejects a bool or a
    string where a number belongs.
    """
    nb = np.fromiter(map(len, breakpoints), np.intp, len(breakpoints))
    nv = np.fromiter(map(len, values), np.intp, len(values))
    b_ends, v_ends = np.cumsum(nb), np.cumsum(nv)
    for lists in (breakpoints, values):
        if not set(map(type, chain.from_iterable(lists))) <= _NUMBER_TYPES:
            list(map(number, chain.from_iterable(lists)))  # raises number's TypeError
    b, v = (np.fromiter(chain.from_iterable(lists), float) for lists in (breakpoints, values))
    horizon_end = float(horizon_end)
    # one row per check of __post_init__, in its order; an item that fails
    # the first check fails it whatever the other rows say of it
    bad = np.zeros((len(_PIECE_CHECKS), nb.size), dtype=bool)
    bad[0] = (nb == 0) | (nb != nv)
    has = nb > 0
    first = (b_ends - nb)[has]
    bad[1, has] = b[first] != 0.0
    rising = np.ones(b.size, dtype=bool)
    rising[1:] = b[1:] > b[:-1]
    rising[first] = True  # an item's first breakpoint follows no other
    bad[2, _owners(b_ends, ~(np.isfinite(b) & rising))] = True
    bad[3, has] = ~(math.isfinite(horizon_end) & (horizon_end > b[b_ends[has] - 1]))
    bad[4, _owners(v_ends, ~(np.isfinite(v) & (v >= 0.0)))] = True
    failed = bad.any(axis=0)
    if failed.any():
        raise ValueError(_PIECE_CHECKS[bad[:, failed.argmax()].argmax()])
    return b, v, nb


def _pieces(items):
    """The items' breakpoints and rates, concatenated, and each item's piece count."""
    starts = np.fromiter(chain.from_iterable(it.breakpoints for it in items), float)
    values = np.fromiter(chain.from_iterable(it.values for it in items), float)
    counts = np.fromiter((len(it.breakpoints) for it in items), np.intp, len(items))
    return starts, values, counts


def _take(pieces, rows):
    """The pieces of the items ``rows``, in that order."""
    starts, values, counts = pieces
    taken = counts[rows]
    # each taken piece's index: its item's first piece, then its place in the item
    at = np.repeat((np.cumsum(counts) - counts)[rows] - (np.cumsum(taken) - taken), taken)
    at += np.arange(at.size)
    return starts[at], values[at], taken


def _holding(starts, counts, edges):
    """(items x edges): the index of each item's piece that holds each edge.

    That is the item's last piece starting at or before the edge, as
    ``bisect_right`` finds it; edges are at least 0, so one always does.
    """
    piece = np.zeros((len(counts), len(edges) + 1), dtype=np.intp)
    # mark the first edge at or past each piece's start with the piece's
    # index; a running maximum carries it over the edges up to the item's
    # next piece (and the last column takes the pieces past every edge)
    at = np.repeat(np.arange(len(counts)) * piece.shape[1], counts) + np.searchsorted(edges, starts)
    np.maximum.at(piece.reshape(-1), at, np.arange(len(starts)))
    np.maximum.accumulate(piece, axis=1, out=piece)
    return piece[:, :-1]


def rate_grid(pieces):
    """The merged breakpoints of several intensities and each one's rate per piece.

    ``pieces`` are the items' concatenated ``(starts, values, counts)``, a
    model's own or ``_pieces`` of some intensities.  Returns (edges,
    rates): the sorted union of the breakpoints (``[0.0]`` for no items),
    and an (items x pieces) array whose row r holds item r on ``[edges[j],
    edges[j+1])``, the last piece ending at the horizon.  Entries are looked
    up, never computed, so each is bitwise the item's own value on the
    interval of its breakpoints that holds the piece.
    """
    starts, values, counts = pieces
    edges = np.unique(np.append(starts, 0.0))
    return edges, values[_holding(starts, counts, edges)]


def bin_integrals(pieces, horizon, edges):
    """Each item's integral over each bin ``[edges[b], edges[b+1]]``: (items x bins).

    Items are given by their ``pieces`` (see ``rate_grid``) on ``[0,
    horizon]``.  Entry (r, b) adds up the pieces of item r that meet bin b,
    each clipped to the bin as rate x width, from left to right, so it is
    bitwise the scalar walk over the item's own breakpoints.  Edges up to
    1e-9 outside ``[0, horizon]`` are clamped to it; a zero-width bin gives
    0.0.
    """
    edges = np.asarray(edges, dtype=float)
    if not (edges.size and np.isfinite(edges).all() and np.all(np.diff(edges) >= 0.0)):
        raise ValueError("bin edges must be finite and must not decrease")
    if edges[0] < -_TIME_EPS or edges[-1] > horizon + _TIME_EPS:
        raise ValueError(f"bin edges outside intensity domain [0, {horizon}]")
    starts, values, counts = pieces
    x = np.minimum(np.maximum(edges, 0.0), horizon)
    ends = np.append(starts[1:], 0.0)  # each piece's right end
    ends[np.cumsum(counts) - 1] = horizon
    hold = _holding(starts, counts, x)
    out = np.empty((len(counts), x.size - 1))
    for b in range(x.size - 1):
        n_pieces = hold[:, b + 1] - hold[:, b] + 1
        for m in np.unique(n_pieces):
            r = np.flatnonzero(n_pieces == m)
            j = hold[r, b, None] + np.arange(m)
            width = np.minimum(ends[j], x[b + 1]) - np.maximum(starts[j], x[b])
            # a running sum along each row adds the pieces one after another
            out[r, b] = np.cumsum(values[j] * width, axis=1)[:, -1]
    return out


def _check_station(label, k, what="station"):
    if not isinstance(label, int) or isinstance(label, bool):
        raise ValueError(f"{what} label must be an integer, got {label!r}")
    if not 1 <= label <= k:
        raise ValueError(f"{what} label {label} outside 1..{k}")
    return label


def _checked_horizon(horizon):
    """A horizon checked; returns it as a float."""
    horizon = float(horizon)
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ValueError("horizon must be a positive finite number of hours")
    return horizon


def _checked_size(k, horizon):
    """A model's station count and horizon checked; returns the horizon as a float."""
    if k < 1:
        raise ValueError("need at least one station")
    return _checked_horizon(horizon)


def _checked_eta(k, eta):
    """A model's travel times checked, as a k x k tuple of float tuples."""
    eta = tuple(_float_tuple(row) for row in eta)
    if len(eta) != k or any(len(row) != k for row in eta):
        raise ValueError("eta must be a k x k matrix of hours")
    # the first entry in row-major order that fails a check names it
    hours = np.array(eta)
    negative = ~(np.isfinite(hours) & (hours >= 0.0))
    bad = negative | (np.eye(k, dtype=bool) & (hours != 0.0))
    if bad.any():
        raise ValueError(
            "travel times must be finite and non-negative"
            if negative.flat[bad.argmax()]
            else "diagonal travel times must be zero"
        )
    return eta


def _checked_pairs(k, labels, horizons=None, horizon=None):
    """Pairs given as flat labels ``[o_0, d_0, o_1, ...]``, checked, as (o, d) arrays.

    Each check names the first pair that fails it; they run in the order:
    labels (``_check_station``), o != d, no repeat, ``horizons`` if given.
    """
    valid = (isinstance(x, int) and not isinstance(x, bool) and 1 <= x <= k for x in labels)
    o, d = np.array([x if ok else 0 for x, ok in zip(labels, valid)], np.intp).reshape(-1, 2).T
    for i in np.flatnonzero((o == 0) | (d == 0))[:1]:  # an invalid label reads as 0
        _check_station(labels[2 * i], k, "origin")
        _check_station(labels[2 * i + 1], k, "destination")
    if (o == d).any():
        raise ValueError("demand between a station and itself is not allowed")
    order = np.lexsort((d, o))
    repeats = order[1:][(o[order[1:]] == o[order[:-1]]) & (d[order[1:]] == d[order[:-1]])]
    if repeats.size:
        i = repeats.min()
        raise ValueError(f"duplicate intensity entry for pair {(labels[2 * i], labels[2 * i + 1])}")
    if horizons is not None and np.not_equal(horizons, horizon).any():
        raise ValueError("all intensities must share the model horizon")
    return o, d


@dataclass(frozen=True, eq=False, init=False)
class DemandModel:
    """Time-varying demand between k stations.

    ``intensities`` maps ordered station pairs (o, d), o != d, 1-based, to
    the rental request rate from o to d; absent and all-zero pairs have
    zero demand.  ``eta[o-1][d-1]`` is the travel time in hours from o to d.
    Pair p in (o, d) order is ``pair_o[p]`` -> ``pair_d[p]``, with the p-th
    of ``counts`` in the read-only ``pieces = (starts, values, counts)``.
    """

    k: int
    eta: tuple
    horizon: float

    def __init__(self, k, intensities, eta, horizon):
        horizon = _checked_size(k, horizon)
        items = dict(intensities)
        horizons = [pci.horizon_end for pci in items.values()]
        o, d = _checked_pairs(k, list(chain.from_iterable(items)), horizons, horizon)
        vars(self).update(vars(self._of_pieces(k, o, d, _pieces(items.values()), eta, horizon)))

    @classmethod
    def _of_pieces(cls, k, o, d, pieces, eta, horizon):
        """The model of checked pairs ``o``, ``d`` with checked ``pieces``; ``eta`` is checked here."""
        demand = np.bincount(np.repeat(np.arange(o.size), pieces[2]), pieces[1] > 0.0, o.size)
        order = np.lexsort((d, o))
        rows = order[demand[order] > 0]  # an all-zero pair has no demand, like an absent one
        arrays = (o[rows], d[rows], *_take(pieces, rows))
        for a in arrays:
            a.flags.writeable = False
        model = object.__new__(cls)
        vars(model).update(k=k, eta=_checked_eta(k, eta), horizon=horizon, pair_o=arrays[0],
                           pair_d=arrays[1], pieces=arrays[2:])
        return model

    def eta_hours(self, o, d):
        return self.eta[o - 1][d - 1]

    def pairs(self):
        return list(zip(self.pair_o.tolist(), self.pair_d.tolist()))


@dataclass(frozen=True, eq=False)
class RebalancingPlan:
    """Scheduled single-vehicle relocations: (o, d) -> sorted departure instants."""

    k: int
    horizon: float
    rho: dict

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need at least one station")
        object.__setattr__(self, "horizon", float(self.horizon))
        cleaned = {}
        for (o, d), times in dict(self.rho).items():
            _check_station(o, self.k, "origin")
            _check_station(d, self.k, "destination")
            if o == d:
                raise ValueError("relocating a vehicle to its own station is a no-op")
            ts = _float_tuple(times)
            if not all(map(math.isfinite, ts)) or any(b >= a for b, a in zip(ts, ts[1:])):
                raise ValueError(f"relocation instants for {(o, d)} must be finite and increasing")
            if ts and (ts[0] <= 0.0 or ts[-1] >= self.horizon):
                raise ValueError("relocation instants must lie strictly inside (0, horizon)")
            if ts:
                cleaned[(o, d)] = ts
        object.__setattr__(self, "rho", cleaned)

    @classmethod
    def empty(cls, k, horizon):
        return cls(k, horizon, {})

    def instants(self):
        """All relocations as (t, o, d), ordered by time then origin then destination."""
        out = [(t, o, d) for (o, d), ts in self.rho.items() for t in ts]
        out.sort()
        return out

    def count(self):
        return sum(len(ts) for ts in self.rho.values())


@dataclass(frozen=True)
class SystemDesign:
    """Per-station initial stock v and dock capacity c (0-based tuples)."""

    v: tuple
    c: tuple

    def __post_init__(self):
        v = tuple(int(x) for x in self.v)
        c = tuple(int(x) for x in self.c)
        booleans = any(isinstance(x, bool) for x in chain(self.v, self.c))
        if v != tuple(self.v) or c != tuple(self.c) or booleans:
            raise ValueError("stock and capacity must be whole numbers")
        if len(v) != len(c) or not v:
            raise ValueError("v and c must be non-empty and the same length")
        for vi, ci in zip(v, c):
            if vi < 0 or ci < 0:
                raise ValueError("stock and capacity must be non-negative")
            if vi > ci:
                raise ValueError("initial stock cannot exceed capacity")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "c", c)

    @property
    def k(self):
        return len(self.v)

    @property
    def fleet_size(self):
        return sum(self.v)

    @property
    def total_capacity(self):
        return sum(self.c)


@dataclass(frozen=True, eq=False, init=False)
class StationFlowProfile:
    """Aggregate arrival/departure streams seen by one station.

    ``pieces`` are the read-only ``(starts, values, counts)`` of the total
    vehicle arrival rate, then the total rental departure rate, on ``[0,
    horizon]``; ``rho_a``/``rho_d`` are the sorted instants of scheduled
    relocation arrivals/departures (duplicates mean several vehicles).
    The constructor checks the instants; ``_of_pieces`` takes them as given.
    """

    pieces: tuple
    horizon: float
    rho_a: tuple
    rho_d: tuple

    def __init__(self, lambda_a, lambda_d, rho_a, rho_d):
        if lambda_a.horizon_end != lambda_d.horizon_end:
            raise ValueError("arrival and departure intensities must share a horizon")
        rho = {"rho_a": _float_tuple(rho_a), "rho_d": _float_tuple(rho_d)}
        for name, ts in rho.items():
            if any(b > a for b, a in zip(ts, ts[1:])):
                raise ValueError(f"{name} must be sorted")
            if not all(0.0 <= t <= lambda_a.horizon_end for t in ts):  # NaN included
                raise ValueError(f"{name} instants must be finite and lie within [0, horizon]")
        vars(self).update(vars(self._of_pieces(_pieces([lambda_a, lambda_d]), lambda_a.horizon_end, **rho)))

    @classmethod
    def _of_pieces(cls, pieces, horizon, rho_a, rho_d):
        """The profile of checked ``pieces`` and sorted float tuples of instants."""
        for a in pieces:
            a.flags.writeable = False
        profile = object.__new__(cls)
        vars(profile).update(pieces=pieces, horizon=horizon, rho_a=rho_a, rho_d=rho_d)
        return profile


def checked_plan(model, plan):
    """``plan`` (the empty plan for None), checked to share the model's stations and horizon."""
    if plan is None:
        return RebalancingPlan.empty(model.k, model.horizon)
    if plan.k != model.k:
        raise ValueError(f"plan is for {plan.k} stations, model has {model.k}")
    if plan.horizon != model.horizon:
        raise ValueError(f"inconsistent horizons: model {model.horizon}, plan {plan.horizon}")
    return plan


_MIN_BIN_HOURS = 1.0 / 60.0  # one minute: a narrower bin only exhausts memory


def check_bin_width(hours):
    """Reject a time bin width that is not a finite number of hours of at least one minute."""
    if not (math.isfinite(hours) and hours >= _MIN_BIN_HOURS):
        raise ValueError(f"bin width must be a finite number of hours, at least one minute, got {hours}")


def check_design(model, design):
    """Reject a design for a different number of stations than the model's."""
    if design.k != model.k:
        raise ValueError(f"design is for {design.k} stations, model has {model.k}")


def _delayed_sum(pieces, delays, horizon):
    """The pointwise sum of intensities delayed by ``delays`` hours, as the pieces of one item.

    An intensity delayed by ``delay`` hours is 0 on ``[0, delay)`` and loses
    the pieces that then start at or past the horizon; a delay of 0 leaves
    it as it is.  Rates are added in item order, from 0.0.
    """
    starts, values, counts = pieces
    owner = np.repeat(np.arange(len(counts)), counts)
    # a (0.0, 0.0) piece goes in ahead of each delayed item's first piece
    lead = (np.cumsum(counts) - counts)[delays > 0.0]
    starts = np.insert(starts + delays[owner], lead, 0.0)
    values = np.insert(values, lead, 0.0)
    owner = np.insert(owner, lead, owner[lead])
    keep = starts < horizon
    edges, rates = rate_grid((starts[keep], values[keep], np.bincount(owner[keep], minlength=len(counts))))
    return edges, sum(rates, np.zeros(len(edges))), np.array([len(edges)])  # 0.0 + r_0 + r_1 + ...


def aggregate_station_flows(model, plan, *, with_delay=False):
    """Fold a demand model and relocation plan into every station's flow profile.

    Returns k profiles, station i's at index i - 1.  Station i's departure
    and arrival rates are the sums, each one ``_delayed_sum`` in (o, d)
    order, of the pairs leaving and entering it.  With ``with_delay`` the
    arrivals are delayed by the pairs' travel times, and so are scheduled
    relocation arrivals, those past the horizon dropped.
    """
    t0 = time.perf_counter()
    plan = checked_plan(model, plan)
    k, horizon = model.k, model.horizon
    origin, destination = model.pair_o - 1, model.pair_d - 1
    eta = np.array(model.eta) if with_delay else np.zeros((k, k))

    def sums(station, delays):  # each station's pairs, in (o, d) order
        rows = np.split(np.argsort(station, kind="stable"), np.cumsum(np.bincount(station, minlength=k))[:-1])
        return [_delayed_sum(_take(model.pieces, r), delays[r], horizon) for r in rows]

    rho_d, rho_a = ([[] for _ in range(k)] for _ in range(2))
    for (o, d), ts in plan.rho.items():
        rho_d[o - 1].extend(ts)
        e = eta[o - 1, d - 1].item()
        rho_a[d - 1].extend(t + e for t in ts if t + e <= horizon)
    arrivals, departures = sums(destination, eta[origin, destination]), sums(origin, np.zeros(origin.size))
    profiles = tuple(
        StationFlowProfile._of_pieces(tuple(map(np.concatenate, zip(a, d))), horizon, tuple(ra), tuple(rd))
        for a, d, ra, rd in zip(arrivals, departures, map(sorted, rho_a), map(sorted, rho_d))
    )
    log.debug("flow aggregation: %d pairs, %d stations, %d edges, travel delays %s, %.3f s",
              origin.size, k, sum(p.pieces[0].size for p in profiles), "on" if with_delay else "off",
              time.perf_counter() - t0)
    return profiles


# --- JSON wire format ------------------------------------------------------
#
# One document shape carries demand models and relocation plans:
#   {"k": int, "horizon_hours": float,
#    "lambda": [{"o": int, "d": int, "breakpoints": [...], "values": [...]}, ...],
#    "eta": [[hours]],
#    "rho": [{"o": int, "d": int, "times": [...]}, ...]}
# A model file uses k/horizon_hours/lambda/eta, a plan file k/horizon_hours/rho;
# unknown keys are ignored so both can live in one file.  A number is a JSON
# int or float: a bool, a string or null where one belongs is an input error.
#
# Reading checks a model's pieces as concatenated arrays (``_checked_pieces``)
# and builds no per-pair object.
# Every file is written by ``write_json``, whose bytes are those of
# ``json.dump(doc, fh, indent=2, sort_keys=True)`` plus a newline, all ASCII.
# ``indent`` would turn off ``json``'s C encoder, so the writer C-encodes the
# document compactly in slices of about ``_SLICE_SCALARS`` scalars and
# re-indents each slice's text in one NumPy pass (``_reindent``).


@contextmanager
def parsing(what):
    """Raise a missing key or a wrongly typed value in a ``what`` document as a ValueError."""
    try:
        yield
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed {what} document: {exc!r}") from exc


def whole_number(value):
    """A station label or count read from a document: ``value`` as an int.

    A non-integral number or a bool is a ValueError rather than being
    truncated or read as 0 or 1.
    """
    out = int(value)
    if out != value or isinstance(value, bool):
        raise ValueError(f"expected a whole number, got {value!r}")
    return out


_NUMBER_TYPES = frozenset((int, float))


def number(value):
    """A real number read from a document: ``value`` as a float.

    Anything but an int or a float (a bool, a string, None) is a TypeError.
    """
    if type(value) not in _NUMBER_TYPES:
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _float_list(a):
    """``a.tolist()`` with one float object per distinct value: pairs share most breakpoints."""
    bits, inverse = np.unique(a.view(np.int64), return_inverse=True)
    return np.array(bits.view(float).tolist(), dtype=object)[inverse].tolist()


def model_to_json(model):
    starts, values, counts = model.pieces
    ends = np.cumsum(counts).tolist()
    bps, vals = _float_list(starts), _float_list(values)
    return {
        "k": model.k,
        "horizon_hours": model.horizon,
        "lambda": [{"o": o, "d": d, "breakpoints": bps[a:b], "values": vals[a:b]}
                   for (o, d), a, b in zip(model.pairs(), [0, *ends], ends)],
        "eta": [list(row) for row in model.eta],
    }


def model_from_json(doc):
    with parsing("demand model"):
        k = whole_number(doc["k"])
        horizon = _checked_size(k, number(doc["horizon_hours"]))
        entries = doc["lambda"]
        labels = [whole_number(e[end]) for e in entries for end in ("o", "d")]
        pieces = _checked_pieces(
            [e["breakpoints"] for e in entries], [e["values"] for e in entries], horizon
        )
        eta = _number_lists(doc["eta"])
        o, d = _checked_pairs(k, labels)
        return DemandModel._of_pieces(k, o, d, pieces, eta, horizon)


def eta_from_json(doc):
    """A demand model document's travel times, checked as ``DemandModel`` checks them.

    Reads ``k``, ``horizon_hours`` and ``eta`` only; the intensities in
    ``lambda`` are neither built nor checked.
    """
    with parsing("demand model"):
        k = whole_number(doc["k"])
        horizon = number(doc["horizon_hours"])
        eta = _number_lists(doc["eta"])
    _checked_size(k, horizon)
    return _checked_eta(k, eta)


def plan_to_json(plan):
    return {
        "k": plan.k,
        "horizon_hours": plan.horizon,
        "rho": [
            {"o": o, "d": d, "times": list(ts)}
            for (o, d), ts in sorted(plan.rho.items())
        ],
    }


def plan_from_json(doc):
    with parsing("relocation plan"):
        k = whole_number(doc["k"])
        horizon = number(doc["horizon_hours"])
        rho = {}
        for entry in doc["rho"]:
            key = (whole_number(entry["o"]), whole_number(entry["d"]))
            if key in rho:
                raise ValueError(f"duplicate plan entry for pair {key}")
            rho[key] = entry["times"]
        return RebalancingPlan(k, horizon, dict(zip(rho, _number_lists(list(rho.values())))))


def read_json(path):
    """The JSON document in ``path``."""
    t0 = time.perf_counter()
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
        size = os.fstat(fh.fileno()).st_size
    log.debug("read %s: %d bytes, %.3f s", path, size, time.perf_counter() - t0)
    return doc


# compact C encoding with the indented encoder's separators and key order
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ": ")).encode
# bytes that open a container (1), close one (2) or separate items (3)
_STRUCTURAL = np.zeros(256, dtype=np.int8)
_STRUCTURAL[list(b"[{")] = 1
_STRUCTURAL[list(b"]}")] = 2
_STRUCTURAL[list(b",")] = 3
_SLICE_SCALARS = 2048


def _reindent(text, depth):
    """Compact ASCII JSON ``text`` as ``json.dumps(indent=2)`` writes it ``depth`` levels in.

    The structural bytes are the brackets and commas outside strings; a
    newline and indent go after each opening bracket and comma and before
    each closing bracket, except inside an empty ``[]`` or ``{}``.
    """
    raw = text.encode("ascii")
    a = np.frombuffer(raw, dtype=np.uint8)
    code = _STRUCTURAL[a]
    at = np.flatnonzero(code)
    quotes = np.flatnonzero(a == ord('"'))
    if b"\\" in raw:
        # a quote is escaped when an odd run of backslashes comes before it:
        # with each escaped backslash pair blanked out, when any backslash does
        blank = np.frombuffer(raw.replace(b"\\\\", b"  "), dtype=np.uint8)
        quotes = quotes[blank[quotes - 1] != ord("\\")]
    at = at[np.searchsorted(quotes, at) % 2 == 0]  # an even number of quotes before
    code = code[at]
    level = depth + np.cumsum((code == 1).astype(np.intp) - (code == 2))
    empty = (code[:-1] == 1) & (code[1:] == 2) & (at[1:] == at[:-1] + 1)
    keep = np.ones(at.size, dtype=bool)
    keep[:-1] &= ~empty
    keep[1:] &= ~empty
    gaps = at[keep] + (code[keep] != 2)  # after an opening bracket or comma, before a closing one
    widths = 1 + 2 * level[keep]
    # each byte's place in the output is its index plus the widths inserted
    # at or before it; int32 keeps this one array per byte small
    total = a.size + int(widths.sum())
    place = np.ones(a.size, dtype=np.int32 if total < 2**31 else np.intp)
    place[gaps] += widths
    np.cumsum(place, out=place)
    place -= 1
    out = np.full(total, ord(" "), dtype=np.uint8)
    out[place] = a
    out[place[gaps] - widths] = ord("\n")
    return out


def _scalars(value):
    """About how many scalars ``value`` holds, judging each list by its first item."""
    if isinstance(value, dict):
        return 1 + sum(map(_scalars, value.values()))
    if isinstance(value, list) and value:
        return 1 + len(value) * _scalars(value[0])
    return 1


def _write_value(value, depth, write):
    """Write ``value`` ``depth`` levels in, C-encoding it in slices of about ``_SLICE_SCALARS``.

    A large dict is written key by key; a large list in groups of items,
    or item by item when each item is large itself.  How a value is sliced
    changes speed and memory but never the bytes.
    """
    large = _scalars(value) > _SLICE_SCALARS
    inner = b"\n" + b"  " * (depth + 1)
    if large and isinstance(value, dict) and all(type(key) is str for key in value):
        write(b"{")
        for i, (key, item) in enumerate(sorted(value.items())):
            write(b"," * (i > 0) + inner + _ENCODE(key).encode("ascii") + b": ")
            _write_value(item, depth + 1, write)
        write(b"\n" + b"  " * depth + b"}")
    elif large and isinstance(value, list):
        step = _SLICE_SCALARS // _scalars(value[0])
        write(b"[")
        if step <= 1:
            for i, item in enumerate(value):
                write(b"," * (i > 0) + inner)
                _write_value(item, depth + 1, write)
        else:
            for i in range(0, len(value), step):
                # the group's own brackets go: "[" before it, "\n", indent and "]" after
                text = _reindent(_ENCODE(value[i : i + step]), depth)
                write(b"," * (i > 0))
                write(text[1 : text.size - 2 - 2 * depth])
        write(b"\n" + b"  " * depth + b"]")
    else:
        write(_reindent(_ENCODE(value), depth))


def write_json(doc, path):
    """Write ``doc`` as every file of the package is written: sorted, indented, ASCII.

    The bytes are ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline.
    """
    t0 = time.perf_counter()
    with open(path, "wb") as fh:
        _write_value(doc, 0, fh.write)
        fh.write(b"\n")
        size = fh.tell()
    log.debug("wrote %s: %d bytes, %.3f s", path, size, time.perf_counter() - t0)


def load_model(path):
    return model_from_json(read_json(path))


def load_eta(path):
    return eta_from_json(read_json(path))


def save_model(model, path):
    write_json(model_to_json(model), path)


def load_plan(path):
    return plan_from_json(read_json(path))


def save_plan(plan, path):
    write_json(plan_to_json(plan), path)
