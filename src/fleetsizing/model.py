"""Domain types for station-based vehicle sharing systems.

Time is measured in hours from the start of the planning horizon.
Station labels are dense and 1-based in every public interface and in
every file format; internal arrays are 0-based.
"""

import json
import math
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np

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

    @classmethod
    def zero(cls, horizon_end):
        return cls((0.0,), (0.0,), horizon_end)

    def value_at(self, t):
        if t < -_TIME_EPS or t > self.horizon_end + _TIME_EPS:
            raise ValueError(f"time {t} outside intensity domain [0, {self.horizon_end}]")
        return self.values[bisect_right(self.breakpoints, min(max(t, 0.0), self.horizon_end)) - 1]

def _pieces(items):
    """The items' breakpoints and rates, concatenated, and each item's piece count."""
    starts = np.fromiter(chain.from_iterable(it.breakpoints for it in items), float)
    values = np.fromiter(chain.from_iterable(it.values for it in items), float)
    counts = np.fromiter((len(it.breakpoints) for it in items), np.intp, len(items))
    return starts, values, counts


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


def _grid(starts, values, counts):
    """``rate_grid`` of items given by their concatenated pieces."""
    edges = np.unique(np.append(starts, 0.0))
    return edges, values[_holding(starts, counts, edges)]


def rate_grid(items):
    """The merged breakpoints of several intensities and each one's rate per piece.

    Returns (edges, rates): the sorted union of the items' breakpoints
    (``[0.0]`` for no items), and an (items x pieces) array whose row r
    holds ``items[r]`` on ``[edges[j], edges[j+1])``, the last piece
    ending at the horizon.  Entries are looked up, never computed, so each
    is bitwise ``items[r].value_at`` anywhere in its piece.
    """
    return _grid(*_pieces(items))


def bin_integrals(items, edges):
    """Each item's integral over each bin ``[edges[b], edges[b+1]]``: (items x bins).

    Entry (r, b) adds up the pieces of ``items[r]`` that meet bin b, each
    clipped to the bin as rate x width, from left to right, so it is
    bitwise the scalar walk over the item's own breakpoints.  Edges up to
    1e-9 outside an item's ``[0, horizon_end]`` are clamped to it, as
    ``value_at`` clamps times; a zero-width bin gives 0.0.
    """
    edges = np.asarray(edges, dtype=float)
    if not (edges.size and np.isfinite(edges).all() and np.all(np.diff(edges) >= 0.0)):
        raise ValueError("bin edges must be finite and must not decrease")
    starts, values, counts = _pieces(items)
    horizons = np.array([it.horizon_end for it in items])
    if horizons.size and (edges[0] < -_TIME_EPS or edges[-1] > horizons.min() + _TIME_EPS):
        raise ValueError(f"bin edges outside intensity domain [0, {horizons.min()}]")
    x = np.maximum(edges, 0.0)
    ends = np.append(starts[1:], 0.0)  # each piece's right end
    ends[np.cumsum(counts) - 1] = horizons
    hold = _holding(starts, counts, x)
    out = np.empty((len(counts), x.size - 1))
    for b in range(x.size - 1):
        lo, hi = np.minimum(x[b], horizons), np.minimum(x[b + 1], horizons)
        n_pieces = hold[:, b + 1] - hold[:, b] + 1
        for m in np.unique(n_pieces):
            r = np.flatnonzero(n_pieces == m)
            j = hold[r, b, None] + np.arange(m)
            width = np.minimum(ends[j], hi[r, None]) - np.maximum(starts[j], lo[r, None])
            # a running sum along each row adds the pieces one after another
            out[r, b] = np.cumsum(values[j] * width, axis=1)[:, -1]
    return out


def _check_station(label, k, what="station"):
    if not isinstance(label, int) or isinstance(label, bool):
        raise ValueError(f"{what} label must be an integer, got {label!r}")
    if not 1 <= label <= k:
        raise ValueError(f"{what} label {label} outside 1..{k}")
    return label


@dataclass(frozen=True, eq=False)
class DemandModel:
    """Time-varying demand between k stations.

    ``intensities`` maps ordered station pairs (o, d), o != d, 1-based, to
    the rental request rate from o to d; absent pairs have zero demand.
    ``eta[o-1][d-1]`` is the travel time in hours from o to d.
    """

    k: int
    intensities: dict
    eta: tuple
    horizon: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need at least one station")
        object.__setattr__(self, "horizon", float(self.horizon))
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError("horizon must be a positive finite number of hours")
        cleaned = {}
        for (o, d), pci in dict(self.intensities).items():
            _check_station(o, self.k, "origin")
            _check_station(d, self.k, "destination")
            if o == d:
                raise ValueError("demand between a station and itself is not allowed")
            if pci.horizon_end != self.horizon:
                raise ValueError("all intensities must share the model horizon")
            if any(pci.values):  # an all-zero pair has no demand, like an absent one
                cleaned[(o, d)] = pci
        object.__setattr__(self, "intensities", cleaned)
        eta = tuple(_float_tuple(row) for row in self.eta)
        if len(eta) != self.k or any(len(row) != self.k for row in eta):
            raise ValueError("eta must be a k x k matrix of hours")
        for i, row in enumerate(eta):
            for j, e in enumerate(row):
                if not math.isfinite(e) or e < 0.0:
                    raise ValueError("travel times must be finite and non-negative")
                if i == j and e != 0.0:
                    raise ValueError("diagonal travel times must be zero")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "_zero", PiecewiseConstantIntensity.zero(self.horizon))

    def rate(self, o, d):
        _check_station(o, self.k, "origin")
        _check_station(d, self.k, "destination")
        return self.intensities.get((o, d), self._zero)

    def eta_hours(self, o, d):
        return self.eta[o - 1][d - 1]

    def pairs(self):
        return sorted(self.intensities)


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
        if v != tuple(self.v) or c != tuple(self.c):
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


@dataclass(frozen=True, eq=False)
class StationFlowProfile:
    """Aggregate arrival/departure streams seen by one station.

    ``lambda_a``/``lambda_d`` are the total vehicle arrival and rental
    departure rates; ``rho_a``/``rho_d`` are the instants of scheduled
    relocation arrivals/departures (duplicates mean several vehicles).
    """

    lambda_a: PiecewiseConstantIntensity
    lambda_d: PiecewiseConstantIntensity
    rho_a: tuple
    rho_d: tuple

    def __post_init__(self):
        if self.lambda_a.horizon_end != self.lambda_d.horizon_end:
            raise ValueError("arrival and departure intensities must share a horizon")
        horizon = self.lambda_a.horizon_end
        for name in ("rho_a", "rho_d"):
            ts = _float_tuple(getattr(self, name))
            if any(b > a for b, a in zip(ts, ts[1:])):
                raise ValueError(f"{name} must be sorted")
            if ts and (ts[0] < 0.0 or ts[-1] > horizon):
                raise ValueError(f"{name} instants must lie within [0, horizon]")
            object.__setattr__(self, name, ts)

    @property
    def horizon(self):
        return self.lambda_a.horizon_end


def checked_plan(model, plan):
    """``plan`` (the empty plan for None), checked to share the model's stations and horizon."""
    if plan is None:
        return RebalancingPlan.empty(model.k, model.horizon)
    if plan.k != model.k:
        raise ValueError(f"plan is for {plan.k} stations, model has {model.k}")
    if plan.horizon != model.horizon:
        raise ValueError(f"inconsistent horizons: model {model.horizon}, plan {plan.horizon}")
    return plan


def check_design(model, design):
    """Reject a design for a different number of stations than the model's."""
    if design.k != model.k:
        raise ValueError(f"design is for {design.k} stations, model has {model.k}")


def _delayed_sum(items, horizon):
    """The pointwise sum of ``(intensity, delay)`` items, rates added in item order.

    An intensity delayed by ``delay`` hours is 0 on ``[0, delay)`` and loses
    the pieces that then start at or past the horizon; a delay of 0 leaves
    it as it is.
    """
    starts, values, counts = _pieces([pci for pci, _ in items])
    delays = np.array([delay for _, delay in items], dtype=float)
    owner = np.repeat(np.arange(len(items)), counts)
    # a (0.0, 0.0) piece goes in ahead of each delayed item's first piece
    lead = (np.cumsum(counts) - counts)[delays > 0.0]
    starts = np.insert(starts + delays[owner], lead, 0.0)
    values = np.insert(values, lead, 0.0)
    owner = np.insert(owner, lead, owner[lead])
    keep = starts < horizon
    edges, rates = _grid(starts[keep], values[keep], np.bincount(owner[keep], minlength=len(items)))
    total = sum(rates, np.zeros(len(edges)))  # 0.0 + r_0 + r_1 + ...
    return PiecewiseConstantIntensity(tuple(edges), tuple(total), horizon)


def aggregate_station_flows(model, plan, *, with_delay=False):
    """Fold a demand model and relocation plan into every station's flow profile.

    Returns k profiles, station i's at index i - 1, built in one pass over
    the model's pairs and the plan's relocations.  With ``with_delay`` the
    arrival stream of station i is the sum of the origin streams delayed
    by the pairwise travel times (vehicles arrive eta hours after they
    depart); otherwise transfers are instantaneous.  Scheduled relocation
    arrivals shift the same way; shifted instants falling past the horizon
    are discarded.  Each station's intensities are shifted and summed as
    one set of breakpoint arrays; only the k profiles' intensities are built.
    """
    plan = checked_plan(model, plan)
    k, horizon = model.k, model.horizon
    # without delay every shift is by 0.0: an item keeps its pieces and
    # ``t + 0.0 == t``, so both modes share one path
    eta = model.eta if with_delay else ((0.0,) * k,) * k
    dep, arr, rho_d, rho_a = ([[] for _ in range(k)] for _ in range(4))
    for (o, d), pci in model.intensities.items():
        dep[o - 1].append((pci, 0.0))
        arr[d - 1].append((pci, eta[o - 1][d - 1]))
    for (o, d), ts in plan.rho.items():
        rho_d[o - 1].extend(ts)
        e = eta[o - 1][d - 1]
        rho_a[d - 1].extend(t + e for t in ts if t + e <= horizon)
    return tuple(
        StationFlowProfile(_delayed_sum(a, horizon), _delayed_sum(d, horizon), ra, rd)
        for a, d, ra, rd in zip(arr, dep, map(sorted, rho_a), map(sorted, rho_d))
    )


# --- JSON wire format ------------------------------------------------------
#
# One document shape carries demand models and relocation plans:
#   {"k": int, "horizon_hours": float,
#    "lambda": [{"o": int, "d": int, "breakpoints": [...], "values": [...]}, ...],
#    "eta": [[hours]],
#    "rho": [{"o": int, "d": int, "times": [...]}, ...]}
# A model file uses k/horizon_hours/lambda/eta, a plan file k/horizon_hours/rho;
# unknown keys are ignored so both can live in one file.


@contextmanager
def parsing(what):
    """Raise a missing key or a wrongly typed value in a ``what`` document as a ValueError."""
    try:
        yield
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed {what} document: {exc!r}") from exc


def whole_number(value):
    """A station label or count read from a document: ``value`` as an int.

    A non-integral number is a ValueError rather than being truncated.
    """
    out = int(value)
    if out != value:
        raise ValueError(f"expected a whole number, got {value!r}")
    return out


def model_to_json(model):
    return {
        "k": model.k,
        "horizon_hours": model.horizon,
        "lambda": [
            {
                "o": o,
                "d": d,
                "breakpoints": list(model.intensities[(o, d)].breakpoints),
                "values": list(model.intensities[(o, d)].values),
            }
            for (o, d) in model.pairs()
        ],
        "eta": [list(row) for row in model.eta],
    }


def model_from_json(doc):
    with parsing("demand model"):
        k = whole_number(doc["k"])
        horizon = float(doc["horizon_hours"])
        intensities = {}
        for entry in doc["lambda"]:
            key = (whole_number(entry["o"]), whole_number(entry["d"]))
            if key in intensities:
                raise ValueError(f"duplicate intensity entry for pair {key}")
            intensities[key] = PiecewiseConstantIntensity(
                tuple(entry["breakpoints"]), tuple(entry["values"]), horizon
            )
        return DemandModel(k, intensities, tuple(tuple(row) for row in doc["eta"]), horizon)


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
        horizon = float(doc["horizon_hours"])
        rho = {}
        for entry in doc["rho"]:
            key = (whole_number(entry["o"]), whole_number(entry["d"]))
            if key in rho:
                raise ValueError(f"duplicate plan entry for pair {key}")
            rho[key] = tuple(entry["times"])
        return RebalancingPlan(k, horizon, rho)


def read_json(path):
    """The JSON document in ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_json(doc, path):
    """Write ``doc`` the way every file of the package is written: sorted, indented."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path):
    return model_from_json(read_json(path))


def save_model(model, path):
    write_json(model_to_json(model), path)


def load_plan(path):
    return plan_from_json(read_json(path))


def save_plan(plan, path):
    write_json(plan_to_json(plan), path)
