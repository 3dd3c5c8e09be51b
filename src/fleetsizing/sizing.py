"""Smallest stock and capacity meeting a per-station failure budget.

The system-wide failure budget z is split evenly across stations, and
each station is sized in two stages against its own slice: first the
smallest initial stock whose availability-failure probability (evaluated
with unlimited parking) fits half the slice, then the smallest capacity
whose total failure probability fits the whole slice.  Both stages
exploit that the failure probability is non-increasing in stock
(unlimited capacity) and in capacity (fixed stock): an upper bracket is
found by doubling and the minimum by bisection.  Monotonicity is
asserted at the bracket endpoints and a violation aborts the search.
"""

import json
import math
from dataclasses import dataclass

from .model import (
    InvariantViolationError,
    SystemDesign,
    aggregate_station_flows,
)
from .station_bound import station_failure_probability

DEFAULT_SEARCH_CAP = 1_000_000


class SizingInfeasibleError(RuntimeError):
    """No design within the search cap meets the requested budget."""


@dataclass(frozen=True)
class SizingRequest:
    """Failure budget z over [0, T]; optional per-station budget partition."""

    z: float
    T: float
    partition: tuple = None

    def __post_init__(self):
        if not 0.0 < self.z < 1.0:
            raise ValueError("budget z must lie in (0, 1)")
        if self.T <= 0.0:
            raise ValueError("sizing horizon T must be positive")
        if self.partition is not None:
            object.__setattr__(
                self, "partition", tuple(float(x) for x in self.partition)
            )

    def station_budgets(self, k):
        if self.partition is None:
            return tuple(self.z / k for _ in range(k))
        if len(self.partition) != k:
            raise ValueError(f"partition has {len(self.partition)} entries for k={k}")
        if any(x <= 0.0 for x in self.partition):
            raise ValueError("per-station budgets must be positive")
        if abs(sum(self.partition) - self.z) > 1e-12 * max(1.0, self.z):
            raise ValueError("per-station budgets must sum to z")
        return self.partition


@dataclass(frozen=True)
class SizingResult:
    design: SystemDesign
    station_failure: tuple
    bound: float


def _minimal_feasible(f, lo, hi, cap, budget, slack, what):
    """Smallest n in [lo, cap] with f(n) <= budget, for non-increasing f.

    The upper bracket grows by doubling; successive bracket values must
    not rise by more than the evaluation slack, otherwise the assumed
    monotonicity is broken and the search aborts rather than returning a
    wrong size.
    """
    if cap < 1:
        raise ValueError("search cap must be at least 1")
    prev = f(lo)
    if prev <= budget:
        return lo
    hi = min(max(hi, lo + 1), cap)
    f_hi = f(hi)
    while True:
        if f_hi > prev + slack:
            raise InvariantViolationError(
                f"{what}: failure probability rose from {prev:.6e} to {f_hi:.6e} "
                f"while growing the bracket to {hi}; expected non-increasing"
            )
        if f_hi <= budget:
            break
        if hi >= cap:
            raise SizingInfeasibleError(
                f"{what}: failure probability {f_hi:.3e} still exceeds budget "
                f"{budget:.3e} at search cap {cap}"
            )
        lo, prev = hi, f_hi
        hi = min(2 * hi, cap)
        f_hi = f(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(mid) <= budget:
            hi = mid
        else:
            lo = mid
    return hi


def size_station_stock(profile, T, budget, search_cap=DEFAULT_SEARCH_CAP):
    """Smallest initial stock whose availability failure fits the budget.

    Evaluated with unlimited parking; the working-truncation tail is held
    three orders of magnitude below the budget so it cannot tip the
    comparison.
    """
    if not 0.0 < budget < 1.0:
        raise ValueError("budget must lie in (0, 1)")
    tail = 1e-3 * budget

    def f(v):
        return station_failure_probability(profile, v, None, T, tail_tolerance=tail)

    start = max(1, math.ceil(profile.lambda_d.integral(0.0, T)))
    return _minimal_feasible(
        f, 0, start, search_cap, budget, 2.0 * tail, "stock sizing"
    )


def size_station_capacity(profile, T, v, budget, search_cap=DEFAULT_SEARCH_CAP):
    """Smallest capacity >= v whose total failure probability fits the budget."""
    if not 0.0 < budget < 1.0:
        raise ValueError("budget must lie in (0, 1)")

    def g(extra):
        return station_failure_probability(profile, v, v + extra, T)

    start = max(1, math.ceil(profile.lambda_a.integral(0.0, T)))
    extra = _minimal_feasible(
        g, 0, start, search_cap, budget, 1e-9, "capacity sizing"
    )
    return v + extra


def size_station_joint(profile, T, budget, v_cap=60, c_cap=60):
    """Exhaustive minimum of v + c subject to the budget (small stations only).

    Cross-check oracle for the two-stage search: scans totals in
    increasing order and returns the first feasible (v, c), preferring
    the smallest stock among equal totals.
    """
    for total in range(0, v_cap + c_cap + 1):
        for v in range(0, min(total // 2, v_cap) + 1):
            c = total - v
            if c < v or c > c_cap:
                continue
            if station_failure_probability(profile, v, c, T) <= budget:
                return v, c
    raise SizingInfeasibleError("no feasible (v, c) within the search caps")


def size_system(model, plan, request, with_delay=False, search_cap=DEFAULT_SEARCH_CAP):
    """Size every station against an even split of the system budget."""
    if request.T > model.horizon + 1e-9:
        raise ValueError("sizing horizon exceeds the model horizon")
    budgets = request.station_budgets(model.k)
    vs = []
    cs = []
    qfs = []
    for i in range(1, model.k + 1):
        profile = aggregate_station_flows(model, plan, i, with_delay=with_delay)
        z_i = budgets[i - 1]
        v = size_station_stock(profile, request.T, 0.5 * z_i, search_cap=search_cap)
        c = size_station_capacity(profile, request.T, v, z_i, search_cap=search_cap)
        qf = station_failure_probability(profile, v, c, request.T)
        if qf > z_i + 1e-9:
            raise InvariantViolationError(
                f"station {i}: sized design misses its budget ({qf:.3e} > {z_i:.3e})"
            )
        vs.append(v)
        cs.append(c)
        qfs.append(qf)
    bound = sum(qfs)
    return SizingResult(SystemDesign(tuple(vs), tuple(cs)), tuple(qfs), bound)


# --- design / result files --------------------------------------------------


def result_to_json(result, z, T):
    return {
        "z": z,
        "T": T,
        "stations": [
            {"id": i + 1, "v": result.design.v[i], "c": result.design.c[i], "qf": qf}
            for i, qf in enumerate(result.station_failure)
        ],
        "bound": result.bound,
        "fleet": result.design.fleet_size,
        "capacity": result.design.total_capacity,
    }


def design_to_json(design):
    return {
        "stations": [
            {"id": i + 1, "v": design.v[i], "c": design.c[i]} for i in range(design.k)
        ]
    }


def design_from_json(doc):
    try:
        stations = doc["stations"]
    except KeyError as exc:
        raise ValueError("design document is missing key 'stations'") from exc
    if not stations:
        raise ValueError("design document lists no stations")
    by_id = {int(s["id"]): (int(s["v"]), int(s["c"])) for s in stations}
    k = len(by_id)
    if k != len(stations):
        raise ValueError("design document lists a station id more than once")
    if sorted(by_id) != list(range(1, k + 1)):
        raise ValueError("station ids must be dense labels 1..k")
    return SystemDesign(
        tuple(by_id[i][0] for i in range(1, k + 1)),
        tuple(by_id[i][1] for i in range(1, k + 1)),
    )


def load_design(path):
    with open(path, "r", encoding="utf-8") as fh:
        return design_from_json(json.load(fh))


def save_design_doc(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
