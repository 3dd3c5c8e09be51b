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

Candidates are evaluated in column batches: when the search reads a
value it does not have yet, one forward pass of the station's event
timeline evaluates every candidate it may read in its next few steps
(``station_bound.station_failure_probabilities``).  Each column is
bitwise the one-candidate evaluation, so the reads, decisions, sizes and
errors are those of evaluating one candidate at a time; the capacity
search hands its last read back as the station's failure probability.
"""

import logging
import math
from collections import deque
from dataclasses import dataclass

from .model import (
    InvariantViolationError,
    SystemDesign,
    aggregate_station_flows,
    read_json,
    write_json,
)
# station_failure_probability is also read from this module by perfbench's tracer
from .station_bound import station_failure_probabilities, station_failure_probability  # noqa: F401

log = logging.getLogger(__name__)

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
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError("sizing horizon T must be finite and positive")
        if self.partition is not None:
            partition = tuple(float(x) for x in self.partition)
            if not all(math.isfinite(x) and x > 0.0 for x in partition):
                raise ValueError("per-station budgets must be finite and positive")
            object.__setattr__(self, "partition", partition)

    def station_budgets(self, k):
        if self.partition is None:
            return tuple(self.z / k for _ in range(k))
        if len(self.partition) != k:
            raise ValueError(f"partition has {len(self.partition)} entries for k={k}")
        if abs(sum(self.partition) - self.z) > 1e-12 * max(1.0, self.z):
            raise ValueError("per-station budgets must sum to z")
        return self.partition


@dataclass(frozen=True)
class SizingResult:
    design: SystemDesign
    station_failure: tuple
    bound: float


_LOOKAHEAD = 15  # candidates evaluated per forward pass


def _lookahead(state, cap):
    """Candidates the search may read next from ``state``, nearest first.

    A state is (kind, lo, hi) and reads one candidate: "start" reads lo,
    "bracket" and "double" read hi, "bisect" reads the midpoint.  Both
    outcomes of each read are followed breadth first: lo feasible ends
    the search, hi feasible starts the bisection of [lo, hi] and hi
    infeasible doubles it.  A doubling is read but not expanded, so a
    pass holds no column more than twice as tall as the bracket.
    """
    out = []
    queue = deque([state])
    while queue and len(out) < _LOOKAHEAD:
        kind, lo, hi = queue.popleft()
        if kind == "bisect":
            if hi - lo > 1:
                mid = (lo + hi) // 2
                out.append(mid)
                queue.extend((("bisect", lo, mid), ("bisect", mid, hi)))
        elif kind == "start":
            out.append(lo)
            queue.append(("bracket", lo, hi))
        else:
            out.append(hi)
            if kind == "bracket":
                queue.append(("bisect", lo, hi))
                if hi < cap:
                    queue.append(("double", hi, min(2 * hi, cap)))
    return out


def _minimal_feasible(evaluate, lo, hi, cap, budget, slack, what):
    """Smallest n in [lo, cap] with f(n) <= budget, for non-increasing f.

    Returns (n, f(n)).  The upper bracket grows by doubling; successive
    bracket values must not rise by more than the evaluation slack,
    otherwise the assumed monotonicity is broken and the search aborts
    rather than returning a wrong size.

    ``evaluate(ns)`` returns f at each n, or the exception evaluating it
    raised.  On a candidate not yet evaluated, one call evaluates every
    candidate the search may read in its next few steps (``_lookahead``),
    so a forward pass serves several reads.  The reads, decisions and
    errors are those of the one-candidate-at-a-time search: a candidate's
    exception is raised only if the search reads it.
    """
    if cap < 1:
        raise ValueError("search cap must be at least 1")
    memo = {}
    passes = columns = reads = 0

    def read(n, state):
        nonlocal passes, columns, reads
        if n not in memo:
            batch = [m for m in dict.fromkeys(_lookahead(state, cap)) if m not in memo]
            memo.update(zip(batch, evaluate(batch), strict=True))
            passes += 1
            columns += len(batch)
        reads += 1
        value = memo[n]
        if isinstance(value, Exception):
            raise value
        return value

    try:
        hi = min(max(hi, lo + 1), cap)
        prev = read(lo, ("start", lo, hi))
        if prev <= budget:
            return lo, prev
        f_hi = read(hi, ("bracket", lo, hi))
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
            f_hi = read(hi, ("bracket", lo, hi))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            f_mid = read(mid, ("bisect", lo, hi))
            if f_mid <= budget:
                hi, f_hi = mid, f_mid
            else:
                lo = mid
        return hi, f_hi
    finally:
        log.debug(
            "%s: %d forward passes, %d columns evaluated, %d candidates read",
            what, passes, columns, reads,
        )


def size_station_stock(profile, T, budget, search_cap=DEFAULT_SEARCH_CAP):
    """Smallest initial stock whose availability failure fits the budget.

    Evaluated with unlimited parking; the working-truncation tail is held
    three orders of magnitude below the budget so it cannot tip the
    comparison.
    """
    if not 0.0 < budget < 1.0:
        raise ValueError("budget must lie in (0, 1)")
    tail = 1e-3 * budget

    def f(vs):
        return station_failure_probabilities(
            profile, vs, [None] * len(vs), T, tail_tolerance=tail
        )

    start = max(1, math.ceil(profile.lambda_d.integral(0.0, T)))
    v, _ = _minimal_feasible(f, 0, start, search_cap, budget, 2.0 * tail, "stock sizing")
    return v


def size_station_capacity(
    profile, T, v, budget, search_cap=DEFAULT_SEARCH_CAP, return_failure=False
):
    """Smallest capacity >= v whose total failure probability fits the budget.

    With ``return_failure`` the result is (c, failure probability of (v, c)
    by T), the value the search read, bitwise that of
    ``station_failure_probability(profile, v, c, T)``.
    """
    if not 0.0 < budget < 1.0:
        raise ValueError("budget must lie in (0, 1)")

    def g(extras):
        return station_failure_probabilities(
            profile, [v] * len(extras), [v + e for e in extras], T
        )

    start = max(1, math.ceil(profile.lambda_a.integral(0.0, T)))
    extra, qf = _minimal_feasible(g, 0, start, search_cap, budget, 1e-9, "capacity sizing")
    return (v + extra, qf) if return_failure else v + extra


def size_system(model, plan, request, with_delay=False, search_cap=DEFAULT_SEARCH_CAP):
    """Size every station against an even split of the system budget."""
    if request.T > model.horizon + 1e-9:
        raise ValueError("sizing horizon exceeds the model horizon")
    budgets = request.station_budgets(model.k)
    vs = []
    cs = []
    qfs = []
    profiles = aggregate_station_flows(model, plan, with_delay=with_delay)
    for i, profile in enumerate(profiles, start=1):
        z_i = budgets[i - 1]
        v = size_station_stock(profile, request.T, 0.5 * z_i, search_cap=search_cap)
        c, qf = size_station_capacity(
            profile, request.T, v, z_i, search_cap=search_cap, return_failure=True
        )
        if qf > z_i + 1e-9:
            raise InvariantViolationError(
                f"station {i}: sized design misses its budget ({qf:.3e} > {z_i:.3e})"
            )
        log.debug("station %d: v=%d c=%d qf=%.6e", i, v, c, qf)
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
    return design_from_json(read_json(path))


def save_design_doc(doc, path):
    write_json(doc, path)
