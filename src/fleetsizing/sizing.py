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

The stock stage writes no probability, only the stock, so it screens
first and confirms on the forward path only where it must.  One backward
sweep (``station_bound.availability_failure_sweep``) gives every start's
availability failure, and the same search runs on those values, each
read accepted only if it is certain to decide as the forward value
would.  For a start x the forward value lies in [fail(x) - tail,
fail(x) + lost(x)], widened by a rounding allowance: two truncation tops
N < N' give 0 <= qF(N') - qF(N) <= lost(N), and the forward value's own
top lets less than ``tail`` escape.  A read is certain if that interval
lies on one side of the budget and, as the top of a growing bracket,
cannot rise by more than the slack over any value the search may have
read below it.  A read beyond the sweep's reach (past its top, or with
``lost`` at or above ``tail``) re-runs the sweep on a top twice as high.
Any other uncertain read, a sweep that breaks its checks and a search
that raises anything send the station through the forward search, so
sizes, errors and their messages are always the forward search's.
"""

import logging
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import (
    InvariantViolationError,
    SystemDesign,
    aggregate_station_flows,
    bin_integrals,
    parsing,
    read_json,
    whole_number,
    write_json,
)
# station_failure_probability is also read from this module by perfbench's tracer
from .station_bound import (  # noqa: F401
    availability_failure_sweep,
    station_failure_probabilities,
    station_failure_probability,
)

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
            "%s: %d evaluation passes, %d candidates evaluated, %d candidates read",
            what, passes, columns, reads,
        )


class _OutOfReach(Exception):
    """A stock read past the backward sweep's top, or whose top lets ``tail`` escape."""


class _Uncertain(Exception):
    """A screened stock read the forward value might decide otherwise."""


def _screened(fail, lost, budget, tail, slack):
    """The stock search's evaluator on one backward sweep's (fail, lost).

    Returns ``fail[n]`` where it is certain to decide every comparison
    the search may make with it as the forward value would, and an
    ``_Uncertain`` or ``_OutOfReach`` in its place otherwise.  The
    forward value of start n lies in [lower(n), upper(n)] (see the module
    docstring), so a read is certain if that interval lies on one side of
    the budget and if upper(n) exceeds no lower(m) + slack of a start
    m < n whose forward value may exceed the budget: the search compares
    a bracket's new top with its previous one only when that one exceeded
    the budget.
    """
    allow = 1e-9 * budget + 1e-12 * fail  # rounding, both ways
    lower, upper = fail - tail - allow, fail + lost + allow
    # the least value a start below n may be read with while above the budget
    below = np.minimum.accumulate(np.where(upper > budget, lower, np.inf))
    below = np.concatenate(([np.inf], below[:-1]))
    certain = ((upper <= budget) | (lower > budget)) & (upper <= below + slack)
    reached = lost < tail

    def evaluate(ns):
        return [
            _OutOfReach() if n >= len(fail) or not reached[n]
            else fail[n].item() if certain[n]
            else _Uncertain(f"screened value {fail[n]:.6e} of start {n} is not certain")
            for n in ns
        ]

    return evaluate


def size_station_stock(profile, T, budget, search_cap=DEFAULT_SEARCH_CAP):
    """Smallest initial stock whose availability failure fits the budget.

    Evaluated with unlimited parking; the working-truncation tail is held
    three orders of magnitude below the budget so it cannot tip the
    comparison.  The search first runs on one backward sweep, whose top
    covers twice the search's first bracket and doubles while a read
    lies beyond its reach; a read it cannot certify, or any error, sends
    the station through the forward search instead (see the module
    docstring).  Either way the stock is the forward search's.  At DEBUG
    one ``stock sizing:`` line reports the sweeps, their top, kernel
    terms and whether the forward search ran; the forward search then
    logs its own line.
    """
    if not 0.0 < budget < 1.0:
        raise ValueError("budget must lie in (0, 1)")
    tail = 1e-3 * budget
    start = max(1, math.ceil(bin_integrals([profile.lambda_d], (0.0, T))[0, 0]))
    reach, sweeps, terms, top, fallback = 2 * start, 0, 0, None, None
    while True:
        try:
            fail, lost, n_terms = availability_failure_sweep(profile, reach, T)
            sweeps, terms, top = sweeps + 1, terms + n_terms, len(fail) - 1
            v, _ = _minimal_feasible(
                _screened(fail, lost, budget, tail, 2.0 * tail),
                0, start, search_cap, budget, 2.0 * tail, "stock screen",
            )
            break
        except _OutOfReach:
            reach *= 2
        except Exception as exc:  # the forward search decides, and raises its own errors
            fallback = f"{type(exc).__name__}: {exc}"
            break
    log.debug(
        "stock sizing: %d backward sweeps to top %s, %d kernel terms; %s",
        sweeps, top, terms,
        f"forward fallback ({fallback})" if fallback else "every read certain, no forward pass",
    )
    if fallback is None:
        return v

    def f(vs):
        return station_failure_probabilities(
            profile, vs, [None] * len(vs), T, tail_tolerance=tail
        )

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

    start = max(1, math.ceil(bin_integrals([profile.lambda_a], (0.0, T))[0, 0]))
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
    with parsing("design"):
        stations = doc["stations"]
        if not stations:
            raise ValueError("design document lists no stations")
        by_id = {whole_number(s["id"]): (s["v"], s["c"]) for s in stations}
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
