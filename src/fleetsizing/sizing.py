"""Smallest stock and capacity meeting a per-station failure budget.

The system-wide failure budget z is split evenly across stations, and
each station is sized in two stages against its own slice: first the
smallest initial stock whose availability-failure probability (evaluated
with unlimited parking) fits half the slice, then the smallest capacity
whose total failure probability fits the whole slice.  Both stages
exploit that the failure probability is non-increasing in stock
(unlimited capacity) and in capacity (fixed stock): ``_search`` finds an
upper bracket by doubling and the minimum by bisection, and aborts if a
bracket's value rises.

One backward sweep (``station_bound.availability_failure_sweep``) gives,
for every start x up to its top, fail(x), the chance of having fallen
below 0 by T, and lost(x), the chance of having escaped through the top
first.  The stock stage writes no probability, so it runs the search on
fail and accepts a read only if it is certain to decide as the forward
value would.  That value lies in [fail(x) - tail, fail(x) + lost(x)],
widened by a rounding allowance: two truncation tops N < N' give
0 <= qF(N') - qF(N) <= lost(N), and the forward value's own top lets
less than ``tail`` escape.  A read is certain if that interval lies on
one side of the budget and, as the top of a growing bracket, cannot
rise by more than the slack over a value read below it.  A read past
the sweep's reach re-runs it on a top twice as high; any other
uncertain read or error sends the station through the forward search.

The forward search (``_minimal_feasible``) reads forward values only,
each bitwise that of its candidate alone
(``station_bound.station_failure_probabilities``), so sizes, errors and
the written failure probability are always the forward search's.  The
sweep only chooses its columns: the search first runs on a prediction,
and one forward pass evaluates every candidate that run read.  The
stock stage predicts fail(v).  The capacity stage predicts extra e as
fail(v) + lost(top - e): between the two boundaries the rates do not
depend on the stock, so the two terms are the first passages through
the lower and the upper boundary, and their sum is high only by the
chance of crossing both, which is small when they lie far apart.
"""

import contextlib
import logging
import math
import time
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
    """Failure budget z over [0, T], split evenly over the stations."""

    z: float
    T: float

    def __post_init__(self):
        if not 0.0 < self.z < 1.0:
            raise ValueError("budget z must lie in (0, 1)")
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError("sizing horizon T must be finite and positive")

    def station_budgets(self, k):
        return tuple(self.z / k for _ in range(k))


@dataclass(frozen=True)
class SizingResult:
    design: SystemDesign
    station_failure: tuple
    bound: float


def _search(read, lo, hi, cap, budget, slack, what):
    """Smallest n in [lo, cap] with f(n) <= budget, for non-increasing f.

    Reads f(n) as ``read(n)`` and returns (n, f(n)).  The upper bracket
    grows by doubling; successive bracket values must not rise by more
    than the evaluation slack, otherwise the assumed monotonicity is
    broken and the search aborts rather than returning a wrong size.
    """
    if cap < 1:
        raise ValueError("search cap must be at least 1")
    hi = min(max(hi, lo + 1), cap)
    prev = read(lo)
    if prev <= budget:
        return lo, prev
    f_hi = read(hi)
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
        f_hi = read(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        f_mid = read(mid)
        if f_mid <= budget:
            hi, f_hi = mid, f_mid
        else:
            lo = mid
    return hi, f_hi


def _minimal_feasible(evaluate, lo, hi, cap, budget, slack, what, predict=None):
    """``_search`` on ``evaluate(ns)``, which returns f or the exception of each n.

    ``predict(n)`` guesses f(n), or raises where it has no guess.  One
    call evaluates every candidate the search on the guesses reads (any
    error of that run is dropped); each read off that path is evaluated
    on its own.  The search then reads evaluated values only, so a wrong
    guess costs calls, never another result, and a candidate's exception
    is raised only if the search reads it.
    """
    memo = {}
    passes = columns = reads = 0

    def fetch(ns):
        nonlocal passes, columns
        memo.update(zip(ns, evaluate(ns), strict=True))
        passes += 1
        columns += len(ns)

    if predict is not None:
        path = []
        with contextlib.suppress(Exception):  # the evaluated search raises its own
            _search(lambda n: path.append(n) or predict(n), lo, hi, cap, budget, slack, what)
        if path:
            fetch(list(dict.fromkeys(path)))

    def read(n):
        nonlocal reads
        if n not in memo:
            fetch([n])
        reads += 1
        value = memo[n]
        if isinstance(value, Exception):
            raise value
        return value

    try:
        return _search(read, lo, hi, cap, budget, slack, what)
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
    """The stock search's reader on one backward sweep's (fail, lost).

    Returns ``fail[n]`` where it is certain to decide as the forward value
    would (see the module docstring), and raises ``_Uncertain`` or
    ``_OutOfReach`` otherwise.  A bracket's new top is compared with the
    previous one only when that one may exceed the budget.
    """
    allow = 1e-9 * budget + 1e-12 * fail  # rounding, both ways
    lower, upper = fail - tail - allow, fail + lost + allow
    # the least value a start below n may be read with while above the budget
    below = np.minimum.accumulate(np.where(upper > budget, lower, np.inf))
    below = np.concatenate(([np.inf], below[:-1]))
    certain = ((upper <= budget) | (lower > budget)) & (upper <= below + slack)
    reached = lost < tail

    def read(n):
        if n >= len(fail) or not reached[n]:
            raise _OutOfReach
        if not certain[n]:
            raise _Uncertain(f"screened value {fail[n]:.6e} of start {n} is not certain")
        return fail[n].item()

    return read


def _stock(profile, T, budget, search_cap):
    """The stock stage: (v, the last backward sweep's (fail, lost) or None)."""
    if not 0.0 < budget < 1.0:
        raise ValueError("budget must lie in (0, 1)")
    tail = 1e-3 * budget
    start = max(1, math.ceil(bin_integrals(profile.pieces, profile.horizon, (0.0, T))[1, 0]))  # departures
    reach, sweeps, terms, sweep, fallback = 2 * start, 0, 0, None, None
    while True:
        try:
            fail, lost, n_terms = availability_failure_sweep(profile, reach, T)
            sweeps, terms, sweep = sweeps + 1, terms + n_terms, (fail, lost)
            v, _ = _search(
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
        sweeps, sweep and len(sweep[0]) - 1, terms,
        f"forward fallback ({fallback})" if fallback else "every read certain, no forward pass",
    )
    if fallback is None:
        return v, sweep

    def f(vs):
        return station_failure_probabilities(
            profile, vs, [None] * len(vs), T, tail_tolerance=tail
        )

    v, _ = _minimal_feasible(
        f, 0, start, search_cap, budget, 2.0 * tail, "stock sizing",
        predict=sweep and sweep[0].item,
    )
    return v, sweep


def _capacity(profile, T, v, budget, search_cap, sweep):
    """The capacity stage: (c, the failure probability of (v, c) it read).

    ``sweep`` is a backward sweep's (fail, lost), or None to run one.
    """
    if not 0.0 < budget < 1.0:
        raise ValueError("budget must lie in (0, 1)")
    if sweep is None:
        with contextlib.suppress(Exception):  # the forward search raises its own
            sweep = availability_failure_sweep(profile, v, T)[:2]
    predict = None
    if sweep is not None:
        fail, lost = sweep
        top = len(fail) - 1

        def predict(e):  # both boundaries, less the chance of crossing both
            if top - e < v:
                raise IndexError(f"no prediction for extra {e} above top {top}")
            return fail[v] + lost[top - e]

    def g(extras):
        return station_failure_probabilities(
            profile, [v] * len(extras), [v + e for e in extras], T
        )

    start = max(1, math.ceil(bin_integrals(profile.pieces, profile.horizon, (0.0, T))[0, 0]))  # arrivals
    extra, qf = _minimal_feasible(g, 0, start, search_cap, budget, 1e-9, "capacity sizing", predict)
    return v + extra, qf


def size_station_stock(profile, T, budget, search_cap=DEFAULT_SEARCH_CAP):
    """Smallest initial stock whose availability failure fits the budget.

    Evaluated with unlimited parking; the working-truncation tail is held
    three orders of magnitude below the budget so it cannot tip the
    comparison.  The backward sweep's top first covers twice the search's
    first bracket.  At DEBUG one ``stock sizing:`` line reports the
    sweeps, their top, kernel terms and whether the forward search ran.
    """
    return _stock(profile, T, budget, search_cap)[0]


def size_station_capacity(profile, T, v, budget, search_cap=DEFAULT_SEARCH_CAP):
    """Smallest capacity >= v whose total failure probability fits the budget.

    Its own backward sweep, from a reach of ``v``, predicts the values.
    """
    return _capacity(profile, T, v, budget, search_cap, None)[0]


def size_system(model, plan, request, with_delay=False):
    """Size every station against an even split of the system budget.

    Both stages of a station share one backward sweep.  At DEBUG a
    ``station i:`` line also reports the seconds of each stage.
    """
    if request.T > model.horizon + 1e-9:
        raise ValueError("sizing horizon exceeds the model horizon")
    budgets = request.station_budgets(model.k)
    rows = []
    profiles = aggregate_station_flows(model, plan, with_delay=with_delay)
    for i, profile in enumerate(profiles, start=1):
        z_i = budgets[i - 1]
        t0 = time.perf_counter()
        v, sweep = _stock(profile, request.T, 0.5 * z_i, DEFAULT_SEARCH_CAP)
        t1 = time.perf_counter()
        c, qf = _capacity(profile, request.T, v, z_i, DEFAULT_SEARCH_CAP, sweep)
        t2 = time.perf_counter()
        if qf > z_i + 1e-9:
            raise InvariantViolationError(
                f"station {i}: sized design misses its budget ({qf:.3e} > {z_i:.3e})"
            )
        log.debug(
            "station %d: v=%d c=%d qf=%.6e stock_s=%.4f capacity_s=%.4f",
            i, v, c, qf, t1 - t0, t2 - t1,
        )
        rows.append((v, c, qf))
    vs, cs, qfs = zip(*rows)
    return SizingResult(SystemDesign(vs, cs), qfs, sum(qfs))


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
