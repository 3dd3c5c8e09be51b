"""Per-station failure probabilities for an independent-streams relaxation.

Each station is analyzed in isolation: vehicle arrivals and rental
departures are independent Poisson streams with the station's aggregate
rates, scheduled relocations shift the whole stock distribution by one,
and the first unserved request (departure from an empty station, arrival
at a full one) moves all affected mass into an absorbing failed state.
Summing the resulting failure probabilities over stations upper-bounds
the failure probability of the true joint system, where the same request
streams couple the stations.

Between events the stock distribution solves a linear ODE with a
tridiagonal generator whose exit rate is the same in every state, so it
is propagated by the shared uniformization core
(``fleetsizing.uniformization``), with mass conservation checked to 1e-9
after every piece.

``_evolve_columns`` is the only evolution: it carries one or several
starts of a station (initial stock and top state) as the rows of one
matrix through the same series, and every start is evaluated exactly as
it would be alone.  Bounds, curves and transients run it with one
column; ``station_failure_probabilities`` runs it with several, which
sizing uses to evaluate a search's next candidates at once.
"""

import math

import numpy as np

from . import model as model_module  # read at call time, where a tracer may wrap it
from .model import InvariantViolationError, bin_integrals, rate_grid
from .uniformization import BREAKPOINT, RECORD, check_mass, event_timeline, uniformize

_MASS_TOL = 1e-9
_MAX_BATCH_CELLS = 1 << 21  # states per column-batched pass (16 MB per matrix)
_MAX_TRUNCATION = 50_000_000  # largest working truncation that may still be doubled
_TRUNCATION_GREW = "working truncation for the unlimited-capacity station grew unreasonably"


class _Views:
    """Views of one flat (m, width) state buffer that the column kernel reuses."""

    __slots__ = ("buf", "pre", "post", "head", "fail", "lost")

    def __init__(self, buf, m, width):
        self.buf = buf
        self.pre = buf[:-1]  # cell k, for a flat shift by one ...
        self.post = buf[1:]  # ... to or from cell k + 1
        self.head = buf.reshape(m, width)[:, :2]  # [qF, q_0]
        self.fail = buf[::width]
        self.lost = buf[width - 1 :: width]


_KEEP_FAILED = np.array([1.0, 0.0])


def _evolve_columns(profile, starts, tops, T, cap_absorbs, record_times=()):
    """Run m (start, top) columns of one station from point masses to T.

    Row i of the state matrix carries column i as ``[qF, q_0 .. q_top,
    zero padding, lost]``, padded to the tallest top plus one state, and
    a term of the uniformized kernel shifts the flattened matrix.  The
    cells a flat shift fills from a neighbouring row are reset, and the
    mass an arrival pushes past a column's top is read from its first
    padding state (the top flux) before that is cleared, so the padding
    only ever contributes ``+0.0`` and each column's values are bitwise
    those of running it alone.  ``cap_absorbs`` selects where the top
    flux goes: the failed state (finite capacity) or the ``lost``
    accumulator (working truncation of an unlimited-capacity station).

    A column that breaks a piece check gets its first error instead of
    stopping the pass.  Returns (q, qF, lost, errors, recorded): the (m,
    max(tops) + 2) states, two length-m arrays, None or an
    InvariantViolationError per column, and (q, qF) per record time.
    Record times coinciding with an event see the post-event state.
    """
    tops = np.asarray(tops, dtype=np.intp)
    m = len(tops)
    width = int(tops.max()) + 4  # failed cell, states 0 .. max top + 1, lost cell
    row_at = np.arange(m) * width
    top_at = row_at + 1 + tops  # flat index of each column's top state
    pad_at = top_at + 1  # ... and of its first padding state
    # after a term's flat shifts: the pads, the last state (it received
    # pd * lost) and the lost cell (it received pd * the next row's qF)
    clear_at = np.concatenate([pad_at, row_at + width - 2, row_at + width - 1])
    state = np.zeros(m * width)
    state[row_at + 1 + np.asarray(starts, dtype=np.intp)] = 1.0
    shifted = np.empty(m * width - 1)
    errors = [None] * m
    recorded = [None] * len(record_times)
    pa = pd = 0.0
    rows = state.reshape(m, width)
    at_state = at_scratch = _Views(state, m, width)

    def kernel(cur, out):
        # the series starts each substep at ``state`` and then alternates
        # it with one scratch buffer, whose views are made once per piece
        nonlocal at_scratch
        if cur is state:
            if at_scratch.buf is not out:
                at_scratch = _Views(out, m, width)
            c, o = at_state, at_scratch
        else:
            c, o = at_scratch, at_state
        if pa:
            np.multiply(c.pre, pa, out=o.post)
        else:
            o.post.fill(0.0)
        np.multiply(c.head, _KEEP_FAILED, out=o.head)  # qF kept, no arrival to 0
        top_flux = out[pad_at]  # pa * q_top
        if pd:  # also adds pd * q_0 to the failed cell
            np.multiply(c.post, pd, out=shifted)
            np.add(o.pre, shifted, out=o.pre)
        out[clear_at] = 0.0
        if cap_absorbs:
            np.add(o.fail, top_flux, out=o.fail)
        else:
            np.add(c.lost, top_flux, out=o.lost)

    edges, rates = rate_grid([profile.lambda_a, profile.lambda_d])
    lam_a, lam_d = rates.tolist()
    jumps = [(t, "arrival") for t in profile.rho_a] + [(t, "departure") for t in profile.rho_d]
    timeline = event_timeline(edges.tolist(), jumps, T, record_times) + [(T, BREAKPOINT, None)]
    t = 0.0
    for ev_t, rank, payload in timeline:
        if ev_t > t:
            j = np.searchsorted(edges, t, side="right") - 1
            la, ld = lam_a[j], lam_d[j]
            lam = la + ld
            if lam:
                pa = la / lam
                pd = ld / lam
            uniformize(state, lam, ev_t - t, kernel)
            for i, error in check_mass(rows, _MASS_TOL, f"at t={ev_t}"):
                if errors[i] is None:
                    errors[i] = error
            t = ev_t
        if payload == "arrival":
            flux = state[top_at]
            rows[:, 2:-1] = rows[:, 1:-2]
            rows[:, 1] = 0.0
            state[pad_at] = 0.0
            rows[:, 0 if cap_absorbs else -1] += flux
        elif payload == "departure":
            flux = rows[:, 1].copy()
            rows[:, 1:-2] = rows[:, 2:-1]
            rows[:, -2] = 0.0
            rows[:, 0] += flux
        elif rank == RECORD:
            recorded[payload] = (rows[:, 1:-1].copy(), rows[:, 0].copy())
    return rows[:, 1:-1].copy(), rows[:, 0].copy(), rows[:, -1].copy(), errors, recorded


def _validate_vcT(profile, v, c, T):
    if not isinstance(v, (int, np.integer)) or v < 0:
        raise ValueError("initial stock v must be a non-negative integer")
    if c is not None:
        if not isinstance(c, (int, np.integer)) or c < 0:
            raise ValueError("capacity c must be a non-negative integer or None")
        if v > c:
            raise ValueError("initial stock cannot exceed capacity")
    if not 0.0 <= T <= profile.horizon + 1e-9:
        raise ValueError(f"evaluation time {T} outside [0, {profile.horizon}]")


def _unbounded_start(arrivals, v):
    return int(v + math.ceil(arrivals + 10.0 * math.sqrt(v + arrivals))) + 1


def station_failure_probability(profile, v, c, T, tail_tolerance=1e-9):
    """Probability that the station has failed by T.

    ``c=None`` evaluates the station with unlimited parking: capacity
    failures are disabled and only availability failures count.  That
    case is computed on a working truncation of the state space, doubled
    until the probability mass escaping through the top is below
    ``tail_tolerance`` (so the returned value is exact to within it).
    """
    (value,) = station_failure_probabilities(profile, [v], [c], T, tail_tolerance)
    if isinstance(value, InvariantViolationError):
        raise value
    return value


def station_failure_probabilities(profile, vs, cs, T, tail_tolerance=1e-9):
    """``station_failure_probability`` of several (v, c) starts of one station.

    The finite-capacity starts share one column-batched pass of the event
    timeline, and the unlimited-parking ones (``c=None``) one pass per
    truncation round: each such column starts from its own working
    truncation and doubles it while the mass escaping through its top
    reaches ``tail_tolerance``.  Columns are split into several passes only
    when one pass would hold more than ``_MAX_BATCH_CELLS`` states.

    Entry i of the returned list is the failure probability of start i,
    bitwise as if it were evaluated alone, or the InvariantViolationError
    its evaluation hit; a failing start does not stop the others.
    """
    for v, c in zip(vs, cs, strict=True):
        _validate_vcT(profile, v, c, T)
    out = [None] * len(vs)

    def run(idx, tops, cap_absorbs):
        # (i, qF, lost, error) per column, in passes of at most _MAX_BATCH_CELLS states
        order = sorted(range(len(idx)), key=tops.__getitem__)
        while order:
            take = 1
            while take < len(order) and (take + 1) * (tops[order[take]] + 4) <= _MAX_BATCH_CELLS:
                take += 1
            part, order = order[:take], order[take:]
            _, qF, lost, errors, _ = _evolve_columns(
                profile, [int(vs[idx[j]]) for j in part], [tops[j] for j in part], T, cap_absorbs
            )
            yield from zip((idx[j] for j in part), qF, lost, errors)

    finite = [i for i, c in enumerate(cs) if c is not None]
    if finite:
        for i, qF, _, error in run(finite, [int(cs[i]) for i in finite], True):
            out[i] = qF if error is None else error
    arrivals = bin_integrals([profile.lambda_a], (0.0, T))[0, 0] + sum(t <= T for t in profile.rho_a)
    pending = {i: _unbounded_start(arrivals, int(vs[i])) for i, c in enumerate(cs) if c is None}
    if pending and tail_tolerance <= 0.0:
        raise ValueError("tail_tolerance must be positive")
    while pending:
        rounds = list(pending)
        for i, qF, lost, error in run(rounds, [pending[i] for i in rounds], False):
            c_w = pending.pop(i)
            if error is not None:
                out[i] = error
            elif lost < tail_tolerance:
                out[i] = qF
            elif c_w > _MAX_TRUNCATION:
                out[i] = InvariantViolationError(_TRUNCATION_GREW)
            else:
                pending[i] = 2 * c_w
    return out


def _snapshots(profile, v, c, times):
    """(q, qF) of one finite-capacity start at each time; raises its piece-check error."""
    times = np.asarray(times, dtype=float)
    T = float(times.max()) if times.size else 0.0
    _validate_vcT(profile, v, c, T)
    *_, errors, recorded = _evolve_columns(profile, [int(v)], [int(c)], T, True, times)
    if errors[0] is not None:
        raise errors[0]
    return recorded


def station_failure_curve(profile, v, c, times):
    """Failure probability of one finite-capacity station at each time."""
    return np.array([qF[0] for _, qF in _snapshots(profile, v, c, times)], dtype=float)


def station_transient(profile, v, c, times):
    """Stock distribution snapshots: (len(times) x (c+1) matrix, qF array)."""
    rec = _snapshots(profile, v, c, times)
    qs = np.stack([q[0, : int(c) + 1] for q, _ in rec]) if rec else np.zeros((0, int(c) + 1))
    qfs = np.array([qF[0] for _, qF in rec], dtype=float)
    return qs, qfs


def system_failure_upper_bound(model, plan, design, T, with_delay=False):
    """Sum of per-station failure probabilities by T.

    This is an upper bound on the probability that the joint system sees
    any unserved request by T; it is reported unclamped and may exceed 1.
    """
    if design.k != model.k:
        raise ValueError(f"design is for {design.k} stations, model has {model.k}")
    profiles = model_module.aggregate_station_flows(model, plan, with_delay=with_delay)
    return sum(
        station_failure_probability(prof, design.v[i], design.c[i], T)
        for i, prof in enumerate(profiles)
    )


def system_failure_bound_curve(model, plan, design, times, with_delay=False):
    """Per-station failure curves and their sum at each sample time.

    Returns (per_station, total) with shapes (k, len(times)) and (len(times),).
    """
    if design.k != model.k:
        raise ValueError(f"design is for {design.k} stations, model has {model.k}")
    profiles = model_module.aggregate_station_flows(model, plan, with_delay=with_delay)
    per_station = np.stack(
        [
            station_failure_curve(prof, design.v[i], design.c[i], times)
            for i, prof in enumerate(profiles)
        ]
    )
    return per_station, per_station.sum(axis=0)
