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

``_evolve_columns`` is the only evolution.  It carries columns -- each a
station with one start (initial stock and top state) -- as the rows of
one matrix.  Each station keeps its own ``uniformization.timeline`` of
its arrival and departure rates and relocations, and step j advances
every row over its own station's j-th piece, so one call of
the column kernel per Poisson term serves every station of the pass,
and every column is bitwise what it would be alone.  The system bound
and curve run all k stations in one pass (split only when it would hold
more than ``_MAX_BATCH_CELLS`` states); ``station_failure_probabilities``
runs several starts of one station, which sizing uses to evaluate a
search's next candidates at once; a station's curve or transient runs
one column.  At DEBUG each pass logs its columns, stations, steps,
kernel terms and worst mass drift.

``availability_failure_sweep`` runs the same timeline and series
backwards (the Kolmogorov backward equation): one reverse pass of the
transposed kernel gives, with unlimited parking, the probability of
having failed by T from every start stock at once, and the probability
of having escaped through the working truncation's top.  Its numbers
agree with the forward columns to rounding and within the truncation
margin, not bitwise, so sizing only screens its stock search with them
and never writes them (see ``sizing``).
"""

import logging
import math

import numpy as np

from . import model as model_module  # read at call time, where a tracer may wrap it
from .model import InvariantViolationError, bin_integrals, check_design
from .uniformization import NEG_CLIP, RECORD, check_mass, timeline, uniformize

log = logging.getLogger(__name__)

_MASS_TOL = 1e-9
_MAX_BATCH_CELLS = 1 << 21  # states per column-batched pass (16 MB per matrix)
_MAX_TRUNCATION = 50_000_000  # largest working truncation that may still be doubled
_TRUNCATION_GREW = "working truncation for the unlimited-capacity station grew unreasonably"


class _Views:
    """Views of one (rows, width) state buffer that the column kernel reuses."""

    __slots__ = ("buf", "flat", "pre", "post", "head", "fail", "lost")

    def __init__(self, buf):
        self.buf = buf
        self.flat = buf.reshape(-1)
        self.pre = self.flat[:-1]  # cell k, for a flat shift by one ...
        self.post = self.flat[1:]  # ... to or from cell k + 1
        self.head = buf[:, :2]  # [qF, q_0]
        self.fail = buf[:, 0]
        self.lost = buf[:, -1]


_KEEP_FAILED = np.array([1.0, 0.0])
_SWEEP_EDGES = np.eye(2)  # (fail, lost) at the failed boundary and at the escape boundary


def _timeline(profile, T, record_times):
    """One station's ``timeline`` to T: pieces of (dt, lambda_a, lambda_d), and its jumps."""
    jumps = [(t, "arrival") for t in profile.rho_a] + [(t, "departure") for t in profile.rho_d]
    return timeline(profile.pieces, jumps, T, record_times)


def _evolve_columns(profiles, starts, tops, T, cap_absorbs, record_times=(), keep_q=False):
    """Run m (station, start, top) columns from point masses to T in one pass.

    Row i evolves the station ``profiles[i]`` from stock ``starts[i]`` on
    the states 0 .. ``tops[i]``; rows given the same profile object share
    one timeline.  The state matrix holds row i as ``[qF, q_0 .. q_top,
    zero padding, lost]``, padded to the tallest top plus one state, and
    a term of the uniformized kernel shifts the flattened matrix.  The
    cells a flat shift fills from a neighbouring row are reset, and the
    mass an arrival pushes past a row's top is read from its first
    padding state (the top flux) before that is cleared, so the padding
    only ever contributes ``+0.0``.  ``cap_absorbs`` selects where the top
    flux goes: the failed state (finite capacity) or the ``lost``
    accumulator (working truncation of an unlimited-capacity station).

    Each station keeps its own timeline: step j advances every row over
    its station's j-th piece, with that piece's length, rates and Poisson
    weights (``uniformize`` with one rate and dt per row), and then runs
    the station's jumps and records at the piece's end.  Stations with
    more pieces come first internally, so the rows still running form a
    prefix of the matrix.  Every row's values are bitwise those of
    running it alone.

    A row that breaks a piece check gets its first error instead of
    stopping the pass.  Returns (q, qF, lost, errors, (qF_at, q_at)): the
    (m, max(tops) + 2) states, two length-m arrays, None or an
    InvariantViolationError per row, qF per record time and row, and with
    ``keep_q`` the states per record time and row (else None).  Record
    times coinciding with an event see the post-event state.
    """
    m = len(starts)
    timelines, index, station = [], {}, []
    for prof in profiles:
        if id(prof) not in index:
            index[id(prof)] = len(timelines)
            timelines.append(_timeline(prof, T, record_times))
        station.append(index[id(prof)])
    # internal order: stations by descending piece count (rank), each
    # station's rows together, so the rows still running form a prefix
    by_len = sorted(range(len(timelines)), key=lambda g: -len(timelines[g][1]))
    pieces, ends, actions, cuts = zip(*(timelines[g] for g in by_len))
    rank_of = {g: r for r, g in enumerate(by_len)}
    order = sorted(range(m), key=lambda i: rank_of[station[i]])
    row_rank = [rank_of[station[i]] for i in order]
    bounds = np.searchsorted(row_rank, np.arange(len(by_len) + 1)).tolist()  # rank r: bounds[r:r+2]
    per_row = np.diff(bounds)
    lengths = np.array([len(e) for e in ends])
    live_stations = (lengths[:, None] > np.arange(lengths[0])).sum(axis=0).tolist()
    # (dt, lambda_a, lambda_d) by step and row, 0 past a station's last piece
    steps = np.zeros((len(by_len), lengths[0], 3))
    for r, p in enumerate(pieces):
        steps[r, : len(p)] = p
    dt_at, la, ld = np.ascontiguousarray(np.repeat(steps, per_row, axis=0).transpose(2, 1, 0))
    lam_at = la + ld
    busy = lam_at > 0.0
    pa_at = np.divide(la, lam_at, out=np.zeros(la.shape), where=busy)
    pd_at = np.divide(ld, lam_at, out=np.zeros(ld.shape), where=busy)
    any_pa, any_pd = pa_at.any(axis=1).tolist(), pd_at.any(axis=1).tolist()

    tops = np.asarray(tops, dtype=np.intp)[order]
    width = int(tops.max()) + 4  # failed cell, states 0 .. max top + 1, lost cell
    row_at = np.arange(m) * width
    top_at = row_at + 1 + tops  # flat index of each row's top state
    pad_at = top_at + 1  # ... and of its first padding state
    # after a term's flat shifts: the pads, the last state (it received
    # pd * lost) and the lost cell (it received pd * the next row's qF),
    # row by row so that the running rows' cells are a prefix
    clear_at = np.stack([pad_at, row_at + width - 2, row_at + width - 1], axis=1).ravel()
    state = np.zeros(m * width)
    state[row_at + 1 + np.asarray(starts, dtype=np.intp)[order]] = 1.0
    rows = state.reshape(m, width)
    shift_buf = np.empty(m * width - 1)
    errors = [None] * m
    qF_at = np.zeros((len(record_times), m))
    q_at = np.zeros((len(record_times), m, width - 2)) if keep_q else None
    terms = 0
    worst = 0.0

    def act(r, b):
        # station rank r's jumps and records at its piece boundary b
        lo, hi = bounds[r], bounds[r + 1]
        for kind, payload in actions[r][cuts[r][b] : cuts[r][b + 1]]:
            if kind == RECORD:
                qF_at[payload, lo:hi] = rows[lo:hi, 0]
                if keep_q:
                    q_at[payload, lo:hi] = rows[lo:hi, 1:-1]
            elif payload == "arrival":
                flux = state[top_at[lo:hi]]
                rows[lo:hi, 2:-1] = rows[lo:hi, 1:-2]
                rows[lo:hi, 1] = 0.0
                state[pad_at[lo:hi]] = 0.0
                rows[lo:hi, 0 if cap_absorbs else -1] += flux
            else:
                flux = rows[lo:hi, 1].copy()
                rows[lo:hi, 1:-2] = rows[lo:hi, 2:-1]
                rows[lo:hi, -2] = 0.0
                rows[lo:hi, 0] += flux

    def kernel(cur, out):
        # the series starts each substep at ``live`` and then alternates it
        # with one scratch buffer, whose views are made once per piece
        nonlocal at_scratch
        if cur is live:
            if at_scratch.buf is not out:
                at_scratch = _Views(out)
            c, o = at_live, at_scratch
        else:
            c, o = at_scratch, at_live
        if has_pa:
            np.multiply(c.pre, pa, out=o.post)
        else:
            o.post.fill(0.0)
        np.multiply(c.head, _KEEP_FAILED, out=o.head)  # qF kept, no arrival to 0
        top_flux = o.flat[pads]  # pa * q_top
        if has_pd:  # also adds pd * q_0 to the failed cell
            np.multiply(c.post, pd, out=shifted)
            np.add(o.pre, shifted, out=o.pre)
        o.flat[clears] = 0.0
        if cap_absorbs:
            np.add(o.fail, top_flux, out=o.fail)
        else:
            np.add(c.lost, top_flux, out=o.lost)

    for r in range(len(by_len)):
        act(r, 0)
    live = None
    for j, n_live in enumerate(live_stations):
        n_rows = bounds[n_live]
        if live is None or len(live) != n_rows:
            live = rows[:n_rows]
            at_live = at_scratch = _Views(live)
            pads, clears = pad_at[:n_rows], clear_at[: 3 * n_rows]
            shifted = shift_buf[: n_rows * width - 1]
        has_pa, has_pd = any_pa[j], any_pd[j]
        if n_live == 1:  # one station: scalar factors, which sizing's short pieces need
            pa, pd = pa_at[j, 0].item(), pd_at[j, 0].item()
            lam, dt = lam_at[j, 0].item(), dt_at[j, 0].item()
        else:
            pa = np.repeat(pa_at[j, :n_rows], width)[:-1]  # by the row of the source cell
            pd = np.repeat(pd_at[j, :n_rows], width)[1:]
            lam, dt = lam_at[j, :n_rows], dt_at[j, :n_rows]
        terms += uniformize(live, lam, dt, kernel)
        failed, drift = check_mass(live, _MASS_TOL, lambda i: f"at t={ends[row_rank[i]][j].item()}")
        worst = max(worst, drift)
        for i, error in failed:
            if errors[i] is None:
                errors[i] = error
        for r in range(n_live):
            act(r, j + 1)
    log.debug(
        "station pass: %d columns of %d stations, %d steps, %d kernel terms, "
        "worst mass drift %.3e (tolerance %.0e)",
        m, len(by_len), len(live_stations), terms, worst, _MASS_TOL,
    )
    back = np.argsort(order)
    q_at = q_at[:, back] if keep_q else None
    return (
        rows[back, 1:-1], rows[back, 0], rows[back, -1], [errors[i] for i in back],
        (qF_at[:, back], q_at),
    )


def _validate_vcT(profile, v, c, T):
    if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 0:
        raise ValueError("initial stock v must be a non-negative integer")
    if c is not None:
        if not isinstance(c, (int, np.integer)) or isinstance(c, bool) or c < 0:
            raise ValueError("capacity c must be a non-negative integer or None")
        if v > c:
            raise ValueError("initial stock cannot exceed capacity")
    if not 0.0 <= T <= profile.horizon + 1e-9:
        raise ValueError(f"evaluation time {T} outside [0, {profile.horizon}]")


def _unbounded_start(arrivals, v):
    return int(v + math.ceil(arrivals + 10.0 * math.sqrt(v + arrivals))) + 1


def _arrivals(profile, T):
    """Expected arrivals by T plus the relocations that arrive by T."""
    expected = bin_integrals(profile.pieces, profile.horizon, (0.0, T))[0, 0]
    return expected + sum(t <= T for t in profile.rho_a)


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


def _in_passes(profiles, starts, tops, T, cap_absorbs, record_times=(), keep_q=False):
    """(qF, lost, errors, qF_at, q_at) of columns run by ``_evolve_columns``.

    The columns share one pass, split into several only when one would
    hold more than ``_MAX_BATCH_CELLS`` states; a pass takes the columns
    with the lowest tops first.  Returns two length-m arrays, a length-m
    list, a (len(record_times), m) array and, with ``keep_q``, a length-m
    list of each column's (len(record_times), top + 1) states (else
    None), in column order.
    """
    m = len(starts)
    qF, lost, errors = np.empty(m), np.empty(m), [None] * m
    qF_at = np.empty((len(record_times), m))
    q_at = [None] * m if keep_q else None
    order = sorted(range(m), key=tops.__getitem__)
    while order:
        take = 1
        while take < len(order) and (take + 1) * (tops[order[take]] + 4) <= _MAX_BATCH_CELLS:
            take += 1
        part, order = order[:take], order[take:]
        _, qF[part], lost[part], part_errors, (qF_at[:, part], part_q) = _evolve_columns(
            [profiles[i] for i in part], [starts[i] for i in part], [tops[i] for i in part],
            T, cap_absorbs, record_times, keep_q,
        )
        for n, i in enumerate(part):
            errors[i] = part_errors[n]
            if keep_q:
                q_at[i] = part_q[:, n, : tops[i] + 1]
    return qF, lost, errors, qF_at, q_at


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
        starts = [int(vs[i]) for i in idx]
        qF, lost, errors, *_ = _in_passes([profile] * len(idx), starts, tops, T, cap_absorbs)
        return zip(idx, qF, lost, errors)

    finite = [i for i, c in enumerate(cs) if c is not None]
    if finite:
        for i, qF, _, error in run(finite, [int(cs[i]) for i in finite], True):
            out[i] = qF if error is None else error
    arrivals = _arrivals(profile, T)
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


def availability_failure_sweep(profile, reach, T):
    """P(failed by T) and P(escaped by T) from every start stock, with unlimited parking.

    One backward sweep of the station's timeline: the states 0 .. top,
    where top is the forward path's first working truncation for a start
    of ``reach`` (``_unbounded_start``), carry two vectors from T down to
    0.  ``fail`` is 1 at the failed boundary below 0 and 0 at the escape
    boundary above the top; ``lost`` is the other way round.  A piece
    applies the transposed uniformized kernel, u(x) <- pa u(x + 1) +
    pd u(x - 1), through the same ``uniformize`` series as the forward
    pass, and the relocations at a piece boundary run as reversed shifts
    in reverse order.  Entry x of ``fail`` is then the forward
    ``station_failure_probability(profile, x, None, T)`` evaluated on this
    top, to rounding, and entry x of ``lost`` the mass that evaluation
    lets escape through the top.

    Returns (fail, lost, terms): two arrays over the starts 0 .. top and
    the number of kernel terms.  Raises InvariantViolationError when the
    top would hold more states than a forward pass may, or when an entry
    leaves [NEG_CLIP, 1 + 1e-9] or some start's fail + lost exceeds
    1 + 1e-9.
    """
    _validate_vcT(profile, reach, None, T)
    top = _unbounded_start(_arrivals(profile, T), reach)
    if 2 * (top + 3) > _MAX_BATCH_CELLS:
        raise InvariantViolationError(_TRUNCATION_GREW)
    pieces, _, actions, cuts = _timeline(profile, T, ())
    edges = top + 2  # the row stride of u[::edges]: the failed and escape boundaries
    u = np.zeros((top + 3, 2))  # rows: failed boundary, states 0 .. top, escape boundary
    u[::edges] = _SWEEP_EDGES
    inner = np.empty((top + 1, 2))

    def kernel(cur, out):  # with the piece's pa and pd
        states = out[1:-1]
        np.multiply(cur[2:], pa, out=states)
        np.multiply(cur[:-2], pd, out=inner)
        np.add(states, inner, out=states)
        out[::edges] = _SWEEP_EDGES

    def act(b):
        # the transposes of boundary b's relocations, last one first
        for _, payload in reversed(actions[cuts[b] : cuts[b + 1]]):
            u[1:-1] = u[2:] if payload == "arrival" else u[:-2]

    terms = 0
    act(len(pieces))
    for j in range(len(pieces) - 1, -1, -1):
        dt, la, ld = pieces[j].tolist()
        lam = la + ld
        if lam > 0.0:
            pa, pd = la / lam, ld / lam
            terms += uniformize(u, lam, dt, kernel)
        act(j)
    fail, lost = u[1:-1].T.copy()
    in_range = u.min() >= NEG_CLIP and u.max() <= 1.0 + _MASS_TOL
    if not (in_range and (fail + lost).max() <= 1.0 + _MASS_TOL):
        raise InvariantViolationError(f"backward sweep left the probability range at top {top}")
    return fail, lost, terms


def _finite_capacity(profiles, vs, cs, times, keep_q=False):
    """qF of finite-capacity starts at each of ``times``, from one pass to the last.

    Returns a (len(times), m) array and, with ``keep_q``, a length-m list
    of (len(times), c + 1) stock distributions (else None); raises the
    piece-check error of the lowest-index failing start.
    """
    times = np.asarray(times, dtype=float)
    T = float(times.max()) if times.size else 0.0
    for prof, v, c in zip(profiles, vs, cs, strict=True):
        _validate_vcT(prof, v, c, T)
    starts, tops = [int(v) for v in vs], [int(c) for c in cs]
    _, _, errors, qF_at, q_at = _in_passes(profiles, starts, tops, T, True, times, keep_q)
    for error in errors:
        if error is not None:
            raise error
    return qF_at, q_at


def station_failure_curve(profile, v, c, times):
    """Failure probability of one finite-capacity station at each time."""
    return _finite_capacity([profile], [v], [c], times)[0][:, 0]


def station_transient(profile, v, c, times):
    """Stock distribution snapshots: (len(times) x (c+1) matrix, qF array)."""
    qF_at, q_at = _finite_capacity([profile], [v], [c], times, keep_q=True)
    return q_at[0], qF_at[:, 0]


def system_failure_upper_bound(model, plan, design, T, with_delay=False):
    """Sum of per-station failure probabilities by T.

    This is an upper bound on the probability that the joint system sees
    any unserved request by T; it is reported unclamped and may exceed 1.
    All stations run in one pass and are summed in station order.
    """
    check_design(model, design)
    profiles = model_module.aggregate_station_flows(model, plan, with_delay=with_delay)
    qF_at, _ = _finite_capacity(profiles, design.v, design.c, [T])
    return sum(qF_at[0])


def system_failure_bound_curve(model, plan, design, times, with_delay=False):
    """Per-station failure curves and their sum at each sample time.

    Returns (per_station, total) with shapes (k, len(times)) and (len(times),).
    """
    check_design(model, design)
    profiles = model_module.aggregate_station_flows(model, plan, with_delay=with_delay)
    per_station = _finite_capacity(profiles, design.v, design.c, times)[0].T.copy()
    return per_station, per_station.sum(axis=0)
