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
tridiagonal generator whose exit rate is the same in every state, so the
matrix exponential is computed by uniformization: a Poisson mixture of
powers of a substochastic one-step kernel.  All terms are non-negative,
which keeps the vector non-negative, and the Poisson tail that is cut
off is re-assigned to the highest computed power, so probability mass is
conserved to floating-point rounding (far inside the 1e-9 contract
enforced after every piece).

Several starts of one station (initial stock and capacity) can share a
pass: ``station_failure_probabilities`` carries them as the rows of one
matrix through the same series, each row bitwise equal to its one-start
evaluation.  Sizing uses it to evaluate a search's next candidates at
once; bounds, curves and transients keep the one-start path.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import InvariantViolationError, merged_event_timeline

_POISSON_TAIL = 1e-13
_MAX_RATE_STEP = 30.0  # uniformization substep cap on (rate * dt)
_MASS_TOL = 1e-9
_NEG_CLIP = -1e-12
_MAX_BATCH_CELLS = 1 << 21  # states per column-batched pass (16 MB per matrix)
_MAX_TRUNCATION = 50_000_000  # largest working truncation that may still be doubled
_TRUNCATION_GREW = "working truncation for the unlimited-capacity station grew unreasonably"


@dataclass
class StationDistribution:
    """Stock distribution of one station at time t.

    ``q[j]`` is the probability of holding j vehicles, ``qF`` the
    accumulated probability of having failed by t.
    """

    q: np.ndarray
    qF: float
    t: float

    @property
    def capacity(self):
        return len(self.q) - 1


def initial_distribution(v, c):
    if not 0 <= v <= c:
        raise ValueError("initial stock must satisfy 0 <= v <= c")
    q = np.zeros(c + 1)
    q[v] = 1.0
    return StationDistribution(q, 0.0, 0.0)


def _advance(q, qF, lost, lam_a, lam_d, dt, cap_absorbs):
    """Propagate (q, qF, lost) over dt hours of constant rates.

    ``cap_absorbs`` selects where mass that tries to pass the top state
    goes: the failed state (finite capacity) or the ``lost`` accumulator
    (working truncation of an infinite-capacity station).
    """
    if dt < 0.0:
        raise ValueError("cannot advance backwards in time")
    lam = lam_a + lam_d
    if lam == 0.0 or dt == 0.0:
        return q, qF, lost
    pa = lam_a / lam
    pd = lam_d / lam
    n_sub = max(1, math.ceil(lam * dt / _MAX_RATE_STEP))
    x = lam * (dt / n_sub)
    for _ in range(n_sub):
        cur, cur_f, cur_l = q, qF, lost
        w = math.exp(-x)
        acc = w * cur
        acc_f = w * cur_f
        acc_l = w * cur_l
        wsum = w
        n = 0
        while wsum < 1.0 - _POISSON_TAIL:
            n += 1
            if n > 100_000:
                raise InvariantViolationError("uniformization series did not converge")
            nxt = np.zeros_like(cur)
            if pa:
                nxt[1:] += pa * cur[:-1]
            if pd:
                nxt[:-1] += pd * cur[1:]
            top_flux = pa * cur[-1]
            nxt_f = cur_f + pd * cur[0] + (top_flux if cap_absorbs else 0.0)
            nxt_l = cur_l + (0.0 if cap_absorbs else top_flux)
            w *= x / n
            acc += w * nxt
            acc_f += w * nxt_f
            acc_l += w * nxt_l
            wsum += w
            cur, cur_f, cur_l = nxt, nxt_f, nxt_l
        rem = 1.0 - wsum
        q = acc + rem * cur
        qF = acc_f + rem * cur_f
        lost = acc_l + rem * cur_l
    return q, qF, lost


def _guard(q, qF, lost, where):
    """Clamp rounding negatives and verify mass conservation per piece."""
    if q.min() < 0.0:
        if q.min() <= _NEG_CLIP:
            raise InvariantViolationError(
                f"negative probability {q.min():.3e} {where}"
            )
        q = np.maximum(q, 0.0)
        total = q.sum() + qF + lost
        q = q / total
        qF /= total
        lost /= total
    drift = abs(q.sum() + qF + lost - 1.0)
    if drift >= _MASS_TOL:
        raise InvariantViolationError(f"probability mass drifted by {drift:.3e} {where}")
    return q, qF, lost


def _arrival_shift(q, qF, lost, cap_absorbs):
    out = np.empty_like(q)
    out[0] = 0.0
    out[1:] = q[:-1]
    top = q[-1]
    if cap_absorbs:
        return out, qF + top, lost
    return out, qF, lost + top


def _departure_shift(q, qF, lost):
    out = np.empty_like(q)
    out[-1] = 0.0
    out[:-1] = q[1:]
    return out, qF + q[0], lost


def step_smooth(dist, profile, t0, t1):
    """Advance a distribution across an event-free piece [t0, t1]."""
    if abs(dist.t - t0) > 1e-12:
        raise ValueError(f"distribution is at t={dist.t}, piece starts at {t0}")
    if t1 < t0:
        raise ValueError("piece must not run backwards")
    if t1 > profile.horizon + 1e-9:
        raise ValueError("piece extends past the profile horizon")
    for t, _kind in merged_event_timeline(profile):
        if t0 < t < t1:
            raise ValueError(f"piece [{t0}, {t1}] straddles an event at t={t}")
    mid = 0.5 * (t0 + t1)
    lam_a = profile.lambda_a.value_at(mid)
    lam_d = profile.lambda_d.value_at(mid)
    q, qF, _ = _advance(dist.q, dist.qF, 0.0, lam_a, lam_d, t1 - t0, True)
    q, qF, _ = _guard(q, qF, 0.0, f"in piece [{t0}, {t1}]")
    return StationDistribution(q, qF, t1)


def apply_jump(dist, kind):
    """Apply an instantaneous relocation shift ("arrival" or "departure")."""
    if kind == "arrival":
        q, qF, _ = _arrival_shift(dist.q, dist.qF, 0.0, True)
    elif kind == "departure":
        q, qF, _ = _departure_shift(dist.q, dist.qF, 0.0)
    else:
        raise ValueError(f"unknown jump kind {kind!r}")
    return StationDistribution(q, qF, dist.t)


def _schedule(profile, T):
    """Events up to T as (time, rank, kind), rank 0/1/2 for breakpoint/arrival/departure."""
    return [
        (t, 0 if kind == "breakpoint" else (1 if kind == "arrival" else 2), kind)
        for t, kind in merged_event_timeline(profile)
        if t <= T
    ]


def _evolve(profile, v, c_eff, T, cap_absorbs, record_times=None, record_full=False):
    """Run one station from its point-mass start to T.

    Returns (q, qF, lost, recorded) where ``recorded`` is a list with one
    entry per requested record time: qF, or (q copy, qF) if record_full.
    Record times coinciding with an event see the post-event state.
    """
    schedule = _schedule(profile, T)
    if record_times is not None:
        for idx, t in enumerate(record_times):
            if t < 0.0 or t > T + 1e-9:
                raise ValueError("record times must lie within [0, T]")
            schedule.append((min(t, T), 3, idx))
    schedule.sort(key=lambda e: (e[0], e[1]))

    q = np.zeros(c_eff + 1)
    q[v] = 1.0
    qF = 0.0
    lost = 0.0
    t = 0.0
    lam_a = profile.lambda_a
    lam_d = profile.lambda_d
    recorded = [None] * (len(record_times) if record_times is not None else 0)

    def run_to(t_next):
        nonlocal q, qF, lost, t
        if t_next > t:
            la = lam_a.value_at(0.5 * (t + t_next))
            ld = lam_d.value_at(0.5 * (t + t_next))
            q, qF, lost = _advance(q, qF, lost, la, ld, t_next - t, cap_absorbs)
            q, qF, lost = _guard(q, qF, lost, f"at t={t_next}")
            t = t_next

    for ev_t, rank, payload in schedule:
        run_to(ev_t)
        if rank == 1:
            q, qF, lost = _arrival_shift(q, qF, lost, cap_absorbs)
        elif rank == 2:
            q, qF, lost = _departure_shift(q, qF, lost)
        elif rank == 3:
            recorded[payload] = (q.copy(), qF) if record_full else qF
    run_to(T)
    return q, qF, lost, recorded


class _Block:
    """One (m, width) matrix of the column kernel and the views it reuses."""

    __slots__ = ("full", "flat", "pre", "post", "head", "fail", "lost")

    def __init__(self, m, width):
        self.full = np.zeros((m, width))
        self.flat = self.full.reshape(-1)
        self.pre = self.flat[:-1]  # cell k, for a flat shift by one ...
        self.post = self.flat[1:]  # ... to or from cell k + 1
        self.head = self.full[:, :2]  # [qF, q_0]
        self.fail = self.full[:, 0]
        self.lost = self.full[:, -1]


_KEEP_FAILED = np.array([1.0, 0.0])


def _evolve_columns(profile, starts, tops, T, cap_absorbs):
    """``_evolve`` of m (start, top) columns in one pass over the timeline.

    Row i of the state matrix carries column i as ``[qF, q_0 .. q_top,
    zero padding, lost]``, padded to the tallest top plus one state, and
    a term's shifts run over the flattened matrix.  Every column sees the
    same Poisson weights and per-element operations as its one-column
    ``_evolve``; the cells a flat shift fills from a neighbouring row are
    reset, and the mass an arrival pushes past a column's top is read
    from its first padding state (the top flux) before that is cleared.
    So the padding only ever contributes ``+0.0``, and each column's q,
    qF and lost are bitwise those of ``_evolve(profile, starts[i],
    tops[i], T, cap_absorbs)``.

    A column that breaks a piece check gets the error ``_evolve`` would
    raise instead of stopping the pass.  Returns (q, qF, lost, errors):
    the (m, max(tops) + 2) states, two length-m arrays and a list with
    None or an InvariantViolationError per column.
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
    cur, nxt, acc, tmp = (_Block(m, width) for _ in range(4))
    cur.full[np.arange(m), 1 + np.asarray(starts, dtype=np.intp)] = 1.0
    errors = [None] * m
    lam_a = profile.lambda_a
    lam_d = profile.lambda_d
    t = 0.0

    def advance(la, ld, dt):
        nonlocal cur, nxt
        lam = la + ld
        if lam == 0.0 or dt == 0.0:
            return
        pa = la / lam
        pd = ld / lam
        n_sub = max(1, math.ceil(lam * dt / _MAX_RATE_STEP))
        x = lam * (dt / n_sub)
        for _ in range(n_sub):
            w = math.exp(-x)
            np.multiply(cur.flat, w, out=acc.flat)
            wsum = w
            n = 0
            while wsum < 1.0 - _POISSON_TAIL:
                n += 1
                if n > 100_000:
                    raise InvariantViolationError("uniformization series did not converge")
                if pa:
                    np.multiply(cur.pre, pa, out=nxt.post)
                else:
                    nxt.post.fill(0.0)
                np.multiply(cur.head, _KEEP_FAILED, out=nxt.head)  # qF kept, no arrival to 0
                top_flux = nxt.flat[pad_at]  # pa * q_top
                if pd:  # also adds pd * q_0 to the failed cell
                    np.multiply(cur.post, pd, out=tmp.pre)
                    np.add(nxt.pre, tmp.pre, out=nxt.pre)
                nxt.flat[clear_at] = 0.0
                if cap_absorbs:
                    np.add(nxt.fail, top_flux, out=nxt.fail)
                else:
                    np.add(cur.lost, top_flux, out=nxt.lost)
                w *= x / n
                np.multiply(nxt.flat, w, out=tmp.flat)
                np.add(acc.flat, tmp.flat, out=acc.flat)
                wsum += w
                cur, nxt = nxt, cur
            rem = 1.0 - wsum
            np.multiply(cur.flat, rem, out=tmp.flat)
            np.add(acc.flat, tmp.flat, out=nxt.flat)
            cur, nxt = nxt, cur

    def guard(where):
        # _guard per column; the vectorized drift differs from the one-column
        # sum by rounding only, so a column near the limit is re-summed exactly
        q_all = cur.full
        if q_all.min() < 0.0:
            for i in np.flatnonzero(q_all.min(axis=1) < 0.0):
                if errors[i] is not None:
                    continue
                q = q_all[i, 1 : tops[i] + 2]
                if q.min() <= _NEG_CLIP:
                    errors[i] = InvariantViolationError(
                        f"negative probability {q.min():.3e} {where}"
                    )
                    continue
                q = np.maximum(q, 0.0)
                total = q.sum() + cur.fail[i] + cur.lost[i]
                q_all[i, 1 : tops[i] + 2] = q / total
                cur.fail[i] /= total
                cur.lost[i] /= total
        drift = np.abs(q_all.sum(axis=1) - 1.0)
        for i in np.flatnonzero(drift >= 0.5 * _MASS_TOL):
            exact = abs(q_all[i, 1 : tops[i] + 2].sum() + cur.fail[i] + cur.lost[i] - 1.0)
            if exact >= _MASS_TOL and errors[i] is None:
                errors[i] = InvariantViolationError(
                    f"probability mass drifted by {exact:.3e} {where}"
                )

    for ev_t, rank, _kind in _schedule(profile, T) + [(T, 0, None)]:
        if ev_t > t:
            mid = 0.5 * (t + ev_t)
            advance(lam_a.value_at(mid), lam_d.value_at(mid), ev_t - t)
            guard(f"at t={ev_t}")
            t = ev_t
        if rank == 0:
            continue
        nxt.fail[:] = cur.fail
        nxt.lost[:] = cur.lost
        if rank == 1:
            nxt.full[:, 2:-1] = cur.full[:, 1:-2]
            nxt.full[:, 1] = 0.0
            nxt.flat[pad_at] = 0.0
            to = nxt.fail if cap_absorbs else nxt.lost
            np.add(to, cur.flat[top_at], out=to)
        else:
            nxt.full[:, 1:-2] = cur.full[:, 2:-1]
            nxt.full[:, -2] = 0.0
            np.add(nxt.fail, cur.full[:, 1], out=nxt.fail)
        cur, nxt = nxt, cur
    return cur.full[:, 1:-1].copy(), cur.fail.copy(), cur.lost.copy(), errors


def _validate_vcT(profile, v, c, T):
    if not isinstance(v, (int, np.integer)) or v < 0:
        raise ValueError("initial stock v must be a non-negative integer")
    if c is not None:
        if not isinstance(c, (int, np.integer)) or c < 0:
            raise ValueError("capacity c must be a non-negative integer or None")
        if v > c:
            raise ValueError("initial stock cannot exceed capacity")
    if T < 0.0 or T > profile.horizon + 1e-9:
        raise ValueError(f"evaluation time {T} outside [0, {profile.horizon}]")


def _unbounded_start(profile, v, T):
    arrivals = profile.lambda_a.integral(0.0, T) + sum(1 for t in profile.rho_a if t <= T)
    return int(v + math.ceil(arrivals + 10.0 * math.sqrt(v + arrivals))) + 1


def station_failure_probability(profile, v, c, T, tail_tolerance=1e-9):
    """Probability that the station has failed by T.

    ``c=None`` evaluates the station with unlimited parking: capacity
    failures are disabled and only availability failures count.  That
    case is computed on a working truncation of the state space, doubled
    until the probability mass escaping through the top is below
    ``tail_tolerance`` (so the returned value is exact to within it).
    """
    _validate_vcT(profile, v, c, T)
    v = int(v)
    if c is not None:
        _, qF, _, _ = _evolve(profile, v, int(c), T, cap_absorbs=True)
        return qF
    if tail_tolerance <= 0.0:
        raise ValueError("tail_tolerance must be positive")
    c_w = _unbounded_start(profile, v, T)
    while True:
        _, qF, lost, _ = _evolve(profile, v, c_w, T, cap_absorbs=False)
        if lost < tail_tolerance:
            return qF
        if c_w > _MAX_TRUNCATION:
            raise InvariantViolationError(_TRUNCATION_GREW)
        c_w *= 2


def station_failure_probabilities(profile, vs, cs, T, tail_tolerance=1e-9):
    """``station_failure_probability`` of several (v, c) starts of one station.

    The finite-capacity starts share one column-batched pass of the event
    timeline, and the unlimited-parking ones (``c=None``) one pass per
    truncation round: each such column starts from its own working
    truncation and doubles it while the mass escaping through its top
    reaches ``tail_tolerance``.  Columns are split into several passes only
    when one pass would hold more than ``_MAX_BATCH_CELLS`` states.

    Entry i of the returned list is bitwise the value of
    ``station_failure_probability(profile, vs[i], cs[i], T,
    tail_tolerance)``, or the InvariantViolationError that call would
    raise; a failing start does not stop the others.
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
            _, qF, lost, errors = _evolve_columns(
                profile, [int(vs[idx[j]]) for j in part], [tops[j] for j in part], T, cap_absorbs
            )
            yield from zip((idx[j] for j in part), qF, lost, errors)

    finite = [i for i, c in enumerate(cs) if c is not None]
    if finite:
        for i, qF, _, error in run(finite, [int(cs[i]) for i in finite], True):
            out[i] = qF if error is None else error
    pending = {i: _unbounded_start(profile, int(vs[i]), T) for i, c in enumerate(cs) if c is None}
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


def station_failure_curve(profile, v, c, times):
    """Failure probability of one finite-capacity station at each time."""
    times = np.asarray(times, dtype=float)
    _validate_vcT(profile, v, c, float(times.max()) if times.size else 0.0)
    T = float(times.max()) if times.size else 0.0
    _, _, _, rec = _evolve(profile, int(v), int(c), T, True, record_times=times)
    return np.array(rec, dtype=float)


def station_transient(profile, v, c, times):
    """Stock distribution snapshots: (len(times) x (c+1) matrix, qF array)."""
    times = np.asarray(times, dtype=float)
    T = float(times.max()) if times.size else 0.0
    _validate_vcT(profile, v, c, T)
    _, _, _, rec = _evolve(
        profile, int(v), int(c), T, True, record_times=times, record_full=True
    )
    qs = np.stack([r[0] for r in rec]) if rec else np.zeros((0, int(c) + 1))
    qfs = np.array([r[1] for r in rec], dtype=float)
    return qs, qfs


def _station_profiles(model, plan, with_delay):
    from .model import aggregate_station_flows

    return [
        aggregate_station_flows(model, plan, i, with_delay=with_delay)
        for i in range(1, model.k + 1)
    ]


def system_failure_upper_bound(model, plan, design, T, with_delay=False):
    """Sum of per-station failure probabilities by T.

    This is an upper bound on the probability that the joint system sees
    any unserved request by T; it is reported unclamped and may exceed 1.
    """
    if design.k != model.k:
        raise ValueError(f"design is for {design.k} stations, model has {model.k}")
    profiles = _station_profiles(model, plan, with_delay)
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
    profiles = _station_profiles(model, plan, with_delay)
    per_station = np.stack(
        [
            station_failure_curve(prof, design.v[i], design.c[i], times)
            for i, prof in enumerate(profiles)
        ]
    )
    return per_station, per_station.sum(axis=0)
