"""Transient solution of piecewise-constant Markov chains by uniformization.

Both the per-station bound and the exact joint solver propagate a
probability vector through a continuous-time chain whose total exit
rate is the same in every live state.  Over a piece of constant rates
the chain's matrix exponential is then a Poisson mixture of powers of a
substochastic one-step kernel K (Jensen 1953): ``uniformize`` sums that
series, splitting a long piece into substeps of at most
``MAX_RATE_STEP`` expected events so the Poisson weights stay
representable.  All terms are non-negative, and the Poisson tail that is
cut off is re-assigned to the highest computed power, so probability
mass is conserved to floating-point rounding; ``check_mass`` enforces
that contract after every piece.

``timeline`` cuts [0, T] into the pieces both solvers walk: pieces of
constant rates, ended by the rate breakpoints, the instantaneous jumps
(relocations) and the times at which the caller records a snapshot,
with the jumps and records to run at each piece boundary.
"""

import math

import numpy as np

from .model import InvariantViolationError, rate_grid

POISSON_TAIL = 1e-13  # Poisson weight left to fold back into the last term
MAX_RATE_STEP = 30.0  # substep cap on rate * dt
MAX_TERMS = 100_000
NEG_CLIP = -1e-12  # rounding negatives above this are clipped to 0

JUMP, RECORD = 0, 1  # the kinds of ``timeline`` actions


def _poisson_series(x):
    """Poisson(x) weights up to the term where their sum reaches 1 - POISSON_TAIL, and the tail."""
    w = math.exp(-x)
    weights = [w]
    wsum = w
    n = 0
    while wsum < 1.0 - POISSON_TAIL:
        n += 1
        if n > MAX_TERMS:
            raise InvariantViolationError("uniformization series did not converge")
        w *= x / n
        weights.append(w)
        wsum += w
    return weights, 1.0 - wsum


def _series_plan(keys, shape):
    """(last term, weight of each term, tails) of the rows whose substep has these x.

    Weights and tails are arrays of ``shape``, one entry per row.  A
    row's weight is 0 past its own last term; ``tails`` maps a term to
    the cut-off tail of the rows whose series ends there (0 for the
    others).  When every row has the same x they are floats: a scalar
    factor costs less per term than a broadcast one, which shows on
    sizing's one-station passes of short pieces.
    """
    distinct = list(dict.fromkeys(keys))
    if len(distinct) == 1:
        weights, tail = _poisson_series(keys[0])
        return len(weights) - 1, weights, {len(weights) - 1: tail}
    series = [_poisson_series(x) for x in distinct]
    n_top = max(len(w) for w, _ in series) - 1
    table = np.zeros((2, n_top + 1, len(distinct)))  # each x's weights and tail by term
    for g, (w, tail) in enumerate(series):
        table[0, : len(w), g] = w
        table[1, len(w) - 1, g] = tail
    column = {x: g for g, x in enumerate(distinct)}
    weights, tail_at = table[:, :, [column[x] for x in keys]].reshape((2, n_top + 1) + shape)
    ends = {len(w) - 1 for w, tail in series if tail} | {n_top}
    return n_top, list(weights), {n: tail_at[n] for n in ends}


def uniformize(state, rate, dt, kernel):
    """Propagate ``state`` in place over dt hours of a chain with exit rate ``rate``.

    ``kernel(cur, out)`` writes K @ cur into ``out``, where K is the
    one-step kernel of the uniformized chain.  Every substep's first term
    is ``kernel(state, scratch)``; later terms alternate the two arrays,
    ``scratch`` being one array of ``state``'s shape per call.

    ``rate`` and ``dt`` are floats, or two arrays with one value per row
    of ``state`` when its rows are independent chains that one kernel
    call advances together.  Each row then runs its own substeps and
    Poisson series: a row past its own terms gets weight 0 (an exact
    ``+ 0.0``), a row past its own substeps runs the series of x = 0
    (weight 1, then 0), and a row's cut-off tail is added at its own
    last term, so every row is bitwise what a call with its own floats
    would give.  Rows with equal rate * substep length share one series.
    Returns the number of kernel calls.
    """
    rates, dts = (rate.tolist(), dt.tolist()) if isinstance(rate, np.ndarray) else ([rate], [dt])
    if min(dts) < 0.0:
        raise ValueError("cannot advance backwards in time")
    subs, xs = [], []
    for r, d in zip(rates, dts):
        n_sub = 0 if r == 0.0 or d == 0.0 else max(1, math.ceil(r * d / MAX_RATE_STEP))
        subs.append(n_sub)
        xs.append(r * (d / n_sub) if n_sub else 0.0)
    if not any(subs):
        return 0
    scratch, acc, tmp = np.empty_like(state), np.empty_like(state), np.empty_like(state)
    shape = (-1,) + (1,) * (state.ndim - 1)  # a per-row factor, broadcast along the row
    plans = {}
    terms = 0
    for s in range(max(subs)):
        keys = tuple(x if s < n_sub else 0.0 for x, n_sub in zip(xs, subs))  # x = 0: identity
        if keys not in plans:
            plans[keys] = _series_plan(keys, shape)
        n_top, weights, tails = plans[keys]
        terms += n_top
        cur, nxt = state, scratch
        np.multiply(cur, weights[0], out=acc)
        for n in range(1, n_top + 1):
            if n - 1 in tails:  # rows whose series ended at the previous term
                np.multiply(cur, tails[n - 1], out=tmp)
                np.add(acc, tmp, out=acc)
            kernel(cur, nxt)
            np.multiply(nxt, weights[n], out=tmp)
            np.add(acc, tmp, out=acc)
            cur, nxt = nxt, cur
        np.multiply(cur, tails[n_top], out=tmp)  # the cut-off tail stays on the last term
        np.add(acc, tmp, out=state)
    return terms


def check_mass(states, tol, where):
    """Check that every row of ``states`` is still a probability vector.

    Rounding negatives down to ``NEG_CLIP`` are clipped to 0 and their
    row renormalized, in place.  ``where`` ends the error messages: a
    string, or a function of the row index.  Returns the (row,
    InvariantViolationError) pairs, a row's first error first, for a
    larger negative and for a row whose sum drifted from 1 by ``tol`` or
    more; and the largest drift of any row.
    """
    failed = []
    at = where if callable(where) else lambda i: where
    if states.min() < 0.0:
        low = states.min(axis=1)
        for i in np.flatnonzero(low < 0.0):
            if low[i] <= NEG_CLIP:
                failed.append((i, InvariantViolationError(f"negative probability {low[i]:.3e} {at(i)}")))
                continue
            np.maximum(states[i], 0.0, out=states[i])
            states[i] /= states[i].sum()
    drift = np.abs(states.sum(axis=1) - 1.0)
    worst = float(drift.max())
    if worst >= tol:
        for i in np.flatnonzero(drift >= tol):
            failed.append((i, InvariantViolationError(f"probability mass drifted by {drift[i]:.3e} {at(i)}")))
    return failed, worst


def timeline(pieces, jumps, T, record_times=()):
    """The pieces of constant rates of some intensities up to T, and what runs between them.

    Pieces end at every interior rate breakpoint, jump time and record
    time up to T, and at T.  Returns (pieces, ends, actions, cuts): a
    (pieces, 1 + items) array of each piece's dt and the items' rates,
    read from their concatenated ``pieces`` through ``rate_grid``, so each
    is bitwise the item's own value at the piece's start; each piece's end time;
    the ``(JUMP, payload)`` of each ``(t, payload)`` in ``jumps`` up to T
    and the ``(RECORD, index)`` of each record time, in the order they
    run; and the cuts of that list, so that ``actions[cuts[b]:cuts[b + 1]]``
    run at boundary b: b = 0 at t=0 and b = j + 1 at the end of piece j.
    At one instant jumps run before records, so a record sees the
    post-jump state, and jumps keep their order in ``jumps``.
    """
    for t in record_times:
        if t < 0.0 or t > T + 1e-9:
            raise ValueError("record times must lie within [0, T]")
    jumps = [(t, payload) for t, payload in jumps if t <= T]
    at = np.array([t for t, _ in jumps] + [min(float(t), T) for t in record_times], dtype=float)
    # a stable sort by time keeps jumps ahead of records and each in input order
    order = np.argsort(at, kind="stable")
    actions = [(JUMP, payload) for _, payload in jumps] + [(RECORD, i) for i in range(len(record_times))]
    actions, at = [actions[i] for i in order], at[order]
    edges, rates = rate_grid(pieces)
    ends = np.unique(np.concatenate([edges, at, [T]]))
    ends = ends[(ends > 0.0) & (ends <= T)]
    starts = np.concatenate([[0.0], ends])[:-1]
    pieces = np.empty((len(ends), 1 + len(rates)))
    pieces[:, 0] = ends - starts
    pieces[:, 1:] = rates[:, np.searchsorted(edges, starts, side="right") - 1].T
    cuts = [0, *np.searchsorted(at, ends).tolist(), len(actions)]
    return pieces, ends, actions, cuts
