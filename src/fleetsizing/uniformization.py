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

``event_timeline`` orders what interrupts the smooth evolution: rate
breakpoints, instantaneous jumps (relocations) and the times at which
the caller records a snapshot.
"""

import math

import numpy as np

from .model import InvariantViolationError

POISSON_TAIL = 1e-13  # Poisson weight left to fold back into the last term
MAX_RATE_STEP = 30.0  # substep cap on rate * dt
MAX_TERMS = 100_000
NEG_CLIP = -1e-12  # rounding negatives above this are clipped to 0

BREAKPOINT, JUMP, RECORD = 0, 1, 2


def uniformize(state, rate, dt, kernel):
    """Propagate ``state`` in place over dt hours of a chain with exit rate ``rate``.

    ``kernel(cur, out)`` writes K @ cur into ``out``, where K is the
    one-step kernel of the uniformized chain.  Every substep's first term
    is ``kernel(state, scratch)``; later terms alternate the two arrays,
    ``scratch`` being one array of ``state``'s shape per call.
    """
    if dt < 0.0:
        raise ValueError("cannot advance backwards in time")
    if rate == 0.0 or dt == 0.0:
        return
    n_sub = max(1, math.ceil(rate * dt / MAX_RATE_STEP))
    x = rate * (dt / n_sub)
    scratch, acc, tmp = np.empty_like(state), np.empty_like(state), np.empty_like(state)
    for _ in range(n_sub):
        cur, nxt = state, scratch
        w = math.exp(-x)
        np.multiply(cur, w, out=acc)
        wsum = w
        n = 0
        while wsum < 1.0 - POISSON_TAIL:
            n += 1
            if n > MAX_TERMS:
                raise InvariantViolationError("uniformization series did not converge")
            kernel(cur, nxt)
            w *= x / n
            np.multiply(nxt, w, out=tmp)
            np.add(acc, tmp, out=acc)
            wsum += w
            cur, nxt = nxt, cur
        np.multiply(cur, 1.0 - wsum, out=tmp)  # the cut-off tail stays on the last term
        np.add(acc, tmp, out=state)


def check_mass(states, tol, where):
    """Check that every row of ``states`` is still a probability vector.

    Rounding negatives down to ``NEG_CLIP`` are clipped to 0 and their
    row renormalized, in place.  Returns (row, InvariantViolationError)
    pairs, a row's first error first: for a larger negative, and for a
    row whose sum drifted from 1 by ``tol`` or more.
    """
    failed = []
    if states.min() < 0.0:
        low = states.min(axis=1)
        for i in np.flatnonzero(low < 0.0):
            if low[i] <= NEG_CLIP:
                failed.append((i, InvariantViolationError(f"negative probability {low[i]:.3e} {where}")))
                continue
            np.maximum(states[i], 0.0, out=states[i])
            states[i] /= states[i].sum()
    drift = np.abs(states.sum(axis=1) - 1.0)
    if drift.max() >= tol:
        for i in np.flatnonzero(drift >= tol):
            failed.append((i, InvariantViolationError(f"probability mass drifted by {drift[i]:.3e} {where}")))
    return failed


def event_timeline(breakpoints, jumps, T, record_times=()):
    """Everything that interrupts the evolution up to T, in processing order.

    Returns (t, rank, payload) triples: ``(t, BREAKPOINT, None)`` for each
    interior rate breakpoint, ``(t, JUMP, payload)`` for each ``(t,
    payload)`` in ``jumps`` and ``(t, RECORD, index)`` for each record
    time.  Events at one instant run breakpoints first, then jumps, then
    records, so a record sees the post-jump state; the sort is stable, so
    jumps at one instant keep their order in ``jumps``.
    """
    events = [(t, BREAKPOINT, None) for t in breakpoints if 0.0 < t <= T]
    events += [(t, JUMP, payload) for t, payload in jumps if t <= T]
    for idx, t in enumerate(record_times):
        if t < 0.0 or t > T + 1e-9:
            raise ValueError("record times must lie within [0, T]")
        events.append((min(float(t), T), RECORD, idx))
    events.sort(key=lambda e: e[:2])
    return events
