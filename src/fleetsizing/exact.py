"""Exact transient analysis of the joint stock process on small systems.

The state is the vector of per-station stocks.  A rental request or a
scheduled relocation from o to d moves one vehicle instantaneously
(travel times are neglected here), and any request that cannot be served
-- origin empty or destination full -- sends the whole system into an
absorbing failed state F.  Because every move conserves the vehicle
count, only states on the slice sum(m) == sum(v) are reachable, and the
distribution is stored on that slice.

The solver's state vector is ``[p_0 .. p_{n-1}, pF]``: the slice states
in lexicographic order, then F.  The generator has total exit rate
sum(lambda_od) in every state, so each piece of constant rates is
propagated by the shared uniformization core
(``fleetsizing.uniformization``) on the same event timeline as the
per-station bound, and mass conservation is checked to 1e-8 per piece.

The move part of the one-step kernel is one sparse matrix-vector product
(Stewart 1994, ch. 8).  Each solve builds a single CSR matrix holding
every pair's moves: row = target state, column = source state, and a
row's entries in pair order.  A piece only rewrites the entries' weights
(lambda_od / sum(lambda), 0 for a pair without demand in the piece).
Every pair's move is injective, so row j's sum adds the same products in
the same order as one scatter per pair into a zeroed vector would; the
entries are never sorted or merged, and the inactive pairs' ``+ 0.0``
terms are exact because every probability is non-negative.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from .model import InvariantViolationError, RebalancingPlan, rate_grid
from .uniformization import BREAKPOINT, JUMP, RECORD, check_mass, event_timeline, uniformize

log = logging.getLogger(__name__)

STATE_SPACE_CAP = 2_000_000

_MASS_TOL = 1e-8


class StateSpaceTooLargeError(ValueError):
    """The joint state space exceeds the cap; use simulation instead."""


def _slice_states(caps, total):
    """All stock vectors with 0 <= m_i <= caps[i] and sum(m) == total, lexicographic."""
    k = len(caps)
    suffix = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] + caps[i]
    out = []
    m = [0] * k

    def rec(i, rem):
        if i == k - 1:
            if 0 <= rem <= caps[i]:
                m[i] = rem
                out.append(tuple(m))
            return
        lo = max(0, rem - suffix[i + 1])
        hi = min(caps[i], rem)
        for x in range(lo, hi + 1):
            m[i] = x
            rec(i + 1, rem - x)

    rec(0, total)
    return out


class _JointEngine:
    """State enumeration, per-pair transition tables and the move matrix of one design.

    ``pairs`` are the demand pairs in the order of the rates that
    ``kernel`` is given.
    """

    def __init__(self, design, pairs):
        self.caps = np.asarray(design.c, dtype=np.int64)
        self.total = design.fleet_size
        self.k = design.k
        full_size = 1
        for c in design.c:
            full_size *= c + 1
            if full_size > STATE_SPACE_CAP:
                raise StateSpaceTooLargeError(
                    f"joint state space exceeds {STATE_SPACE_CAP} states; "
                    "use the Monte Carlo estimator instead"
                )
        states = _slice_states(design.c, self.total)
        self.states = np.asarray(states, dtype=np.int64)
        self.n = len(states)
        dims = self.caps + 1
        row_of = np.full(full_size, -1, dtype=np.int64)
        flat = np.ravel_multi_index(self.states.T, dims)
        row_of[flat] = np.arange(self.n)
        self._dims = dims
        self._row_of = row_of
        self._tables = {}
        self.pairs = list(pairs)
        self._moves, self._pair_of_entry = self._move_matrix()
        self.terms = 0

    def state_index(self, m):
        m = tuple(m)
        if len(m) != self.k or any(x < 0 or x > c for x, c in zip(m, self.caps)):
            return -1
        row = self._row_of[np.ravel_multi_index(np.asarray(m), self._dims)]
        return int(row)

    def table(self, o, d):
        """(src_ok, tgt_ok, src_blocked) row index arrays for pair (o, d)."""
        key = (o, d)
        if key not in self._tables:
            oi, di = o - 1, d - 1
            ok = (self.states[:, oi] > 0) & (self.states[:, di] < self.caps[di])
            moved = self.states[ok].copy()
            moved[:, oi] -= 1
            moved[:, di] += 1
            tgt = self._row_of[np.ravel_multi_index(moved.T, self._dims)]
            if np.any(tgt < 0):
                raise InvariantViolationError("vehicle move left the state slice")
            src_ok = np.nonzero(ok)[0]
            src_blocked = np.nonzero(~ok)[0]
            self._tables[key] = (src_ok, tgt, src_blocked)
        return self._tables[key]

    def initial(self, v):
        row = self.state_index(v)
        if row < 0:
            raise ValueError("initial stocks are not a valid state")
        state = np.zeros(self.n + 1)
        state[row] = 1.0
        return state

    def _move_matrix(self):
        """CSR matrix of every pair's moves, and the pair index of each entry.

        Row = target state, column = source state.  The pairs fill each
        row in pair order, one entry per pair that moves a vehicle into
        it, and the indices are never sorted within a row.
        """
        tables = [self.table(o, d) for o, d in self.pairs]
        indptr = np.zeros(self.n + 1, dtype=np.int32)
        for _, tgt, _ in tables:
            indptr[1:][tgt] += 1  # a move is injective: no target repeats
        np.cumsum(indptr, out=indptr)
        indices = np.empty(indptr[-1], dtype=np.int32)
        pair_of_entry = np.empty(indptr[-1], dtype=np.min_scalar_type(len(tables)))
        fill = indptr[:-1].copy()
        for j, (src_ok, tgt, _) in enumerate(tables):
            at = fill[tgt]
            indices[at] = src_ok
            pair_of_entry[at] = j
            fill[tgt] += 1
        matrix = csr_matrix((np.zeros(indices.size), indices, indptr), shape=(self.n, self.n))
        return matrix, pair_of_entry

    def kernel(self, rates):
        """(total rate, one-step kernel) of the chain under constant per-pair rates.

        ``rates`` are aligned with ``self.pairs``.  The kernel reads the
        move matrix's weights, which this call sets, so it is valid until
        the next call.
        """
        active = [(j, lam) for j, lam in enumerate(rates) if lam > 0.0]
        lam_tot = sum(lam for _, lam in active)
        w = np.zeros(len(self.pairs))
        blocked = []
        for j, lam in active:
            wt = lam / lam_tot
            w[j] = wt
            src_blocked = self.table(*self.pairs[j])[2]
            if src_blocked.size:
                blocked.append((src_blocked, wt))
        moves = self._moves
        # every index is valid; "clip" writes straight into the data, "raise" would buffer a copy
        np.take(w, self._pair_of_entry, out=moves.data, mode="clip")

        def kernel(cur, out):
            p = cur[:-1]
            out[:-1] = moves @ p
            gone = 0.0
            for src_blocked, wt in blocked:
                gone += wt * p[src_blocked].sum()
            out[-1] = cur[-1] + gone
            self.terms += 1

        return lam_tot, kernel

    def rebalance(self, state, o, d):
        """One scheduled relocation: blocked mass fails, the rest shifts."""
        src_ok, tgt, src_blocked = self.table(o, d)
        out = np.zeros_like(state)
        out[tgt] = state[src_ok]
        out[-1] = state[-1] + state[src_blocked].sum()
        return out

    def marginal(self, p, station):
        i = station - 1
        return np.bincount(
            self.states[:, i], weights=p, minlength=int(self.caps[i]) + 1
        )


@dataclass
class JointDistribution:
    """Distribution over joint stock states plus absorbed failure mass."""

    p: np.ndarray
    pF: float
    t: float
    engine: _JointEngine = field(repr=False)

    @property
    def states(self):
        return self.engine.states


def marginal_distribution(dist, station):
    """P(station holds j vehicles and the system has not failed), j = 0..c_i."""
    return dist.engine.marginal(dist.p, station)


def _walk(model, plan, design, T, record_times=()):
    if design.k != model.k:
        raise ValueError(f"design is for {design.k} stations, model has {model.k}")
    if plan is None:
        plan = RebalancingPlan.empty(model.k, model.horizon)
    if plan.k != model.k or plan.horizon != model.horizon:
        raise ValueError("plan and model disagree on stations or horizon")
    if not 0.0 <= T <= model.horizon + 1e-9:
        raise ValueError(f"evaluation time {T} outside [0, {model.horizon}]")
    pairs = model.pairs()
    engine = _JointEngine(design, pairs)
    state = engine.initial(design.v)
    edges, rates = rate_grid([model.intensities[pair] for pair in pairs])
    jumps = [(t, (o, d)) for t, o, d in plan.instants()]
    timeline = event_timeline(edges.tolist(), jumps, T, record_times) + [(T, BREAKPOINT, None)]
    snapshots = [None] * len(record_times)
    t = 0.0
    pieces = 0
    worst_drift = 0.0
    for ev_t, rank, payload in timeline:
        if ev_t > t:
            piece = rates[:, np.searchsorted(edges, t, side="right") - 1]
            rate, kernel = engine.kernel(piece.tolist())
            uniformize(state, rate, ev_t - t, kernel)
            failed = check_mass(state[None, :], _MASS_TOL, f"in piece [{t}, {ev_t}]")
            if failed:
                raise failed[0][1]
            pieces += 1
            worst_drift = max(worst_drift, abs(float(state.sum()) - 1.0))
            t = ev_t
        if rank == JUMP:
            state = engine.rebalance(state, *payload)
        elif rank == RECORD:
            snapshots[payload] = JointDistribution(state[:-1].copy(), state[-1], ev_t, engine)
    log.debug(
        "joint solve: %d slice states, %d matrix entries, %d pieces, %d kernel terms, "
        "worst mass drift %.3e (tolerance %.0e)",
        engine.n, engine._moves.nnz, pieces, engine.terms, worst_drift, _MASS_TOL,
    )
    return JointDistribution(state[:-1], state[-1], T, engine), snapshots


def joint_failure_probability(model, plan, design, T):
    """Probability that any request or relocation went unserved by T."""
    dist, _ = _walk(model, plan, design, T)
    return dist.pF


def joint_transient(model, plan, design, times):
    """Joint distribution snapshots at each requested time.

    A snapshot taken exactly at an event time sees the post-event state.
    """
    times = np.asarray(times, dtype=float)
    T = float(times.max()) if times.size else 0.0
    _, snapshots = _walk(model, plan, design, T, record_times=times)
    return snapshots
