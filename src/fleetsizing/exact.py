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
(``fleetsizing.uniformization``).  The pieces, with each pair's rate,
and the relocations and snapshots between them come from the same
``timeline`` as the per-station bound's, and mass conservation is
checked to 1e-8 per piece.

The move part of the one-step kernel is one sparse matrix-vector product
(Stewart 1994, ch. 8).  Each solve builds a single CSR matrix holding
every pair's moves: row = target state, column = source state, and a
row's entries in pair order.  A piece only rewrites the entries' weights
(lambda_od / sum(lambda), 0 for a pair without demand in the piece).
Every pair's move is injective, so row j's sum adds the same products in
the same order as one scatter per pair into a zeroed vector would; the
entries are never sorted or merged, and the inactive pairs' ``+ 0.0``
terms are exact because every probability is non-negative.

SciPy is imported on first use, when the first matrix is built, so
importing this module (and any command but ``simulate --exact``) loads
no SciPy.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .model import InvariantViolationError, check_design, checked_plan
from .uniformization import JUMP, check_mass, timeline, uniformize

log = logging.getLogger(__name__)

STATE_SPACE_CAP = 2_000_000

_MASS_TOL = 1e-8


def csr_matrix(*args, **kwargs):
    """``scipy.sparse.csr_matrix``, imported on first use."""
    from scipy.sparse import csr_matrix

    return csr_matrix(*args, **kwargs)


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
        full_size = 1
        for c in design.c:
            full_size *= c + 1
            if full_size > STATE_SPACE_CAP:
                raise StateSpaceTooLargeError(
                    f"joint state space exceeds {STATE_SPACE_CAP} states; "
                    "use the Monte Carlo estimator instead"
                )
        states = _slice_states(design.c, design.fleet_size)
        self.states = np.asarray(states, dtype=np.int64)
        self.n = len(states)
        # each state's index in the product space, increasing in lexicographic
        # order, so a state's row is found by search
        self._stride = np.cumprod(np.append(1, self.caps[:0:-1] + 1))[::-1]
        self._flat = self.states @ self._stride
        self._tables = {}
        self.pairs = list(pairs)
        self._moves, self._pair_of_entry = self._move_matrix()

    def _rows(self, flat):
        """Slice rows of the states with these flat indices, -1 for a state off the slice."""
        rows = np.searchsorted(self._flat, flat)
        on_slice = self._flat[np.minimum(rows, self.n - 1)] == flat
        return np.where(on_slice, rows, -1)

    def table(self, o, d):
        """(src_ok, tgt_ok, src_blocked) row index arrays for pair (o, d)."""
        key = (o, d)
        if key not in self._tables:
            oi, di = o - 1, d - 1
            ok = (self.states[:, oi] > 0) & (self.states[:, di] < self.caps[di])
            tgt = self._rows(self._flat[ok] - self._stride[oi] + self._stride[di])
            if np.any(tgt < 0):
                raise InvariantViolationError("vehicle move left the state slice")
            src_ok = np.nonzero(ok)[0]
            src_blocked = np.nonzero(~ok)[0]
            self._tables[key] = (src_ok, tgt, src_blocked)
        return self._tables[key]

    def initial(self, v):
        row = self._rows(np.asarray(v) @ self._stride)
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

        return lam_tot, kernel

    def rebalance(self, state, o, d):
        """One scheduled relocation: blocked mass fails, the rest shifts."""
        src_ok, tgt, src_blocked = self.table(o, d)
        out = np.zeros_like(state)
        out[tgt] = state[src_ok]
        out[-1] = state[-1] + state[src_blocked].sum()
        return out


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
    i = station - 1
    return np.bincount(dist.states[:, i], weights=dist.p, minlength=int(dist.engine.caps[i]) + 1)


def joint_transient(model, plan, design, times):
    """Joint distribution snapshots at each requested time.

    A snapshot taken exactly at an event time sees the post-event state.
    """
    times = np.asarray(times, dtype=float)
    T = float(times.max()) if times.size else 0.0
    check_design(model, design)
    plan = checked_plan(model, plan)
    if not 0.0 <= T <= model.horizon + 1e-9:
        raise ValueError(f"evaluation time {T} outside [0, {model.horizon}]")
    engine = _JointEngine(design, model.pairs())
    state = engine.initial(design.v)
    jumps = [(t, (o, d)) for t, o, d in plan.instants()]
    pieces, ends, actions, cuts = timeline(model.pieces, jumps, T, times)
    snapshots = [None] * len(times)
    terms, worst_drift, last_rates = 0, 0.0, None
    bounds = [0.0, *ends.tolist()]
    for b, t in enumerate(bounds):
        if b:  # piece b - 1 ends here
            dt, *rates = pieces[b - 1].tolist()
            if rates != last_rates:  # after a relocation or a record the rates may be unchanged
                rate, kernel = engine.kernel(rates)
                last_rates = rates
            terms += uniformize(state, rate, dt, kernel)
            failed, drift = check_mass(state[None, :], _MASS_TOL, f"in piece [{bounds[b - 1]}, {t}]")
            if failed:
                raise failed[0][1]
            worst_drift = max(worst_drift, drift)
        for kind, payload in actions[cuts[b] : cuts[b + 1]]:
            if kind == JUMP:
                state = engine.rebalance(state, *payload)
            else:
                snapshots[payload] = JointDistribution(state[:-1].copy(), state[-1], t, engine)
    log.debug(
        "joint solve: %d slice states, %d matrix entries, %d pieces, %d kernel terms, "
        "worst mass drift %.3e (tolerance %.0e)",
        engine.n, engine._moves.nnz, len(pieces), terms, worst_drift, _MASS_TOL,
    )
    return snapshots
