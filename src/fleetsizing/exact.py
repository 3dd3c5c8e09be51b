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
(``fleetsizing.uniformization``) with a bincount kernel over per-pair
transition tables, on the same event timeline as the per-station bound,
and mass conservation is checked to 1e-8 per piece.
"""

from dataclasses import dataclass, field

import numpy as np

from .model import InvariantViolationError, RebalancingPlan, rate_grid
from .uniformization import BREAKPOINT, JUMP, RECORD, check_mass, event_timeline, uniformize

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
    """State enumeration and per-pair transition tables for one design."""

    def __init__(self, design):
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

    def kernel(self, pair_rates):
        """(total rate, one-step kernel) of the chain under constant per-pair rates."""
        pairs = [(o, d, lam) for (o, d), lam in pair_rates if lam > 0.0]
        lam_tot = sum(lam for _, _, lam in pairs)
        weights = [(self.table(o, d), lam / lam_tot) for o, d, lam in pairs]

        def kernel(cur, out):
            p, nxt = cur[:-1], out[:-1]
            nxt.fill(0.0)
            gone = 0.0
            for (src_ok, tgt, src_blocked), wt in weights:
                nxt += np.bincount(tgt, weights=wt * p[src_ok], minlength=self.n)
                if src_blocked.size:
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
    engine = _JointEngine(design)
    state = engine.initial(design.v)
    pairs = model.pairs()
    edges, rates = rate_grid([model.intensities[pair] for pair in pairs])
    jumps = [(t, (o, d)) for t, o, d in plan.instants()]
    timeline = event_timeline(edges.tolist(), jumps, T, record_times) + [(T, BREAKPOINT, None)]
    snapshots = [None] * len(record_times)
    t = 0.0
    for ev_t, rank, payload in timeline:
        if ev_t > t:
            piece = rates[:, np.searchsorted(edges, t, side="right") - 1]
            rate, kernel = engine.kernel(zip(pairs, piece.tolist()))
            uniformize(state, rate, ev_t - t, kernel)
            failed = check_mass(state[None, :], _MASS_TOL, f"in piece [{t}, {ev_t}]")
            if failed:
                raise failed[0][1]
            t = ev_t
        if rank == JUMP:
            state = engine.rebalance(state, *payload)
        elif rank == RECORD:
            snapshots[payload] = JointDistribution(state[:-1].copy(), state[-1], ev_t, engine)
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
