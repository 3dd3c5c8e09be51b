"""Scheduled rebalancing from expected demand imbalance.

Per time bin, each station's expected net vehicle accumulation is the
integrated inflow minus outflow (instantaneous-transfer accounting).
Every pair's expected flow in every bin comes from one array of bin
integrals (``model.bin_integrals``), and each station's bin adds its
pairs' flows in (o, d) order, as a loop over the pairs would.
Stations that accumulate must ship the surplus out and depleting
stations must receive it, which is a balanced transportation problem
solved per bin with travel times as costs.  The fractional flows are
then discretized into individual relocation instants, carrying rounding
residue forward per pair so long-run totals are preserved.

SciPy is imported on first use, by the transport solve, so importing
this module (and any command that does not plan) loads no SciPy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import InvariantViolationError, RebalancingPlan, bin_integrals, check_bin_width

_BALANCE_ATOL = 1e-9
_FLOW_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class ImbalanceProfile:
    """Expected net accumulation per station and bin: delta[i, b] (vehicles)."""

    bin_edges: tuple
    delta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bin_edges", tuple(float(e) for e in self.bin_edges))
        edges = self.bin_edges
        if len(edges) < 2 or any(b >= a for b, a in zip(edges, edges[1:])):
            raise ValueError("bin edges must be strictly increasing, at least one bin")
        delta = np.asarray(self.delta, dtype=float)
        if delta.ndim != 2 or delta.shape[1] != len(edges) - 1:
            raise ValueError("delta must be stations x bins")
        object.__setattr__(self, "delta", delta)

    @property
    def k(self):
        return self.delta.shape[0]


@dataclass(frozen=True, eq=False)
class RebalanceRates:
    """Fractional relocation counts per pair and bin: rates[(o, d)][b]."""

    k: int
    bin_edges: tuple
    rates: dict


def uniform_bins(horizon, bin_hours):
    check_bin_width(bin_hours)
    n = max(1, math.ceil(horizon / bin_hours - 1e-9))
    edges = [min(i * bin_hours, horizon) for i in range(n)] + [horizon]
    return tuple(edges)


def compute_imbalance(model, bin_edges):
    """Integrate expected inflow minus outflow per station over each bin."""
    edges = tuple(float(e) for e in bin_edges)
    if edges[0] != 0.0 or abs(edges[-1] - model.horizon) > _BALANCE_ATOL:
        raise ValueError("bins must partition [0, horizon]")
    flows = bin_integrals(model.pieces, model.horizon, edges)
    # pair by pair, +flow at the destination and then -flow at the origin:
    # bincount adds its weights in input order, so each station sums its
    # terms in (o, d) order
    stations = np.stack([model.pair_d, model.pair_o], axis=1).ravel() - 1
    delta = np.empty((model.k, len(edges) - 1))
    for b, flow in enumerate(flows.T):
        delta[:, b] = np.bincount(stations, np.stack([flow, -flow], axis=1).ravel(), model.k)
    return ImbalanceProfile(edges, delta)


def _solve_transport(supply_idx, supply, demand_idx, demand, cost):
    """Min-cost balanced transportation; returns flow matrix (n_s, n_d)."""
    from scipy import optimize, sparse  # linprog is read at call time, where a tracer may wrap it

    n_s, n_d = len(supply_idx), len(demand_idx)
    c = cost.ravel()
    # flow j = s * n_d + d appears in supply row s and demand row n_s + d
    j = np.arange(n_s * n_d)
    rows = np.concatenate([j // n_d, n_s + j % n_d])
    a_eq = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, np.concatenate([j, j]))), shape=(n_s + n_d, n_s * n_d)
    )
    b_eq = np.concatenate([supply, demand])
    res = optimize.linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise InvariantViolationError(f"transportation solve failed: {res.message}")
    return res.x.reshape(n_s, n_d)


def balance_flows(imbalance, eta):
    """Relocation rates cancelling the expected imbalance at minimum travel time.

    For every station and bin, relocations out minus relocations in equal
    the station's expected accumulation.  Any tiny nonzero total (the
    per-bin deltas must sum to ~0) is projected out by subtracting the
    mean before solving; a total beyond tolerance is an input error.
    """
    eta = np.asarray(eta, dtype=float)
    k = imbalance.k
    if eta.shape != (k, k):
        raise ValueError("eta must be a k x k matrix")
    n_bins = imbalance.delta.shape[1]
    rates = {}
    for b in range(n_bins):
        d = imbalance.delta[:, b].copy()
        scale = max(1.0, np.abs(d).sum())
        if abs(d.sum()) > _BALANCE_ATOL * scale:
            raise ValueError(
                f"bin {b} imbalance sums to {d.sum():.3e}; expected 0 within tolerance"
            )
        d -= d.mean()
        sur = np.nonzero(d > _FLOW_EPS)[0]
        def_ = np.nonzero(d < -_FLOW_EPS)[0]
        if sur.size == 0 or def_.size == 0:
            continue
        supply = d[sur]
        demand = -d[def_]
        demand *= supply.sum() / demand.sum()
        flow = _solve_transport(sur, supply, def_, demand, eta[np.ix_(sur, def_)])
        for si, s in enumerate(sur):
            for di, dd in enumerate(def_):
                f = flow[si, di]
                if f > _FLOW_EPS:
                    key = (int(s) + 1, int(dd) + 1)
                    if key not in rates:
                        rates[key] = np.zeros(n_bins)
                    rates[key][b] = f
    return RebalanceRates(k, imbalance.bin_edges, rates)


def discretize_plan(rates):
    """Turn fractional per-bin relocation counts into concrete instants.

    Within each bin, round(count + carried residue) relocations are
    placed at midpoint-uniform positions; the rounding residue carries
    into the pair's next bin, so over the horizon the emitted count per
    pair equals the rounded total.
    """
    edges = rates.bin_edges
    rho = {}
    for key in sorted(rates.rates):
        r = rates.rates[key]
        carry = 0.0
        times = []
        for b in range(len(edges) - 1):
            x = float(r[b]) + carry
            n = math.floor(x + 0.5)
            carry = x - n
            if n > 0:
                left, right = edges[b], edges[b + 1]
                width = right - left
                times.extend(left + (j - 0.5) * width / n for j in range(1, n + 1))
        if times:
            rho[key] = tuple(times)
    return RebalancingPlan(rates.k, edges[-1], rho)


def build_plan(model, bin_hours=1.0):
    """Imbalance, flow solve, and discretization in one call."""
    imbalance = compute_imbalance(model, uniform_bins(model.horizon, bin_hours))
    rates = balance_flows(imbalance, np.asarray(model.eta))
    return discretize_plan(rates)
