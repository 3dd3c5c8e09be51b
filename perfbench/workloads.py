"""The four benchmark workloads: inputs, CLI commands and output checks.

Each workload runs part of the pipeline ``ingest -> plan -> size -> bound
-> simulate -> replay`` through ``fleetsizing.cli.run``.  A command's
label (``ingest``, ``plan``, ``size``, ``bound``, ``simulate`` for
``simulate --mc``, ``exact`` for ``simulate --exact``, ``replay``) names
its timing.  Sizes are chosen so that one pass of a workload takes a few
seconds on a 2-core machine and a run of the benchmark can take the
median of several passes.
"""

import json
import re
from dataclasses import dataclass

import gen

BOUND_LINE = re.compile(r"failure bound over \[0, [^\]]*\] h: (\S+)")
# The joint solver conserves mass to 1e-8 (its documented contract), so where
# both curves are still near zero its failure mass may exceed the bound by
# rounding; the acceptance tests compare the two with the same tolerance.
EXACT_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    k: int
    T: float
    z: float = None
    mc_runs: int = 0
    points: int = 100
    with_delay: bool = False
    trips: dict = None  # commuter trip-log parameters, or None for a written model
    pair_rate: float = 0.0  # the written model's constant rate per ordered pair
    stock: int = 0  # uniform design, when the workload does not size
    capacity: int = 0
    curve: bool = False  # bound --curve, sampled at the same times as simulate
    exact: bool = False
    replay: bool = False

    @property
    def delay(self):
        return ["--with-delay"] if self.with_delay else []

    def make_inputs(self, work, seed):
        """Write the seeded inputs into ``work``; returns the number of trip rows."""
        if self.trips is not None:
            rows = gen.write_commuter_trips(
                work / "trips.csv", self.k, seed, **self.trips
            )
        else:
            gen.write_symmetric_model(work / "model.json", self.k, self.pair_rate, self.T)
            rows = 0
        if self.stock:
            gen.write_uniform_design(work / "design.json", self.k, self.stock, self.capacity)
        return rows

    def inputs(self):
        files = ["trips.csv"] if self.trips is not None else ["model.json"]
        return files + (["design.json"] if self.stock else [])

    def commands(self, work, seed):
        """(label, argv) per CLI call, in pipeline order."""
        f = {n: str(work / n) for n in (
            "trips.csv", "model.json", "days.json", "plan.json", "design.json",
            "bound.csv", "exact.csv", "mc.csv", "replay.csv",
        )}
        T = "%g" % self.T
        plan = ["--plan", f["plan.json"]] if self.trips is not None else []
        out = []
        if self.trips is not None:
            out.append(("ingest", ["ingest", "--trips", f["trips.csv"],
                                   "--model-out", f["model.json"],
                                   "--sequences-out", f["days.json"]]))
            out.append(("plan", ["plan", "--model", f["model.json"], "--out", f["plan.json"]]))
        if self.z is not None and not self.stock:
            out.append(("size", ["size", "--model", f["model.json"], *plan,
                                 "--z", "%g" % self.z, "--T", T,
                                 "--out", f["design.json"], *self.delay]))
        bound = ["bound", "--model", f["model.json"], "--design", f["design.json"],
                 *plan, "--T", T, *self.delay]
        if self.z is not None:
            bound += ["--z", "%g" % self.z]
        if self.curve:
            bound += ["--curve", f["bound.csv"], "--points", str(self.points)]
        out.append(("bound", bound))
        if self.exact:
            out.append(("exact", ["simulate", "--exact", "--model", f["model.json"],
                                  "--design", f["design.json"], *plan, "--T", T,
                                  "--points", str(self.points), "--out", f["exact.csv"]]))
        if self.mc_runs:
            out.append(("simulate", ["simulate", "--mc", "--model", f["model.json"],
                                     "--design", f["design.json"], *plan, "--T", T,
                                     "--runs", str(self.mc_runs), "--seed", str(seed),
                                     "--points", str(self.points), "--out", f["mc.csv"],
                                     *self.delay]))
        if self.replay:
            out.append(("replay", ["replay", "--sequences", f["days.json"],
                                   "--design", f["design.json"], *plan,
                                   "--eta-from-model", f["model.json"],
                                   "--out", f["replay.csv"]]))
        return out

    def outputs(self, labels):
        """Files the workload's commands write (inputs excluded)."""
        made = {
            "ingest": ["model.json", "days.json"],
            "plan": ["plan.json"],
            "size": ["design.json"],
            "bound": ["bound.csv"] if self.curve else [],
            "exact": ["exact.csv"],
            "simulate": ["mc.csv"],
            "replay": ["replay.csv"],
        }
        return [name for label in labels for name in made[label]]

    def checks(self, work, stdout):
        """(name, ok, detail) for every property the outputs must have."""
        out = []
        bound_T = _bound_at_T(work, stdout["bound"], self.curve)
        if "size" in stdout:
            doc = json.loads((work / "design.json").read_text())
            out.append(("sized bound <= z", doc["bound"] <= self.z,
                        f"bound {doc['bound']!r}, z {self.z}"))
        if self.exact:
            exact = _csv(work / "exact.csv")
            bound = _csv(work / "bound.csv")
            worst = max(e["p_fail"] - b["bound"] for e, b in zip(exact, bound))
            same_t = [e["t"] for e in exact] == [b["t"] for b in bound]
            out.append(("exact p_fail <= bound", same_t and worst <= EXACT_TOL,
                        f"largest exact - bound {worst:.3e}"))
        if self.mc_runs:
            last = _csv(work / "mc.csv")[-1]
            out.append(("MC <= bound + 3 stderr",
                        last["p_fail"] <= bound_T + 3.0 * last["stderr"],
                        f"MC {last['p_fail']} +/- {last['stderr']}, bound {bound_T}"))
        return out


def _csv(path):
    lines = path.read_text().split()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, row.split(",")))) for row in lines[1:]]


def _bound_at_T(work, stdout, curve):
    if curve:
        return _csv(work / "bound.csv")[-1]["bound"]
    return float(BOUND_LINE.search(stdout).group(1))


COMMUTER = dict(base_rate=1.2, peak_factor=12.0)

# Why each workload exists, and what it is the control for.
WORKLOADS = {
    w.name: w
    for w in (
        # The case-study shape of scripts/synthetic_case_study.py (about 16k
        # rows over 22 weekdays) run end to end in travel-delay mode.  Sizing
        # dominates: hundreds of per-station bound evaluations of 10-20 ms, so
        # the backward-sweep sizing item must show its gain here, and the
        # Monte Carlo scan runs its one-station-per-event branch.
        Workload(
            name="commuter-k20",
            why="full pipeline in travel-delay mode on a 20-station commuter log; "
                "per-station sizing dominates",
            k=20, T=24.0, z=0.01, mc_runs=400, with_delay=True, replay=True,
            trips=dict(COMMUTER, n_days=22),
        ),
        # The network of scripts/bound_vs_mc_curves.py: 50 stations, 72 h,
        # 0.05 requests/h per ordered pair, stock 50, capacity 100.  Monte
        # Carlo dominates, and its scan runs the two-station branch over a
        # dense (events x 50) matrix: the O(n log n) scan item shows its gain
        # here.  The inputs are fixed; the seed picks the Monte Carlo streams.
        Workload(
            name="symmetric-k50",
            why="bound curve and Monte Carlo on the 50-station symmetric 72 h "
                "network; the Monte Carlo first-failure scan dominates",
            k=50, T=72.0, pair_rate=0.05, stock=50, capacity=100, mc_runs=300,
            points=200, curve=True,
        ),
        # A 4-station log whose sized design keeps the joint state slice in the
        # tens of thousands, so the exact solver dominates and is measured at
        # all.  Monte Carlo here is per-run overhead, not scan: a scan
        # speed-up should barely move it.
        Workload(
            name="exact-k4",
            why="4-station log sized and checked by the exact joint solver, "
                "which dominates; Monte Carlo here is per-run overhead",
            k=4, T=24.0, z=0.05, mc_runs=1000, curve=True, exact=True, replay=True,
            trips=dict(base_rate=0.6, peak_factor=12.0, n_days=22),
        ),
        # The largest network: ingest, JSON I/O over k^2 pairs, the imbalance
        # integrals, the per-bin LP and flow aggregation (which grows faster
        # than quadratically) dominate.  Neither sizing nor Monte Carlo runs,
        # so their optimizations must leave it unchanged.  k=100 over 8
        # weekdays (about 29k rows) keeps one pass near 5 s.
        Workload(
            name="city-k100",
            why="ingest, plan, bound of a uniform design and replay on a "
                "100-station log; JSON I/O, aggregation, planner and ingest dominate",
            k=100, T=24.0, stock=20, capacity=40, replay=True,
            trips=dict(COMMUTER, n_days=8),
        ),
    )
}
