"""Span recorder wrapped around the package's public functions.

Each wrapped call records one span ``(name, parent, start, end)``; spans
of one traced pipeline share the recorder's run id.  The wrappers are
installed at the module attributes the program looks a function up at
call time (``fleetsizing.sizing.station_failure_probability`` as well
as ``fleetsizing.station_bound.station_failure_probability``, because
``sizing`` imported the name), and every original is put back when the
traced pipeline ends.  Nothing under ``src/`` is edited and no private
function is wrapped, so the targets are exactly the supported API.

A span's name is ``<layer>.<function>``, the layer being the package
module that defines the function.  ``scipy.optimize.linprog`` is traced
as ``rebalance.linprog``: the planner's transport LP is its only caller.
"""

import importlib
import time
from contextlib import contextmanager

# (module the program reads the attribute from, attribute, span name)
TARGETS = (
    ("fleetsizing.cli", "load_model", "model.load_model"),
    ("fleetsizing.cli", "load_plan", "model.load_plan"),
    ("fleetsizing.cli", "save_model", "model.save_model"),
    ("fleetsizing.cli", "save_plan", "model.save_plan"),
    ("fleetsizing.model", "aggregate_station_flows", "model.aggregate_station_flows"),
    ("fleetsizing.sizing", "aggregate_station_flows", "model.aggregate_station_flows"),
    ("fleetsizing.ingest", "parse_trips", "ingest.parse_trips"),
    ("fleetsizing.ingest", "station_set_from_trips", "ingest.station_set_from_trips"),
    ("fleetsizing.ingest", "estimate_demand", "ingest.estimate_demand"),
    ("fleetsizing.ingest", "extract_day_sequences", "ingest.extract_day_sequences"),
    ("fleetsizing.ingest", "save_sequences", "ingest.save_sequences"),
    ("fleetsizing.ingest", "load_sequences", "ingest.load_sequences"),
    ("fleetsizing.rebalance", "build_plan", "rebalance.build_plan"),
    ("fleetsizing.rebalance", "compute_imbalance", "rebalance.compute_imbalance"),
    ("fleetsizing.rebalance", "balance_flows", "rebalance.balance_flows"),
    ("fleetsizing.rebalance", "discretize_plan", "rebalance.discretize_plan"),
    ("scipy.optimize", "linprog", "rebalance.linprog"),
    ("fleetsizing.sizing", "size_system", "sizing.size_system"),
    ("fleetsizing.sizing", "size_station_stock", "sizing.size_station_stock"),
    ("fleetsizing.sizing", "size_station_capacity", "sizing.size_station_capacity"),
    ("fleetsizing.sizing", "load_design", "sizing.load_design"),
    ("fleetsizing.sizing", "save_design_doc", "sizing.save_design_doc"),
    ("fleetsizing.sizing", "station_failure_probability",
     "station_bound.station_failure_probability"),
    ("fleetsizing.station_bound", "station_failure_probability",
     "station_bound.station_failure_probability"),
    ("fleetsizing.station_bound", "station_failure_curve", "station_bound.station_failure_curve"),
    ("fleetsizing.station_bound", "system_failure_upper_bound",
     "station_bound.system_failure_upper_bound"),
    ("fleetsizing.station_bound", "system_failure_bound_curve",
     "station_bound.system_failure_bound_curve"),
    ("fleetsizing.simulate", "estimate_failure_curve", "simulate.estimate_failure_curve"),
    ("fleetsizing.exact", "joint_transient", "exact.joint_transient"),
    ("fleetsizing.replay", "replay_all", "replay.replay_all"),
    ("fleetsizing.replay", "replay_day", "replay.replay_day"),
    ("fleetsizing.replay", "failure_rate", "replay.failure_rate"),
)

LAYERS = (
    "cli", "model", "ingest", "rebalance", "sizing",
    "station_bound", "simulate", "exact", "replay",
)


def _mass_drift(snapshots):
    """Largest |sum(p) + pF - 1| over the joint solver's returned snapshots."""
    return max((abs(float(s.p.sum()) + s.pF - 1.0) for s in snapshots), default=0.0)


# span name -> function of the wrapped call's result, stored on the span
OBSERVERS = {"exact.joint_transient": _mass_drift}


class Span:
    __slots__ = ("name", "parent", "start", "end", "note")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.note = None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """In-memory spans of one traced pipeline, linked to their parents by index."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, parent, time.perf_counter())
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name):
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if observe is not None:
                record.note = observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def to_json(self):
        own = self.self_times()
        return {
            "run_id": self.run_id,
            "spans": [
                {
                    "id": i,
                    "parent": s.parent,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "self": own[i],
                    **({"note": s.note} if s.note is not None else {}),
                }
                for i, s in enumerate(self.spans)
            ],
        }

    def has_ancestor(self, index, name):
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False
