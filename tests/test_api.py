"""The supported API: every name the package exports and every traced target."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import fleetsizing
from fleetsizing import model, sizing, station_bound, synth

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracing_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr, span", tracing_targets())
def test_traced_target_resolves(module_name, attr, span):
    # a missing target stops every traced benchmark run
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("name", fleetsizing.__all__)
def test_exported_name_imports(name):
    assert hasattr(fleetsizing, name)


def bound(m, p, d):
    return station_bound.system_failure_upper_bound(m, p, d, 2.0)


def bound_curve(m, p, d):
    return station_bound.system_failure_bound_curve(m, p, d, [1.0, 2.0])


def size(m, p, d):
    return sizing.size_system(m, p, sizing.SizingRequest(0.5, 2.0))


@pytest.mark.parametrize(
    "module_name, call",
    [
        ("fleetsizing.model", bound),
        ("fleetsizing.model", bound_curve),
        ("fleetsizing.sizing", size),
    ],
)
def test_flows_are_aggregated_once_through_the_traced_name(monkeypatch, module_name, call):
    # a tracer wraps the module attribute, so callers must look it up at call time
    calls = []
    original = model.aggregate_station_flows

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(f"{module_name}.aggregate_station_flows", counted)
    m = synth.uniform_demand_model(3, 0.5, 2.0)
    call(m, model.RebalancingPlan.empty(3, 2.0), model.SystemDesign((2, 2, 2), (4, 4, 4)))
    assert len(calls) == 1
