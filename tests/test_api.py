"""The supported API: every name the package exports and every traced target."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import fleetsizing

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
