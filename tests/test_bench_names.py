"""The names bench/tracer.py rebinds resolve in globinv.

The traced benchmark run wraps public functions of each layer by name
(tracer.TARGETS).  A renamed or deleted one would fail only that run, so
this test reads the tracer's table (bench/tracer.py is executed from its
source, and no bytecode is written under bench/) and resolves every entry."""

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    tracer = types.ModuleType("bench_tracer")
    tracer.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer.__dict__)
    return tracer.TARGETS


@pytest.mark.parametrize("layer, name, kind", _targets())
def test_traced_name_is_a_globinv_callable(layer, name, kind):
    module = importlib.import_module(f"globinv.{layer}")
    assert callable(getattr(module, name, None)), f"globinv.{layer}.{name} ({kind})"

