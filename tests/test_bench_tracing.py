"""The traced benchmark run looks up each traced function by name; every one
of them must still exist, or `bench/run.py --trace 1` stops with AttributeError."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("layer,module,name", _traced())
def test_traced_name_resolves(layer, module, name):
    assert callable(getattr(importlib.import_module(module), name))
