"""The benchmark's tracer wraps ``crbeam`` functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(phase, mod, qual) for phase, targets in module.PHASES.items() for mod, qual in targets]


@pytest.mark.parametrize("phase, module_name, qualname", traced_targets())
def test_traced_name_resolves(phase, module_name, qualname):
    owner = importlib.import_module(f"crbeam.{module_name}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{phase}: crbeam.{module_name}.{qualname} is not callable"
