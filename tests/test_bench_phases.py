"""The benchmark's tracer wraps ``crbeam`` functions by name; each must exist."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


# Runs in a child process: the tracer rebinds crbeam's functions for good.
RUN_EVERY_PHASE = """
import importlib, importlib.util, json, sys, types
import numpy as np
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
names = {mod for targets in tracing.PHASES.values() for mod, _ in targets}
crb = types.SimpleNamespace(**{name: importlib.import_module(f"crbeam.{name}") for name in names})
tracer = tracing.Tracer()
tracer.install(crb)
from conftest import make_scenario
rng = np.random.default_rng(5)
point = make_scenario(rng, k=2, n_tx=6, n_rx=8, gamma_db=10.0)
ext = make_scenario(rng, k=2, n_tx=6, n_rx=8, gamma_db=10.0)
sol = crb.designs.design_point_multi(point)
crb.sim.monte_carlo_point(point, sol.comm_beamformers, 5, 1)
sol = crb.designs.design_extended_multi(ext)
crb.sim.monte_carlo_extended(ext, sol.comm_beamformers, sol.aux_beamformer, 5, 1)
print(json.dumps({phase: tracer.seconds[phase] for phase in tracing.PHASES}))
"""


def test_every_traced_phase_runs():
    # a traced name that still resolves but is no longer called would read 0 s
    tests_dir = Path(__file__).resolve().parent
    src = tests_dir.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests_dir)]))
    out = subprocess.run([sys.executable, "-c", RUN_EVERY_PHASE, str(TRACING)], env=env,
                         capture_output=True, text=True, check=True)
    seconds = json.loads(out.stdout.splitlines()[-1])
    assert [phase for phase, s in seconds.items() if not s > 0] == []
