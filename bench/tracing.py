"""Per-layer timing of ``crbeam`` from outside the package.

``Tracer.install`` replaces module-level functions and class methods of
the imported ``crbeam`` modules with timing wrappers.  A function that
other modules imported by name (``from .sdp import solve``) is replaced
in every module that holds it.  The wrappers add seconds to per-phase
totals; the phases below are disjoint, so
``ipm.other_s`` is the solver's time outside all of them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# phase -> [(module, qualified attribute)]
PHASES = {
    "designs.build": [("designs", "build_point_sdp"), ("designs", "build_extended_sdp")],
    "designs.extract": [("designs", "extract_rank_one")],
    "sdp.solve": [("sdp", "solve")],
    "sdp.cone_build": [("sdp", "_build_cone_program")],
    "ipm.solve": [("_ipm", "solve_cone_program")],
    "ipm.blocka_init": [("_ipm", "_BlockA.__init__")],
    "ipm.schur": [("_ipm", "_schur")],
    "ipm.factor": [("_ipm", "_SchurSolver.__init__")],
    "ipm.newton": [("_ipm", "_SchurSolver.solve")],
    "ipm.nt_scaling": [("_ipm", "_NTScaling.__init__"), ("_ipm", "_NTScaling.apply")],
    "ipm.step_length": [("_ipm", "_max_step_psd"), ("_ipm", "_max_step_nonneg")],
    "ipm.embed_project": [("_ipm", "_embed_project")],
    "sim.streams": [("sim", "gen_streams")],
    "sim.echo": [("sim", "radar_echo")],
    "sim.mle_init": [("sim", "PointMle.__init__")],
    "sim.mle_estimate": [("sim", "PointMle.estimate")],
    "sim.mle_extended": [("sim", "mle_extended")],
}
IPM_PHASES = ("ipm.blocka_init", "ipm.schur", "ipm.factor", "ipm.newton",
              "ipm.nt_scaling", "ipm.step_length", "ipm.embed_project")
SIM_PHASES = ("sim.streams", "sim.echo", "sim.mle_init", "sim.mle_estimate", "sim.mle_extended")


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(float)   # iterations, schur rows, gap_over_tol ...
        self.excluded = 0.0                # time the tracer itself spent on checks

    def snapshot(self) -> dict:
        out = dict(self.seconds)
        out.update({f"#{k}": v for k, v in self.counts.items()})
        return out

    def _timed(self, phase, fn, after=None):
        seconds = self.seconds

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds[phase] += time.perf_counter() - t0
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self, crb) -> None:
        """Wrap every phase's functions in the ``crb`` namespace's modules."""
        hooks = {"sdp.solve": self._after_sdp_solve(crb), "ipm.solve": self._after_ipm_solve}
        loaded = [m for name, m in sys.modules.items() if name == "crbeam" or name.startswith("crbeam.")]
        for phase, targets in PHASES.items():
            for mod_name, qual in targets:
                module = getattr(crb, mod_name)
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(module, cls_name)
                    setattr(owner, attr, self._timed(phase, getattr(owner, attr), hooks.get(phase)))
                    continue
                original = getattr(module, qual)
                wrapped = self._timed(phase, original, hooks.get(phase))
                for mod in loaded:
                    if getattr(mod, qual, None) is original:
                        setattr(mod, qual, wrapped)

    def _after_sdp_solve(self, crb):
        def after(args, kwargs, sol):
            self.counts["sdp.iterations"] += sol.iterations
            if sol.status != "Optimal":
                return
            t0 = time.perf_counter()
            problem = args[0]
            opts = args[1] if len(args) > 1 and args[1] is not None else kwargs.get("opts") or crb.sdp.SolveOptions()
            cert = crb.sdp.check_certificate(problem, sol)
            self.counts["sdp.gap_over_tol"] += cert["gap"] > opts.tol
            self.counts["sdp.primal_over_tol"] += cert["primal"] > opts.tol
            self.excluded += time.perf_counter() - t0
        return after

    def _after_ipm_solve(self, args, kwargs, res):
        self.counts["ipm.iterations"] += res.iterations
        self.counts["ipm.solves"] += 1
        self.counts["ipm.schur_rows"] += args[0].n_rows
