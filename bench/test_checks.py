"""Each benchmark check accepts a correct output and rejects a corrupted one.

Run from the root of a checkout:  python3 -m pytest bench/test_checks.py
Designs are solved at small sizes so the file runs in seconds.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from crbeam import arrays, designs, errors, metrics, sdp, sim, verify  # noqa: E402

crb = types.SimpleNamespace(arrays=arrays, metrics=metrics, designs=designs, errors=errors, sim=sim)

SMALL = dict(n_tx=8, n_rx=10, frame_len=12)


def small_case(k, gamma_db, seed=3):
    chan = workloads.draw_channels(np.random.default_rng(seed), k, SMALL["n_tx"])
    return workloads.Case(f"test K={k} {gamma_db} dB", k, gamma_db, chan, **SMALL)


def fails_with(fails, text):
    return any(text in f for f in fails)


@pytest.fixture(scope="module")
def point():
    case = small_case(3, 10.0)
    case.scenario = workloads.scenario_for(crb, case, arrays.PointTarget(0.0))
    return case, designs.design_point_multi(case.scenario)


@pytest.fixture(scope="module")
def extended():
    out = {}
    for db in (0.0, 20.0):
        case = small_case(2, db)
        case.scenario = workloads.scenario_for(crb, case)
        out[db] = (case, designs.design_extended_multi(case.scenario))
    return out


@pytest.fixture(scope="module")
def infeasible():
    case = small_case(3, 40.0)
    case.scenario = workloads.scenario_for(crb, case, arrays.PointTarget(0.0))
    with pytest.raises(errors.Infeasible) as info:
        designs.design_point_multi(case.scenario)
    return case, designs.build_point_sdp(case.scenario), info.value.certificate["y"]


def test_crb_formulas_match_the_library():
    rng = np.random.default_rng(0)
    raw = workloads.draw_channels(rng, 8, 8)
    r_x = raw @ raw.conj().T
    scen = workloads.scenario_for(crb, small_case(1, 0.0))
    assert checks.rel_err(checks.crb_point(r_x, 0.3, 0.7, 10, 12, 1.0),
                          metrics.crb_point_theta(r_x, 0.3, 0.7, scen)) < 1e-10
    assert checks.rel_err(checks.crb_extended(r_x, 10, 12, 1.0), metrics.crb_extended(r_x, scen)) < 1e-10


def test_point_design_passes(point):
    case, sol = point
    assert checks.check_design(case, sol, extended=False) == []
    assert checks.check_kkt(case, sol, verify.check_kkt_point, case.scenario) == []


def test_sinr_check_rejects_a_dropped_user(point):
    case, sol = point
    bad = copy.deepcopy(sol)
    bad.comm_beamformers[:, 0] *= 0.5
    assert fails_with(checks.check_design(case, bad, extended=False), "SINR")


def test_power_check_rejects_excess_power(point):
    case, sol = point
    bad = copy.deepcopy(sol)
    bad.comm_beamformers *= np.sqrt(1.01)
    bad.covariance = bad.covariance * 1.01
    bad.objective = sol.objective / 1.01
    fails = checks.check_design(case, bad, extended=False)
    assert fails_with(fails, "power") and not fails_with(fails, "SINR")


def test_covariance_check_rejects_a_mismatch(point):
    case, sol = point
    bad = copy.deepcopy(sol)
    bad.covariance = bad.covariance + 1e-3 * np.trace(bad.covariance).real * np.eye(case.n_tx)
    assert fails_with(checks.check_design(case, bad, extended=False), "covariance")


def test_crb_check_rejects_a_wrong_objective(point):
    case, sol = point
    bad = copy.deepcopy(sol)
    bad.objective = sol.objective * (1 + 1e-3)
    assert fails_with(checks.check_design(case, bad, extended=False), "recomputed CRB")


def test_kkt_check_rejects_wrong_multipliers(point):
    case, sol = point
    bad = copy.deepcopy(sol)
    bad.diagnostics["duals"]["mu"] = bad.diagnostics["duals"]["mu"] + 1.0
    assert fails_with(checks.check_kkt(case, bad, verify.check_kkt_point, case.scenario), "KKT")


def test_extended_designs_pass(extended):
    for case, sol in extended.values():
        assert checks.check_design(case, sol, extended=True) == []
        assert checks.check_extended_bound(case, sol) == []


def dual_check(case, sol):
    return checks.check_extended_dual(case, sol, designs.build_extended_sdp(case.scenario),
                                      sol.diagnostics["sdp"].dual_multipliers)


def test_extended_dual_check(extended):
    for case, sol in extended.values():
        assert dual_check(case, sol) == []
    case, sol = extended[20.0]
    bad = copy.deepcopy(sol)
    bad.objective *= 1 + 1e-4
    assert fails_with(dual_check(case, bad), "dual bound")
    bad = copy.deepcopy(sol)
    bad.objective *= 1 - 1e-4
    assert fails_with(dual_check(case, bad), "dual bound")
    y = sol.diagnostics["sdp"].dual_multipliers
    bad.objective = sol.objective
    bad.diagnostics["sdp"].dual_multipliers = 0.999 * y
    assert fails_with(dual_check(case, bad), "dual bound")
    bad.diagnostics["sdp"].dual_multipliers = y + 1e-3 * np.linalg.norm(y) * np.random.default_rng(2).standard_normal(y.shape)
    assert fails_with(dual_check(case, bad), "dual bound")
    bad.diagnostics["sdp"].dual_multipliers = y[:-1]
    assert fails_with(dual_check(case, bad), "shape")


def test_extended_dual_check_rejects_a_loose_solve(extended):
    case, _ = extended[20.0]
    loose = designs.design_extended_multi(case.scenario, sdp.SolveOptions(tol=1e-3, target_tol=1e-3))
    assert checks.check_design(case, loose, extended=True) == []
    assert fails_with(dual_check(case, loose), "dual bound")


def test_sinr_check_counts_aux_interference(extended):
    case, sol = extended[20.0]
    bad = copy.deepcopy(sol)
    bad.aux_beamformer = bad.aux_beamformer * 10
    assert fails_with(checks.check_design(case, bad, extended=True), "SINR")
    assert checks.sinrs(case.channels, sol.comm_beamformers, None, case.noise).min() > \
        checks.sinrs(case.channels, sol.comm_beamformers, sol.aux_beamformer, case.noise).min()


def test_extended_covariance_and_crb_checks(extended):
    case, sol = extended[20.0]
    bad = copy.deepcopy(sol)
    bad.aux_beamformer = bad.aux_beamformer * (1 + 1e-6)
    assert fails_with(checks.check_design(case, bad, extended=True), "covariance")
    bad = copy.deepcopy(sol)
    bad.objective *= 1 + 1e-3
    assert fails_with(checks.check_design(case, bad, extended=True), "recomputed CRB")


def test_radar_only_bound(extended):
    slack_case, slack_sol = extended[0.0]
    assert checks.slack_certified(slack_case.channels, slack_case.gamma, slack_case.power, slack_case.noise)
    bad = copy.deepcopy(slack_sol)
    bad.objective *= 1 + 1e-4
    assert fails_with(checks.check_extended_bound(slack_case, bad), "SINRs slack")
    bad.objective = slack_sol.objective * (1 - 1e-3)
    assert fails_with(checks.check_extended_bound(slack_case, bad), "below radar-only")
    tight_case, _ = extended[20.0]
    assert not checks.slack_certified(tight_case.channels, tight_case.gamma, tight_case.power, tight_case.noise)


def test_dual_ray_passes_and_corruptions_fail(infeasible):
    case, problem, y = infeasible
    assert checks.check_dual_ray(case.label, problem, y) == []
    assert fails_with(checks.check_dual_ray(case.label, problem, -y), "b^T y")
    sinr_rows = [i for i, c in enumerate(problem.constraints) if c.name.startswith("sinr")]
    bad = y.copy()
    bad[sinr_rows[0]] = -abs(bad[sinr_rows[0]]) - 0.1 * np.linalg.norm(y)
    assert fails_with(checks.check_dual_ray(case.label, problem, bad), "wrong sign")
    bad = y.copy()
    bad[0] += 0.1 * np.linalg.norm(y)
    assert fails_with(checks.check_dual_ray(case.label, problem, bad), "free column")
    bad = y + 0.3 * np.linalg.norm(y) * np.random.default_rng(1).standard_normal(y.shape)
    assert checks.check_dual_ray(case.label, problem, bad) != []
    assert fails_with(checks.check_dual_ray(case.label, problem, y[:-1]), "shape")


def test_monotone_check():
    assert checks.check_monotone("t", [("a", 1.0), ("b", 1.0), ("c", 2.0), ("d", None), ("e", None)]) == []
    assert fails_with(checks.check_monotone("t", [("a", 1.0), ("b", 0.99)]), "CRB falls")
    assert fails_with(checks.check_monotone("t", [("a", None), ("b", 1.0)]), "feasible after")


def test_monte_carlo_bands():
    lo, hi = checks.mc_extended_band(np.eye(4), 5, 100)
    assert hi - 1 == pytest.approx(1 - lo) == pytest.approx(5 / np.sqrt(20 * 100))
    lo, hi = checks.mc_point_band(1000, high_snr=False)
    assert lo == pytest.approx(1 - 5 / np.sqrt(2000)) and hi == np.inf
    assert checks.mc_point_band(1000, high_snr=True)[1] == pytest.approx(1.2 + 5 / np.sqrt(2000))


def test_monte_carlo_check_rejects_a_bad_ratio(monkeypatch):
    monkeypatch.setattr(workloads, "MC_TRIALS", 100)
    state = workloads.MonteCarlo.setup(crb, 1)
    records = [workloads.Record(op, 0.0, op.run(), None, 0, i) for i, op in enumerate(state.round(0))]
    assert workloads.MonteCarlo.check(crb, state, records) == []
    bad = copy.deepcopy(records)
    bad[-1].output["ratio"] *= 1.5
    assert fails_with(workloads.MonteCarlo.check(crb, state, bad), "outside")
    bad = copy.deepcopy(records)
    bad[0].output["crb_theta"] *= 1.01
    assert fails_with(workloads.MonteCarlo.check(crb, state, bad), "reported CRB")


def test_run_prints_the_contract_line():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "monte_carlo", "--seed", "1",
             "--seconds", "0.1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=300, cwd=BENCH.parent,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in spec[key]}
        for m in spec[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
