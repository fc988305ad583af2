import json

import numpy as np
import pytest

from crbeam.arrays import PointTarget
from crbeam.cli import _pair_to_complex, main
from crbeam.designs import design_extended_single, design_point_single
from crbeam.experiments import (
    ExperimentConfig,
    ResultTable,
    config_for,
    draw_scenario,
    run_experiment,
    run_fig2,
    run_fig3,
    run_fig5,
    run_fig6,
    run_fig7,
)


def small(experiment, **kw):
    return config_for(experiment, **kw)


class TestFig2:
    def test_agreement_and_monotonicity(self):
        cfg = small("fig2", sinr_sweep_db=[0.0, 10.0, 20.0, 30.0], seed=404)
        table = run_fig2(cfg)
        cols = {c: i for i, c in enumerate(table.columns)}
        rows = np.array(table.rows)
        assert np.all(rows[:, cols["rel_err_point"]] <= 1e-4)
        assert np.all(rows[:, cols["rel_err_extended"]] <= 1e-4)
        for name in ("root_crb_theta_deg_closed", "mse_g_closed"):
            vals = rows[:, cols[name]]
            assert np.all(np.diff(vals) >= -1e-9 * np.abs(vals[:-1]))

    def test_low_threshold_equals_unconstrained(self):
        cfg = small("fig2", sinr_sweep_db=[0.0], seed=404)
        table = run_fig2(cfg)
        cols = {c: i for i, c in enumerate(table.columns)}
        row = table.rows[0]
        # vacuous constraint: full-power steering beam and isotropic covariance
        nbd2 = np.pi**2 * 20 * (20**2 - 1) / 12
        t_star = nbd2 * 16 * 1000.0
        crb = 1.0 / (2 * 30 * t_star)
        assert row[cols["root_crb_theta_deg_closed"]] == pytest.approx(np.degrees(np.sqrt(crb)), rel=1e-9)
        assert row[cols["mse_g_closed"]] == pytest.approx(16**2 * 20 / (30 * 1000.0), rel=1e-9)


class TestFig3:
    def test_mainlobe_peak_at_target(self):
        cfg = small("fig3", seed=11)
        table = run_fig3(cfg)
        rows = np.array(table.rows)
        peak = rows[np.argmax(rows[:, 1]), 0]
        assert abs(peak) <= 2.0  # degrees


class TestSweeps:
    def test_fig5_monotone(self):
        cfg = small("fig5", sinr_sweep_db=[0.0, 8.0, 16.0], user_groups=[2, 4], n_tx=8, n_rx=10, seed=5)
        table = run_fig5(cfg)
        rows = np.array(table.rows)
        for j in (1, 2):
            vals = rows[:, j]
            # weak monotonicity up to solver noise (~1e-7 relative)
            assert np.all(np.diff(vals) >= -5e-6 * np.abs(vals[:-1]))
        # more users never helps the radar (nested channels)
        assert np.all(rows[:, 2] >= rows[:, 1] * (1 - 5e-6))

    def test_fig6_monotone_and_dominates_truncation(self):
        cfg = small("fig6", sinr_sweep_db=[0.0, 8.0, 16.0], user_groups=[2, 4], n_tx=8, n_rx=10, seed=5)
        table = run_fig6(cfg)
        cols = {c: i for i, c in enumerate(table.columns)}
        rows = np.array(table.rows)
        for k in (2, 4):
            mse = rows[:, cols[f"mse_k{k}"]]
            eig = rows[:, cols[f"mse_eig_k{k}"]]
            assert np.all(np.diff(mse) >= -5e-6 * mse[:-1])
            assert np.all(mse <= eig * (1 + 1e-9))

    def test_fig5_infeasible_points_become_gaps(self):
        cfg = small("fig5", sinr_sweep_db=[10.0, 60.0], user_groups=[4], n_tx=8, n_rx=10, seed=5)
        rows = np.array(run_fig5(cfg).rows)
        assert np.isfinite(rows[0, 1])
        assert np.isnan(rows[1, 1])

    def test_fig7_monotone_in_users(self):
        cfg = small("fig7", user_sweep=[2, 4, 6], n_tx=8, n_rx=10, seed=5)
        table = run_fig7(cfg)
        cols = {c: i for i, c in enumerate(table.columns)}
        rows = np.array(table.rows)
        for gdb in (10, 20):
            mse = rows[:, cols[f"mse_sinr{gdb}db"]]
            eig = rows[:, cols[f"mse_eig_sinr{gdb}db"]]
            assert np.all(np.diff(mse) >= -5e-6 * mse[:-1])
            assert np.all(mse <= eig * (1 + 1e-9))


class TestDeterminism:
    def test_byte_identical_rerun(self):
        cfg = small("fig2", sinr_sweep_db=[5.0, 15.0], seed=77)
        a = run_fig2(cfg).to_csv()
        b = run_fig2(small("fig2", sinr_sweep_db=[5.0, 15.0], seed=77)).to_csv()
        assert a == b

    def test_metadata_embedded(self):
        cfg = small("fig3", seed=3)
        csv = run_fig3(cfg).to_csv()
        assert f"# seed=3" in csv
        assert "# config_hash=" in csv
        assert "# version=" in csv


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"bogus": 1})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="fig99")

    def test_hash_stability(self):
        c1 = config_for("fig3", seed=1)
        c2 = config_for("fig3", seed=1)
        assert c1.config_hash() == c2.config_hash()
        assert c1.config_hash() != config_for("fig3", seed=2).config_hash()

    @pytest.mark.parametrize("call, match", [
        (lambda: run_fig2(config_for("fig2", n_users=2)), r"n_users must be 1"),
        (lambda: run_experiment(ExperimentConfig()), "no runner for experiment 'custom'"),
    ], ids=["fig2_users", "custom"])
    def test_input_checks(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestResultTable:
    def test_csv_cell_formats(self):
        table = ResultTable(["int", "np_int", "nan", "none", "float"],
                            [[3, np.int64(4), float("nan"), None, 1.5]], {"seed": 1})
        assert table.to_csv() == "# seed=1\nint,np_int,nan,none,float\n3,4,nan,nan,1.500000000000e+00\n"

    def test_json_numpy_scalars(self):
        table = ResultTable(["n", "x"], [[np.int64(3), np.float32(1.5)]], {"seed": np.int32(1)})
        assert table.to_json() == '{"columns": ["n", "x"], "metadata": {"seed": 1}, "rows": [[3, 1.5]]}\n'

    def test_json_rejects_other_objects(self):
        with pytest.raises(TypeError, match="not JSON-serializable"):
            ResultTable(["x"], [[object()]], {}).to_json()


class TestCliMain:
    def test_run_writes_csv(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "fig3", "seed": 9}))
        out = tmp_path / "out.csv"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("#")
        assert "theta_deg,power_mw" in text

    def test_design_then_evaluate_roundtrip(self, tmp_path):
        sol_path, bp_path, fig3_path = tmp_path / "sol.json", tmp_path / "bp.csv", tmp_path / "fig3.csv"
        design = ["design", "--mode", "point", "--seed", "9", "--k", "4", "--sinr-db", "15"]
        assert main(design + ["--out", str(sol_path)]) == 0
        assert main(["evaluate", "--solution", str(sol_path), "--seed", "9", "--out", str(bp_path)]) == 0
        assert main(["run", "--experiment", "fig3", "--seed", "9", "--out", str(fig3_path)]) == 0

        # reproduces the fig3 rows for the same seed
        def data_rows(path):
            return [line for line in path.read_text().splitlines() if not line.startswith("#")]

        assert data_rows(bp_path) == data_rows(fig3_path)

    def test_verify_kkt(self, tmp_path, capsys):
        code = main(["verify", "--kkt", "--seed", "4", "--k", "3", "--sinr-db", "10"])
        assert code == 0
        captured = capsys.readouterr()
        assert "max residual" in captured.out

    def test_verify_schur(self, capsys):
        code = main(["verify", "--schur", "--samples", "25", "--seed", "6"])
        assert code == 0
        assert "schur-equivalence" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["verify", "--seed", "4"],                       # neither report chosen
        ["verify", "--kkt", "--schur"],                  # both
        ["verify", "--schur", "--format", "json"],
        ["design", "--mode", "point", "--trials", "10"],
        ["design", "--mode", "point", "--format", "json"],
        ["evaluate", "--beampattern", "--solution", "sol.json"],
        ["evaluate", "--trials", "10", "--solution", "sol.json"],
        ["evaluate", "--k", "3", "--solution", "sol.json"],
        ["evaluate", "--sinr-db", "30", "--solution", "sol.json"],
        ["verify", "--schur", "--k", "3"],
        ["verify", "--schur", "--sinr-db", "40"],
    ])
    def test_options_a_subcommand_does_not_read_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["point", "extended"])
    def test_one_user_design_is_the_closed_form(self, mode, tmp_path):
        out = tmp_path / "sol.json"
        assert main(["design", "--mode", mode, "--k", "1", "--seed", "5", "--sinr-db", "20", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        cfg = config_for("custom", n_users=1, seed=5, sinr_db=20.0)
        if mode == "point":
            want = design_point_single(draw_scenario(cfg, PointTarget(cfg.target_angle)))
        else:
            scen = draw_scenario(cfg, None)
            want = design_extended_single(
                scen.user_channel(0), scen.sinr_thresholds[0], scen.power_budget, scen.noise_comm, scen.geometry,
                frame_len=scen.frame_len, noise_radar=scen.noise_radar,
            )
        assert payload["objective"] == want.objective
        assert np.array_equal(_pair_to_complex(payload["beamformers"]), want.comm_beamformers)

    def test_infeasible_exit_code(self):
        code = main(["design", "--mode", "point", "--seed", "4", "--k", "6", "--sinr-db", "80"])
        assert code == 2

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"no_such_key": True}))
        code = main(["run", "--config", str(bad)])
        assert code == 4

    def test_zero_trials_is_a_config_error(self, capsys):
        assert main(["run", "--experiment", "fig4", "--trials", "0"]) == 4
        assert "trials must be at least 1" in capsys.readouterr().err

    def test_json_format(self, tmp_path):
        out = tmp_path / "out.json"
        code = main(["run", "--experiment", "fig3", "--seed", "9", "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["theta_deg", "power_mw"]
