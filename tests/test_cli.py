import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import colmode
from colmode.cli import (
    _pmap,
    load_record,
    main,
    phase_diagram_rows,
    save_record,
    sha256_file,
)
from colmode.entanglement import witness_report_from_covariance
from colmode.gaussian_core import (
    ModelParams,
    build_diffusion,
    build_drift,
    solve_steady_lyapunov,
    steady_state_covariance,
)
from colmode.pipeline import _ou_mean_attenuation, vacuum_transfer
from colmode.trajectory import SourceTag, TrajectoryRecord

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def small_simulate_config(seed=11, ensemble=4, null_trio=False, fmt="npy"):
    return {
        "params": {
            "G": 0.25, "kappa_a": 1.0, "kappa_b": 1.0,
            "n_a": 0.0, "n_b": 0.0, "preset": "CLOSED_FORM",
        },
        "trajectory": {"dt": 0.05, "n_steps": 20000, "scheme": "EXACT_OU",
                       "master_seed": seed, "burn_in": 0},
        "ensemble": ensemble,
        "format": fmt,
        "null_trio": {"enabled": null_trio, "restarts": 3, "max_evals": 600},
    }


def output_digests(out_dir: Path) -> dict:
    return {
        p.name: sha256_file(p)
        for p in sorted(out_dir.iterdir())
        if not p.name.startswith("manifest")
    }


class TestPhaseDiagram:
    def test_grid_matches_analytic_boundary(self, tmp_path):
        cfg = {
            "preset": "CLOSED_FORM",
            "kappa": 1.0,
            "g_over_kappa": {"min": 0.0, "max": 0.5, "steps": 26},
            "n_eff": {"min": 0.0, "max": 2.0, "steps": 9},
        }
        rows = phase_diagram_rows(cfg)
        assert len(rows) == 26 * 9
        unstable = [r for r in rows if r["boundary_flag"] == "UNSTABLE"]
        assert {r["g_over_kappa"] for r in unstable} == {0.5}
        # per occupancy row, the empirical contour sits within one cell of
        # the analytic boundary g* = n / (2 (n + 1))
        g_step = 0.5 / 25
        for n in sorted({r["n_eff"] for r in rows}):
            line = sorted(
                (r for r in rows if r["n_eff"] == n and r["boundary_flag"] == "STABLE"),
                key=lambda r: r["g_over_kappa"],
            )
            g_star = n / (2.0 * (n + 1.0))
            below = [r["g_over_kappa"] for r in line if r["nu_minus"] < 0.5]
            assert below, f"no entangled cell found for n = {n}"
            assert abs(below[0] - g_star) <= g_step + 1e-12

    def test_cli_run_writes_csv_and_manifest(self, tmp_path):
        cfg_path = write_config(tmp_path, "pd.json", {
            "preset": "CLOSED_FORM",
            "kappa": 1.0,
            "g_over_kappa": {"min": 0.0, "max": 0.5, "steps": 6},
            "n_eff": {"min": 0.0, "max": 1.0, "steps": 5},
        })
        out = tmp_path / "out"
        assert main(["phase-diagram", "-c", cfg_path, "--out-dir", str(out)]) == 0
        csv_path = out / "phase_diagram.csv"
        text = csv_path.read_text().splitlines()
        assert text[0].startswith("# manifest=")
        assert text[1].split(",")[0] == "g_over_kappa"
        assert len(text) == 2 + 30
        manifest = json.loads(next(out.glob("manifest_*.json")).read_text())
        assert manifest["schema"] == "colmode.manifest/1"
        env = manifest["environment"]
        assert {key: env[key] for key in ("python", "numpy", "scipy")} == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        }
        recorded = {e["path"]: e["sha256"] for e in manifest["outputs"]}
        assert recorded["phase_diagram.csv"] == sha256_file(csv_path)

    def test_tms_grid_matches_per_cell_oracle(self, monkeypatch):
        # descending g axis: the first rows are UNSTABLE, the rest stacked
        import colmode.cli as cli_mod

        solves = []

        def counted_solve(A, D):
            solves.append(D.shape)
            return solve_steady_lyapunov(A, D)

        monkeypatch.setattr(cli_mod, "solve_steady_lyapunov", counted_solve)
        kappa = 1.3
        cfg = {
            "preset": "TMS_HAMILTONIAN",
            "kappa": kappa,
            "g_over_kappa": {"min": 0.7, "max": 0.0, "steps": 9},
            "n_eff": {"min": 0.0, "max": 3.0, "steps": 7},
        }
        rows = phase_diagram_rows(cfg)
        assert len(rows) == 9 * 7
        unstable = {r["g_over_kappa"] for r in rows if r["boundary_flag"] == "UNSTABLE"}
        stable = {r["g_over_kappa"] for r in rows if r["boundary_flag"] == "STABLE"}
        assert len(unstable) == 3 and len(stable) == 6
        assert solves == [(7, 4, 4)] * 6
        for r in rows:
            G = r["g_over_kappa"] * kappa
            if r["boundary_flag"] == "UNSTABLE":
                assert r["nu_minus"] is None and r["entangled_ppt"] is None
                continue
            p = ModelParams(G=G, kappa_a=kappa, kappa_b=kappa, n_a=r["n_eff"], n_b=r["n_eff"])
            rep = witness_report_from_covariance(
                solve_steady_lyapunov(build_drift(p), build_diffusion(p))
            )
            assert r["nu_minus"] == rep.nu_minus
            assert r["duan_sum"] == rep.duan_sum
            assert r["entangled_ppt"] == rep.entangled_ppt

    def test_rows_are_canonically_sorted(self):
        import random
        cfg = {
            "g_over_kappa": {"min": 0.0, "max": 0.5, "steps": 7},
            "n_eff": {"min": 0.0, "max": 2.0, "steps": 6},
        }
        rows = phase_diagram_rows(cfg)
        shuffled = rows[:]
        random.Random(4).shuffle(shuffled)
        shuffled.sort(key=lambda r: (r["g_over_kappa"], r["n_eff"]))
        assert shuffled == rows

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, "pd.json", {
            "g_over_kappa": {"min": 0.0, "max": 0.4, "steps": 5},
            "n_eff": {"min": 0.0, "max": 1.0, "steps": 4},
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["phase-diagram", "-c", cfg_path, "--out-dir", str(out1)])
        main(["phase-diagram", "-c", cfg_path, "--out-dir", str(out2)])
        assert output_digests(out1) == output_digests(out2)


class TestSimulate:
    def test_rerun_reproduces_identical_bytes(self, tmp_path):
        cfg_path = write_config(tmp_path, "sim.json", small_simulate_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "-c", cfg_path, "--out-dir", str(out1)]) == 0
        assert main(["simulate", "-c", cfg_path, "--out-dir", str(out2)]) == 0
        d1, d2 = output_digests(out1), output_digests(out2)
        assert d1 and d1 == d2

    def test_parallel_matches_sequential(self, tmp_path):
        cfg_path = write_config(tmp_path, "sim.json", small_simulate_config(ensemble=6))
        seq, par = tmp_path / "seq", tmp_path / "par"
        main(["simulate", "-c", cfg_path, "--out-dir", str(seq), "--threads", "1"])
        main(["simulate", "-c", cfg_path, "--out-dir", str(par), "--threads", "3"])
        assert output_digests(seq) == output_digests(par)

    def test_workers_start_with_one_blas_thread(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"]
        assert _pmap(os.getenv, names, threads=2) == ["1", "1"]
        assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
        assert "OMP_NUM_THREADS" not in os.environ

    def test_seed_flag_changes_streams(self, tmp_path):
        cfg_path = write_config(tmp_path, "sim.json", small_simulate_config(ensemble=2))
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "-c", cfg_path, "--out-dir", str(a)])
        main(["simulate", "-c", cfg_path, "--out-dir", str(b), "--seed", "999"])
        assert output_digests(a) != output_digests(b)

    def test_null_trio_power_matched(self, tmp_path):
        cfg = small_simulate_config(ensemble=1, null_trio=True)
        cfg["trajectory"]["n_steps"] = 60000
        cfg_path = write_config(tmp_path, "sim.json", cfg)
        out = tmp_path / "out"
        assert main(["simulate", "-c", cfg_path, "--out-dir", str(out)]) == 0
        # the exact power of the quantum state the trio is matched to, not a
        # record's sample estimate of it
        V_q = steady_state_covariance(ModelParams.from_dict(cfg["params"]))
        target = float(np.mean(np.diag(V_q)))
        for tag in ("null_a", "null_b", "null_c"):
            rec = load_record(out / f"{tag}.npy")
            power = float(np.mean(np.var(rec.samples, axis=0)))
            assert power == pytest.approx(target, rel=0.05), tag


class TestAnalyze:
    def test_quantum_vs_null_comparison(self, tmp_path):
        cfg = small_simulate_config(ensemble=6, null_trio=True)
        cfg["trajectory"]["n_steps"] = 40000
        sim_cfg = write_config(tmp_path, "sim.json", cfg)
        out = tmp_path / "out"
        main(["simulate", "-c", sim_cfg, "--out-dir", str(out)])
        an_cfg = write_config(tmp_path, "an.json", {
            "pipeline": {"bandwidth": 1.0, "integration_time": 10.0,
                         "bootstrap_resamples": 300},
        })
        records = sorted(str(p) for p in out.glob("*.npy"))
        assert main(["analyze", *records, "-c", an_cfg, "--out-dir", str(out)]) == 0

        report = json.loads((out / "witness_report.json").read_text())
        groups = report["groups"]
        assert groups["QUANTUM"]["entangled_ppt"] is True
        assert groups["QUANTUM"]["entangled_duan"] is True
        for tag in ("NULL_A", "NULL_B", "NULL_C"):
            assert groups[tag]["entangled_ppt"] is False, tag
            assert groups[tag]["entangled_duan"] is False, tag

        lines = (out / "witness_distribution.csv").read_text().splitlines()
        assert len(lines) == 2 + len(records)

    def test_mean_statistic_through_cli(self, tmp_path):
        cfg = small_simulate_config(ensemble=2)
        cfg["trajectory"]["n_steps"] = 40000
        sim_cfg = write_config(tmp_path, "sim.json", cfg)
        out = tmp_path / "out"
        main(["simulate", "-c", sim_cfg, "--out-dir", str(out)])
        an_cfg = write_config(tmp_path, "an.json", {
            "pipeline": {"bandwidth": 1.0, "integration_time": 10.0,
                         "bootstrap_resamples": 200, "segment_statistic": "mean"},
        })
        records = sorted(str(p) for p in out.glob("*.npy"))
        assert main(["analyze", *records, "-c", an_cfg, "--out-dir", str(out)]) == 0
        report = json.loads((out / "witness_report.json").read_text())
        # single-rate records: the mean statistic is also calibrated
        assert report["groups"]["QUANTUM"]["nu_minus"] == pytest.approx(1 / 6, abs=0.06)

    def test_zero_resamples_never_certify_null_c(self, tmp_path):
        # null model C sits on nu_minus = 1/2; with no bootstrap replicates its
        # record read 0.494 +- 0.0 and entangled_ppt True on this config
        cfg = json.loads((CONFIGS / "simulate.json").read_text())
        cfg["ensemble"] = 3
        cfg["trajectory"]["n_steps"] = 20000
        out = tmp_path / "out"
        assert main(["simulate", "-c", write_config(tmp_path, "sim.json", cfg),
                     "--out-dir", str(out)]) == 0
        an = json.loads((CONFIGS / "analyze.json").read_text())
        an["pipeline"]["bootstrap_resamples"] = 0
        records = sorted(str(p) for p in out.glob("*.npy"))
        assert main(["analyze", *records, "-c", write_config(tmp_path, "an.json", an),
                     "--out-dir", str(out)]) == 0
        lines = (out / "witness_distribution.csv").read_text().splitlines()
        rows = {r.split(",")[0]: dict(zip(lines[1].split(","), r.split(",")))
                for r in lines[2:]}
        assert float(rows["null_c.npy"]["nu_minus"]) < 0.5
        for row in rows.values():
            assert row["stderr_nu"] == row["stderr_duan"] == "nan"
            assert row["entangled_ppt"] == row["entangled_duan"] == "False"
        report = json.loads((out / "witness_report.json").read_text())
        assert report["groups"]["NULL_C"]["entangled_ppt"] is False

    def test_manifest_lists_factors_and_default_kappa(self, tmp_path):
        rng = np.random.default_rng(4)
        out = tmp_path / "out"
        paths = []
        for name, meta in (("given", {"kappa": 2.0}), ("defaulted", {})):
            rec = TrajectoryRecord(samples=rng.standard_normal((2000, 4)), dt=0.1,
                                   source=SourceTag.QUANTUM, seed=4, meta=meta)
            paths.append(str(save_record(rec, tmp_path / name, "npy", "m")[0]))
        an = json.loads((CONFIGS / "analyze.json").read_text())
        an["pipeline"].update(segment_statistic="mean", bootstrap_resamples=10)
        assert main(["analyze", *paths, "-c", write_config(tmp_path, "an.json", an),
                     "--out-dir", str(out)]) == 0
        factors = json.loads(next(out.glob("manifest_*.json")).read_text())["factors"]
        assert factors["default_kappa"] == ["defaulted.npy"]
        for name, kappa in (("given.npy", 2.0), ("defaulted.npy", 1.0)):
            assert factors["per_file"][name] == {
                "calibration": vacuum_transfer(1.0, 0.1, kappa),
                "attenuation": _ou_mean_attenuation(kappa / 2.0, 0.1, 100),
            }
        for data in ("witness_distribution.csv", "witness_report.json"):
            assert "factors" not in (out / data).read_text()

    def test_csv_records_also_load(self, tmp_path):
        cfg = small_simulate_config(ensemble=1, fmt="csv")
        cfg["trajectory"]["n_steps"] = 5000
        sim_cfg = write_config(tmp_path, "sim.json", cfg)
        out = tmp_path / "out"
        main(["simulate", "-c", sim_cfg, "--out-dir", str(out)])
        rec = load_record(out / "quantum_0000.csv")
        assert rec.n_steps == 5000
        assert rec.meta["kappa"] == 1.0


class TestConverge:
    def test_summary_slopes(self, tmp_path):
        cfg_path = write_config(tmp_path, "conv.json", {
            "params": {"G": 0.25, "kappa_a": 1.0, "kappa_b": 1.0,
                       "n_a": 0.0, "n_b": 0.0, "preset": "CLOSED_FORM"},
            "master_seed": 5,
            "cells": [{"T": 50.0, "B": 0.04}, {"T": 100.0, "B": 0.04},
                      {"T": 100.0, "B": 0.08}, {"T": 200.0, "B": 0.08}],
            "runs_per_cell": 8,
            "segments_per_record": 12,
        })
        out = tmp_path / "out"
        assert main(["converge", "-c", cfg_path, "--out-dir", str(out)]) == 0
        summary = json.loads((out / "converge_summary.json").read_text())
        assert -0.9 < summary["slope_duan"] < -0.1
        lines = (out / "converge.csv").read_text().splitlines()
        assert len(lines) == 2 + 4

    @pytest.mark.parametrize("cells", [[], [{"T": 50.0, "B": 0.04}]])
    def test_fewer_than_two_n_eff_is_validation_error(self, tmp_path, capsys, cells):
        cfg_path = write_config(tmp_path, "conv.json", {
            "params": small_simulate_config()["params"], "cells": cells,
        })
        out = tmp_path / "out"
        assert main(["converge", "-c", cfg_path, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: convergence sweep needs cells at >= 2 distinct N_eff = T * B"]
        assert not (out / "converge.csv").exists()

    def test_crossing_scan_gets_segment_statistic(self, tmp_path, monkeypatch):
        import colmode.cli as cli_mod

        seen = {}

        def fake_sweep(A, D, cells, **kwargs):
            seen["sweep"] = kwargs["segment_statistic"]
            rows = [{"T": T, "B": B, "n_eff": T * B, "nu_mean": 0.2, "nu_stderr": 0.01,
                     "duan_mean": 0.8, "duan_stderr": 0.01, "n_runs": 2} for T, B in cells]
            return {"rows": rows, "slope_nu": -0.5, "slope_duan": -0.5}

        def fake_crossing(**kwargs):
            seen["crossing"] = kwargs["segment_statistic"]
            return [{"T": T, "B": B, "g_cross": 0.17, "sigma": 0.01} for T, B in kwargs["cells"]]

        monkeypatch.setattr(cli_mod, "convergence_sweep", fake_sweep)
        monkeypatch.setattr(cli_mod, "crossing_scan", fake_crossing)
        cfg_path = write_config(tmp_path, "conv.json", {
            "params": {"G": 0.25, "kappa_a": 1.0, "kappa_b": 1.0,
                       "n_a": 0.0, "n_b": 0.0, "preset": "CLOSED_FORM"},
            "cells": [{"T": 50.0, "B": 0.04}],
            "segment_statistic": "mean",
            "crossing": {"n": 0.5, "g_values": [0.1, 0.2], "cells": [{"T": 8.0, "B": 1.0}]},
        })
        assert main(["converge", "-c", cfg_path, "--out-dir", str(tmp_path / "out")]) == 0
        assert seen == {"sweep": "mean", "crossing": "mean"}


class TestThresholds:
    def test_room_temperature_worked_example(self, tmp_path):
        out = tmp_path / "out"
        cfg = str(CONFIGS / "thresholds_room_temperature.json")
        assert main(["thresholds", "-c", cfg, "--out-dir", str(out)]) == 0
        report = json.loads((out / "thresholds.json").read_text())
        assert report["kappa"]["value"] == pytest.approx(6.6667e4, rel=1e-4)
        assert report["v_min"]["CONSERVATIVE"]["value"] == pytest.approx(2.2294e-4, rel=1e-4)
        assert report["v_min"]["CONSERVATIVE"]["rounded_1sf"] == "2e-04"
        assert report["N_col"]["value"] == pytest.approx(7.5e3, rel=0.05)
        assert report["n_eff"]["clamped"] is True
        assert report["phase_diffusion"]["D_phi"] == pytest.approx(
            report["kappa"]["value"] / (4 * report["N_col"]["value"]), rel=1e-12
        )

    def test_megahertz_envelope_not_clamped(self, tmp_path):
        cfg_path = write_config(tmp_path, "thr.json", {
            "B": 0.4e6, "C_eff": 1e-12, "f_col": 1e6, "T_amb": 300.0,
            "R_eff": 50.0, "ringdown_time": 15e-6, "G_over_kappa": 0.45,
        })
        out = tmp_path / "out"
        assert main(["thresholds", "-c", cfg_path, "--out-dir", str(out)]) == 0
        report = json.loads((out / "thresholds.json").read_text())
        assert report["n_eff"]["value"] == pytest.approx(250.0, rel=2e-3)
        assert report["n_eff"]["clamped"] is False
        assert "cooperativity" in report
        assert "GENERAL" in report["v_min"] and "THERMAL" in report["v_min"]


class TestExitCodes:
    def test_missing_config_is_validation_error(self, tmp_path):
        assert main(["phase-diagram", "-c", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path)]) == 2

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["phase-diagram", "-c", str(bad), "--out-dir", str(tmp_path)]) == 2

    def test_invalid_physics_is_validation_error(self, tmp_path):
        cfg = small_simulate_config()
        cfg["params"]["kappa_a"] = -1.0
        cfg_path = write_config(tmp_path, "sim.json", cfg)
        assert main(["simulate", "-c", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        import colmode.cli as cli_mod
        from colmode.errors import NumericalError

        def boom(*args, **kwargs):
            raise NumericalError("synthetic numerical failure")

        monkeypatch.setattr(cli_mod, "phase_diagram_rows", boom)
        cfg_path = write_config(tmp_path, "pd.json", {
            "g_over_kappa": {"min": 0.0, "max": 0.4, "steps": 3},
            "n_eff": {"min": 0.0, "max": 1.0, "steps": 2},
        })
        assert main(["phase-diagram", "-c", cfg_path, "--out-dir", str(tmp_path)]) == 3

    def test_singular_estimate_exits_3_without_verdict(self, tmp_path):
        # a record with one silent quadrature has det V = 0: no real PT
        # root, so no verdict rather than nu_minus = 0 (entangled)
        samples = np.random.default_rng(4).standard_normal((5000, 4))
        samples[:, 3] = 0.0
        rec = TrajectoryRecord(samples=samples, dt=0.1, source=SourceTag.QUANTUM,
                               seed=4, meta={"kappa": 1.0})
        (path,) = [p for p in save_record(rec, tmp_path / "silent", "npy", "m")
                   if p.suffix == ".npy"]
        an_cfg = write_config(tmp_path, "an.json", {
            "pipeline": {"bandwidth": 1.0, "integration_time": 10.0,
                         "bootstrap_resamples": 50},
        })
        out = tmp_path / "out"
        assert main(["analyze", str(path), "-c", an_cfg, "--out-dir", str(out)]) == 3
        assert not (out / "witness_distribution.csv").exists()
        assert not (out / "witness_report.json").exists()

    def test_non_integer_threads_env_is_validation_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COLMODE_THREADS", "two")
        cfg_path = write_config(tmp_path, "pd.json", {
            "g_over_kappa": {"min": 0.0, "max": 0.4, "steps": 3},
            "n_eff": {"min": 0.0, "max": 1.0, "steps": 2},
        })
        assert main(["phase-diagram", "-c", cfg_path, "--out-dir", str(tmp_path)]) == 2
        assert "error: COLMODE_THREADS" in capsys.readouterr().err

    def test_out_dir_naming_a_file_is_validation_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        cfg_path = write_config(tmp_path, "pd.json", {
            "g_over_kappa": {"min": 0.0, "max": 0.4, "steps": 3},
            "n_eff": {"min": 0.0, "max": 1.0, "steps": 2},
        })
        assert main(["phase-diagram", "-c", cfg_path, "--out-dir", str(taken)]) == 2
        assert "error: cannot use output directory" in capsys.readouterr().err
        assert taken.read_text() == "not a directory"

    def test_non_finite_covariance_is_validation_error(self, tmp_path, capsys):
        # (2 n_eff + 1) overflows: the grid's covariances hold inf and NaN
        cfg_path = write_config(tmp_path, "pd.json", {
            "g_over_kappa": {"min": 0.0, "max": 0.4, "steps": 3},
            "n_eff": {"min": 0.0, "max": 1e308, "steps": 2},
        })
        out = tmp_path / "out"
        assert main(["phase-diagram", "-c", cfg_path, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: covariance matrix has non-finite entries"]
        assert not (out / "phase_diagram.csv").exists()

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, float("nan"), float("inf")])
    def test_bad_kappa_is_validation_error(self, tmp_path, capsys, kappa):
        cfg_path = write_config(tmp_path, "pd.json", {
            "kappa": kappa,
            "g_over_kappa": {"min": 0.0, "max": 0.4, "steps": 3},
            "n_eff": {"min": 0.0, "max": 1.0, "steps": 2},
        })
        out = tmp_path / "out"
        assert main(["phase-diagram", "-c", cfg_path, "--out-dir", str(out)]) == 2
        assert "error: kappa" in capsys.readouterr().err
        assert not (out / "phase_diagram.csv").exists()

    @pytest.mark.parametrize("command, config, field", [
        ("simulate", {}, "params"),
        ("simulate", {"params": small_simulate_config()["params"]}, "trajectory"),
        ("simulate", dict(small_simulate_config(), ensemble="many"), "ensemble"),
        ("converge", {}, "params"),
        ("converge", {"params": small_simulate_config()["params"], "cells": [{"T": 5.0}]}, "B"),
        ("analyze", {}, "pipeline"),
        ("thresholds", {}, "B"),
        ("thresholds", {"B": 1.0, "C_eff": 1.0, "f_col": "fast", "T_amb": 300.0}, "f_col"),
        ("phase-diagram", {}, "g_over_kappa"),
        ("phase-diagram", {"g_over_kappa": {"min": 0.0, "max": 0.4, "steps": "x"},
                           "n_eff": {"min": 0.0, "max": 1.0, "steps": 2}}, "steps"),
        *[("thresholds", {"B": 1.0, "C_eff": 1e-12, "f_col": 1e6, "T_amb": 300.0,
                          "R_eff": 50.0, "ringdown_time": t}, "ringdown_time")
          for t in (0.0, -15e-6, float("nan"), float("inf"))],
        ("simulate", small_simulate_config(fmt="xml"), "format"),
        ("simulate", small_simulate_config(null_trio="false"), "enabled"),
        *[("simulate", small_simulate_config(ensemble=n), "ensemble") for n in (0, -3)],
    ])
    def test_missing_or_malformed_field_is_validation_error(
        self, tmp_path, capsys, command, config, field
    ):
        cfg_path = write_config(tmp_path, "cfg.json", config)
        records = [str(tmp_path / "none.npy")] if command == "analyze" else []
        argv = [command, *records, "-c", cfg_path, "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"'{field}'" in err[0] or f"error: {field} " in err[0]

    @pytest.mark.parametrize("damage", [
        "missing_record", "corrupt_record", "missing_sidecar", "malformed_sidecar",
        "sidecar_not_object", "no_dt", "no_source", "no_seed", "bad_source",
        "csv_bad_value", "csv_bad_source",
    ])
    def test_bad_record_file_is_validation_error(self, tmp_path, capsys, damage):
        rec = TrajectoryRecord(samples=np.random.default_rng(1).standard_normal((2000, 4)),
                               dt=0.1, source=SourceTag.QUANTUM, seed=1, meta={"kappa": 1.0})
        if damage.startswith("csv_"):
            (path,) = save_record(rec, tmp_path / "rec", "csv", "m")
            text = path.read_text()
            path.write_text({
                "csv_bad_value": text + "0.1,1,2,3,abc\n",
                "csv_bad_source": text.replace("source=QUANTUM", "source=BOGUS"),
            }[damage])
        else:
            path, side = save_record(rec, tmp_path / "rec", "npy", "m")
            info = json.loads(side.read_text())
            if damage == "missing_record":
                path.unlink()
            elif damage == "corrupt_record":
                path.write_bytes(b"not an npy file")
            elif damage == "missing_sidecar":
                side.unlink()
            elif damage == "malformed_sidecar":
                side.write_text("{not json")
            elif damage == "sidecar_not_object":
                side.write_text("[1, 2]")
            elif damage == "bad_source":
                side.write_text(json.dumps(dict(info, source="MARTIAN")))
            else:
                del info[damage[3:]]
                side.write_text(json.dumps(info))
        an_cfg = write_config(tmp_path, "an.json", {
            "pipeline": {"bandwidth": 1.0, "integration_time": 10.0, "bootstrap_resamples": 10},
        })
        out = tmp_path / "out"
        assert main(["analyze", str(path), "-c", an_cfg, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        if damage.startswith("csv_"):
            assert err[0].startswith("error: cannot load record")
        assert not (out / "witness_report.json").exists()

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COLMODE_OUT_DIR", str(tmp_path / "envout"))
        cfg_path = write_config(tmp_path, "pd.json", {
            "g_over_kappa": {"min": 0.0, "max": 0.4, "steps": 3},
            "n_eff": {"min": 0.0, "max": 1.0, "steps": 2},
        })
        assert main(["phase-diagram", "-c", cfg_path]) == 0
        assert (tmp_path / "envout" / "phase_diagram.csv").exists()


def _small_phase_config():
    return {
        "kappa": 1.0,
        "g_over_kappa": {"min": 0.0, "max": 0.4, "steps": 5},
        "n_eff": {"min": 0.0, "max": 1.0, "steps": 4},
    }


#: (command, dotted path of the edited field, value outside the number
#: policy: a bool, a string or a fraction where a count belongs, or a record
#: dt that is not positive).  analyze edits the record's sidecar, whose
#: meta may carry the pipeline's own bookkeeping from an earlier pass.
NUMBER_HOLES = [
    ("simulate", "ensemble", 2.7),
    ("simulate", "ensemble", True),
    ("simulate", "trajectory.dt", True),
    ("simulate", "params.G", True),
    ("simulate", "trajectory.n_steps", "2000"),
    ("simulate", "trajectory.n_steps", 2000.7),
    ("simulate", "trajectory.master_seed", 1.9),
    ("simulate", "null_trio.correlation", "0.5"),
    ("simulate", "null_trio.gain", "0.2"),
    ("thresholds", "f_col", "1e9"),
    ("thresholds", "B", True),
    ("phase-diagram", "kappa", True),
    ("phase-diagram", "g_over_kappa.steps", 4.9),
    ("phase-diagram", "n_eff.min", "0"),
    ("analyze", "dt", 0),
    ("analyze", "dt", -0.01),
    ("analyze", "dt", "0.01"),
    ("analyze", "dt", True),
    ("analyze", "meta.bandlimit_cal", "x"),
    ("analyze", "meta.bandlimit_cal", 0.0),
    ("analyze", "meta.bandlimit", "abc"),
    ("analyze", "meta.bandlimit", [1.0, 0.0]),
    ("analyze", "meta.demod", "q"),
]


class TestNumberPolicy:
    def _assert_refused(self, capsys, argv, out, field):
        assert main([*argv, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert f"{field} must be" in err[0], err[0]
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command, path, value", NUMBER_HOLES)
    def test_non_number_exits_2_naming_the_field(self, tmp_path, capsys, command, path, value):
        *parents, field = path.split(".")
        if command == "analyze":
            rec = TrajectoryRecord(samples=np.random.default_rng(2).standard_normal((2000, 4)),
                                   dt=0.1, source=SourceTag.QUANTUM, seed=2, meta={"kappa": 1.0})
            npy, side = save_record(rec, tmp_path / "rec", "npy", "m")
            doc = json.loads(side.read_text())
            cfg = json.loads((CONFIGS / "analyze.json").read_text())
            argv = ["analyze", str(npy)]
        else:
            doc = cfg = {
                "simulate": lambda: small_simulate_config(ensemble=2, null_trio=True),
                "thresholds": lambda: json.loads(
                    (CONFIGS / "thresholds_room_temperature.json").read_text()),
                "phase-diagram": _small_phase_config,
            }[command]()
            argv = [command]
        section = doc
        for key in parents:
            section = section[key]
        section[field] = value
        if command == "analyze":
            side.write_text(json.dumps(doc))
        argv += ["-c", write_config(tmp_path, "cfg.json", cfg)]
        self._assert_refused(capsys, argv, tmp_path / "out", field)

    @pytest.mark.parametrize("samples", [
        np.random.default_rng(5).standard_normal((2000, 4)) * (1 + 1j),  # imaginary part dropped
        np.tile(np.array(["1", "2", "3", "4"]), (2000, 1)),  # text parsed as numbers
        np.random.default_rng(5).integers(0, 2, (2000, 4)).astype(bool),  # read as 0/1
    ], ids=["complex", "text", "bool"])
    def test_non_real_samples_exit_2(self, tmp_path, capsys, samples):
        rec = TrajectoryRecord(samples=np.zeros((2000, 4)), dt=0.1, source=SourceTag.QUANTUM,
                               seed=5, meta={"kappa": 1.0})
        npy, _ = save_record(rec, tmp_path / "rec", "npy", "m")
        np.save(npy, samples, allow_pickle=False)
        argv = ["analyze", str(npy), "-c", str(CONFIGS / "analyze.json")]
        self._assert_refused(capsys, argv, tmp_path / "out", "samples")

    def test_integer_samples_load(self, tmp_path):
        samples = np.random.default_rng(6).integers(-5, 6, (2000, 4))
        rec = TrajectoryRecord(samples=samples, dt=0.1, source=SourceTag.QUANTUM,
                               seed=6, meta={"kappa": 1.0})
        npy, _ = save_record(rec, tmp_path / "rec", "npy", "m")
        np.save(npy, samples, allow_pickle=False)
        assert np.array_equal(load_record(npy).samples, samples.astype(float))
        out = tmp_path / "out"
        assert main(["analyze", str(npy), "-c", str(CONFIGS / "analyze.json"),
                     "--out-dir", str(out)]) == 0

    def test_csv_record_with_zero_dt_exits_2(self, tmp_path, capsys):
        rec = TrajectoryRecord(samples=np.random.default_rng(3).standard_normal((2000, 4)),
                               dt=0.1, source=SourceTag.QUANTUM, seed=3, meta={"kappa": 1.0})
        (path,) = save_record(rec, tmp_path / "rec", "csv", "m")
        path.write_text(path.read_text().replace("dt=0.1", "dt=0", 1))
        argv = ["analyze", str(path), "-c", str(CONFIGS / "analyze.json")]
        self._assert_refused(capsys, argv, tmp_path / "out", "dt")

    def test_json_outputs_are_strict(self, tmp_path):
        # without bootstrap replicates the standard errors are NaN, which
        # strict JSON cannot hold: they are written as null
        cfg = small_simulate_config(ensemble=1, null_trio=True)
        cfg["trajectory"]["n_steps"] = 4000
        records = tmp_path / "records"
        assert main(["simulate", "-c", write_config(tmp_path, "sim.json", cfg),
                     "--out-dir", str(records)]) == 0
        an = json.loads((CONFIGS / "analyze.json").read_text())
        an["pipeline"]["bootstrap_resamples"] = 0
        out = tmp_path / "out"
        assert main(["analyze", str(records / "null_c.npy"), str(records / "quantum_0000.npy"),
                     "-c", write_config(tmp_path, "an.json", an), "--out-dir", str(out)]) == 0

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        written = sorted(out.glob("*.json")) + sorted(records.glob("*.json"))
        docs = {p.name: json.loads(p.read_text(), parse_constant=refuse) for p in written}
        for group in docs["witness_report.json"]["groups"].values():
            assert group["stderr_nu"] is None and group["stderr_duan"] is None


class TestThresholdSources:
    @pytest.mark.parametrize("extra, pair", [
        ({"kappa": 5e4}, ("kappa", "ringdown_time")),
        ({"omega_col": 6.28e9}, ("omega_col", "f_col")),
    ])
    def test_two_sources_for_one_rate_exit_2(self, tmp_path, capsys, extra, pair):
        cfg = json.loads((CONFIGS / "thresholds_room_temperature.json").read_text())
        out = tmp_path / "out"
        argv = ["thresholds", "-c", write_config(tmp_path, "thr.json", dict(cfg, **extra)),
                "--out-dir", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: give '{}' or '{}', not both".format(*pair)]
        assert not any(out.iterdir())

    def test_kappa_given_directly_is_labelled_given(self, tmp_path):
        cfg = json.loads((CONFIGS / "thresholds_room_temperature.json").read_text())
        del cfg["ringdown_time"]
        cfg["kappa"] = 5e4
        out = tmp_path / "out"
        assert main(["thresholds", "-c", write_config(tmp_path, "thr.json", cfg),
                     "--out-dir", str(out)]) == 0
        report = json.loads((out / "thresholds.json").read_text())
        assert report["kappa"] == {"value": 5e4, "formula": "given"}


@pytest.mark.parametrize("command, config, outputs", [
    ("phase-diagram", "phase_diagram.json", {"phase_diagram.csv": 2 + 50 * 50}),
    ("converge", "converge.json", {"converge.csv": 2 + 6, "crossing.csv": 2 + 2}),
])
def test_shipped_config_runs(tmp_path, command, config, outputs):
    out = tmp_path / "out"
    assert main([command, "-c", str(CONFIGS / config), "--out-dir", str(out)]) == 0
    for name, n_lines in outputs.items():
        assert len((out / name).read_text().splitlines()) == n_lines


def _run_python(args, env):
    """A fresh interpreter that imports colmode from this source tree."""
    src = str(Path(colmode.__file__).resolve().parents[1])
    env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)


def test_manifest_records_blas_and_its_thread_variables(tmp_path):
    """The environment names the BLAS build and the thread variables the
    process started with, read in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "MKL_NUM_THREADS"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="2")
    out = tmp_path / "out"
    _run_python(["-m", "colmode.cli", "thresholds", "-c",
              str(CONFIGS / "thresholds_room_temperature.json"), "--out-dir", str(out)], env)
    environment = json.loads(next(out.glob("manifest_*.json")).read_text())["environment"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert environment["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert environment["blas_threads_env"] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None,
    }


def test_cli_imports_no_scipy_signal_integrate_or_stats():
    """Every command pays for colmode.cli's imports at start-up; scipy.linalg
    is the only part of scipy the runtime needs."""
    probe = (
        "import sys, colmode.cli; "
        "print(sorted(m for m in ('scipy.signal', 'scipy.integrate', 'scipy.stats') "
        "if m in sys.modules))"
    )
    assert _run_python(["-c", probe], os.environ).stdout.strip() == "[]"
