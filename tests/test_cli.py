import ctypes
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
from colmode._fields import real
from colmode.cli import (
    _axis_values,
    _field,
    _pmap,
    load_record,
    main,
    phase_diagram_columns,
    record_sidecar,
    save_record,
    sha256_file,
)
from colmode.entanglement import (
    _checked_witnesses,
    _require_positive_definite,
    analytic_nu_minus,
    make_report,
    witness_report_from_covariance,
)
from colmode.errors import ValidationError
from colmode.gaussian_core import (
    ModelParams,
    Preset,
    build_diffusion,
    build_drift,
    closed_form_covariance,
    closed_form_dynamics,
    is_stable,
    solve_steady_lyapunov,
    steady_state_covariance,
)
from colmode.pipeline import vacuum_transfer
from colmode.trajectory import SourceTag, TrajectoryConfig, TrajectoryRecord, sample_exact_ou

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


def phase_rows(config: dict) -> list[dict]:
    """phase_diagram_columns' cells read back as rows: floats, bools, and
    None for an empty cell (repr round-trips every float exactly)."""
    columns = phase_diagram_columns(config)
    parse = {"entangled_ppt": {"True": True, "False": False}.__getitem__, "boundary_flag": str}
    rows = []
    for cells in zip(*columns.values()):
        row = {}
        for name, text in zip(columns, cells):
            row[name] = parse.get(name, float)(text) if text else None
        rows.append(row)
    return rows


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
        rows = phase_rows(cfg)
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
        rows = phase_rows(cfg)
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

    def test_row_within_the_hurwitz_margin_is_unstable(self, tmp_path):
        """A TMS row whose 2G comes within the solver's stability margin of
        kappa from below fails the Hurwitz test solve_steady_lyapunov applies:
        it is UNSTABLE with empty witness cells, and the grid is written."""
        kappa = 1.0
        cfg = _grid("TMS_HAMILTONIAN", kappa, (0.3, 0.49999999999, 3), (0.0, 1.0, 2))
        out = tmp_path / "out"
        assert main(["phase-diagram", "-c", write_config(tmp_path, "pd.json", cfg),
                     "--out-dir", str(out)]) == 0
        rows = phase_rows(cfg)
        assert [r["boundary_flag"] for r in rows] == ["STABLE"] * 4 + ["UNSTABLE"] * 2
        for r in rows:
            p = ModelParams(G=r["g_over_kappa"] * kappa, kappa_a=kappa, kappa_b=kappa,
                            n_a=r["n_eff"], n_b=r["n_eff"])
            A = build_drift(p)
            assert 2.0 * p.G < kappa
            assert (r["boundary_flag"] == "STABLE") == is_stable(A)
            if r["boundary_flag"] == "UNSTABLE":
                assert r["nu_minus"] is None and r["entangled_ppt"] is None
                continue
            rep = witness_report_from_covariance(solve_steady_lyapunov(A, build_diffusion(p)))
            assert (r["nu_minus"], r["duan_sum"]) == (rep.nu_minus, rep.duan_sum)

    def test_rows_are_canonically_sorted(self):
        import random
        cfg = {
            "g_over_kappa": {"min": 0.0, "max": 0.5, "steps": 7},
            "n_eff": {"min": 0.0, "max": 2.0, "steps": 6},
        }
        rows = phase_rows(cfg)
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


# ---------------------------------------------------------------------------
# Row-wise oracle for phase-diagram: one dict per cell, sorted as dicts, one
# _fmt call per CSV field.  The columnar command must write its bytes.

def _oracle_fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def oracle_phase_csv(config: dict, manifest_name: str) -> str:
    preset = _field(config, "preset", Preset, Preset.CLOSED_FORM)
    kappa = _field(config, "kappa", real, 1.0, above=0.0)
    g_values = _field(config, "g_over_kappa", _axis_values)
    n_values = _field(config, "n_eff", _axis_values)
    if preset is Preset.TMS_HAMILTONIAN:
        D = np.stack([
            build_diffusion(ModelParams(G=0.0, kappa_a=kappa, kappa_b=kappa, n_a=n, n_b=n))
            for n in n_values
        ])
    rows = []
    for g in g_values:
        G = g * kappa
        unstable = 2.0 * G >= kappa
        if not unstable:
            if preset is Preset.CLOSED_FORM:
                with np.errstate(over="ignore", invalid="ignore"):
                    V = np.stack([closed_form_covariance(G, kappa, n) for n in n_values])
            else:
                params = ModelParams(G=G, kappa_a=kappa, kappa_b=kappa, n_a=0.0, n_b=0.0)
                V = solve_steady_lyapunov(build_drift(params), D)
            nu, duan = _checked_witnesses(_require_positive_definite(V, stacked=True))
        for k, n in enumerate(n_values):
            row = {"g_over_kappa": float(g), "n_eff": float(n)}
            if unstable:
                row.update(
                    nu_minus=None, duan_sum=None, entangled_ppt=None,
                    analytic_nu_minus=None, boundary_flag="UNSTABLE",
                )
            else:
                rep = make_report(nu[k], duan[k])
                row.update(
                    nu_minus=rep.nu_minus,
                    duan_sum=rep.duan_sum,
                    entangled_ppt=rep.entangled_ppt,
                    analytic_nu_minus=analytic_nu_minus(G, kappa, n),
                    boundary_flag="STABLE",
                )
            rows.append(row)
    rows.sort(key=lambda r: (r["g_over_kappa"], r["n_eff"]))
    columns = [
        "g_over_kappa", "n_eff", "nu_minus", "duan_sum",
        "entangled_ppt", "analytic_nu_minus", "boundary_flag",
    ]
    lines = [f"# manifest={manifest_name}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_oracle_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _grid(preset, kappa, g, n):
    return {"preset": preset, "kappa": kappa,
            "g_over_kappa": dict(zip(("min", "max", "steps"), g)),
            "n_eff": dict(zip(("min", "max", "steps"), n))}


ORACLE_GRIDS = {
    "closed_form_ascending": _grid("CLOSED_FORM", 1.0, (0.0, 0.55, 23), (0.0, 3.0, 17)),
    "closed_form_descending": _grid("CLOSED_FORM", 0.7, (0.6, 0.0, 13), (2.0, 0.0, 11)),
    "tms_ascending": _grid("TMS_HAMILTONIAN", 1.37, (0.0, 0.55, 21), (0.0, 3.5, 19)),
    "tms_descending": _grid("TMS_HAMILTONIAN", 1.3, (0.7, 0.0, 9), (3.0, 0.0, 7)),
    "closed_form_all_unstable": _grid("CLOSED_FORM", 1.0, (0.5, 0.9, 5), (0.0, 1.0, 4)),
    "tms_all_unstable": _grid("TMS_HAMILTONIAN", 2.0, (0.9, 0.5, 5), (1.0, 0.0, 4)),
    "closed_form_one_g": _grid("CLOSED_FORM", 1.0, (0.2, 0.2, 3), (0.0, 1.0, 4)),
    "tms_one_n": _grid("TMS_HAMILTONIAN", 2.0, (0.0, 0.4, 5), (0.7, 0.7, 3)),
    # 0.0 and -0.0 tie in the sort but print apart
    "closed_form_signed_zero_g": _grid("CLOSED_FORM", 1.0, (0.0, -0.0, 3), (0.0, 1.0, 3)),
    "tms_signed_zero_n": _grid("TMS_HAMILTONIAN", 1.0, (0.1, -0.0, 3), (1.0, -0.0, 3)),
    "shipped": json.loads((CONFIGS / "phase_diagram.json").read_text()),
}


@pytest.mark.parametrize("grid", ORACLE_GRIDS)
def test_phase_diagram_csv_matches_row_wise_oracle(tmp_path, grid):
    config = ORACLE_GRIDS[grid]
    out = tmp_path / "out"
    assert main(["phase-diagram", "-c", write_config(tmp_path, "pd.json", config),
                 "--out-dir", str(out)]) == 0
    text = (out / "phase_diagram.csv").read_text()
    manifest_name = text.splitlines()[0].removeprefix("# manifest=")
    assert (out / manifest_name).is_file()
    assert text == oracle_phase_csv(config, manifest_name)


ORACLE_FAILURES = {
    # (2 n_eff + 1) overflows: the grid's covariances hold inf and NaN
    "closed_form_overflow": _grid("CLOSED_FORM", 1.0, (0.0, 0.4, 3), (0.0, 1e308, 2)),
    "closed_form_negative_n": _grid("CLOSED_FORM", 1.0, (0.0, 0.4, 3), (-1.0, 1.0, 3)),
    "closed_form_negative_g": _grid("CLOSED_FORM", 1.0, (0.3, -0.1, 5), (0.0, 1.0, 3)),
    "tms_negative_n": _grid("TMS_HAMILTONIAN", 1.0, (0.6, 0.9, 3), (-1.0, 1.0, 3)),
    "tms_negative_g": _grid("TMS_HAMILTONIAN", 1.0, (-0.1, 0.3, 5), (0.0, 1.0, 3)),
}


@pytest.mark.parametrize("grid", ORACLE_FAILURES)
def test_phase_diagram_refuses_what_the_oracle_refuses(tmp_path, capsys, grid):
    config = ORACLE_FAILURES[grid]
    with pytest.raises(ValidationError) as refused:
        oracle_phase_csv(config, "m")
    out = tmp_path / "out"
    assert main(["phase-diagram", "-c", write_config(tmp_path, "pd.json", config),
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {refused.value}"]
    assert not any(out.iterdir())


def test_phase_axis_beyond_the_float_range_exits_2(tmp_path, capsys):
    # every g is UNSTABLE, so no n_eff is ever validated by a solve; the
    # linspace steps of this axis are inf and NaN, which no row may carry
    config = _grid("CLOSED_FORM", 1.0, (0.5, 0.9, 3), (-1e308, 1e308, 5))
    out = tmp_path / "out"
    assert main(["phase-diagram", "-c", write_config(tmp_path, "pd.json", config),
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: field 'n_eff': steps from -1e+308 to 1e+308 leave the float range"]
    assert not any(out.iterdir())


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

    def test_each_null_record_is_written_before_the_next_is_drawn(self, tmp_path, monkeypatch):
        import colmode.cli as cli_mod

        out = tmp_path / "out"
        on_disk = []

        def after(tag, generate):
            def wrapped(*args, **kwargs):
                on_disk.append((tag, (out / f"{tag}.npy").is_file()))
                return generate(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(cli_mod, "gen_classical_paramp",
                            after("null_a", cli_mod.gen_classical_paramp))
        monkeypatch.setattr(cli_mod, "gen_optimized_mixture",
                            after("null_b", cli_mod.gen_optimized_mixture))
        cfg = small_simulate_config(ensemble=1, null_trio=True)
        cfg["trajectory"]["n_steps"] = 2000
        assert main(["simulate", "-c", write_config(tmp_path, "sim.json", cfg),
                     "--out-dir", str(out)]) == 0
        assert on_disk == [("null_a", True), ("null_b", True)]

    @pytest.mark.parametrize("edit, message", [
        ({"correlation": 1.5}, "null_trio.correlation must lie in [0, 1]"),
        ({"correlation": -0.2}, "null_trio.correlation must be >= 0, got -0.2"),
        ({"gain": -0.1}, "null_trio.gain must be >= 0, got -0.1"),
    ], ids=["correlation-high", "correlation-negative", "gain"])
    def test_bad_null_trio_field_names_its_path(self, tmp_path, capsys, edit, message):
        """The trio is checked before any record is written; restarts and
        max_evals, which small_simulate_config still sends, are ignored."""
        cfg = small_simulate_config(ensemble=1, null_trio=True)
        cfg["null_trio"].update(edit)
        out = tmp_path / "out"
        assert main(["simulate", "-c", write_config(tmp_path, "sim.json", cfg),
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not any(out.iterdir())

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

    @pytest.mark.parametrize("command", ["analyze", "converge"])
    def test_mean_statistic_exits_2_before_any_output(self, tmp_path, capsys, command):
        """The deleted "mean" statistic certified a separable TMS state; a
        config that still asks for it is refused, never silently ignored."""
        if command == "analyze":
            rec = TrajectoryRecord(samples=np.random.default_rng(7).standard_normal((2000, 4)),
                                   dt=0.1, source=SourceTag.QUANTUM, seed=7, meta={"kappa": 1.0})
            npy, _ = save_record(rec, tmp_path / "rec", "npy", "m")
            cfg = json.loads((CONFIGS / "analyze.json").read_text())
            cfg["pipeline"]["segment_statistic"] = "mean"
            argv = ["analyze", str(npy)]
        else:
            cfg = dict(json.loads((CONFIGS / "converge.json").read_text()),
                       segment_statistic="mean")
            argv = ["converge"]
        out = tmp_path / "out"
        argv += ["-c", write_config(tmp_path, "cfg.json", cfg), "--out-dir", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: segment_statistic must be 'second_moment', got 'mean'"]
        assert not any(out.iterdir())

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
        an["pipeline"]["bootstrap_resamples"] = 10
        assert main(["analyze", *paths, "-c", write_config(tmp_path, "an.json", an),
                     "--out-dir", str(out)]) == 0
        factors = json.loads(next(out.glob("manifest_*.json")).read_text())["factors"]
        assert factors["default_kappa"] == ["defaulted.npy"]
        for name, kappa in (("given.npy", 2.0), ("defaulted.npy", 1.0)):
            assert factors["per_file"][name] == {"calibration": vacuum_transfer(1.0, 0.1, kappa)}
        for data in ("witness_distribution.csv", "witness_report.json"):
            assert "factors" not in (out / data).read_text()

    def test_manifest_hashes_each_record_and_its_sidecar(self, tmp_path):
        # the sidecar's dt, kappa and bandlimit_cal change the verdict
        rec = TrajectoryRecord(samples=np.random.default_rng(9).standard_normal((2000, 4)),
                               dt=0.1, source=SourceTag.QUANTUM, seed=9, meta={"kappa": 1.0})
        files = save_record(rec, tmp_path / "rec", "npy", "m")
        files += save_record(rec, tmp_path / "other", "csv", "m")
        an = json.loads((CONFIGS / "analyze.json").read_text())
        an["pipeline"]["bootstrap_resamples"] = 10
        out = tmp_path / "out"
        assert main(["analyze", str(files[0]), str(files[2]), "-c",
                     write_config(tmp_path, "an.json", an), "--out-dir", str(out)]) == 0
        inputs = json.loads(next(out.glob("manifest_*.json")).read_text())["inputs"]
        assert inputs == {f.name: sha256_file(f) for f in files}

    def test_distinct_sidecars_sharing_a_name_exit_2_before_any_output(self, tmp_path, capsys):
        # a/rec.npy and b/rec.csv have distinct names but sidecars of one name
        rec = TrajectoryRecord(samples=np.random.default_rng(8).standard_normal((2000, 4)),
                               dt=0.1, source=SourceTag.QUANTUM, seed=8, meta={"kappa": 1.0})
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        npy, side_a = save_record(rec, tmp_path / "a" / "rec", "npy", "m")
        csv, side_b = save_record(rec, tmp_path / "b" / "rec", "csv", "m")
        out = tmp_path / "out"
        assert main(["analyze", str(npy), str(csv), "-c", str(CONFIGS / "analyze.json"),
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: sidecars {side_a} and {side_b} share the name rec.meta.json"]
        assert not any(out.iterdir())

    def test_records_sharing_a_name_exit_2_before_any_output(self, tmp_path, capsys):
        # the CSV rows and the manifest's inputs and factors are keyed by base name
        rng = np.random.default_rng(8)
        paths = []
        for folder in ("a", "b"):
            (tmp_path / folder).mkdir()
            rec = TrajectoryRecord(samples=rng.standard_normal((2000, 4)), dt=0.1,
                                   source=SourceTag.QUANTUM, seed=8, meta={"kappa": 1.0})
            paths.append(str(save_record(rec, tmp_path / folder / "rec", "npy", "m")[0]))
        out = tmp_path / "out"
        assert main(["analyze", *paths, "-c", str(CONFIGS / "analyze.json"),
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: records {paths[0]} and {paths[1]} share the name rec.npy"]
        assert not any(out.iterdir())

    def test_csv_records_also_load(self, tmp_path):
        cfg = small_simulate_config(ensemble=1, fmt="csv")
        cfg["trajectory"]["n_steps"] = 5000
        sim_cfg = write_config(tmp_path, "sim.json", cfg)
        out = tmp_path / "out"
        main(["simulate", "-c", sim_cfg, "--out-dir", str(out)])
        rec = load_record(out / "quantum_0000.csv")
        assert rec.n_steps == 5000
        assert rec.meta["kappa"] == 1.0

    def test_csv_round_trip_is_exact(self, tmp_path):
        A, D = closed_form_dynamics(0.0, 1.0, 0.0)
        cfg = TrajectoryConfig(dt=0.05, n_steps=50, master_seed=19)
        rec = sample_exact_ou(A, D, cfg, meta={"kappa": 1.0})
        path, side = save_record(rec, tmp_path / "rec", "csv", "m")
        assert side == record_sidecar(path) == tmp_path / "rec.meta.json"
        lines = path.read_text().splitlines()
        assert lines[:2] == ["# manifest=m", "t,X_a,P_a,X_b,P_b"]
        # one repr row per sample, time first
        assert lines[2:] == [",".join(map(repr, [k * rec.dt, *row]))
                             for k, row in enumerate(rec.samples.tolist())]
        back = load_record(path)
        assert np.array_equal(back.samples, rec.samples)
        assert (back.dt, back.seed, back.source) == (rec.dt, rec.seed, rec.source)
        assert back.meta == dict(rec.meta, manifest="m")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("table", ["v1", "empty"])
    def test_v1_csv_and_empty_table_exit_2(self, tmp_path, capsys, table):
        """A v1 CSV kept its metadata in a header and has no sidecar; a table
        without rows is refused by its shape, with no loadtxt warning."""
        if table == "v1":
            path = tmp_path / "rec.csv"
            path.write_text("# colmode-record v1\n# source=QUANTUM seed=1 dt=0.1 kappa=1.0\n"
                            "t,X_a,P_a,X_b,P_b\n0.0,0.1,0.2,0.3,0.4\n0.1,0.5,0.6,0.7,0.8\n")
            message = f"error: record sidecar not found: {tmp_path / 'rec.meta.json'}"
        else:
            rec = TrajectoryRecord(samples=np.ones((20, 4)), dt=0.1, source=SourceTag.QUANTUM,
                                   seed=1, meta={"kappa": 1.0})
            path, _ = save_record(rec, tmp_path / "rec", "csv", "m")
            path.write_text("# manifest=m\nt,X_a,P_a,X_b,P_b\n")
            message = f"error: cannot load record {path}: samples must have shape (n_steps, 4)"
        out = tmp_path / "out"
        assert main(["analyze", str(path), "-c", str(CONFIGS / "analyze.json"),
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [message]
        assert not any(out.iterdir())


@pytest.fixture(scope="module")
def npy_and_csv_runs(tmp_path_factory):
    """One simulate config with the null trio, written once as npy and once
    as csv, each analyzed on its own."""
    root = tmp_path_factory.mktemp("formats")
    an = json.loads((CONFIGS / "analyze.json").read_text())
    an["pipeline"]["bootstrap_resamples"] = 50
    an_cfg = write_config(root, "an.json", an)
    runs = {}
    for fmt in ("npy", "csv"):
        cfg = small_simulate_config(ensemble=2, null_trio=True, fmt=fmt)
        cfg["trajectory"]["n_steps"] = 4000
        records, out = root / f"{fmt}_records", root / f"{fmt}_out"
        assert main(["simulate", "-c", write_config(root, f"{fmt}.json", cfg),
                     "--out-dir", str(records)]) == 0
        paths = sorted(str(p) for p in records.glob(f"*.{fmt}"))
        assert len(paths) == 5
        assert main(["analyze", *paths, "-c", an_cfg, "--out-dir", str(out)]) == 0
        runs[fmt] = records, out
    return runs


class TestRecordFormats:
    """The format decides only how samples are stored: the metadata is one
    sidecar schema, and the analysis reads both alike."""

    def test_analyze_reads_csv_records_as_npy_records(self, npy_and_csv_runs):
        (_, npy_out), (_, csv_out) = npy_and_csv_runs["npy"], npy_and_csv_runs["csv"]
        npy_rows = (npy_out / "witness_distribution.csv").read_text().splitlines()
        csv_rows = (csv_out / "witness_distribution.csv").read_text().splitlines()
        assert len(npy_rows) == 2 + 5
        assert [r.replace(".csv,", ".npy,", 1) for r in csv_rows] == npy_rows
        assert (csv_out / "witness_report.json").read_text() == (
            npy_out / "witness_report.json").read_text()

    def test_sidecars_match_across_formats(self, npy_and_csv_runs):
        """null_c keeps its optimizer block and null A/B their generator
        fields in csv format; only the manifest name differs."""
        (npy_records, _), (csv_records, _) = npy_and_csv_runs["npy"], npy_and_csv_runs["csv"]
        names = sorted(p.name for p in npy_records.glob("*.meta.json"))
        assert names == sorted(p.name for p in csv_records.glob("*.meta.json"))
        for name in names:
            npy_doc = json.loads((npy_records / name).read_text())
            csv_doc = json.loads((csv_records / name).read_text())
            assert npy_doc["meta"].pop("manifest") != csv_doc["meta"].pop("manifest")
            assert csv_doc == npy_doc, name
        null_c = json.loads((csv_records / "null_c.meta.json").read_text())["meta"]
        assert null_c["optimizer"]["converged"] is True
        null_b = json.loads((csv_records / "null_b.meta.json").read_text())["meta"]
        assert {"null_kind", "target_power", "gain"} <= set(null_b)


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

    @pytest.mark.parametrize("kappa", [0.5, 2.0])
    def test_records_are_calibrated_at_the_model_linewidth(self, tmp_path, kappa):
        """converge and its crossing scan calibrate the band-limit filter at
        the model's kappa, not at 1.  CLOSED_FORM state at G = kappa / 4,
        n = 0 (true nu_minus 1/6); crossing at n = 1/2 (true g* = 1/6).
        Criterion, on each of seeds 0-4: both cells' nu_mean within 0.02 of
        1/6, and a crossing found within 0.02 of 1/6.  Calibrated at 1, the
        cells read 0.21-0.24 (kappa 0.5) and 0.10-0.11 (kappa 2) and no
        crossing falls inside the scanned g range."""
        seen = []
        for seed in range(5):
            cfg_path = write_config(tmp_path, f"conv{seed}.json", {
                "params": {"G": 0.25 * kappa, "kappa_a": kappa, "kappa_b": kappa,
                           "n_a": 0.0, "n_b": 0.0, "preset": "CLOSED_FORM"},
                "master_seed": seed,
                "cells": [{"T": 100.0, "B": 0.16}, {"T": 50.0, "B": 0.16}],
                "runs_per_cell": 8,
                "segments_per_record": 24,
                "crossing": {"n": 0.5, "g_values": [0.10, 0.14, 0.18, 0.22],
                             "cells": [{"T": 100.0, "B": 0.16}], "runs_per_cell": 8},
            })
            out = tmp_path / f"out{seed}"
            assert main(["converge", "-c", cfg_path, "--out-dir", str(out)]) == 0
            lines = (out / "converge.csv").read_text().splitlines()[2:]
            nus = [float(line.split(",")[3]) for line in lines]
            cross = (out / "crossing.csv").read_text().splitlines()[2].split(",")[2]
            seen.append((seed, nus, float(cross) if cross else None))
        for seed, nus, g_cross in seen:
            assert all(abs(nu - 1 / 6) <= 0.02 for nu in nus), seen
            assert g_cross is not None and abs(g_cross - 1 / 6) <= 0.02, seen

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

    @pytest.mark.parametrize("section, edit, message", [
        ("crossing", {"runs_per_cell": 1}, "crossing.runs_per_cell must be >= 2, got 1"),
        ("crossing", {"segments_per_record": 1},
         "crossing.segments_per_record must be >= 2, got 1"),
        ("crossing", {"g_values": [0.1, 0.6]},
         "crossing.g_values must be < 0.5 (2G < kappa), got 0.6"),
        ("crossing", {"g_values": [-0.1, 0.2]}, "crossing.g_values must be >= 0, got -0.1"),
        ("crossing", {"n": -0.5}, "crossing.n must be >= 0, got -0.5"),
        ("crossing", {"cells": [{"T": 8.0, "B": 1.0}, {"T": 0.5, "B": 1.0}]},
         "crossing.cells need T * B >= 1, got T 0.5 and B 1.0"),
        ("top", {"runs_per_cell": 1}, "runs_per_cell must be >= 2, got 1"),
        ("top", {"segments_per_record": 1}, "segments_per_record must be >= 2, got 1"),
        ("top", {"cells": [{"T": 50.0, "B": 0.04}, {"T": 10.0, "B": 0.04}]},
         "cells need T * B >= 1, got T 10.0 and B 0.04"),
    ], ids=["crossing-runs", "crossing-segments", "crossing-g-high", "crossing-g-negative",
            "crossing-n", "crossing-cells", "runs", "segments", "cells"])
    def test_bad_section_field_exits_2_before_any_output(
        self, tmp_path, capsys, section, edit, message
    ):
        """Every converge field, the crossing section's included, is checked
        before the first record is drawn, so no converge.csv is written; a
        crossing field's message names its path."""
        cfg = json.loads((CONFIGS / "converge.json").read_text())
        (cfg if section == "top" else cfg["crossing"]).update(edit)
        out = tmp_path / "out"
        assert main(["converge", "-c", write_config(tmp_path, "conv.json", cfg),
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not any(out.iterdir())


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

        monkeypatch.setattr(cli_mod, "phase_diagram_columns", boom)
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

    def test_bandwidth_whose_pole_rounds_to_one_is_validation_error(self, tmp_path, capsys):
        rec = TrajectoryRecord(samples=np.random.default_rng(5).standard_normal((2000, 4)),
                               dt=0.01, source=SourceTag.QUANTUM, seed=5, meta={"kappa": 1.0})
        (path,) = [p for p in save_record(rec, tmp_path / "rec", "npy", "m")
                   if p.suffix == ".npy"]
        an_cfg = write_config(tmp_path, "an.json", {
            "pipeline": {"bandwidth": 1e-17, "integration_time": 1e17},
        })
        out = tmp_path / "out"
        assert main(["analyze", str(path), "-c", an_cfg, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bandwidth 1e-17 ")
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
        if damage == "csv_bad_value":
            path, _ = save_record(rec, tmp_path / "rec", "csv", "m")
            path.write_text(path.read_text() + "0.1,1,2,3,abc\n")
        elif damage == "csv_bad_source":
            path, side = save_record(rec, tmp_path / "rec", "csv", "m")
            side.write_text(side.read_text().replace('"QUANTUM"', '"BOGUS"'))
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
        if damage == "missing_sidecar":
            assert err == [f"error: record sidecar not found: {side}"]
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
        path, side = save_record(rec, tmp_path / "rec", "csv", "m")
        side.write_text(json.dumps(dict(json.loads(side.read_text()), dt=0)))
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
        # the shipped config gives R_eff
        ({"Re_Y_eff": 0.001}, ("R_eff", "Re_Y_eff")),
        ({"S_V0": 1.6e-18, "Re_Y_eff": 0.001}, ("S_V0", "Re_Y_eff")),
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

    def test_s_v0_with_r_eff_is_valid(self, tmp_path):
        """GENERAL reads S_V0 and THERMAL reads R_eff, so both may be given."""
        cfg = json.loads((CONFIGS / "thresholds_room_temperature.json").read_text())
        cfg.update(S_V0=1.6e-18, C_corr=2.0)
        out = tmp_path / "out"
        assert main(["thresholds", "-c", write_config(tmp_path, "thr.json", cfg),
                     "--out-dir", str(out)]) == 0
        v_min = json.loads((out / "thresholds.json").read_text())["v_min"]
        assert v_min["GENERAL"]["value"] == pytest.approx((1.6e-18 * cfg["B"] / 2.0) ** 0.5)
        assert {"GENERAL", "THERMAL"} <= set(v_min)

    def test_kappa_given_directly_is_labelled_given(self, tmp_path):
        cfg = json.loads((CONFIGS / "thresholds_room_temperature.json").read_text())
        del cfg["ringdown_time"]
        cfg["kappa"] = 5e4
        out = tmp_path / "out"
        assert main(["thresholds", "-c", write_config(tmp_path, "thr.json", cfg),
                     "--out-dir", str(out)]) == 0
        report = json.loads((out / "thresholds.json").read_text())
        assert report["kappa"] == {"value": 5e4, "formula": "given"}

    def test_g_over_kappa_and_c_corr_are_two_sources_of_one_value(self, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "thresholds_room_temperature.json").read_text())
        cfg.update(f_col=1e6, G_over_kappa=0.3, C_corr="abc")
        out = tmp_path / "out"
        assert main(["thresholds", "-c", write_config(tmp_path, "thr.json", cfg),
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: give 'G_over_kappa' or 'C_corr', not both"]
        assert not any(out.iterdir())

    @pytest.mark.parametrize("edit, drop, message", [
        # the shipped config's n_eff clamps to 0
        ({"G_over_kappa": -0.1}, None, "G_over_kappa must be >= 0, got -0.1"),
        ({"G_over_kappa": 0.3}, None,
         "G_over_kappa gives no cooperativity at n_eff = 0; "
         "use the PT eigenvalue criterion directly"),
        ({"G_over_kappa": 0.3, "f_col": 1e6}, "ringdown_time",
         "G_over_kappa needs 'kappa' or 'ringdown_time'"),
        ({"G_over_kappa": 0.5, "f_col": 1e6}, None, "domain requires 2G < kappa"),
    ], ids=["negative", "n_eff_clamped", "no_kappa", "unstable"])
    def test_g_over_kappa_without_cooperativity_exits_2(
        self, tmp_path, capsys, edit, drop, message
    ):
        """A given G_over_kappa either gives a cooperativity or is refused
        with the reason; it is never dropped from the report in silence."""
        cfg = json.loads((CONFIGS / "thresholds_room_temperature.json").read_text())
        cfg.update(edit)
        cfg.pop(drop, None)
        out = tmp_path / "out"
        assert main(["thresholds", "-c", write_config(tmp_path, "thr.json", cfg),
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not any(out.iterdir())

    def test_either_source_gives_one_v_min(self, tmp_path):
        """C_corr given equal to the cooperativity G_over_kappa derives
        gives the same v_min; only the derived one is reported as such."""
        cfg = json.loads((CONFIGS / "thresholds_room_temperature.json").read_text())
        cfg["f_col"] = 1e6  # n_eff 250, not clamped

        def report(**source):
            out = tmp_path / next(iter(source))
            cfg_path = write_config(tmp_path, "thr.json", dict(cfg, **source))
            assert main(["thresholds", "-c", cfg_path, "--out-dir", str(out)]) == 0
            return json.loads((out / "thresholds.json").read_text())

        derived = report(G_over_kappa=0.3)
        given = report(C_corr=derived["cooperativity"]["value"])
        assert "cooperativity" not in given
        assert given["v_min"] == derived["v_min"]
        assert set(given["v_min"]) == {"GENERAL", "THERMAL", "CONSERVATIVE"}


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


GLIBC = platform.libc_ver()[0] == "glibc"
glibc_only = pytest.mark.skipif(not GLIBC, reason="the CLI fixes heap thresholds on glibc only")
FIXED_HEAP = {"M_MMAP_THRESHOLD": 4 << 20, "M_TRIM_THRESHOLD": 1 << 30}
USER_HEAP_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_",
                 "GLIBC_TUNABLES")


def _heap_env(**extra):
    """os.environ without the user's glibc heap settings, BLAS pinned."""
    env = {k: v for k, v in os.environ.items() if k not in USER_HEAP_ENV}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", **extra)
    return env


def test_manifest_records_blas_and_its_thread_variables(tmp_path):
    """The environment names the BLAS build and the thread variables the
    process started with, read in a fresh interpreter."""
    env = {k: v for k, v in _heap_env().items() if k != "MKL_NUM_THREADS"}
    env.update(OMP_NUM_THREADS="2")
    out = tmp_path / "out"
    _run_python(["-m", "colmode.cli", "thresholds", "-c",
              str(CONFIGS / "thresholds_room_temperature.json"), "--out-dir", str(out)], env)
    environment = json.loads(next(out.glob("manifest_*.json")).read_text())["environment"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert environment["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert environment["blas_threads_env"] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None,
    }
    assert environment["allocator"] == (FIXED_HEAP if GLIBC else "not_glibc")


def test_cli_imports_no_scipy_signal_integrate_or_stats():
    """Every command pays for colmode.cli's imports at start-up; scipy.linalg
    is the only part of scipy the runtime needs."""
    probe = (
        "import sys, colmode.cli; "
        "print(sorted(m for m in ('scipy.signal', 'scipy.integrate', 'scipy.stats') "
        "if m in sys.modules))"
    )
    assert _run_python(["-c", probe], os.environ).stdout.strip() == "[]"


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def _mmaps(nbytes: int) -> bool:
    """Whether glibc serves a fresh block of nbytes from its own mmap
    (mallinfo2's hblkhd grows) instead of from the heap."""
    libc = ctypes.CDLL(None)
    libc.mallinfo2.restype = _Mallinfo2
    before = libc.mallinfo2().hblkhd
    block = np.empty(nbytes, np.uint8)
    return libc.mallinfo2().hblkhd - before >= block.nbytes


has_mallinfo2 = pytest.mark.skipif(
    not (GLIBC and hasattr(ctypes.CDLL(None), "mallinfo2")), reason="needs glibc >= 2.33"
)

# just below the 4 MiB threshold, far above glibc's initial 128 KiB one
BELOW_THRESHOLD = (4 << 20) - (512 << 10)


class TestHeapThresholds:
    """The CLI and its workers keep freed record pages in the heap; the
    numbers never see it."""

    def converge(self, tmp_path, name, runs, env):
        """converge in a fresh interpreter; (minor page faults during
        cli.main, output directory).  Records are 24 segments of 4000 steps
        (96 000 x 4 samples, 750 pages)."""
        cfg = write_config(tmp_path, f"{name}.json", {
            "params": {"G": 0.25, "kappa_a": 1.0, "kappa_b": 1.0,
                       "n_a": 0.0, "n_b": 0.0, "preset": "CLOSED_FORM"},
            "master_seed": 7,
            "cells": [{"T": 200.0, "B": 0.08}, {"T": 400.0, "B": 0.08}],
            "runs_per_cell": runs,
            "segments_per_record": 24,
        })
        probe = (
            "import resource, sys\n"
            "from colmode import cli\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        out = tmp_path / name
        stdout = _run_python(["-c", probe, "converge", "-c", cfg, "--out-dir", str(out)], env).stdout
        return int(stdout.split()[-1]), out

    @glibc_only
    def test_converge_does_not_refault_each_record(self, tmp_path):
        """12 more records cost 16 000 more minor faults (about 1 400 per
        record) with glibc's dynamic thresholds, and 3 with fixed ones."""
        few, _ = self.converge(tmp_path, "few", 2, _heap_env())
        many, _ = self.converge(tmp_path, "many", 8, _heap_env())
        assert many - few < 1000, (few, many)

    def test_user_heap_setting_is_left_alone_and_never_reaches_the_numbers(self, tmp_path):
        _, fixed = self.converge(tmp_path, "fixed", 2, _heap_env())
        _, user = self.converge(tmp_path, "user", 2, _heap_env(MALLOC_MMAP_THRESHOLD_="131072"))
        assert output_digests(fixed) == output_digests(user)

        def allocator(out):
            manifest = json.loads(next(out.glob("manifest_*.json")).read_text())
            return manifest["environment"]["allocator"]

        assert allocator(fixed) == (FIXED_HEAP if GLIBC else "not_glibc")
        assert allocator(user) == "user_env"

    @pytest.mark.parametrize("name, value", [
        ("MALLOC_MMAP_THRESHOLD_", "131072"),
        ("MALLOC_TRIM_THRESHOLD_", "131072"),
        ("MALLOC_TOP_PAD_", "0"),
        ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072"),
    ])
    def test_every_user_heap_setting_is_respected(self, tmp_path, name, value):
        out = tmp_path / "out"
        _run_python(["-m", "colmode.cli", "thresholds", "-c",
                     str(CONFIGS / "thresholds_room_temperature.json"), "--out-dir", str(out)],
                    _heap_env(**{name: value}))
        manifest = json.loads(next(out.glob("manifest_*.json")).read_text())
        assert manifest["environment"]["allocator"] == "user_env"

    def test_not_glibc(self, monkeypatch):
        from colmode.cli import _fix_heap_thresholds

        monkeypatch.setattr(sys, "platform", "darwin")
        assert _fix_heap_thresholds() == "not_glibc"

    @has_mallinfo2
    def test_importing_colmode_leaves_the_allocator_alone(self):
        probe = f"import colmode, colmode.cli, test_cli; print(test_cli._mmaps({BELOW_THRESHOLD}))"
        tests = str(Path(__file__).resolve().parent)
        assert _run_python(["-c", probe], _heap_env(PYTHONPATH=tests)).stdout.strip() == "True"

    @has_mallinfo2
    def test_workers_fix_their_heap(self):
        assert _pmap(_mmaps, [BELOW_THRESHOLD] * 2, threads=2) == [False, False]
