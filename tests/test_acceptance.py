"""End-to-end acceptance suite.

Each test implements one release criterion at its stated tolerance and
prints a pass line (visible with pytest -s); run the whole module with

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from colmode.cli import main as cli_main, sha256_file
from colmode.entanglement import (
    LAMBDA_PT,
    analytic_boundary,
    analytic_nu_minus,
    duan_witness,
    ppt_nu_minus,
)
from colmode.gaussian_core import (
    OMEGA,
    ModelParams,
    build_diffusion,
    build_drift,
    check_physicality,
    closed_form_covariance,
    closed_form_dynamics,
    solve_steady_lyapunov,
)
from colmode.null_models import (
    NullKind,
    NullModelSpec,
    enforce_classicality,
    gen_classical_paramp,
    gen_optimized_mixture,
    gen_shared_noise,
    matched_bandwidth,
)
from colmode.pipeline import (
    PipelineConfig,
    analyze_record,
    convergence_sweep,
    crossing_scan,
    witness_from_estimate,
    witness_with_uncertainty,
)
from colmode.thresholds import (
    K_B,
    NoiseInputSpec,
    VminForm,
    collective_occupation,
    v_min,
)
from colmode.trajectory import (
    TrajectoryConfig,
    derive_stream_seed,
    sample_ensemble,
    sample_euler_maruyama,
)

from conftest import evolve_by_vanloan, random_stable_params


def _pass(name: str) -> None:
    print(f"\nACCEPTANCE {name}: PASS")


def test_01_analytic_boundary_roots():
    """Root of the closed-form eigenvalue at 1/2 equals n/(n+1) to 1e-12."""
    for n in (0.0, 0.5, 1.0, 5.0, 100.0):
        if n == 0.0:
            # the root sits at zero coupling: vacuum is exactly marginal
            assert analytic_nu_minus(0.0, 1.0, 0.0) == 0.5
            assert analytic_boundary(0.0) == 0.0
            continue
        root = scipy.optimize.brentq(
            lambda g2: analytic_nu_minus(g2 / 2.0, 1.0, n) - 0.5,
            1e-12,
            1.0 - 1e-12,
            xtol=1e-15,
            rtol=8.9e-16,
        )
        assert abs(root - analytic_boundary(n)) < 1e-12, n
    _pass("analytic boundary 2G/kappa = n/(n+1)")


def test_02_closed_form_three_routes():
    """nu = 1/6 via block formula, invariants, and the PT spectrum, to 1e-10."""
    V = closed_form_covariance(0.25, 1.0, 0.0)
    route_block = V[0, 0] - abs(V[0, 2])  # a - |c|
    route_invariants = ppt_nu_minus(V)
    route_spectrum = np.min(np.abs(np.linalg.eigvals(1j * OMEGA @ (LAMBDA_PT @ V @ LAMBDA_PT))))
    routes = [route_block, route_invariants, float(route_spectrum)]
    for r in routes:
        assert r == pytest.approx(1.0 / 6.0, abs=1e-10)
    assert max(routes) - min(routes) < 1e-10
    _pass("closed-form state: three routes agree at nu = 1/6")


def test_03_lyapunov_correctness_100_draws():
    """Residual < 1e-10 and long-time evolution agreement to 1e-8, 100 draws."""
    rng = np.random.default_rng(301)
    for _ in range(100):
        p = random_stable_params(rng)
        A, D = build_drift(p), build_diffusion(p)
        V = solve_steady_lyapunov(A, D)
        assert np.max(np.abs(A @ V + V @ A.T + D)) < 1e-10
        # independent stepped integrator over t = 1e3 / kappa
        V_t = evolve_by_vanloan(np.eye(4), A, D, 1000.0, steps=200)
        assert np.max(np.abs(V_t - V)) < 1e-8
    _pass("Lyapunov residual < 1e-10 and t = 1e3/kappa evolution to 1e-8")


def test_04_tms_preset_oracle_grid():
    """Coupled-drift steady state matches kappa(2n+1)/(2(kappa+2G)) to 1e-10.

    The closed-form expression differs from it by exactly (kappa-2G)/kappa;
    both facts are asserted across a 10x10 grid.
    """
    for g in np.linspace(0.02, 0.45, 10):
        for n in np.linspace(0.0, 2.0, 10):
            p = ModelParams(G=g, kappa_a=1.0, kappa_b=1.0, n_a=n, n_b=n)
            V = solve_steady_lyapunov(build_drift(p), build_diffusion(p))
            got = ppt_nu_minus(V)
            oracle = (2 * n + 1) / (2 * (1 + 2 * g))
            assert abs(got - oracle) < 1e-10, (g, n)
            predicted_factor = 1.0 - 2.0 * g
            assert abs(analytic_nu_minus(g, 1.0, n) - oracle * predicted_factor) < 1e-10
    _pass("coupled-drift oracle nu = (2n+1)k/(2(k+2G)) on a 10x10 grid")


def test_05_phase_diagram_contour(tmp_path):
    """50x50 sweep: empirical nu = 1/2 contour within one cell of n/(n+1)."""
    cfg = tmp_path / "pd.json"
    cfg.write_text(json.dumps({
        "preset": "CLOSED_FORM",
        "kappa": 1.0,
        "g_over_kappa": {"min": 0.0, "max": 0.5, "steps": 50},
        "n_eff": {"min": 0.0, "max": 3.0, "steps": 50},
    }))
    out = tmp_path / "out"
    assert cli_main(["phase-diagram", "-c", str(cfg), "--out-dir", str(out)]) == 0
    lines = (out / "phase_diagram.csv").read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
    assert len(rows) == 2500
    g_step = 0.5 / 49
    by_n: dict = {}
    for r in rows:
        by_n.setdefault(float(r["n_eff"]), []).append(r)
    assert len(by_n) == 50
    for n, line in by_n.items():
        stable = sorted(
            (r for r in line if r["boundary_flag"] == "STABLE"),
            key=lambda r: float(r["g_over_kappa"]),
        )
        entangled = [float(r["g_over_kappa"]) for r in stable if r["entangled_ppt"] == "True"]
        g_star = n / (2.0 * (n + 1.0))
        if entangled:
            # first entangled cell within one grid cell of the analytic boundary
            assert abs(entangled[0] - g_star) <= g_step + 1e-12, n
            # no entangled cell on the separable side beyond one cell
            assert entangled[0] >= g_star - g_step - 1e-12, n
        else:
            # boundary beyond the stable grid for this occupancy
            assert g_star > max(float(r["g_over_kappa"]) for r in stable) - g_step, n
    _pass("50x50 phase diagram contour on the analytic boundary")


def test_06_trajectory_statistics():
    """1e4 exact-OU members within 5 SE entrywise; EM at dt = 0.01 within 2%."""
    A, D = closed_form_dynamics(0.25, 1.0, 0.0)
    V = solve_steady_lyapunov(A, D)

    members = sample_ensemble(A, D, TrajectoryConfig(dt=0.5, n_steps=4, master_seed=601), 10_000)
    finals = np.array([m.samples[-1] for m in members])
    emp = finals.T @ finals / len(finals)
    d = np.diag(V)
    se = np.sqrt((np.outer(d, d) + V**2) / len(finals))
    assert np.all(np.abs(emp - V) <= 5.0 * se)

    acc = np.zeros((4, 4))
    n_members, n_steps = 5120, 4096
    for k in range(n_members):
        cfg = TrajectoryConfig(dt=0.01, n_steps=n_steps,
                               master_seed=derive_stream_seed(602, k))
        X = sample_euler_maruyama(A, D, cfg).samples
        acc += X.T @ X
    emp_em = acc / (n_members * n_steps)
    assert np.max(np.abs(emp_em - V)) / np.max(np.abs(V)) < 0.02
    _pass("exact-OU ensemble within 5 SE; Euler-Maruyama within 2%")


def _null_records(seed_base: int, n_specs: int):
    """Randomized specs for the three classical models, one record each."""
    rng = np.random.default_rng(seed_base)
    cfg = TrajectoryConfig(dt=0.05, n_steps=48_000, master_seed=0)
    for i in range(n_specs):
        power = rng.uniform(0.3, 2.0)
        bw = matched_bandwidth(1.0) * rng.uniform(0.5, 2.0)
        shared = NullModelSpec(
            kind=NullKind.SHARED_NOISE, target_bandwidth=bw, target_power=power,
            correlation=rng.uniform(0.0, 1.0), seed=derive_stream_seed(seed_base, 3 * i),
        )
        paramp = NullModelSpec(
            kind=NullKind.CLASSICAL_PARAMP, target_bandwidth=bw, target_power=power,
            gain=rng.uniform(0.05, 0.45), seed=derive_stream_seed(seed_base, 3 * i + 1),
        )
        mixture = NullModelSpec(
            kind=NullKind.OPTIMIZED_MIXTURE, target_bandwidth=bw, target_power=power,
            seed=derive_stream_seed(seed_base, 3 * i + 2),
        )
        yield gen_shared_noise(shared, cfg)
        yield gen_classical_paramp(paramp, cfg)
        yield gen_optimized_mixture(mixture, config=cfg)[0]


def test_07_null_model_falsification():
    """200 specs per classical model through the identical pipeline.

    The optimized-mixture states sit exactly on the classical boundary, so
    across 600 datasets the 3-sigma rule carries an irreducible ~1-count
    false-flag background even for a perfectly calibrated estimator (and
    the suite checks calibration: flags must stay at that background, and
    never show the bound-by-many-sigma violations real entanglement gives).
    Every per-model ensemble must respect both bounds outright, and the
    entangled quantum ensemble must violate both at > 3 sigma.
    """
    pconf = PipelineConfig(bandwidth=1.0, integration_time=20.0, bootstrap_resamples=300)
    flags = []
    worst_z = 0.0
    per_model: dict = {}
    for rec in _null_records(20260809, 200):
        rep = witness_from_estimate(analyze_record(rec, pconf))
        per_model.setdefault(rec.source.value, []).append(rep)
        z = max(
            (0.5 - rep.nu_minus) / max(rep.stderr_nu, 1e-12),
            (2.0 - rep.duan_sum) / max(rep.stderr_duan, 1e-12),
        )
        worst_z = max(worst_z, z)
        if rep.entangled_ppt or rep.entangled_duan:
            flags.append((rec.source.value, z))
    assert all(len(reps) == 200 for reps in per_model.values())
    # background-level grazing only: no systematic violation anywhere
    assert len(flags) <= 3, flags
    assert worst_z < 4.5, flags

    for source, reps in sorted(per_model.items()):
        nu = np.array([r.nu_minus for r in reps])
        duan = np.array([r.duan_sum for r in reps])
        nu_se = nu.std(ddof=1) / math.sqrt(len(nu))
        duan_se = duan.std(ddof=1) / math.sqrt(len(duan))
        assert nu.mean() >= 0.5 - 3.0 * nu_se, source
        assert duan.mean() >= 2.0 - 3.0 * duan_se, source

    A, D = closed_form_dynamics(0.25, 1.0, 0.0)
    cfg = TrajectoryConfig(dt=0.05, n_steps=24_000, master_seed=701)
    ests = [analyze_record(r, pconf)
            for r in sample_ensemble(A, D, cfg, 32, meta={"kappa": 1.0})]
    rep = witness_with_uncertainty(ests)
    assert rep.nu_minus < 0.5 - 3.0 * rep.stderr_nu
    assert rep.duan_sum < 2.0 - 3.0 * rep.stderr_duan
    _pass(
        "600 classical datasets: no violation beyond the 3-sigma grazing "
        "background; quantum ensemble violates both bounds > 3 sigma"
    )


def test_08_estimator_convergence():
    """log stderr vs log N_eff slope = -0.5 +- 0.1; threshold location
    independent of (T, B) within uncertainty.

    Bandwidths sit below the mode linewidth so the analysis bandwidth, not
    the intrinsic Lorentzian, limits the information per segment.
    """
    A, D = closed_form_dynamics(0.25, 1.0, 0.0)
    cells = [(50.0, 0.04), (100.0, 0.04), (100.0, 0.08),
             (200.0, 0.08), (400.0, 0.08), (400.0, 0.16)]
    out = convergence_sweep(A, D, cells, runs_per_cell=16,
                            segments_per_record=24, master_seed=801)
    assert -0.6 < out["slope_duan"] < -0.4, out["slope_duan"]

    # asymptotic mean consistent with the state-level witness
    best = max(out["rows"], key=lambda r: r["n_eff"])
    true_duan = duan_witness(closed_form_covariance(0.25, 1.0, 0.0))
    assert abs(best["duan_mean"] - true_duan) <= 2.0 * best["duan_stderr"]

    rows = crossing_scan(
        kappa=1.0, n=0.5, g_values=[0.10, 0.14, 0.18, 0.22],
        cells=[(8.0, 1.0), (16.0, 2.0), (32.0, 1.0)],
        runs_per_cell=12, segments_per_record=24, master_seed=802,
    )
    g_star = 0.5 * analytic_boundary(0.5)
    crossings = [r["g_cross"] for r in rows]
    sigmas = [r["sigma"] for r in rows]
    for g_cross, sigma in zip(crossings, sigmas):
        assert g_cross is not None
        assert abs(g_cross - g_star) <= 3.0 * sigma + 0.01
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            assert abs(crossings[i] - crossings[j]) <= 3.0 * (sigmas[i] + sigmas[j])
    _pass("stderr slope -0.5 +- 0.1; threshold location (T, B)-independent")


def test_09_room_temperature_worked_example():
    """Conservative minimum amplitude, collective occupation, damping rate."""
    kappa = 1.0 / 15e-6
    assert kappa == pytest.approx(6.7e4, rel=0.01)

    spec = NoiseInputSpec(B=0.4e6, C_eff=1e-12, omega_col=2 * math.pi * 1e9,
                          T_amb=300.0, R_eff=50.0)
    got = v_min(VminForm.CONSERVATIVE, spec, kappa=kappa)
    expected = math.sqrt(2 * K_B * 300.0 * 0.4e6 / (1e-12 * kappa))
    assert got == pytest.approx(expected, rel=1e-6)
    assert got == pytest.approx(2.2e-4, rel=0.05)
    ratio = 3e-4 / got
    assert 1.0 < ratio < 1.5

    n_col = collective_occupation(1e-4, 1e-12, 2 * math.pi * 1e9)
    assert n_col == pytest.approx(7.5e3, rel=0.05)
    _pass("worked example: V_min = 2.2e-4 V, N_col = 7.5e3, kappa = 6.7e4 /s")


def test_10_physicality_and_classicality_sweeps():
    """1000 quantum steady states physical; 1000 classical lifts PPT-safe."""
    rng = np.random.default_rng(1001)
    for _ in range(1000):
        p = random_stable_params(rng)
        V = solve_steady_lyapunov(build_drift(p), build_diffusion(p))
        assert check_physicality(V)
    for _ in range(1000):
        M = rng.standard_normal((4, 4))
        V = enforce_classicality(rng.uniform(0.05, 3.0) * M @ M.T)
        assert ppt_nu_minus(V) >= 0.5 - 1e-10
        assert check_physicality(V)
    _pass("1000 quantum states physical; 1000 classical lifts stay PPT")


def test_11_determinism_and_parallel_equivalence(tmp_path):
    """Identical configs reproduce identical bytes; parallel == sequential."""
    cfg = {
        "params": {"G": 0.25, "kappa_a": 1.0, "kappa_b": 1.0,
                   "n_a": 0.0, "n_b": 0.0, "preset": "CLOSED_FORM"},
        "trajectory": {"dt": 0.05, "n_steps": 20000, "scheme": "EXACT_OU",
                       "master_seed": 1101, "burn_in": 0},
        "ensemble": 6,
        "format": "npy",
        "null_trio": {"enabled": True, "restarts": 2, "max_evals": 300},
    }
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))

    def digests(out: Path) -> dict:
        return {
            p.name: sha256_file(p)
            for p in sorted(out.iterdir())
            if not p.name.startswith("manifest")
        }

    out_a, out_b, out_p = tmp_path / "a", tmp_path / "b", tmp_path / "p"
    assert cli_main(["simulate", "-c", str(cfg_path), "--out-dir", str(out_a)]) == 0
    assert cli_main(["simulate", "-c", str(cfg_path), "--out-dir", str(out_b)]) == 0
    assert cli_main(["simulate", "-c", str(cfg_path), "--out-dir", str(out_p),
                     "--threads", "3"]) == 0
    da, db, dp = digests(out_a), digests(out_b), digests(out_p)
    assert da and da == db
    assert da == dp

    # manifests record the same output digests
    manifest = json.loads(next(out_a.glob("manifest_*.json")).read_text())
    recorded = {e["path"]: e["sha256"] for e in manifest["outputs"]}
    assert recorded == da
    _pass("byte-identical reruns; parallel ensembles equal sequential")
