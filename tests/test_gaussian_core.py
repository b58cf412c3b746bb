import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from colmode.errors import NegativeTimeError, UnstableDriftError, ValidationError
from colmode.gaussian_core import (
    OMEGA,
    ModelParams,
    Preset,
    build_diffusion,
    build_drift,
    _expm,
    check_physicality,
    closed_form_covariance,
    closed_form_dynamics,
    evolve_covariance,
    infer_diffusion,
    is_stable,
    solve_steady_lyapunov,
    steady_dynamics,
)
from colmode.entanglement import ppt_nu_minus

from colmode import trajectory as trajectory_mod
from colmode.pipeline import _cell_plan
from colmode.trajectory import TrajectoryConfig, sample_ensemble

from conftest import evolve_affine, evolve_by_vanloan, random_stable_params

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def shipped_steps() -> set[float]:
    """Every sampling step of the shipped configs: simulate's dt and the dt
    of each converge cell and crossing cell.  The bench samples at the
    same steps (certify at 0.01, converge on the same cells)."""
    steps = {json.loads((CONFIGS / "simulate.json").read_text())["trajectory"]["dt"]}
    converge = json.loads((CONFIGS / "converge.json").read_text())
    for cells, segments in ((converge["cells"], converge["segments_per_record"]),
                            (converge["crossing"]["cells"],
                             converge["crossing"]["segments_per_record"])):
        steps.update(_cell_plan(c["T"], c["B"], segments)[1].dt for c in cells)
    return steps


def ivp_covariance(V0, A, D, t, rtol=1e-12, atol=1e-13, method="DOP853"):
    """dV/dt = A V + V A^T + D integrated adaptively, as an independent oracle."""

    def rhs(_, v):
        V = v.reshape(4, 4)
        return (A @ V + V @ A.T + D).reshape(16)

    sol = scipy.integrate.solve_ivp(
        rhs, (0.0, t), np.asarray(V0, dtype=float).reshape(16),
        method=method, rtol=rtol, atol=atol,
    )
    return sol.y[:, -1].reshape(4, 4)


def sym_params(G=0.25, kappa=1.0, n=0.0, **kw):
    return ModelParams(G=G, kappa_a=kappa, kappa_b=kappa, n_a=n, n_b=n, **kw)


class TestSymplecticForm:
    def test_omega_squares_to_minus_identity(self):
        assert np.array_equal(OMEGA @ OMEGA, -np.eye(4))

    def test_omega_antisymmetric(self):
        assert np.array_equal(OMEGA.T, -OMEGA)


class TestBuildDrift:
    def test_decoupled_damping(self):
        A = build_drift(sym_params(G=0.0))
        assert np.allclose(A, -0.5 * np.eye(4), atol=0)

    def test_eigenvalues_split_by_coupling(self):
        # at resonance the eigenvalues are -kappa/2 +- G, each twice
        A = build_drift(sym_params(G=0.25))
        eigs = np.sort(np.linalg.eigvals(A).real)
        assert np.allclose(eigs, [-0.75, -0.75, -0.25, -0.25], atol=1e-12)

    def test_detuning_rotates_upper_block(self):
        p = ModelParams(G=0.0, kappa_a=1.0, kappa_b=1.0, n_a=0, n_b=0, delta_a=0.3)
        A = build_drift(p)
        assert np.allclose(A[:2, :2], [[-0.5, 0.3], [-0.3, -0.5]], atol=0)

    def test_matrix_layout(self):
        p = ModelParams(G=0.1, kappa_a=1.0, kappa_b=2.0, n_a=0, n_b=0,
                        delta_a=0.2, delta_b=-0.4)
        A = build_drift(p)
        expected = np.array(
            [
                [-0.5, 0.2, 0.0, -0.1],
                [-0.2, -0.5, -0.1, 0.0],
                [0.0, -0.1, -1.0, -0.4],
                [-0.1, 0.0, 0.4, -1.0],
            ]
        )
        assert np.allclose(A, expected, atol=0)

    def test_rejects_nonfinite_parameters(self):
        with pytest.raises(ValidationError):
            ModelParams(G=float("nan"), kappa_a=1, kappa_b=1, n_a=0, n_b=0)
        with pytest.raises(ValidationError):
            ModelParams(G=float("inf"), kappa_a=1, kappa_b=1, n_a=0, n_b=0)


class TestBuildDiffusion:
    def test_vacuum_noise(self):
        assert np.allclose(build_diffusion(sym_params()), 0.5 * np.eye(4), atol=0)

    def test_direct_substitution(self):
        p = ModelParams(G=0.0, kappa_a=2.0, kappa_b=1.0, n_a=1.0, n_b=0.0)
        assert np.allclose(build_diffusion(p), np.diag([3.0, 3.0, 0.5, 0.5]), atol=0)

    def test_symmetric_case_is_isotropic(self, rng):
        for _ in range(10):
            kappa = rng.uniform(0.3, 3.0)
            n = rng.uniform(0.0, 5.0)
            D = build_diffusion(sym_params(kappa=kappa, n=n))
            assert np.allclose(D, kappa * (2 * n + 1) / 2 * np.eye(4), rtol=1e-15)

    @given(n=st.floats(0.0, 50.0), kappa=st.floats(0.1, 10.0))
    def test_always_psd(self, n, kappa):
        D = build_diffusion(sym_params(kappa=kappa, n=n))
        assert np.min(np.linalg.eigvalsh(D)) >= 0.0


class TestIsStable:
    def test_below_boundary(self):
        assert is_stable(build_drift(sym_params(G=0.25)))

    def test_at_boundary(self):
        assert not is_stable(build_drift(sym_params(G=0.5)))

    def test_within_tolerance_of_boundary(self):
        assert not is_stable(build_drift(sym_params(G=0.49999999999)))


class TestSolveSteadyLyapunov:
    def test_vacuum_equilibrium(self):
        p = sym_params(G=0.0)
        V = solve_steady_lyapunov(build_drift(p), build_diffusion(p))
        assert np.allclose(V, 0.5 * np.eye(4), atol=1e-14)

    def test_thermal_equilibrium(self):
        p = sym_params(G=0.0, n=2.0)
        V = solve_steady_lyapunov(build_drift(p), build_diffusion(p))
        assert np.allclose(V, 2.5 * np.eye(4), atol=1e-13)

    def test_tms_oracle_nu_minus(self):
        # squeezed-pair variance kappa(2n+1)/(2(kappa+2G)) from diagonalizing
        # the coupled quadrature pairs; equals the smallest PT eigenvalue
        p = sym_params(G=0.25)
        V = solve_steady_lyapunov(build_drift(p), build_diffusion(p))
        assert ppt_nu_minus(V) == pytest.approx(1.0 / 3.0, abs=1e-12)
        # cross-check by long-time evolution from an arbitrary start
        V_t = evolve_covariance(np.eye(4), build_drift(p), build_diffusion(p), 100.0)
        assert np.max(np.abs(V_t - V)) < 1e-10

    def test_residual_bound_random(self, rng):
        for _ in range(25):
            p = random_stable_params(rng)
            A, D = build_drift(p), build_diffusion(p)
            V = solve_steady_lyapunov(A, D)
            assert np.max(np.abs(A @ V + V @ A.T + D)) < 1e-10
            assert np.max(np.abs(V - V.T)) == 0.0

    def test_unstable_drift_rejected(self):
        p = sym_params(G=0.5)
        D = build_diffusion(p)
        with pytest.raises(UnstableDriftError):
            solve_steady_lyapunov(build_drift(p), D)
        with pytest.raises(UnstableDriftError):
            solve_steady_lyapunov(build_drift(p), np.stack([D, 2.0 * D]))

    def test_stacked_diffusion_matches_per_matrix_solves(self, rng):
        # one drift, a (2, 3, 4, 4) stack of diffusion matrices: every entry
        # must be bit-identical to solving for its D alone
        for _ in range(10):
            p = random_stable_params(rng)
            A = build_drift(p)
            M = rng.standard_normal((2, 3, 4, 4))
            D = M @ M.swapaxes(-1, -2) + build_diffusion(p)
            V = solve_steady_lyapunov(A, D)
            assert V.shape == D.shape
            for idx in np.ndindex(2, 3):
                assert np.array_equal(V[idx], solve_steady_lyapunov(A, D[idx]))


class TestEvolveCovariance:
    def test_zero_time_identity(self):
        p = sym_params()
        V0 = np.diag([1.0, 2.0, 3.0, 4.0])
        out = evolve_covariance(V0, build_drift(p), build_diffusion(p), 0.0)
        assert np.array_equal(out, V0)

    def test_long_time_converges_to_steady_state(self):
        p = sym_params(G=0.2, n=0.5)
        A, D = build_drift(p), build_diffusion(p)
        Vinf = solve_steady_lyapunov(A, D)
        V_t = evolve_covariance(10.0 * np.eye(4), A, D, 1000.0)
        assert np.max(np.abs(V_t - Vinf)) < 1e-8

    def test_long_time_convergence_random_draws(self, rng):
        for _ in range(100):
            p = random_stable_params(rng)
            A, D = build_drift(p), build_diffusion(p)
            Vinf = solve_steady_lyapunov(A, D)
            V_t = evolve_covariance(5.0 * np.eye(4), A, D, 1000.0)
            assert np.max(np.abs(V_t - Vinf)) < 1e-8

    def test_steady_state_is_fixed_point(self):
        p = sym_params(G=0.3, n=1.0)
        A, D = build_drift(p), build_diffusion(p)
        Vinf = solve_steady_lyapunov(A, D)
        for t in (0.1, 1.0, 10.0):
            assert np.max(np.abs(evolve_covariance(Vinf, A, D, t) - Vinf)) < 1e-12

    def test_negative_time_rejected(self):
        p = sym_params()
        with pytest.raises(NegativeTimeError):
            evolve_covariance(np.eye(4), build_drift(p), build_diffusion(p), -1.0)

    def test_unstable_drift_matches_ivp(self):
        # beyond the instability threshold the covariance grows without a
        # steady state; check the propagator against an adaptive integrator
        p = sym_params(G=0.6)
        A, D = build_drift(p), build_diffusion(p)
        V0 = 0.5 * np.eye(4)
        got = evolve_covariance(V0, A, D, 2.0)
        want = ivp_covariance(V0, A, D, 2.0)
        assert np.max(np.abs(got - want)) < 1e-8
        assert np.max(np.abs(got)) > 1.0  # actually grew

    def test_unstable_long_horizon_is_fast_and_exact(self):
        # t = 50 under 2G > kappa: ~1e4-fold growth, reached by doubling
        # rather than by a step count proportional to t
        p = sym_params(G=0.6)
        A, D = build_drift(p), build_diffusion(p)
        V0 = 0.5 * np.eye(4)
        start = time.perf_counter()
        got = evolve_covariance(V0, A, D, 50.0)
        elapsed = time.perf_counter() - start
        want = ivp_covariance(V0, A, D, 50.0)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-10
        assert np.max(np.abs(got)) > 1e3
        assert elapsed < 0.5

    def test_vanloan_oracle_agrees_with_ivp(self, rng):
        # validate the test oracle itself once against an adaptive integrator
        p = random_stable_params(rng)
        A, D = build_drift(p), build_diffusion(p)
        V0 = np.eye(4)
        got = evolve_by_vanloan(V0, A, D, 3.0, steps=3)

        def rhs(_, v):
            V = v.reshape(4, 4)
            return (A @ V + V @ A.T + D).reshape(16)

        sol = scipy.integrate.solve_ivp(
            rhs, (0.0, 3.0), V0.reshape(16), rtol=1e-11, atol=1e-13
        )
        assert np.max(np.abs(got.reshape(16) - sol.y[:, -1])) < 1e-8

    def test_evolution_matches_affine_exponential(self, rng):
        p = random_stable_params(rng)
        A, D = build_drift(p), build_diffusion(p)
        V0 = 2.0 * np.eye(4)
        assert np.max(
            np.abs(evolve_covariance(V0, A, D, 5.0) - evolve_affine(V0, A, D, 5.0))
        ) < 1e-10


class TestExpm:
    def test_diagonal_matches_scipy_bit_for_bit(self):
        """A diagonal matrix's exponential is scipy.linalg.expm's, bit for
        bit, over random diagonals of sizes 1 to 8 and magnitudes to 30."""
        rng = np.random.default_rng(26)
        for _ in range(2000):
            size = int(rng.integers(1, 9))
            M = np.diag(rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.uniform(-8, 1.5))
            assert np.array_equal(_expm(M), scipy.linalg.expm(M))

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_shipped_closed_form_steps_match_scipy_bit_for_bit(self, kappa):
        """-kappa/2 I dt, the CLOSED_FORM drift over each shipped step."""
        assert shipped_steps() == {0.01, 0.0625, 0.1}
        for dt in sorted(shipped_steps()) + [0.05]:
            A = closed_form_dynamics(0.25 * kappa, kappa, 0.0)[0]
            assert np.array_equal(_expm(A * dt), scipy.linalg.expm(A * dt))

    @pytest.mark.parametrize("name", ["tms", "jordan", "van_loan"])
    def test_other_matrices_are_scipys(self, name):
        """TMS, defective and 8 x 8 Van Loan blocks go to scipy.linalg.expm."""
        p = sym_params(G=0.3, n=0.5, delta_a=0.2)
        A, D = build_drift(p), build_diffusion(p)
        M = {
            "tms": A * 0.05,
            "jordan": (-0.5 * np.eye(4) + np.eye(4, k=1)) * 0.05,
            "van_loan": np.block([[A, D], [np.zeros((4, 4)), -A.T]]) * 0.3,
        }[name]
        assert np.array_equal(_expm(M), scipy.linalg.expm(M))

    def test_closed_form_ensemble_is_the_scipy_ensemble(self, monkeypatch):
        """A CLOSED_FORM ensemble is byte for byte the one drawn with
        scipy.linalg.expm for its step."""
        A, D = closed_form_dynamics(0.25, 1.0, 0.5)
        cfg = TrajectoryConfig(dt=0.01, n_steps=5000, master_seed=26)
        ours = sample_ensemble(A, D, cfg, 3)
        monkeypatch.setattr(trajectory_mod, "_expm", scipy.linalg.expm)
        theirs = sample_ensemble(A, D, cfg, 3)
        for a, b in zip(ours, theirs):
            assert a.samples.tobytes() == b.samples.tobytes()


class TestClosedForm:
    def test_uncoupled_thermal(self):
        for n in (0.0, 0.7, 3.0):
            V = closed_form_covariance(0.0, 1.0, n)
            assert np.allclose(V, (2 * n + 1) / 2 * np.eye(4), atol=0)

    def test_reference_point(self):
        V = closed_form_covariance(0.25, 1.0, 0.0)
        assert V[0, 0] == pytest.approx(5.0 / 6.0, abs=1e-15)
        assert V[0, 2] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert V[1, 3] == pytest.approx(-2.0 / 3.0, abs=1e-15)
        assert ppt_nu_minus(V) == pytest.approx(1.0 / 6.0, abs=1e-12)

    @given(g=st.floats(0.0, 0.49), n=st.floats(0.0, 10.0))
    def test_determinant_invariant(self, g, n):
        V = closed_form_covariance(g, 1.0, n)
        assert np.linalg.det(V) == pytest.approx(((2 * n + 1) / 2) ** 4, rel=1e-10)

    @given(g=st.floats(0.0, 0.495), n=st.floats(0.0, 20.0))
    def test_always_physical(self, g, n):
        assert check_physicality(closed_form_covariance(g, 1.0, n))

    def test_boundary_rejected(self):
        with pytest.raises(UnstableDriftError):
            closed_form_covariance(0.5, 1.0, 0.0)

    def test_stack_is_bit_identical_to_scalar_calls(self, rng):
        G = rng.uniform(0.0, 0.35, 7)
        n = np.concatenate(([0.0], rng.uniform(0.0, 9.0, 10)))
        kappa = 0.73
        V = closed_form_covariance(G[:, None], kappa, n)
        assert V.shape == (7, 11, 4, 4)
        for i, j in np.ndindex(7, 11):
            assert np.array_equal(V[i, j], closed_form_covariance(G[i], kappa, n[j]))
        row = closed_form_covariance(G[3], kappa, n)
        assert np.array_equal(row, V[3])

    def test_stack_refuses_any_bad_entry(self):
        with pytest.raises(UnstableDriftError):
            closed_form_covariance(np.array([0.1, 0.5]), 1.0, 0.0)
        with pytest.raises(ValidationError, match="n >= 0"):
            closed_form_covariance(0.1, 1.0, np.array([0.0, -1.0]))
        with pytest.raises(ValidationError, match="non-finite"):
            closed_form_covariance(0.1, 1.0, np.array([0.0, np.nan]))

    def test_dynamics_realization(self):
        # damping into a correlated reservoir holds the closed form steady
        A, D = closed_form_dynamics(0.25, 1.0, 0.5)
        V = closed_form_covariance(0.25, 1.0, 0.5)
        assert np.max(np.abs(A @ V + V @ A.T + D)) < 1e-12
        assert np.min(np.linalg.eigvalsh(D)) > 0.0
        assert np.max(np.abs(solve_steady_lyapunov(A, D) - V)) < 1e-12


class TestCheckPhysicality:
    def test_vacuum(self):
        assert check_physicality(0.5 * np.eye(4))

    def test_sub_heisenberg_isotropic(self):
        assert not check_physicality(0.4 * np.eye(4))

    def test_all_steady_states_physical(self, rng):
        for _ in range(40):
            p = random_stable_params(rng)
            V = solve_steady_lyapunov(build_drift(p), build_diffusion(p))
            assert check_physicality(V)


class TestInferDiffusion:
    def test_vacuum_fixed_point(self):
        D, psd = infer_diffusion(-0.5 * np.eye(4), 0.5 * np.eye(4))
        assert np.allclose(D, 0.5 * np.eye(4), atol=0)
        assert psd

    def test_round_trip_recovers_diffusion(self, rng):
        for _ in range(10):
            p = random_stable_params(rng)
            A, D = build_drift(p), build_diffusion(p)
            V = solve_steady_lyapunov(A, D)
            D_rec, psd = infer_diffusion(A, V)
            assert np.max(np.abs(D_rec - D)) < 1e-10
            assert psd

    def test_coupled_drift_with_closed_form_target(self):
        # regression artifact: the noise input required for the coupled
        # drift to hold the closed-form state steady is PSD but heavily
        # cross-correlated, nothing like the local-bath diagonal diffusion
        p = sym_params(G=0.25)
        V = closed_form_covariance(0.25, 1.0, 0.0)
        D, psd = infer_diffusion(build_drift(p), V)
        assert psd
        expected = (
            np.array(
                [
                    [20, 0, 16, 10],
                    [0, 20, 10, -16],
                    [16, 10, 20, 0],
                    [10, -16, 0, 20],
                ]
            )
            / 24.0
        )
        assert np.allclose(D, expected, atol=1e-12)


class TestSymmetryAndSerialization:
    def test_label_swap_invariance(self, rng):
        # swapping the mode labels in symmetric parameters permutes V into itself
        P = np.zeros((4, 4))
        P[0, 2] = P[1, 3] = P[2, 0] = P[3, 1] = 1.0
        for _ in range(10):
            g = rng.uniform(0.0, 0.45)
            n = rng.uniform(0.0, 2.0)
            p = sym_params(G=g, n=n)
            V = solve_steady_lyapunov(build_drift(p), build_diffusion(p))
            assert np.max(np.abs(P @ V @ P.T - V)) < 1e-12

    def test_params_json_round_trip(self):
        from colmode.null_models import NullKind, NullModelSpec
        from colmode.pipeline import PipelineConfig
        from colmode.thresholds import NoiseInputSpec
        from colmode.trajectory import Scheme, TrajectoryConfig

        configs = [
            ModelParams(G=0.2, kappa_a=1.0, kappa_b=1.5, n_a=0.3, n_b=0.1,
                        delta_a=0.05, delta_b=-0.02),
            TrajectoryConfig(dt=0.05, n_steps=100, scheme=Scheme.EULER_MARUYAMA,
                             master_seed=7, burn_in=3),
            PipelineConfig(bandwidth=1.0, integration_time=10.0, demod_frequency=0.1,
                           bootstrap_resamples=20, segment_statistic="second_moment"),
            NullModelSpec(kind=NullKind.CLASSICAL_PARAMP, target_bandwidth=0.08,
                          target_power=0.5, correlation=0.3, gain=0.2, seed=5),
            NoiseInputSpec(B=1e5, C_eff=1e-12, omega_col=6e9, T_amb=300.0, R_eff=50.0),
        ]
        for c in configs:
            d = c.to_dict()
            assert type(c).from_dict(json.loads(json.dumps(d))) == c
            assert list(d) == [f.name for f in dataclasses.fields(c)]

    def test_closed_form_preset_requires_symmetry(self):
        with pytest.raises(ValidationError):
            ModelParams(G=0.1, kappa_a=1.0, kappa_b=2.0, n_a=0, n_b=0,
                        preset=Preset.CLOSED_FORM)

    def test_unknown_json_field_rejected(self):
        with pytest.raises(ValidationError):
            ModelParams.from_dict({"G": 0.1, "kappa_a": 1, "kappa_b": 1,
                                   "n_a": 0, "n_b": 0, "bogus": 1})

    def test_steady_dynamics_dispatch(self):
        p_tms = sym_params(G=0.2)
        A, D = steady_dynamics(p_tms)
        assert np.array_equal(A, build_drift(p_tms))
        p_cf = sym_params(G=0.2, preset=Preset.CLOSED_FORM)
        A_cf, D_cf = steady_dynamics(p_cf)
        assert np.allclose(A_cf, -0.5 * np.eye(4), atol=0)
        V = solve_steady_lyapunov(A_cf, D_cf)
        assert np.max(np.abs(V - closed_form_covariance(0.2, 1.0, 0.0))) < 1e-12
