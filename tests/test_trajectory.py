import math

import numpy as np
import pytest
import scipy.linalg
from scipy.signal import lfilter

from colmode.errors import StepTooLargeError, UnstableDriftError, ValidationError
from colmode.gaussian_core import (
    ModelParams,
    build_diffusion,
    build_drift,
    closed_form_dynamics,
    solve_steady_lyapunov,
)
from colmode.trajectory import (
    Scheme,
    SourceTag,
    TrajectoryConfig,
    TrajectoryRecord,
    derive_stream_seed,
    load_record_csv,
    sample_ensemble,
    sample_euler_maruyama,
    sample_exact_ou,
    save_record_csv,
    _linear_recurrence,
)

from conftest import random_stable_params


def vacuum_system():
    p = ModelParams(G=0.0, kappa_a=1.0, kappa_b=1.0, n_a=0.0, n_b=0.0)
    return build_drift(p), build_diffusion(p)


def second_moment(samples):
    return samples.T @ samples / samples.shape[0]


def covariance_bound(V, n_eff_samples, n_sigma=5.0):
    """Wishart-style entrywise sampling bound for a covariance estimate."""
    d = np.diag(V)
    return n_sigma * np.sqrt((np.outer(d, d) + V**2) / n_eff_samples)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_stream_seed(123, 45) == derive_stream_seed(123, 45)

    def test_neighbors_differ(self):
        assert derive_stream_seed(123, 45) != derive_stream_seed(123, 46)
        assert derive_stream_seed(123, 45) != derive_stream_seed(124, 45)

    def test_known_vector_stability(self):
        # frozen values: any change to the mixing function breaks replay
        # of previously recorded datasets
        assert derive_stream_seed(0, 0) == 12035550249420947055
        assert derive_stream_seed(123456789, 42) == 14236843709313967207
        assert derive_stream_seed(2**64 - 1, 1) == derive_stream_seed(-1, 1)

    def test_no_collisions_over_a_million_indices(self):
        seeds = {derive_stream_seed(987654321, i) for i in range(1_000_000)}
        assert len(seeds) == 1_000_000


class TestExactOu:
    def test_bit_identical_reruns(self):
        A, D = vacuum_system()
        cfg = TrajectoryConfig(dt=0.05, n_steps=4000, master_seed=7)
        r1 = sample_exact_ou(A, D, cfg)
        r2 = sample_exact_ou(A, D, cfg)
        assert np.array_equal(r1.samples, r2.samples)

    def test_stationary_covariance_vacuum(self):
        A, D = vacuum_system()
        cfg = TrajectoryConfig(dt=0.05, n_steps=1_000_000, master_seed=11)
        rec = sample_exact_ou(A, D, cfg)
        V = 0.5 * np.eye(4)
        emp = second_moment(rec.samples)
        # correlated samples: inflate the Wishart error by sum of rho^2
        r = math.exp(-0.5 * cfg.dt)
        inflation = (1 + r * r) / (1 - r * r)
        bound = covariance_bound(V, cfg.n_steps / inflation)
        assert np.all(np.abs(emp - V) <= bound)

    def test_lag_one_autocorrelation(self):
        A, D = vacuum_system()
        cfg = TrajectoryConfig(dt=0.1, n_steps=400_000, master_seed=3)
        x = sample_exact_ou(A, D, cfg).samples[:, 0]
        rho_hat = np.mean(x[1:] * x[:-1]) / np.mean(x * x)
        rho = math.exp(-0.5 * cfg.dt)
        se = math.sqrt((1 - rho**2) / len(x))
        assert abs(rho_hat - rho) < 3.0 * se

    def test_burn_in_is_a_pure_slice(self):
        A, D = vacuum_system()
        full = sample_exact_ou(A, D, TrajectoryConfig(dt=0.1, n_steps=500, master_seed=5))
        tail = sample_exact_ou(
            A, D, TrajectoryConfig(dt=0.1, n_steps=400, master_seed=5, burn_in=100)
        )
        assert np.array_equal(full.samples[100:], tail.samples)

    def test_unstable_drift_rejected(self):
        p = ModelParams(G=0.6, kappa_a=1.0, kappa_b=1.0, n_a=0.0, n_b=0.0)
        with pytest.raises(UnstableDriftError):
            sample_exact_ou(build_drift(p), build_diffusion(p),
                            TrajectoryConfig(dt=0.1, n_steps=10))

    def test_statistics_exact_at_coarse_steps(self):
        # one-step exactness: even dt >> 1/kappa keeps the right covariance
        A, D = closed_form_dynamics(0.25, 1.0, 0.0)
        V = solve_steady_lyapunov(A, D)
        cfg = TrajectoryConfig(dt=3.0, n_steps=200_000, master_seed=21)
        emp = second_moment(sample_exact_ou(A, D, cfg).samples)
        r = math.exp(-0.5 * cfg.dt)
        inflation = (1 + r * r) / (1 - r * r)
        bound = covariance_bound(V, cfg.n_steps / inflation)
        assert np.all(np.abs(emp - V) <= bound)

    def test_no_nonfinite_samples_across_draws(self, rng):
        for _ in range(20):
            p = random_stable_params(rng)
            cfg = TrajectoryConfig(
                dt=0.05, n_steps=2000, master_seed=int(rng.integers(2**63))
            )
            rec = sample_exact_ou(build_drift(p), build_diffusion(p), cfg)
            assert np.all(np.isfinite(rec.samples))


def loop_ar1(F, r0, w):
    """R_{k+1} = F R_k + w_k one step at a time: the kernel's oracle."""
    out = np.empty((w.shape[0] + 1, F.shape[0]))
    out[0] = r0
    for k in range(w.shape[0]):
        out[k + 1] = F @ out[k] + w[k]
    return out


def _tms_step(G=0.25, kappa_b=1.0, delta_a=0.0, delta_b=0.0, dt=0.05):
    p = ModelParams(G=G, kappa_a=1.0, kappa_b=kappa_b, n_a=0.0, n_b=0.0,
                    delta_a=delta_a, delta_b=delta_b)
    return scipy.linalg.expm(build_drift(p) * dt)


def _rotation_step(theta=0.1):
    c, s = math.cos(theta), math.sin(theta)
    R = np.array([[c, -s], [s, c]])
    return scipy.linalg.block_diag(R, R.T @ R.T)


AR1_DRIFTS = {
    "closed_form": lambda: scipy.linalg.expm(closed_form_dynamics(0.25, 1.0, 0.0)[0] * 0.05),
    "tms_resonant": lambda: _tms_step(),
    "tms_detuned": lambda: _tms_step(G=0.2, kappa_b=0.6, delta_a=0.3, delta_b=-0.2),
    # unstable: just past the 2G = kappa threshold, growing ~1e23-fold over 1e5 steps
    "tms_unstable": lambda: _tms_step(G=0.51),
    # defective: one eigenvalue with a single Jordan chain
    "jordan": lambda: scipy.linalg.expm((-0.5 * np.eye(4) + np.eye(4, k=1)) * 0.05),
    # orthogonal: unit-modulus complex eigenvalues, nothing decays
    "rotation": _rotation_step,
}


class TestAr1Kernel:
    # the recurrence runs in blocks of 16 steps: 1 + n rows put the series
    # one short of, on and one past block ends; 1e5 rows recurse four levels deep
    @pytest.mark.parametrize("drift", sorted(AR1_DRIFTS))
    @pytest.mark.parametrize("n", [0, 1, 14, 15, 30, 31, 82, 254, 255, 20000, 99999])
    def test_matches_plain_loop(self, drift, n):
        F = AR1_DRIFTS[drift]()
        rng = np.random.default_rng(n)
        r0 = rng.standard_normal(4)
        w = rng.standard_normal((n, 4))
        want = loop_ar1(F, r0, w)
        got = _linear_recurrence(F, np.vstack([r0, w]))
        assert got.shape == (n + 1, 4)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("width", [3, 4, 6])
    def test_diagonal_is_columnwise_filter(self, width):
        f = np.linspace(0.5, 0.99, width)
        rng = np.random.default_rng(width)
        r0 = rng.standard_normal(width)
        w = rng.standard_normal((3000, width))
        want = np.column_stack(
            [lfilter([1.0], [1.0, -f[j]], np.r_[r0[j], w[:, j]]) for j in range(width)]
        )
        got = _linear_recurrence(np.diag(f), np.vstack([r0, w]))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestEulerMaruyama:
    def test_noiseless_decay(self):
        A = -0.5 * np.eye(4)
        cfg = TrajectoryConfig(dt=0.05, n_steps=200, master_seed=1,
                               scheme=Scheme.EULER_MARUYAMA)
        r0 = np.array([1.0, -2.0, 0.5, 3.0])
        rec = sample_euler_maruyama(A, np.zeros((4, 4)), cfg, r0=r0)
        factor = 1.0 - 0.5 * cfg.dt
        expected = r0[None, :] * factor ** np.arange(200)[:, None]
        assert np.allclose(rec.samples, expected, rtol=1e-12)

    def test_step_guard(self):
        A, D = vacuum_system()
        with pytest.raises(StepTooLargeError):
            sample_euler_maruyama(A, D, TrajectoryConfig(dt=0.5, n_steps=10))

    def test_weak_convergence_to_exact_scheme(self):
        A, D = closed_form_dynamics(0.25, 1.0, 0.0)
        V = solve_steady_lyapunov(A, D)
        cfg = TrajectoryConfig(dt=0.01, n_steps=4096, master_seed=17)
        stack = []
        for k in range(128):
            c = TrajectoryConfig(dt=cfg.dt, n_steps=cfg.n_steps,
                                 master_seed=derive_stream_seed(17, k))
            stack.append(sample_euler_maruyama(A, D, c).samples)
        emp = second_moment(np.concatenate(stack))
        assert np.max(np.abs(emp - V)) / np.max(np.abs(V)) < 0.1

    def test_schemes_are_distinct_streams(self):
        A, D = vacuum_system()
        cfg_ou = TrajectoryConfig(dt=0.05, n_steps=100, master_seed=9)
        cfg_em = TrajectoryConfig(dt=0.05, n_steps=100, master_seed=9,
                                  scheme=Scheme.EULER_MARUYAMA)
        r_ou = sample_exact_ou(A, D, cfg_ou)
        r_em = sample_euler_maruyama(A, D, cfg_em)
        assert not np.allclose(r_ou.samples, r_em.samples)


class TestEnsembles:
    def test_members_match_manual_derivation(self):
        A, D = closed_form_dynamics(0.2, 1.0, 0.3)
        cfg = TrajectoryConfig(dt=0.05, n_steps=300, master_seed=31)
        members = sample_ensemble(A, D, cfg, 5)
        for k, rec in enumerate(members):
            solo_cfg = TrajectoryConfig(
                dt=0.05, n_steps=300, master_seed=derive_stream_seed(31, k)
            )
            solo = sample_exact_ou(A, D, solo_cfg)
            assert np.array_equal(rec.samples, solo.samples)
            assert rec.seed == solo_cfg.master_seed

    def test_ensemble_covariance_matches_lyapunov(self):
        A, D = closed_form_dynamics(0.25, 1.0, 0.5)
        V = solve_steady_lyapunov(A, D)
        cfg = TrajectoryConfig(dt=0.5, n_steps=2, master_seed=77)
        members = sample_ensemble(A, D, cfg, 4000)
        finals = np.array([m.samples[-1] for m in members])
        emp = second_moment(finals)
        bound = covariance_bound(V, 4000)
        assert np.all(np.abs(emp - V) <= bound)

    def test_time_average_equals_ensemble_average(self):
        # ergodicity: a long single record reproduces the steady covariance
        A, D = closed_form_dynamics(0.3, 1.0, 0.2)
        V = solve_steady_lyapunov(A, D)
        cfg = TrajectoryConfig(dt=0.2, n_steps=400_000, master_seed=13)
        emp = second_moment(sample_exact_ou(A, D, cfg).samples)
        r = math.exp(-0.5 * cfg.dt)
        inflation = (1 + r * r) / (1 - r * r)
        bound = covariance_bound(V, cfg.n_steps / inflation)
        assert np.all(np.abs(emp - V) <= bound)


class TestRecordValidation:
    def test_shape_and_finite_guards(self):
        with pytest.raises(ValidationError):
            TrajectoryRecord(samples=np.zeros((10, 3)), dt=0.1,
                             source=SourceTag.QUANTUM, seed=0)
        bad = np.zeros((10, 4))
        bad[3, 2] = np.inf
        with pytest.raises(ValidationError):
            TrajectoryRecord(samples=bad, dt=0.1, source=SourceTag.QUANTUM, seed=0)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TrajectoryConfig(dt=0.0, n_steps=10)
        with pytest.raises(ValidationError):
            TrajectoryConfig(dt=0.1, n_steps=0)
        with pytest.raises(ValidationError):
            TrajectoryConfig(dt=0.1, n_steps=10, burn_in=-1)

    def test_csv_round_trip_is_exact(self, tmp_path):
        A, D = vacuum_system()
        cfg = TrajectoryConfig(dt=0.05, n_steps=50, master_seed=19)
        rec = sample_exact_ou(A, D, cfg, meta={"kappa": 1.0})
        path = tmp_path / "rec.csv"
        save_record_csv(rec, path)
        back = load_record_csv(path)
        assert np.array_equal(back.samples, rec.samples)
        assert back.dt == rec.dt
        assert back.seed == rec.seed
        assert back.source == rec.source
        assert back.meta["kappa"] == 1.0
