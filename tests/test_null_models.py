import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.optimize import minimize

from conftest import RECORD_STEPS, traced_peak_records

from colmode import null_models
from colmode.entanglement import _duan_sum, _nu_minus, duan_witness, ppt_nu_minus
from colmode.errors import NotPsdError, UnstableGainError, ValidationError
from colmode.gaussian_core import check_physicality, closed_form_covariance, solve_steady_lyapunov
from colmode.null_models import (
    NullKind,
    NullModelSpec,
    classical_paramp_covariance,
    enforce_classicality,
    gen_classical_paramp,
    gen_optimized_mixture,
    gen_shared_noise,
    matched_bandwidth,
    matched_null_specs,
    mixture_state,
)
from colmode.trajectory import (
    SourceTag, TrajectoryConfig, _Recurrence, _linear_recurrence, derive_stream_seed,
)


BW = matched_bandwidth(1.0)


def spec_a(**kw):
    base = dict(kind=NullKind.SHARED_NOISE, target_bandwidth=BW, target_power=0.8,
                correlation=0.7, seed=5)
    base.update(kw)
    return NullModelSpec(**base)


def second_moment(samples):
    return samples.T @ samples / samples.shape[0]


def oracle_streams(rates, variances, total, rng, dt):
    """The null streams' own stationary-OU draw, before they shared the
    quantum sampler's _draw_path: one block of normals, R_0 = sigma z[0]."""
    f = np.array([math.exp(-r * dt) for r in rates])
    sigma = np.sqrt(np.clip(np.asarray(variances, dtype=float), 0.0, None))
    z = rng.standard_normal((total, f.size))
    drive = sigma * np.sqrt(np.clip(1.0 - f * f, 0.0, None))
    return _linear_recurrence(_Recurrence(np.diag(f)), np.vstack([sigma * z[0], z[1:] * drive]))


class TestStreams:
    @pytest.mark.parametrize("rates, variances", [
        ([0.5] * 4, [0.5] * 4),  # vacuum streams at kappa = 1
        ([2 * math.pi * BW] * 6, [1.0] * 6),  # null model A's classical sources
        (np.linspace(0.1, 3.0, 4), np.linspace(0.2, 2.0, 4)),
        (np.linspace(0.1, 3.0, 6), np.linspace(0.2, 2.0, 6)),
    ])
    @pytest.mark.parametrize("total", [1, 2, 20_000])
    def test_match_oracle_bit_for_bit(self, rates, variances, total):
        want_rng = np.random.Generator(np.random.PCG64(17))
        got_rng = np.random.Generator(np.random.PCG64(17))
        want = oracle_streams(rates, variances, total, want_rng, 0.05)
        got = null_models._streams(rates, variances, total, got_rng, 0.05)
        assert got.shape == (total, len(rates))
        assert np.array_equal(got, want)
        # the draws after the streams (the vacuum streams) are unchanged too
        assert np.array_equal(got_rng.standard_normal(8), want_rng.standard_normal(8))


class TestEnforceClassicality:
    def test_coherent_state(self):
        assert np.array_equal(enforce_classicality(np.zeros((4, 4))), 0.5 * np.eye(4))

    def test_isotropic_classical_cloud(self):
        V = enforce_classicality(np.eye(4))
        assert np.array_equal(V, 1.5 * np.eye(4))
        assert duan_witness(V) == pytest.approx(6.0, abs=1e-14)

    @given(scale=st.floats(0.01, 5.0), seed=st.integers(0, 2**31))
    def test_outputs_are_physical_and_ppt(self, scale, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((4, 4))
        V = enforce_classicality(scale * M @ M.T)
        assert check_physicality(V)
        assert ppt_nu_minus(V) >= 0.5 - 1e-10
        assert np.min(np.diag(V)) >= 0.5

    def test_not_psd_rejected(self):
        with pytest.raises(NotPsdError):
            enforce_classicality(np.diag([1.0, -0.1, 1.0, 1.0]))


class TestSpecValidation:
    def test_round_trip(self):
        s = spec_a()
        assert NullModelSpec.from_dict(s.to_dict()) == s

    def test_bounds(self):
        with pytest.raises(ValidationError):
            spec_a(correlation=1.2)
        with pytest.raises(ValidationError):
            spec_a(target_power=0.0)
        with pytest.raises(ValidationError):
            spec_a(target_bandwidth=-1.0)
        with pytest.raises(ValidationError):
            NullModelSpec(kind=NullKind.CLASSICAL_PARAMP, target_bandwidth=BW,
                          target_power=1.0, gain=-0.5)


class TestSharedNoise:
    CFG = TrajectoryConfig(dt=0.05, n_steps=60_000, master_seed=0)

    def test_zero_correlation_independent_channels(self):
        rec = gen_shared_noise(spec_a(correlation=0.0), self.CFG)
        emp = second_moment(rec.samples)
        cross = emp[:2, 2:]
        assert np.max(np.abs(cross)) < 0.05  # ~5 sigma of sampling noise

    def test_full_correlation_identical_sources(self):
        rec = gen_shared_noise(spec_a(correlation=1.0), self.CFG)
        x_a, x_b = rec.samples[:, 0], rec.samples[:, 2]
        r = np.corrcoef(x_a, x_b)[0, 1]
        # classical parts identical; only the vacuum floors decorrelate
        expected = 0.8 / (0.8 + 0.5)
        assert abs(r - expected) < 0.04

    def test_power_set_by_spec(self):
        cfg = TrajectoryConfig(dt=0.05, n_steps=200_000, master_seed=0)
        rec = gen_shared_noise(spec_a(), cfg)
        var = np.var(rec.samples, axis=0)
        # per-channel sampling error at this length is ~3%; compare the mean
        assert np.mean(var) == pytest.approx(0.8 + 0.5, rel=0.04)

    def test_source_tag_and_wrong_kind(self):
        rec = gen_shared_noise(spec_a(), TrajectoryConfig(dt=0.1, n_steps=100))
        assert rec.source is SourceTag.NULL_A
        with pytest.raises(ValidationError):
            gen_shared_noise(spec_a(kind=NullKind.CLASSICAL_PARAMP), self.CFG)

    def test_deterministic(self):
        r1 = gen_shared_noise(spec_a(), TrajectoryConfig(dt=0.1, n_steps=500))
        r2 = gen_shared_noise(spec_a(), TrajectoryConfig(dt=0.1, n_steps=500))
        assert np.array_equal(r1.samples, r2.samples)

    @staticmethod
    def _fourth_array_mix(spec, config, kappa):
        """Null A's samples as they were mixed into a fourth array next to
        the six streams: the in-place mix's bit-for-bit reference."""
        rng = np.random.Generator(np.random.PCG64(spec.seed))
        total = config.burn_in + config.n_steps
        gamma = 2.0 * math.pi * spec.target_bandwidth
        cl = null_models._streams([gamma] * 6, [1.0] * 6, total, rng, config.dt)
        w_s, w_u = math.sqrt(spec.correlation), math.sqrt(1.0 - spec.correlation)
        amp = math.sqrt(spec.target_power)
        samples = np.empty((total, 4))
        for j, shared, local in ((0, 0, 1), (2, 0, 2), (1, 3, 4), (3, 3, 5)):
            out = np.multiply(cl[:, shared], w_s, out=samples[:, j])
            cl[:, local] *= w_u
            out += cl[:, local]
            out *= amp
        samples += null_models._streams([kappa / 2.0] * 4, [0.5] * 4, total, rng, config.dt)
        return samples[config.burn_in :]

    # lengths around one block, one mix chunk (4096 rows) and a one-row last chunk
    @pytest.mark.parametrize("n_steps, burn_in", [
        (1, 0), (2, 0), (16, 1), (17, 0), (4096, 0), (4097, 0), (4095, 2), (20_000, 500),
    ])
    def test_in_place_mix_equals_fourth_array_bit_for_bit(self, n_steps, burn_in):
        """The channels are mixed into the streams' own buffer, which keeps
        exactly the record's rows, in C order, after the mix."""
        cfg = TrajectoryConfig(dt=0.05, n_steps=n_steps, burn_in=burn_in)
        rec = gen_shared_noise(spec_a(), cfg, kappa=1.3)
        assert np.array_equal(rec.samples, self._fourth_array_mix(spec_a(), cfg, 1.3))
        assert rec.samples.flags.c_contiguous
        assert rec.samples.base.shape == (n_steps + burn_in, 4)


class TestClassicalParamp:
    CFG = TrajectoryConfig(dt=0.05, n_steps=60_000, master_seed=0)

    def spec(self, **kw):
        base = dict(kind=NullKind.CLASSICAL_PARAMP, target_bandwidth=BW,
                    target_power=1.0, gain=0.25, seed=8)
        base.update(kw)
        return NullModelSpec(**base)

    def test_unstable_gain_rejected(self):
        with pytest.raises(UnstableGainError):
            gen_classical_paramp(self.spec(gain=0.5), self.CFG)

    def test_phase_sensitive_cross_correlations(self):
        rec = gen_classical_paramp(self.spec(), self.CFG)
        emp = second_moment(rec.samples)
        # the coupled drift correlates X_a with P_b and P_a with X_b
        assert abs(emp[0, 3]) > 0.1
        assert abs(emp[1, 2]) > 0.1
        assert np.sign(emp[0, 3]) == np.sign(emp[1, 2])

    def test_state_covariance_helper(self):
        V = classical_paramp_covariance(self.spec())
        assert check_physicality(V)
        assert np.min(np.diag(V)) >= 0.5
        assert ppt_nu_minus(V) >= 0.5 - 1e-12
        assert V[0, 0] == pytest.approx(1.0 + 0.5, rel=1e-12)

    def test_record_matches_state(self):
        cfg = TrajectoryConfig(dt=0.05, n_steps=200_000, master_seed=0)
        rec = gen_classical_paramp(self.spec(), cfg)
        V = classical_paramp_covariance(self.spec())
        emp = second_moment(rec.samples)
        # entrywise 5-sigma bound, inflated by the slowest eigenmode
        # (rate kappa/2 - gain) autocorrelation sum
        r = math.exp(-(0.5 - self.spec().gain) * cfg.dt)
        inflation = (1 + r * r) / (1 - r * r)
        d = np.diag(V)
        bound = 5.0 * np.sqrt((np.outer(d, d) + V**2) * inflation / cfg.n_steps)
        assert np.all(np.abs(emp - V) <= bound)

    @pytest.mark.parametrize("gain", [0.05, 0.15, 0.25, 0.35, 0.45])
    def test_eigenbasis_streams_hold_the_lyapunov_state(self, gain):
        """The drift's eigenbasis is orthonormal and fixed, the four streams'
        rates are its eigenvalues, and U diag(variances) U^T is the classical
        steady state the Lyapunov solve gives, to 1e-12."""
        A, D_cl, n_cl = null_models._paramp_dynamics(self.spec(gain=gain), 1.0)
        U = null_models._PARAMP_MODES
        rates, variances = null_models._paramp_modes(gain, 1.0, n_cl)
        assert np.max(np.abs(U.T @ U - np.eye(4))) <= 1e-15
        assert np.max(np.abs(A @ U + U * rates)) <= 1e-15
        V = solve_steady_lyapunov(A, D_cl)
        assert np.max(np.abs(U @ np.diag(variances) @ U.T - V)) <= 1e-12 * np.max(np.abs(V))

    def test_record_is_the_mixed_mode_streams_plus_vacuum(self):
        """The record is the four stationary mode streams drawn from
        spec.seed and mixed by the eigenbasis, plus the vacuum streams of
        its own seed, burn-in dropped, bit for bit."""
        spec = self.spec()
        cfg = TrajectoryConfig(dt=0.05, n_steps=3000, burn_in=5)
        total = cfg.n_steps + cfg.burn_in
        _, _, n_cl = null_models._paramp_dynamics(spec, 1.0)
        modes = oracle_streams(*null_models._paramp_modes(spec.gain, 1.0, n_cl), total,
                               np.random.Generator(np.random.PCG64(spec.seed)), cfg.dt)
        vacuum = oracle_streams([0.5] * 4, [0.5] * 4, total, np.random.Generator(
            np.random.PCG64(derive_stream_seed(spec.seed, 1))), cfg.dt)
        want = (modes @ null_models._PARAMP_MODES.T + vacuum)[cfg.burn_in :]
        assert np.array_equal(gen_classical_paramp(spec, cfg).samples, want)

    def test_zero_power_limit(self):
        spec = self.spec(target_power=1e-9)
        rec = gen_classical_paramp(spec, TrajectoryConfig(dt=0.1, n_steps=20_000))
        assert np.allclose(np.var(rec.samples, axis=0), 0.5, rtol=0.1)


class TestOptimizedMixture:
    def spec(self, **kw):
        base = dict(kind=NullKind.OPTIMIZED_MIXTURE, target_bandwidth=BW,
                    target_power=0.6, seed=3)
        base.update(kw)
        return NullModelSpec(**base)

    def test_mixture_state_normalization(self):
        out = mixture_state(np.eye(2), np.eye(2), [1.0, 1.0], 0.6)
        V, M_Xs, M_Ps = out
        assert V[0, 0] == pytest.approx(0.6 + 0.5, rel=1e-12)
        assert V[1, 1] == pytest.approx(0.6 + 0.5, rel=1e-12)
        # diagonal (unshared) mixing: duan = 2 + 4 * per-quadrature power
        assert duan_witness(V) == pytest.approx(2.0 + 4 * 0.6, rel=1e-12)

    def test_degenerate_row_returns_none(self):
        assert mixture_state(np.zeros((2, 2)), np.zeros((2, 2)), [1.0, 1.0], 0.6) is None

    @given(
        theta=st.lists(st.floats(-4.0, 4.0), min_size=10, max_size=10),
        power=st.floats(0.01, 5.0),
    )
    def test_mixture_state_is_classical_by_construction(self, theta, power):
        # why mixture_state may skip enforce_classicality: every candidate
        # state already passes it, unchanged to the last bit
        theta = np.array(theta)
        out = mixture_state(theta[2:6], theta[6:10], np.exp(2.0 * theta[:2]), power)
        assume(out is not None)
        V = out[0]
        assert np.array_equal(enforce_classicality(V - 0.5 * np.eye(4)), V)
        assert _duan_sum(V) >= 2.0 - 1e-12
        assert _nu_minus(V) >= 0.5 - 1e-10

    def test_classicality_checked_once_per_search(self, monkeypatch):
        calls = []

        def counting(V_cl):
            calls.append(1)
            return enforce_classicality(V_cl)

        monkeypatch.setattr(null_models, "enforce_classicality", counting)
        gen_optimized_mixture(self.spec(), config=TrajectoryConfig(dt=0.1, n_steps=200))
        assert len(calls) == 1

    @pytest.mark.parametrize("power", [0.01, 0.3, 1.0, 5.0, 37.0])
    def test_state_sits_on_both_classical_bounds(self, power):
        rec, rep = gen_optimized_mixture(
            self.spec(target_power=power), config=TrajectoryConfig(dt=0.1, n_steps=4000),
        )
        assert abs(rep.nu_minus - 0.5) <= 1e-12
        assert abs(rep.duan_sum - 2.0) <= 1e-12
        assert not rep.entangled_ppt
        assert not rep.entangled_duan
        assert rec.source is SourceTag.NULL_C
        assert rec.meta["optimizer"]["achieved"] == rep.duan_sum

    @pytest.mark.parametrize("witness", [_duan_sum, _nu_minus])
    def test_search_never_beats_closed_form(self, witness):
        # oracle: a seeded Nelder-Mead search over source log-gains and the
        # two mixing matrices never gets below the closed-form state
        spec = self.spec()

        def objective(theta):
            source_vars = np.exp(2.0 * np.clip(theta[:2], -5.0, 5.0))
            out = mixture_state(theta[2:6], theta[6:10], source_vars, spec.target_power)
            return 1e6 + float(np.sum(theta**2)) if out is None else float(witness(out[0]))

        _, rep = gen_optimized_mixture(spec, config=TrajectoryConfig(dt=0.1, n_steps=200))
        closed = rep.duan_sum if witness is _duan_sum else rep.nu_minus
        rng = np.random.default_rng(20260809)
        for _ in range(8):
            res = minimize(objective, rng.standard_normal(10), method="Nelder-Mead",
                           options={"maxfev": 2000, "xatol": 1e-8, "fatol": 1e-12})
            assert res.fun >= closed - 1e-12

    def test_record_statistics_match_optimized_state(self):
        rec, rep = gen_optimized_mixture(
            self.spec(seed=5), config=TrajectoryConfig(dt=0.05, n_steps=60_000),
        )
        emp = second_moment(rec.samples)
        assert abs(duan_witness(0.5 * (emp + emp.T)) - rep.duan_sum) < 0.15

    def test_reproducible_trace(self):
        r1, rep1 = gen_optimized_mixture(
            self.spec(), config=TrajectoryConfig(dt=0.1, n_steps=1000),
        )
        r2, rep2 = gen_optimized_mixture(
            self.spec(), config=TrajectoryConfig(dt=0.1, n_steps=1000),
        )
        assert np.array_equal(r1.samples, r2.samples)
        assert rep1.duan_sum == rep2.duan_sum


class TestMatchedSpecs:
    def test_power_and_bandwidth_matching(self):
        V_q = closed_form_covariance(0.25, 1.0, 0.0)
        specs = matched_null_specs(V_q, kappa=1.0, seed=42)
        assert set(specs) == {NullKind.SHARED_NOISE, NullKind.CLASSICAL_PARAMP,
                              NullKind.OPTIMIZED_MIXTURE}
        power = V_q[0, 0] - 0.5
        for spec in specs.values():
            assert spec.target_power == pytest.approx(power, rel=1e-12)
            assert spec.target_bandwidth == pytest.approx(BW, rel=1e-12)

    def test_matched_records_have_matched_channel_power(self):
        V_q = closed_form_covariance(0.25, 1.0, 0.0)
        specs = matched_null_specs(V_q, kappa=1.0, seed=42)
        cfg = TrajectoryConfig(dt=0.05, n_steps=100_000, master_seed=0)
        recs = [
            gen_shared_noise(specs[NullKind.SHARED_NOISE], cfg),
            gen_classical_paramp(specs[NullKind.CLASSICAL_PARAMP], cfg),
            gen_optimized_mixture(specs[NullKind.OPTIMIZED_MIXTURE], config=cfg)[0],
        ]
        target = float(np.mean(np.diag(V_q)))
        for rec in recs:
            per_channel = np.var(rec.samples, axis=0)
            assert np.mean(per_channel) == pytest.approx(target, rel=0.05)

    def test_no_excess_power_rejected(self):
        with pytest.raises(ValidationError):
            matched_null_specs(0.5 * np.eye(4))


class TestWorkingSet:
    @pytest.mark.parametrize("generate, kind", [
        (gen_shared_noise, NullKind.SHARED_NOISE),
        (gen_classical_paramp, NullKind.CLASSICAL_PARAMP),
        (gen_optimized_mixture, NullKind.OPTIMIZED_MIXTURE),
    ])
    def test_generator_holds_at_most_two_and_a_half_records(self, generate, kind):
        """The classical streams are freed before the vacuum streams are
        drawn, and the vacuum is added in place: null A mixes its six streams
        into their own buffer and peaks at 2.18 records, B and C at 2.14,
        their streams' kept operators included (4.73, 3.23 and 3.73 when the
        streams were held and summed into a third array; 2.50 for null A when
        it mixed into a fourth)."""
        spec = matched_null_specs(closed_form_covariance(0.25, 1.0, 0.0), seed=3)[kind]
        cfg = TrajectoryConfig(dt=0.05, n_steps=RECORD_STEPS, master_seed=0)
        peak, out = traced_peak_records(generate, spec, cfg)
        record = out[0] if isinstance(out, tuple) else out
        assert record.n_steps == RECORD_STEPS
        assert peak <= 2.2
