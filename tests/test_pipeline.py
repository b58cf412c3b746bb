import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.signal import filtfilt

from colmode import pipeline as pipeline_mod
from colmode.entanglement import _duan_sum, _nu_minus, ppt_nu_minus
from colmode.errors import (
    BandwidthExceedsNyquistError,
    ComplexRootError,
    InsufficientEnsembleError,
    TooFewSegmentsError,
    ValidationError,
)
from colmode.gaussian_core import closed_form_covariance, closed_form_dynamics, symmetrize
from colmode.pipeline import (
    PipelineConfig,
    analyze_record,
    bandlimit,
    convergence_sweep,
    crossing_scan,
    demodulate,
    estimate_covariance,
    filter_pole_coefficient,
    vacuum_transfer,
    witness_from_estimate,
    witness_with_uncertainty,
)
from colmode.trajectory import (
    SourceTag,
    TrajectoryConfig,
    TrajectoryRecord,
    derive_stream_seed,
    sample_ensemble,
    sample_exact_ou,
)


def quantum_record(n_steps=40_000, seed=42, g=0.25, n=0.0, dt=0.05):
    A, D = closed_form_dynamics(g, 1.0, n)
    cfg = TrajectoryConfig(dt=dt, n_steps=n_steps, master_seed=seed)
    return sample_exact_ou(A, D, cfg, meta={"kappa": 1.0})


def white_record(n_steps=200_000, seed=3, dt=1.0):
    rng = np.random.default_rng(seed)
    return TrajectoryRecord(
        samples=rng.standard_normal((n_steps, 4)),
        dt=dt,
        source=SourceTag.QUANTUM,
        seed=seed,
        meta={"kappa": 1.0},
    )


def oracle_estimate(record, config):
    """(V_hat, stderr, stderr_nu, stderr_duan) by the estimator's code before
    one segment reduction served both: second moments by einsum, and the
    bootstrap as one gathered mean."""
    m = int(round(config.integration_time / record.dt))
    n_seg = record.n_steps // m
    X = record.samples[: n_seg * m].reshape(n_seg, m, 4)
    cal = float(record.meta.get("bandlimit_cal", 1.0))
    stats = np.einsum("smi,smj->sij", X, X) / m
    V_hat = symmetrize(stats.mean(axis=0)) / cal
    rng = np.random.Generator(
        np.random.PCG64(derive_stream_seed(record.seed, pipeline_mod._BOOT_STREAM))
    )
    idx = rng.integers(0, n_seg, size=(config.bootstrap_resamples, n_seg))
    boot = stats[idx].mean(axis=1) / cal
    stderr = boot.std(axis=0, ddof=1)
    boot = symmetrize(boot)
    return V_hat, stderr, float(_nu_minus(boot).std(ddof=1)), float(_duan_sum(boot).std(ddof=1))


def gathered_estimate(record, config):
    """(V_hat, stderr, stderr_nu, stderr_duan) by the estimator's code before
    its bootstrap summed second moments draw by draw: one mean over the
    whole (resamples, n_seg, 4, 4) gather stats[idx]."""
    m = int(round(config.integration_time / record.dt))
    n_seg = record.n_steps // m
    X = record.samples[: n_seg * m].T.reshape(4, n_seg, m).transpose(1, 2, 0)
    cal = float(record.meta.get("bandlimit_cal", 1.0))
    stats = X.swapaxes(1, 2) @ X / m
    V_hat = symmetrize(stats.mean(axis=-3)) / cal
    rng = np.random.Generator(
        np.random.PCG64(derive_stream_seed(record.seed, pipeline_mod._BOOT_STREAM))
    )
    idx = rng.integers(0, n_seg, size=(config.bootstrap_resamples, n_seg))
    boot = stats[idx].mean(axis=-3) / cal
    stderr = boot.std(axis=0, ddof=1)
    boot = symmetrize(boot)
    return V_hat, stderr, float(_nu_minus(boot).std(ddof=1)), float(_duan_sum(boot).std(ddof=1))


def filter_power_ratio(a: float, passes: int = 2, n_grid: int = 200_001) -> float:
    """Quadrature oracle: variance transfer of the filter on white noise."""
    w = np.linspace(0.0, math.pi, n_grid)
    h2 = (1.0 - a) ** 2 / (1.0 - 2.0 * a * np.cos(w) + a * a)
    return float(trapezoid(h2**passes, w) / math.pi)


class TestBandlimit:
    def test_white_noise_variance_reduction(self):
        rec = white_record()
        B = 0.1
        out = bandlimit(rec, B)
        a = filter_pole_coefficient(B, rec.dt)
        expected = filter_power_ratio(a)
        got = float(np.mean(np.var(out.samples, axis=0)))
        # variance of the variance estimate: ~2/N_eff with N_eff ~ n * BW ratio
        se = expected * math.sqrt(2.0 / (rec.n_steps * expected))
        assert abs(got - expected) < 3.0 * se

    def test_dc_passthrough(self):
        rec = TrajectoryRecord(
            samples=np.ones((5000, 4)) * 2.5, dt=0.1,
            source=SourceTag.QUANTUM, seed=0, meta={"kappa": 1.0},
        )
        out = bandlimit(rec, 1.0)
        assert np.allclose(out.samples, 2.5, atol=1e-9)

    def test_double_filtering_cascades(self):
        rec = white_record(n_steps=400_000)
        B = 0.2
        twice = bandlimit(bandlimit(rec, B), B)
        a = filter_pole_coefficient(B, rec.dt)
        expected = filter_power_ratio(a, passes=4)
        got = float(np.mean(np.var(twice.samples, axis=0)))
        se = expected * math.sqrt(2.0 / (rec.n_steps * expected))
        assert abs(got - expected) < 3.0 * se
        assert twice.meta["bandlimit"] == [B, B]

    def test_nyquist_guard(self):
        rec = white_record(n_steps=100)
        with pytest.raises(BandwidthExceedsNyquistError):
            bandlimit(rec, 0.51)

    def test_length_preserved(self):
        rec = white_record(n_steps=777)
        assert bandlimit(rec, 0.3).n_steps == 777

    @pytest.mark.parametrize("n, a, padlen", [
        (40, 0.95, 39),  # padding as long as the record allows
        (5000, 0.087, 6),  # small a: B at the Nyquist limit, the minimum padding
        (5000, 0.6, 20),
        (5000, 0.9995, 4999),  # a near 1: the padding spans the record
        (1, 0.5, 0),
    ])
    def test_zero_phase_filter_matches_filtfilt(self, n, a, padlen):
        x = np.random.default_rng(n).standard_normal((n, 4))
        want = filtfilt([1.0 - a], [1.0, -a], x, axis=0, padlen=padlen)
        got = pipeline_mod._zero_phase_lowpass(x, a, padlen)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_short_record_is_padded_by_its_length(self):
        rec = white_record(n_steps=50, dt=0.1)
        a = filter_pole_coefficient(0.05, rec.dt)  # ten time constants exceed 49 samples
        want = filtfilt([1.0 - a], [1.0, -a], rec.samples, axis=0, padlen=49)
        got = bandlimit(rec, 0.05).samples
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("B", [0.05, 1.0, 4.9])
    def test_bandlimited_record_is_channel_major_filtfilt(self, B):
        """bandlimit scales LAPACK's solution in place and keeps its layout."""
        rec = white_record(n_steps=3000, dt=0.1)
        a = filter_pole_coefficient(B, rec.dt)
        padlen = int(min(rec.n_steps - 1, max(6, 10.0 * (-1.0 / math.log(a)))))  # bandlimit's
        want = filtfilt([1.0 - a], [1.0, -a], rec.samples, axis=0, padlen=padlen)
        got = bandlimit(rec, B).samples
        assert got.strides[0] == got.itemsize
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("dt", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1])
    def test_vacuum_transfer_matches_exact_rational_arithmetic(self, dt):
        """The residue sum in floats against its expanded form evaluated
        exactly, at 1 - a and 1 - r as vacuum_transfer takes them."""
        for B, kappa in itertools.product(np.geomspace(1e-6, 4.0, 9), (0.01, 0.1, 1.0, 10.0)):
            if B > 0.5 / dt:
                continue
            u = Fraction(-math.expm1(-pipeline_mod._pole_decay(float(B), dt)))
            v = Fraction(-math.expm1(-0.5 * kappa * dt))
            a, r = 1 - u, 1 - v
            num = 1 + 2 * a * r + a * a - a * a * r * r - 2 * a**3 * r - a**4 * r * r
            exact = (1 - a) * num / ((1 + a) ** 3 * (1 - a * r) ** 2)
            got = Fraction(vacuum_transfer(float(B), dt, kappa))
            assert abs(got - exact) <= Fraction(2e-15) * exact, (B, dt, kappa)

    @pytest.mark.parametrize("B, dt, kappa", [
        (2.0, 0.1, 1.0), (0.3, 0.01, 2.5), (40.0, 0.0125, 0.7), (1.0, 0.001, 1.0), (0.1, 0.001, 1.0),
    ])
    def test_vacuum_transfer_matches_resolved_quadrature(self, B, dt, kappa):
        """The trapezoid rule on this periodic analytic integrand converges
        geometrically once the grid resolves the narrower pole; the
        denominators are written as sums of positive terms."""
        r, a = math.exp(-0.5 * kappa * dt), filter_pole_coefficient(B, dt)
        v, u = -math.expm1(-0.5 * kappa * dt), -math.expm1(-pipeline_mod._pole_decay(B, dt))
        w = np.linspace(0.0, math.pi, 200_001)
        s2 = np.sin(w / 2.0) ** 2  # 1 - 2x cos w + x^2 = (1 - x)^2 + 4x sin^2(w/2)
        spec = 1.0 / (v * v + 4.0 * r * s2)
        gain = (u * u / (u * u + 4.0 * a * s2)) ** 2
        want = trapezoid(spec * gain, w) / trapezoid(spec, w)
        assert vacuum_transfer(B, dt, kappa) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("B", [0.05, 0.5, 4.9])
    def test_vacuum_transfer_white_noise_limit(self, B):
        a = filter_pole_coefficient(B, 0.1)
        white = vacuum_transfer(B, 0.1, 1e5)  # r = exp(-5000) underflows to 0
        assert white == pytest.approx((1.0 - a) * (1.0 + a * a) / (1.0 + a) ** 3, rel=1e-15)
        assert white == pytest.approx(filter_power_ratio(a), rel=1e-12)

    @pytest.mark.parametrize("B, dt", [(0.1, 0.001), (1.0, 0.1), (4.9, 0.1)])
    def test_vacuum_transfer_dc_limit(self, B, dt):
        """As r -> 1 the spectrum concentrates at w = 0, where |H|^4 = 1."""
        toward_dc = [vacuum_transfer(B, dt, kappa) for kappa in (10.0, 1.0, 1e-2, 1e-4, 1e-8)]
        assert toward_dc == sorted(toward_dc) and toward_dc[-1] < 1.0
        assert vacuum_transfer(B, dt, 1e-300) == pytest.approx(1.0, rel=1e-15)

    def test_vacuum_transfer_accumulates(self):
        rec = quantum_record(n_steps=1000)
        once = bandlimit(rec, 2.0)
        twice = bandlimit(once, 2.0)
        s = vacuum_transfer(2.0, rec.dt, 1.0)
        assert once.meta["bandlimit_cal"] == pytest.approx(s, rel=1e-12)
        assert twice.meta["bandlimit_cal"] == pytest.approx(s * s, rel=1e-12)


class TestDemodulate:
    def test_zero_frequency_identity(self):
        rec = quantum_record(n_steps=100)
        out = demodulate(rec, 0.0)
        assert np.array_equal(out.samples, rec.samples)

    def test_quarter_rotation(self):
        samples = np.zeros((2, 4))
        samples[1] = [1.0, 2.0, 3.0, 4.0]
        rec = TrajectoryRecord(samples=samples, dt=1.0,
                               source=SourceTag.QUANTUM, seed=0)
        # theta = -2 pi f0 t = -pi/2 at t = 1 maps (X, P) -> (P, -X)
        out = demodulate(rec, 0.25)
        assert np.allclose(out.samples[1], [2.0, -1.0, 4.0, -3.0], atol=1e-12)

    def test_inverse_rotation_round_trip(self):
        rec = quantum_record(n_steps=500)
        back = demodulate(demodulate(rec, 0.37), -0.37)
        assert np.max(np.abs(back.samples - rec.samples)) < 1e-12


class TestEstimateCovariance:
    def test_vacuum_record_recovers_vacuum(self):
        rec = quantum_record(n_steps=60_000, g=0.0, seed=1)
        est = analyze_record(rec, PipelineConfig(bandwidth=1.0, integration_time=10.0,
                                                 bootstrap_resamples=400))
        dev = np.abs(est.V_hat - 0.5 * np.eye(4))
        assert np.all(dev <= 3.0 * est.stderr + 1e-12)

    def test_entangled_regime_witness_significant(self):
        rec = quantum_record(n_steps=120_000, seed=2)
        est = analyze_record(rec, PipelineConfig(bandwidth=2.0, integration_time=10.0,
                                                 bootstrap_resamples=500))
        rep = witness_from_estimate(est)
        assert rep.nu_minus < 0.5 - 3.0 * rep.stderr_nu
        assert rep.duan_sum < 2.0 - 3.0 * rep.stderr_duan
        assert rep.entangled_ppt and rep.entangled_duan

    def test_entangled_regime_at_thousand_effective_samples(self):
        # long-segment configuration with N_eff = T * B = 1000 per segment
        rec = quantum_record(n_steps=60_000, seed=8, dt=0.1)
        est = analyze_record(rec, PipelineConfig(bandwidth=5.0, integration_time=200.0,
                                                 bootstrap_resamples=400))
        assert est.n_eff == pytest.approx(1000.0)
        rep = witness_from_estimate(est)
        assert rep.nu_minus < 0.5 - 3.0 * rep.stderr_nu

    def test_estimator_is_calibrated(self):
        # strong filtering must not bias the witness once calibrated
        rec = quantum_record(n_steps=200_000, seed=6)
        est = analyze_record(rec, PipelineConfig(bandwidth=0.5, integration_time=16.0,
                                                 bootstrap_resamples=300))
        true_nu = ppt_nu_minus(closed_form_covariance(0.25, 1.0, 0.0))
        rep = witness_from_estimate(est)
        assert abs(rep.nu_minus - true_nu) < 3.5 * rep.stderr_nu

    def test_doubling_duration_shrinks_stderr(self):
        pc = PipelineConfig(bandwidth=1.0, integration_time=10.0, bootstrap_resamples=600)
        e1 = analyze_record(quantum_record(n_steps=50_000, seed=4), pc)
        e2 = analyze_record(quantum_record(n_steps=100_000, seed=4), pc)
        r1 = witness_from_estimate(e1)
        r2 = witness_from_estimate(e2)
        ratio = r2.stderr_duan / r1.stderr_duan
        assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=0.2)

    def test_too_few_segments(self):
        rec = quantum_record(n_steps=100)
        with pytest.raises(TooFewSegmentsError):
            estimate_covariance(rec, PipelineConfig(bandwidth=1.0, integration_time=50.0))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            PipelineConfig(bandwidth=0.1, integration_time=1.0)  # T*B < 1
        with pytest.raises(ValidationError):
            PipelineConfig(bandwidth=1.0, integration_time=2.0, segment_statistic="median")
        # the one segment statistic: the deleted "mean" is refused, never ignored
        with pytest.raises(ValidationError, match="^segment_statistic must be 'second_moment'"):
            PipelineConfig(bandwidth=1.0, integration_time=2.0, segment_statistic="mean")

    @staticmethod
    def _segmented(n_seg, statistic="second_moment"):
        # 100 samples a segment plus a partial one; a non-unit calibration
        base = quantum_record(n_steps=100 * n_seg + 37, seed=n_seg, dt=0.1)
        rec = TrajectoryRecord(samples=base.samples, dt=base.dt, source=base.source,
                               seed=base.seed, meta={"kappa": 1.3, "bandlimit_cal": 0.87})
        pc = PipelineConfig(bandwidth=1.0, integration_time=10.0,
                            bootstrap_resamples=200, segment_statistic=statistic)
        return rec, pc

    @staticmethod
    def _outputs(est):
        return est.V_hat, est.stderr, est.stderr_nu, est.stderr_duan

    @pytest.mark.parametrize("n_seg", [5, 8, 24, 333])
    def test_second_moments_match_einsum_oracle(self, n_seg):
        """One batched BLAS product per record sums each segment in another
        order than the oracle's einsum: equal within 1e-13 relative."""
        rec, pc = self._segmented(n_seg)
        est = estimate_covariance(rec, pc)
        assert est.n_segments == n_seg
        for w, g in zip(oracle_estimate(rec, pc), self._outputs(est)):
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))

    @pytest.mark.parametrize("statistic", ["second_moment"])
    @pytest.mark.parametrize("n_seg", [5, 24, 333])
    def test_row_and_channel_major_records_agree(self, statistic, n_seg):
        """Band-limited records are channel-major; the estimator reads both
        layouts through one view."""
        rec, pc = self._segmented(n_seg, statistic)
        fortran = dataclasses.replace(rec, samples=np.asfortranarray(rec.samples))
        row, col = estimate_covariance(rec, pc), estimate_covariance(fortran, pc)
        for w, g in zip(self._outputs(row), self._outputs(col)):
            w, g = np.atleast_1d(w), np.atleast_1d(g)
            assert np.array_equal(np.isnan(w), np.isnan(g))
            ok = ~np.isnan(w)  # a replicate with no real PT root, in both layouts
            err, scale = np.abs(g - w)[ok], np.abs(w)[ok]
            assert np.max(err, initial=0.0) <= 1e-14 * np.max(scale, initial=0.0)

    def test_n_eff_reported(self):
        rec = quantum_record(n_steps=10_000)
        est = estimate_covariance(rec, PipelineConfig(bandwidth=2.5, integration_time=4.0))
        assert est.n_eff == pytest.approx(10.0)
        assert est.n_segments == 10_000 // int(round(4.0 / rec.dt))


class TestGatherFreeBootstrap:
    """Second-moment replicates are summed one draw column at a time."""

    @staticmethod
    def _record(n_seg, seed, layout):
        # 10 samples a segment plus a partial one; a non-unit calibration
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal((10 * n_seg + 3, 4)) @ rng.standard_normal((4, 4))
        samples = np.asfortranarray(samples) if layout == "F" else samples
        return TrajectoryRecord(samples=samples, dt=0.1, source=SourceTag.QUANTUM, seed=seed,
                                meta={"kappa": 1.3, "bandlimit_cal": 0.87})

    @pytest.mark.parametrize("statistic, n_seg, resamples", [
        ("second_moment", 2, 2), ("second_moment", 2, 64), ("second_moment", 7, 2),
        ("second_moment", 24, 200), ("second_moment", 333, 40),
    ])
    def test_matches_gathered_oracle_bit_for_bit(self, statistic, n_seg, resamples):
        pc = PipelineConfig(bandwidth=1.0, integration_time=1.0,
                            bootstrap_resamples=resamples, segment_statistic=statistic)
        for seed in (0, 1, 2, 3):
            for layout in ("C", "F"):
                rec = self._record(n_seg, seed, layout)
                est = estimate_covariance(rec, pc)
                assert est.n_segments == n_seg
                got = (est.V_hat, est.stderr, est.stderr_nu, est.stderr_duan)
                for w, g in zip(gathered_estimate(rec, pc), got):
                    assert np.array_equal(w, g, equal_nan=True), (seed, layout)

    def test_peak_memory_stays_far_below_the_gather(self):
        """The gather alone is resamples * n_seg * 128 bytes; the draws are an
        eighth of that and nothing else grows with their number."""
        n_seg, resamples = 4000, 100
        rec = white_record(n_steps=4 * n_seg, dt=0.25)
        pc = PipelineConfig(bandwidth=1.0, integration_time=1.0, bootstrap_resamples=resamples)
        tracemalloc.start()
        try:
            est = estimate_covariance(rec, pc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.n_segments == n_seg
        assert peak < resamples * n_seg * 128 / 8


class TestWitnessSoundness:
    @pytest.mark.parametrize("resamples", [0, 1])
    def test_zero_resamples_give_nan_stderr_and_no_verdict(self, resamples):
        # an entangled record (nu_minus ~ 0.17): without two replicates there
        # is no standard error, so the 3-sigma rule must not certify it
        rec = quantum_record(n_steps=20_000)
        est = estimate_covariance(rec, PipelineConfig(bandwidth=1.0, integration_time=10.0,
                                                      bootstrap_resamples=resamples))
        assert np.isnan(est.stderr).all()
        rep = witness_from_estimate(est)
        assert math.isnan(rep.stderr_nu) and math.isnan(rep.stderr_duan)
        assert rep.nu_minus < 0.5 and rep.duan_sum < 2.0
        assert not rep.entangled_ppt and not rep.entangled_duan

    def test_no_real_root_point_estimate_raises(self):
        rec = quantum_record(n_steps=20_000)
        est = analyze_record(rec, PipelineConfig(bandwidth=1.0, integration_time=10.0,
                                                 bootstrap_resamples=0))
        singular = dataclasses.replace(est, V_hat=np.diag([1.0, 1.0, 1.0, 0.0]))
        with pytest.raises(ComplexRootError):
            witness_from_estimate(singular)
        with pytest.raises(ComplexRootError):
            witness_with_uncertainty([est, singular])

    @pytest.mark.parametrize("seed", [21, 22, 23, 24, 25])
    def test_separable_state_at_fine_dt_is_calibrated_and_not_certified(self, seed):
        """True nu_minus 0.60 and Duan sum 2.40.  At dt 1e-3 and B 0.1 a
        4096-point quadrature read the vacuum transfer 35 % high, which
        pulled V_hat 26 % low: an ensemble of three such records was certified."""
        A, D = closed_form_dynamics(0.25, 1.0, 1.3)
        cfg = TrajectoryConfig(dt=0.001, n_steps=2_000_000, master_seed=seed)
        rec = sample_exact_ou(A, D, cfg, meta={"kappa": 1.0})
        rep = witness_from_estimate(analyze_record(rec, PipelineConfig(
            bandwidth=0.1, integration_time=50.0, bootstrap_resamples=200)))
        assert not rep.entangled_ppt and not rep.entangled_duan
        assert rep.nu_minus == pytest.approx(0.6, abs=3.0 * rep.stderr_nu)
        assert rep.duan_sum == pytest.approx(2.4, abs=3.0 * rep.stderr_duan)

    def test_nan_replicate_blocks_ppt_verdict(self, monkeypatch):
        import colmode.pipeline as pipeline_mod

        kernel = pipeline_mod._nu_minus

        def one_replicate_without_root(V):
            nu = kernel(V)
            if np.ndim(V) == 3:
                nu[0] = np.nan
            return nu

        monkeypatch.setattr(pipeline_mod, "_nu_minus", one_replicate_without_root)
        rec = quantum_record(n_steps=120_000, seed=2)
        est = analyze_record(rec, PipelineConfig(bandwidth=2.0, integration_time=10.0,
                                                 bootstrap_resamples=200))
        rep = witness_from_estimate(est)
        assert math.isnan(rep.stderr_nu)
        assert rep.nu_minus < 0.5 and not rep.entangled_ppt
        assert rep.entangled_duan


class TestWitnessEnsemble:
    def test_single_estimate_rejected(self):
        rec = quantum_record(n_steps=20_000)
        est = analyze_record(rec, PipelineConfig(bandwidth=1.0, integration_time=10.0,
                                                 bootstrap_resamples=0))
        with pytest.raises(InsufficientEnsembleError):
            witness_with_uncertainty([est])

    def test_separable_ensemble_respects_bound(self):
        A, D = closed_form_dynamics(0.0, 1.0, 0.5)
        cfg = TrajectoryConfig(dt=0.05, n_steps=20_000, master_seed=12)
        pc = PipelineConfig(bandwidth=1.0, integration_time=10.0, bootstrap_resamples=0)
        ests = [analyze_record(r, pc) for r in sample_ensemble(A, D, cfg, 12,
                                                               meta={"kappa": 1.0})]
        rep = witness_with_uncertainty(ests)
        assert rep.duan_sum >= 2.0 - 3.0 * rep.stderr_duan
        assert not rep.entangled_duan

    def test_entangled_ensemble_matches_analytic(self):
        A, D = closed_form_dynamics(0.25, 1.0, 0.0)
        cfg = TrajectoryConfig(dt=0.05, n_steps=40_000, master_seed=21)
        pc = PipelineConfig(bandwidth=1.0, integration_time=10.0, bootstrap_resamples=0)
        ests = [analyze_record(r, pc) for r in sample_ensemble(A, D, cfg, 16,
                                                               meta={"kappa": 1.0})]
        rep = witness_with_uncertainty(ests)
        assert rep.nu_minus == pytest.approx(1.0 / 6.0, abs=3.5 * rep.stderr_nu)
        assert rep.entangled_ppt


class TestPipelineIdentity:
    def test_source_tag_never_branches(self):
        rec = quantum_record(n_steps=30_000, seed=33)
        pc = PipelineConfig(bandwidth=1.0, integration_time=10.0, bootstrap_resamples=200)
        reports = {}
        for tag in SourceTag:
            relabeled = TrajectoryRecord(
                samples=rec.samples.copy(), dt=rec.dt, source=tag,
                seed=rec.seed, meta=dict(rec.meta),
            )
            rep = witness_from_estimate(analyze_record(relabeled, pc))
            reports[tag] = (rep.nu_minus, rep.duan_sum, rep.stderr_nu, rep.stderr_duan)
        values = set(reports.values())
        assert len(values) == 1


class TestConvergence:
    def test_stderr_scales_with_n_eff(self):
        # bandwidths below the mode linewidth so B limits the information
        A, D = closed_form_dynamics(0.25, 1.0, 0.0)
        cells = [(50.0, 0.04), (100.0, 0.04), (100.0, 0.08), (200.0, 0.08), (400.0, 0.08)]
        out = convergence_sweep(A, D, cells, runs_per_cell=8,
                                segments_per_record=16, master_seed=5)
        assert -0.75 < out["slope_duan"] < -0.25
        neffs = [r["n_eff"] for r in out["rows"]]
        assert neffs == [2.0, 4.0, 8.0, 16.0, 32.0]

    @pytest.mark.parametrize("cells", [
        [], [(50.0, 0.04)], [(50.0, 0.04), (100.0, 0.02), (25.0, 0.08)],
    ])
    def test_needs_two_distinct_n_eff(self, cells):
        A, D = closed_form_dynamics(0.25, 1.0, 0.0)
        with pytest.raises(ValidationError, match="2 distinct N_eff"):
            convergence_sweep(A, D, cells, runs_per_cell=2, segments_per_record=4)

    @staticmethod
    def _list_path_witness(A, D, kappa, T, B, runs, segments, seed):
        """One cell's ensemble witness with the whole ensemble held as a list."""
        pc = PipelineConfig(bandwidth=B, integration_time=T, bootstrap_resamples=0)
        dt = min(0.1, 1.0 / (8.0 * B))
        cfg = TrajectoryConfig(dt=dt, n_steps=segments * int(round(T / dt)), master_seed=seed)
        records = sample_ensemble(A, D, cfg, runs, meta={"kappa": kappa})
        return witness_with_uncertainty([analyze_record(r, pc) for r in records])

    def test_streamed_sweep_equals_list_path(self):
        kappa = 1.3
        A, D = closed_form_dynamics(0.25 * kappa, kappa, 0.0)
        cells = [(20.0, 0.1), (40.0, 0.2)]
        out = convergence_sweep(A, D, cells, runs_per_cell=5, segments_per_record=12,
                                master_seed=9, kappa=kappa)
        for i, ((T, B), row) in enumerate(zip(cells, out["rows"])):
            rep = self._list_path_witness(A, D, kappa, T, B, 5, 12,
                                          derive_stream_seed(9, 1000 + i))
            assert (row["nu_mean"], row["nu_stderr"], row["duan_mean"], row["duan_stderr"]) == (
                rep.nu_minus, rep.stderr_nu, rep.duan_sum, rep.stderr_duan)

    def test_streamed_crossing_equals_list_path(self):
        g_values, cells = [0.10, 0.14, 0.18, 0.22], [(8.0, 1.0), (16.0, 2.0)]
        rows = crossing_scan(kappa=1.0, n=0.5, g_values=g_values, cells=cells,
                             runs_per_cell=8, segments_per_record=16, master_seed=2)
        for ci, ((T, B), row) in enumerate(zip(cells, rows)):
            reps = [
                self._list_path_witness(*closed_form_dynamics(g, 1.0, 0.5), 1.0, T, B, 8, 16,
                                        derive_stream_seed(2, 10000 + 100 * ci + gi))
                for gi, g in enumerate(g_values)
            ]
            j = next(j for j in range(1, len(reps))
                     if reps[j - 1].nu_minus >= 0.5 > reps[j].nu_minus)
            slope = (reps[j].nu_minus - reps[j - 1].nu_minus) / (g_values[j] - g_values[j - 1])
            assert row["g_cross"] == g_values[j - 1] + (0.5 - reps[j - 1].nu_minus) / slope
            assert row["sigma"] == 0.5 * (reps[j - 1].stderr_nu + reps[j].stderr_nu) / abs(slope)

    def test_sweep_memory_does_not_grow_with_runs(self):
        """One record is alive at a time, so 16 runs a cell peak within a
        quarter of 4 runs; a held ensemble would peak near four times as high."""
        A, D = closed_form_dynamics(0.25, 1.0, 0.0)

        def peak(runs):
            tracemalloc.start()
            try:
                convergence_sweep(A, D, [(50.0, 0.08), (100.0, 0.08)], runs_per_cell=runs,
                                  segments_per_record=24, master_seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(16) <= 1.25 * peak(4)

    def test_crossing_scan_finds_boundary(self):
        # boundary for n = 0.5: 2G/kappa = 1/3, so g = G/kappa = 1/6
        rows = crossing_scan(
            kappa=1.0, n=0.5, g_values=[0.10, 0.14, 0.18, 0.22],
            cells=[(8.0, 1.0), (16.0, 2.0)], runs_per_cell=8,
            segments_per_record=16, master_seed=2,
        )
        for row in rows:
            assert row["g_cross"] is not None
            assert abs(row["g_cross"] - 1.0 / 6.0) < 0.025
        assert abs(rows[0]["g_cross"] - rows[1]["g_cross"]) < 3.0 * (
            rows[0]["sigma"] + rows[1]["sigma"]
        )
