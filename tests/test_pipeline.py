import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.signal import filtfilt

from conftest import RECORD_STEPS, traced_peak_records

from colmode import pipeline as pipeline_mod
from colmode import trajectory as trajectory_mod
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
    """(V_hat, moments) by the estimator's code before one segment
    reduction served both: second moments by einsum."""
    m = int(round(config.integration_time / record.dt))
    n_seg = record.n_steps // m
    X = record.samples[: n_seg * m].reshape(n_seg, m, 4)
    cal = float(record.meta.get("bandlimit_cal", 1.0))
    moments = np.einsum("smi,smj->sij", X, X) / m / cal
    return symmetrize(moments.mean(axis=0)), moments


def loop_jackknife(units, weights):
    """(stderr_nu, stderr_duan) by a plain loop: each delete-one estimate is
    the weighted mean of the units that remain, and each variance (k - 1)/k
    times the summed squared deviations of the k delete-one values."""
    k = len(units)
    values = []
    for i in range(k):
        keep = np.arange(k) != i
        V = np.average(units[keep], axis=0, weights=weights[keep])
        values.append((ppt_nu_minus(symmetrize(V)), _duan_sum(V)))
    values = np.array(values)
    return np.sqrt((k - 1) / k * ((values - values.mean(axis=0)) ** 2).sum(axis=0))


FILTER_SHAPES = [
    (40, 0.95, 39),  # padding as long as the record allows
    (5000, 0.087, 6),  # small a: B at the Nyquist limit, the minimum padding
    (5000, 0.6, 20),
    (5000, 0.9995, 4999),  # a near 1: the padding spans the record
    (1, 0.5, 0),
    # not whole blocks of the AR(1) kernel: one short, one past, and a long record
    (15, 0.6, 14),
    (17, 0.6, 16),
    (1921, 0.9, 40),
]


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

    @pytest.mark.parametrize("n, a, padlen", FILTER_SHAPES)
    def test_zero_phase_filter_matches_filtfilt(self, n, a, padlen):
        x = np.random.default_rng(n).standard_normal((n, 4))
        want = filtfilt([1.0 - a], [1.0, -a], x, axis=0, padlen=padlen)
        got = pipeline_mod._Lowpass(a, padlen)(x)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_filter_runs_both_passes_in_the_records_own_buffer(self, monkeypatch):
        """Both passes are the AR(1) kernel with F = a I and gain 1 - a, run
        over the input's own buffer, forward and then reversed, and the
        result is filtfilt's."""
        passes = []
        recurrence = pipeline_mod._linear_recurrence

        def recording(ops, y, reverse=False):
            passes.append((y, reverse, ops.F.copy(), ops.gain))
            return recurrence(ops, y, reverse)

        monkeypatch.setattr(pipeline_mod, "_linear_recurrence", recording)
        x = np.random.default_rng(5).standard_normal((3000, 4))
        want = filtfilt([0.1], [1.0, -0.9], x, axis=0, padlen=40)
        got = pipeline_mod._Lowpass(0.9, 40)(x)
        assert got is x
        assert [(y is x, reverse) for y, reverse, _, _ in passes] == [(True, False), (True, True)]
        for _, _, F, gain in passes:
            assert np.array_equal(F, 0.9 * np.eye(4)) and gain == 1.0 - 0.9
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n, a, padlen", FILTER_SHAPES)
    @pytest.mark.parametrize("layout", ["C", "F", "row_stride", "column_stride"])
    def test_in_place_filter_matches_filtfilt_in_every_layout(self, n, a, padlen, layout):
        """The filter overwrites its input, whatever its memory layout, with
        filtfilt's numbers to 1e-13 of their largest."""
        x = np.random.default_rng(n).standard_normal((n, 4))
        want = filtfilt([1.0 - a], [1.0, -a], x, axis=0, padlen=padlen)
        if layout == "F":
            x = np.asfortranarray(x)
        elif layout == "row_stride":
            x = np.repeat(x, 2, axis=0)[::2]
        elif layout == "column_stride":
            x = np.repeat(x, 2, axis=1)[:, ::2]
        got = pipeline_mod._Lowpass(a, padlen)(x)
        assert got is x
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n, a, padlen", FILTER_SHAPES)
    def test_prepared_filter_gives_a_fresh_ones_numbers(self, n, a, padlen):
        """One _Lowpass filters record after record with the numbers of a
        filter prepared for each, bit for bit."""
        rng = np.random.default_rng(n + 1)
        shared = pipeline_mod._Lowpass(a, padlen)
        for _ in range(3):
            x = rng.standard_normal((n, 4))
            want = pipeline_mod._Lowpass(a, padlen)(x.copy())
            assert np.array_equal(shared(x), want)

    def test_short_record_is_padded_by_its_length(self):
        rec = white_record(n_steps=50, dt=0.1)
        a = filter_pole_coefficient(0.05, rec.dt)  # ten time constants exceed 49 samples
        want = filtfilt([1.0 - a], [1.0, -a], rec.samples, axis=0, padlen=49)
        got = bandlimit(rec, 0.05).samples
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("B", [0.05, 1.0, 4.9])
    def test_bandlimited_record_is_filtfilt_in_a_row_major_copy(self, B):
        """bandlimit filters a copy of the samples, which keeps the record's
        row-major layout, and leaves the input's samples as they were."""
        rec = white_record(n_steps=3000, dt=0.1)
        before = rec.samples.copy()
        a = filter_pole_coefficient(B, rec.dt)
        padlen = int(min(rec.n_steps - 1, max(6, 10.0 * (-1.0 / math.log(a)))))  # bandlimit's
        want = filtfilt([1.0 - a], [1.0, -a], rec.samples, axis=0, padlen=padlen)
        got = bandlimit(rec, B).samples
        assert got.flags.c_contiguous and not np.shares_memory(got, rec.samples)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(rec.samples, before)

    def test_analyze_record_band_limits_its_record_in_place(self, monkeypatch):
        """analyze_record consumes its record and builds no other: the samples
        become the band-limited samples, in their own buffer, and the pass is
        entered in the record's own meta, which ends as bandlimit's record's
        meta.  bandlimit leaves its own input's meta as it was."""
        rec = quantum_record(n_steps=5000, seed=8)
        pc = PipelineConfig(bandwidth=1.0, integration_time=10.0)
        buffer, meta = rec.samples, dict(rec.meta)
        want = bandlimit(rec, 1.0)
        assert rec.meta == meta and "bandlimit" not in meta
        built = []
        post_init = TrajectoryRecord.__post_init__

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(TrajectoryRecord, "__post_init__", counting_post_init)
        est = analyze_record(rec, pc)
        assert built == []
        assert rec.samples is buffer and np.array_equal(buffer, want.samples)
        assert rec.meta == want.meta and rec.meta["bandlimit"] == [1.0]
        assert np.array_equal(estimate_covariance(want, pc).V_hat, est.V_hat)

    @pytest.mark.parametrize("meta, B", [
        ({"bandlimit": "x"}, 1.0),
        ({"bandlimit_cal": 0.0}, 1.0),
        ({"kappa": "q"}, 1.0),
        ({}, 10.5),  # above the Nyquist limit 10 of dt 0.05
        ({"demod": "z"}, 1.0),
    ], ids=["bandlimit", "bandlimit_cal", "kappa", "nyquist", "demod"])
    @pytest.mark.parametrize("f0", [0.0, 0.3])
    def test_analyze_record_refuses_before_touching_its_record(self, meta, B, f0):
        """A malformed sidecar field, or a bandwidth the record cannot carry,
        is refused before the in-place demodulation and filter run: samples
        and meta are left as they were."""
        rec = quantum_record(n_steps=2000, seed=10)
        rec.meta.update(meta)
        before, meta_before = rec.samples.copy(), dict(rec.meta)
        pc = PipelineConfig(bandwidth=B, integration_time=10.0, demod_frequency=f0)
        with pytest.raises(ValidationError):
            analyze_record(rec, pc)
        assert np.array_equal(rec.samples, before) and rec.meta == meta_before

    def test_analyze_record_copies_read_only_samples(self):
        """A read-only buffer is filtered in a copy of the record, which keeps
        its samples and its meta, with the estimate of a writable one."""
        rec = quantum_record(n_steps=5000, seed=9)
        pc = PipelineConfig(bandwidth=1.0, integration_time=10.0)
        before, meta = rec.samples.copy(), dict(rec.meta)
        rec.samples.flags.writeable = False
        est = analyze_record(rec, pc)
        assert np.array_equal(rec.samples, before) and rec.meta == meta
        want = analyze_record(quantum_record(n_steps=5000, seed=9), pc)
        assert np.array_equal(want.V_hat, est.V_hat)
        assert np.array_equal(want.moments, est.moments)

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

    @pytest.mark.parametrize("f0", [0.0, 0.37])
    def test_demodulate_rotates_a_copy(self, f0):
        """demodulate, like bandlimit, leaves its input record as it was and
        returns a record with samples of its own."""
        rec = quantum_record(n_steps=9000)
        before, meta = rec.samples.copy(), dict(rec.meta)
        out = demodulate(rec, f0)
        assert not np.shares_memory(out.samples, rec.samples)
        assert np.array_equal(rec.samples, before) and rec.meta == meta
        assert out.meta.get("demod", 0.0) == f0

    def test_analyze_record_demodulates_then_band_limits_in_place(self, monkeypatch):
        """analyze_record rotates and filters its record's own buffer, in that
        order, builds no other record, and ends with the samples and meta of
        bandlimit(demodulate(record))."""
        rec = quantum_record(n_steps=9000, seed=8)
        pc = PipelineConfig(bandwidth=1.0, integration_time=10.0, demod_frequency=0.3)
        want = bandlimit(demodulate(rec, 0.3), 1.0)
        buffer = rec.samples
        built = []
        post_init = TrajectoryRecord.__post_init__
        monkeypatch.setattr(TrajectoryRecord, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        est = analyze_record(rec, pc)
        assert built == []
        assert rec.samples is buffer and np.array_equal(buffer, want.samples)
        assert rec.meta == want.meta and rec.meta["demod"] == 0.3
        assert np.array_equal(estimate_covariance(want, pc).V_hat, est.V_hat)

    @pytest.mark.parametrize("f0", [0.05, 0.5, 5.0])
    def test_record_seen_in_a_rotating_frame_gives_the_rotating_frame_estimate(self, f0):
        """A record rotated into the frame where its mode sits at f0 and
        analysed at demod_frequency f0 gives the estimate of the record
        itself to 1e-12: the mode is brought to DC before the low-pass
        keeps the band around DC.  Band-limiting first lost the mode above
        B/2 and read nu_minus 0.0016 at f0 = 5 for a true 1/6."""
        rec = quantum_record(n_steps=20_000, seed=61, dt=0.01)
        lab = demodulate(rec, -f0)
        pc = PipelineConfig(bandwidth=1.0, integration_time=10.0)
        want = analyze_record(rec, pc).V_hat
        got = analyze_record(lab, dataclasses.replace(pc, demod_frequency=f0)).V_hat
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_separable_record_in_a_lab_frame_is_not_certified(self):
        """A separable record (G 0.05, n 1: true nu_minus 1.227) seen in a
        frame at f0 = 5 and analysed at demod_frequency 5 keeps its
        rotating-frame estimate near 1.19 and gets no verdict.  Filtered
        before it was demodulated, it read 0.0033 +- 0.0002 and both
        witnesses certified it."""
        A, D = closed_form_dynamics(0.05, 1.0, 1.0)
        cfg = TrajectoryConfig(dt=0.01, n_steps=100_000, master_seed=14)
        lab = demodulate(sample_exact_ou(A, D, cfg, meta={"kappa": 1.0}), -5.0)
        pc = PipelineConfig(bandwidth=1.0, integration_time=10.0, demod_frequency=5.0)
        rep = witness_from_estimate(analyze_record(lab, pc))
        assert not rep.entangled_ppt and not rep.entangled_duan
        assert rep.nu_minus > 1.0


class TestEstimateCovariance:
    def test_vacuum_record_recovers_vacuum(self):
        """Entry-wise within 3 sigma of the vacuum, sigma the standard error
        of the oracle's segment moments of the same band-limited record."""
        rec = quantum_record(n_steps=60_000, g=0.0, seed=1)
        pc = PipelineConfig(bandwidth=1.0, integration_time=10.0)
        _, moments = oracle_estimate(bandlimit(rec, pc.bandwidth), pc)
        stderr = moments.std(axis=0, ddof=1) / math.sqrt(len(moments))
        est = analyze_record(rec, pc)
        dev = np.abs(est.V_hat - 0.5 * np.eye(4))
        assert np.all(dev <= 3.0 * stderr + 1e-12)

    def test_entangled_regime_witness_significant(self):
        rec = quantum_record(n_steps=120_000, seed=2)
        est = analyze_record(rec, PipelineConfig(bandwidth=2.0, integration_time=10.0))
        rep = witness_from_estimate(est)
        assert rep.nu_minus < 0.5 - 3.0 * rep.stderr_nu
        assert rep.duan_sum < 2.0 - 3.0 * rep.stderr_duan
        assert rep.entangled_ppt and rep.entangled_duan

    def test_entangled_regime_at_thousand_effective_samples(self):
        # long-segment configuration with N_eff = T * B = 1000 per segment
        rec = quantum_record(n_steps=60_000, seed=8, dt=0.1)
        est = analyze_record(rec, PipelineConfig(bandwidth=5.0, integration_time=200.0))
        assert est.n_eff == pytest.approx(1000.0)
        rep = witness_from_estimate(est)
        assert rep.nu_minus < 0.5 - 3.0 * rep.stderr_nu

    def test_estimator_is_calibrated(self):
        # strong filtering must not bias the witness once calibrated
        rec = quantum_record(n_steps=200_000, seed=6)
        est = analyze_record(rec, PipelineConfig(bandwidth=0.5, integration_time=16.0))
        true_nu = ppt_nu_minus(closed_form_covariance(0.25, 1.0, 0.0))
        rep = witness_from_estimate(est)
        assert abs(rep.nu_minus - true_nu) < 3.5 * rep.stderr_nu

    def test_doubling_duration_shrinks_stderr(self):
        pc = PipelineConfig(bandwidth=1.0, integration_time=10.0)
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
        pc = PipelineConfig(bandwidth=1.0, integration_time=10.0, segment_statistic=statistic)
        return rec, pc

    @staticmethod
    def _outputs(est):
        rep = witness_from_estimate(est)
        return est.V_hat, est.moments, rep.stderr_nu, rep.stderr_duan

    @pytest.mark.parametrize("n_seg", [5, 8, 24, 333])
    def test_second_moments_match_einsum_oracle(self, n_seg):
        """One batched BLAS product per record sums each segment in another
        order than the oracle's einsum: equal within 1e-13 relative, and so
        are the jackknife standard errors of the two."""
        rec, pc = self._segmented(n_seg)
        est = estimate_covariance(rec, pc)
        assert est.n_segments == n_seg
        V_hat, moments = oracle_estimate(rec, pc)
        want = (V_hat, moments, *loop_jackknife(moments, np.ones(n_seg)))
        for w, g in zip(want, self._outputs(est)):
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
            ok = ~np.isnan(w)  # a delete-one value with no real PT root, in both layouts
            err, scale = np.abs(g - w)[ok], np.abs(w)[ok]
            assert np.max(err, initial=0.0) <= 1e-14 * np.max(scale, initial=0.0)

    def test_n_eff_reported(self):
        rec = quantum_record(n_steps=10_000)
        est = estimate_covariance(rec, PipelineConfig(bandwidth=2.5, integration_time=4.0))
        assert est.n_eff == pytest.approx(10.0)
        assert est.n_segments == 10_000 // int(round(4.0 / rec.dt))


class TestWitnessSoundness:
    @pytest.mark.parametrize("resamples", [0, 1, 1000])
    def test_bootstrap_resamples_is_ignored(self, resamples):
        """The retired bootstrap_resamples is still checked as a count, and
        changes neither the estimate nor its witness report."""
        rec = quantum_record(n_steps=20_000)
        pc = PipelineConfig(bandwidth=1.0, integration_time=10.0)
        want = estimate_covariance(rec, pc)
        est = estimate_covariance(rec, dataclasses.replace(pc, bootstrap_resamples=resamples))
        assert np.array_equal(est.V_hat, want.V_hat)
        assert np.array_equal(est.moments, want.moments)
        assert witness_from_estimate(est) == witness_from_estimate(want)
        with pytest.raises(ValidationError, match="^bootstrap_resamples must be >= 0"):
            dataclasses.replace(pc, bootstrap_resamples=-1)

    def test_no_real_root_point_estimate_raises(self):
        """A singular estimate raises alone and as a member of an ensemble,
        also of three records, whose pooled and delete-one estimates all
        have a real PT root."""
        rec = quantum_record(n_steps=20_000)
        est = analyze_record(rec, PipelineConfig(bandwidth=1.0, integration_time=10.0))
        singular = dataclasses.replace(est, V_hat=np.diag([1.0, 1.0, 1.0, 0.0]))
        with pytest.raises(ComplexRootError):
            witness_from_estimate(singular)
        for members in ([est, singular], [est, est, singular]):
            with pytest.raises(ComplexRootError):
                witness_with_uncertainty(members)

    @pytest.mark.parametrize("seed", [21, 22, 23, 24, 25])
    def test_separable_state_at_fine_dt_is_calibrated_and_not_certified(self, seed):
        """True nu_minus 0.60 and Duan sum 2.40.  At dt 1e-3 and B 0.1 a
        4096-point quadrature read the vacuum transfer 35 % high, which
        pulled V_hat 26 % low: an ensemble of three such records was certified."""
        A, D = closed_form_dynamics(0.25, 1.0, 1.3)
        cfg = TrajectoryConfig(dt=0.001, n_steps=2_000_000, master_seed=seed)
        rec = sample_exact_ou(A, D, cfg, meta={"kappa": 1.0})
        rep = witness_from_estimate(analyze_record(rec, PipelineConfig(
            bandwidth=0.1, integration_time=50.0)))
        assert not rep.entangled_ppt and not rep.entangled_duan
        assert rep.nu_minus == pytest.approx(0.6, abs=3.0 * rep.stderr_nu)
        assert rep.duan_sum == pytest.approx(2.4, abs=3.0 * rep.stderr_duan)

    def test_nan_replicate_blocks_ppt_verdict(self, monkeypatch):
        """A delete-one estimate with no real PT root makes the nu_minus
        standard error NaN: no PPT verdict, and the Duan verdict stands."""
        kernel = pipeline_mod._nu_minus

        def one_replicate_without_root(V):
            nu = kernel(V)
            if np.ndim(V) == 3:
                nu[0] = np.nan
            return nu

        monkeypatch.setattr(pipeline_mod, "_nu_minus", one_replicate_without_root)
        rec = quantum_record(n_steps=120_000, seed=2)
        est = analyze_record(rec, PipelineConfig(bandwidth=2.0, integration_time=10.0))
        rep = witness_from_estimate(est)
        assert math.isnan(rep.stderr_nu)
        assert rep.nu_minus < 0.5 and not rep.entangled_ppt
        assert rep.entangled_duan


class TestWitnessEnsemble:
    def test_single_estimate_rejected(self):
        rec = quantum_record(n_steps=20_000)
        est = analyze_record(rec, PipelineConfig(bandwidth=1.0, integration_time=10.0))
        with pytest.raises(InsufficientEnsembleError):
            witness_with_uncertainty([est])

    def test_separable_ensemble_respects_bound(self):
        A, D = closed_form_dynamics(0.0, 1.0, 0.5)
        cfg = TrajectoryConfig(dt=0.05, n_steps=20_000, master_seed=12)
        pc = PipelineConfig(bandwidth=1.0, integration_time=10.0)
        ests = [analyze_record(r, pc) for r in sample_ensemble(A, D, cfg, 12,
                                                               meta={"kappa": 1.0})]
        rep = witness_with_uncertainty(ests)
        assert rep.duan_sum >= 2.0 - 3.0 * rep.stderr_duan
        assert not rep.entangled_duan

    def test_entangled_ensemble_matches_analytic(self):
        A, D = closed_form_dynamics(0.25, 1.0, 0.0)
        cfg = TrajectoryConfig(dt=0.05, n_steps=40_000, master_seed=21)
        pc = PipelineConfig(bandwidth=1.0, integration_time=10.0)
        ests = [analyze_record(r, pc) for r in sample_ensemble(A, D, cfg, 16,
                                                               meta={"kappa": 1.0})]
        rep = witness_with_uncertainty(ests)
        assert rep.nu_minus == pytest.approx(1.0 / 6.0, abs=3.5 * rep.stderr_nu)
        assert rep.entangled_ppt


class TestJackknife:
    """One delete-one jackknife over the segments of a record and over the
    records of an ensemble, against closed forms and a plain-loop oracle."""

    @staticmethod
    def _ensemble(steps, seed):
        """Estimates of entangled records (true nu_minus 1/6) of the given lengths."""
        A, D = closed_form_dynamics(0.25, 1.0, 0.0)
        pc = PipelineConfig(bandwidth=1.0, integration_time=10.0)
        return [
            analyze_record(sample_exact_ou(A, D, TrajectoryConfig(
                dt=0.05, n_steps=n, master_seed=derive_stream_seed(seed, k)), meta={"kappa": 1.0}), pc)
            for k, n in enumerate(steps)
        ]

    @staticmethod
    def _assert_one_orientation(V):
        """Duan's minimum picks one sign orientation for every matrix, so the
        witness is linear over them."""
        cross = V[:, 0, 2] - V[:, 1, 3]  # w1 < w2 where it is positive
        assert np.all(cross > 0) or np.all(cross < 0)

    @pytest.mark.parametrize("n_seg", [2, 24, 100])
    def test_duan_stderr_over_segments_is_the_standard_error_of_their_duan(self, n_seg):
        """Duan is linear in V, so its delete-one-segment sigma is the
        standard error std(ddof=1)/sqrt(k) of the segments' Duan sums."""
        est = self._ensemble([200 * n_seg + 7], seed=n_seg)[0]
        self._assert_one_orientation(est.moments)
        duan = _duan_sum(est.moments)
        rep = witness_from_estimate(est)
        assert rep.stderr_duan == pytest.approx(duan.std(ddof=1) / math.sqrt(n_seg), rel=1e-12)
        assert rep.duan_sum == pytest.approx(duan.mean(), rel=1e-12)

    @pytest.mark.parametrize("runs", [2, 5, 16])
    def test_pooled_duan_over_equal_records_is_the_mean_of_their_duan(self, runs):
        """Over records of one length the pooled Duan is the mean of theirs,
        and its delete-one-record sigma is their standard error."""
        ests = self._ensemble([4000] * runs, seed=runs)
        V = np.stack([e.V_hat for e in ests])
        self._assert_one_orientation(V)
        duan = _duan_sum(V)
        rep = witness_with_uncertainty(ests)
        assert rep.stderr_duan == pytest.approx(duan.std(ddof=1) / math.sqrt(runs), rel=1e-12)
        assert rep.duan_sum == pytest.approx(duan.mean(), rel=1e-12)

    @pytest.mark.parametrize("n_seg", [2, 5, 24, 100])
    def test_segments_match_the_plain_loop_oracle(self, n_seg):
        """A record's witnesses are those of its V_hat, bit for bit, with the
        oracle's delete-one-segment standard errors."""
        est = self._ensemble([200 * n_seg + 7], seed=n_seg)[0]
        rep = witness_from_estimate(est)
        assert (rep.nu_minus, rep.duan_sum) == (ppt_nu_minus(est.V_hat), _duan_sum(est.V_hat))
        want = loop_jackknife(est.moments, np.ones(n_seg))
        assert np.allclose([rep.stderr_nu, rep.stderr_duan], want, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("steps", [[4000, 4000], [2000, 6000, 4000], [2000] * 3 + [8000] * 4])
    def test_records_match_the_plain_loop_oracle(self, steps):
        """An ensemble's witnesses are those of its segment-weighted pooled
        V_hat, with the oracle's delete-one-record standard errors, also over
        records of unequal lengths."""
        ests = self._ensemble(steps, seed=len(steps))
        V = np.stack([e.V_hat for e in ests])
        weights = np.array([e.n_segments for e in ests], dtype=float)
        assert list(weights) == [n // 200 for n in steps]
        pooled = np.average(V, axis=0, weights=weights)
        rep = witness_with_uncertainty(ests)
        assert rep.nu_minus == pytest.approx(ppt_nu_minus(pooled), rel=1e-12)
        assert rep.duan_sum == pytest.approx(_duan_sum(pooled), rel=1e-12)
        want = loop_jackknife(V, weights)
        assert np.allclose([rep.stderr_nu, rep.stderr_duan], want, rtol=1e-10, atol=0.0)


class TestWorkingSet:
    def test_analyze_record_adds_a_fifth_of_a_record(self):
        """The record is demodulated and filtered in its own buffer, both
        filter passes by the AR(1) kernel: its carried states, a sixteenth
        of the record, its scratch and its operators add 0.180 records
        beyond the input (0.2 allows 0.02 more), where the tridiagonal
        solve's padded channel and constant factors made it 0.75."""
        rec = quantum_record(n_steps=RECORD_STEPS, dt=0.01)
        pc = PipelineConfig(bandwidth=1.0, integration_time=10.0)
        peak, est = traced_peak_records(analyze_record, rec, pc)
        assert est.n_segments == 100
        assert peak <= 0.2

    def test_one_cell_holds_a_record_and_its_analysis(self):
        """One record of the cell at a time (1.17 records while it is drawn,
        the stream's kept operators included), then its analysis: 1.236 in
        all (1.3 allows 0.064 more), where it was 1.76 with the tridiagonal
        solve, 2.51 with a padded copy of each record and 4.52 before that."""
        A, D = closed_form_dynamics(0.25, 1.0, 0.0)
        T, B, segments = 400.0, 0.08, 24  # dt 0.1: records of 96,000 steps
        steps = segments * int(round(T / 0.1))
        plan = pipeline_mod._cell_plan(T, B, segments)
        peak, rep = traced_peak_records(
            pipeline_mod._cell_witness, A, D, 1.0, plan, 3, 8, steps=steps
        )
        assert math.isfinite(rep.stderr_nu)
        assert peak <= 1.3


class TestPipelineIdentity:
    def test_source_tag_never_branches(self):
        rec = quantum_record(n_steps=30_000, seed=33)
        pc = PipelineConfig(bandwidth=1.0, integration_time=10.0)
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
        pc = PipelineConfig(bandwidth=B, integration_time=T)
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

    def test_each_ensemble_builds_its_operators_once_per_level(self, monkeypatch):
        """A sweep of 2 cells x 3 runs takes each recursion level's powers of
        F, and gathers its block-Toeplitz matrix, once per cell's ensemble,
        as one solo record of that cell does.  The band-limit filter, whose
        operators are its own, is replaced by the identity, so only the
        sampler's are counted."""
        levels, gathers = [], []
        monkeypatch.setattr(pipeline_mod, "_Lowpass", lambda a, padlen: lambda x: x)

        class Counted(trajectory_mod._Recurrence):
            def __init__(self, F):
                levels.append(F)
                super().__init__(F)

        block_toeplitz = trajectory_mod._block_toeplitz
        monkeypatch.setattr(trajectory_mod, "_Recurrence", Counted)
        monkeypatch.setattr(trajectory_mod, "_block_toeplitz",
                            lambda powers, reverse=False: gathers.append(len(powers))
                            or block_toeplitz(powers, reverse))
        A, D = closed_form_dynamics(0.25, 1.0, 0.0)
        cells = [(50.0, 0.08), (16.0, 1.0)]
        solo = []
        for T, B in cells:
            levels.clear()
            sample_exact_ou(A, D, pipeline_mod._cell_plan(T, B, 24)[1])
            solo.append(len(levels))
        assert solo == [4, 3]  # 12,000 and 3,072 steps
        levels.clear()
        gathers.clear()
        convergence_sweep(A, D, cells, runs_per_cell=3, segments_per_record=24, master_seed=4)
        assert len(levels) == sum(solo)
        assert len(gathers) == sum(solo)

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

    @pytest.mark.parametrize("master_seed", [3081421186, 4185263272, 2260068244, 2057857966])
    def test_crossing_check_passes_at_former_failing_seeds(self, master_seed):
        """The bench converge check, |g_cross - 1/6| <= 3 sigma + 0.01, in
        cell (T 8, B 1) at the master seeds of bench converge seeds 205,
        1015, 2013 and 2017.  The mean of per-record witnesses kept each
        record's bias while its error fell as 1/sqrt(runs): all four read
        0.1357-0.1397 +- 0.004-0.005 and failed."""
        row, = crossing_scan(kappa=1.0, n=0.5, g_values=[0.10, 0.14, 0.18, 0.22],
                             cells=[(8.0, 1.0)], runs_per_cell=12, segments_per_record=24,
                             master_seed=master_seed)
        assert row["g_cross"] is not None
        assert abs(row["g_cross"] - 1.0 / 6.0) <= 3.0 * row["sigma"] + 0.01

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
