"""The single analysis path applied identically to every dataset.

Records are band-limited, demodulated into the rotating frame, segmented,
and reduced to an empirical covariance matrix from which both witnesses are
computed.  There is no branching on the record's provenance tag anywhere in
this module: quantum and classical null datasets flow through literally the
same code.

Estimator.  The default segment statistic is the per-segment second-moment
matrix S_i = mean_k R_k R_k^T over segment i (records are zero-mean by
construction).  Averaging the S_i gives an estimate of V that is unbiased
for any stationary record regardless of its spectral composition, which
matters because null-model records mix classical and vacuum correlation
times; segment-level bootstrap resampling supplies the uncertainties, with
each segment of length T at bandwidth B carrying N_eff = T * B effective
samples; one bootstrap draw per record gives both the entry-wise and the
witness standard errors.  The alternative "mean" statistic (per-segment
quadrature means, rescaled by the known Ornstein-Uhlenbeck segment-averaging
attenuation factor at the record's linewidth) is also provided; it is exact
only for single-rate records and is kept for cross-checks, with the applied
factor reported rather than hidden.  Singular estimates are refused, never
scored: see witness_from_estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpttrs

from ._fields import ConfigFields, count, real
from .errors import (
    BandwidthExceedsNyquistError,
    InsufficientEnsembleError,
    TooFewSegmentsError,
    ValidationError,
)
from .entanglement import WitnessReport, _checked_witnesses, _duan_sum, _nu_minus, make_report
from .gaussian_core import closed_form_dynamics, symmetrize
from .trajectory import (
    TrajectoryConfig,
    TrajectoryRecord,
    derive_stream_seed,
    sample_ensemble,
)

__all__ = [
    "PipelineConfig",
    "EstimatedCovariance",
    "bandlimit",
    "demodulate",
    "estimate_covariance",
    "witness_from_estimate",
    "witness_with_uncertainty",
    "analyze_record",
    "convergence_sweep",
    "crossing_scan",
]

_BOOT_STREAM = 0xBEEF

MIN_MEAN_SEGMENTS = 5


@dataclass(frozen=True)
class PipelineConfig(ConfigFields):
    """Fixed-before-data analysis settings.

    bandwidth and demod_frequency are in cycles per unit time of the record;
    integration_time is the segment length in the same time units.  The
    product integration_time * bandwidth is the effective number of
    independent samples per segment and must be >= 1.
    """

    bandwidth: float
    integration_time: float
    demod_frequency: float = 0.0
    bootstrap_resamples: int = 1000
    segment_statistic: str = "second_moment"

    def __post_init__(self):
        object.__setattr__(self, "bandwidth", real(self.bandwidth, "bandwidth", above=0.0))
        object.__setattr__(
            self, "integration_time", real(self.integration_time, "integration_time", above=0.0)
        )
        object.__setattr__(self, "demod_frequency", real(self.demod_frequency, "demod_frequency"))
        object.__setattr__(
            self,
            "bootstrap_resamples",
            count(self.bootstrap_resamples, "bootstrap_resamples", at_least=0),
        )
        if self.integration_time * self.bandwidth < 1.0:
            raise ValidationError("need integration_time * bandwidth >= 1")
        if self.segment_statistic not in ("second_moment", "mean"):
            raise ValidationError("segment_statistic must be 'second_moment' or 'mean'")


@dataclass
class EstimatedCovariance:
    """Empirical covariance with segment-bootstrap standard errors.

    stderr_nu and stderr_duan come from the same replicates as stderr (NaN
    if one has no real PT root; all of them are NaN with fewer than two
    replicates).  calibration is the accumulated vacuum-reference transfer
    of any applied band-limit filters (already divided out of V_hat and
    stderr); attenuation is the segment-averaging factor of the "mean"
    statistic (1.0 for second moments).  Both are reported, never hidden.
    """

    V_hat: np.ndarray
    n_segments: int
    n_eff: float
    stderr: np.ndarray
    stderr_nu: float
    stderr_duan: float
    attenuation: float
    calibration: float
    statistic: str
    record_seed: int
    source: str
    config_hash: str
    meta: dict = field(default_factory=dict)


def _record_kappa(record: TrajectoryRecord) -> float:
    """The mode linewidth a record carries in its metadata, 1.0 if it has none."""
    return real(record.meta.get("kappa", 1.0), "kappa", above=0.0)


def _record_calibration(record: TrajectoryRecord) -> float:
    """The accumulated band-limit transfer in a record's metadata, 1.0 if none."""
    return real(record.meta.get("bandlimit_cal", 1.0), "bandlimit_cal", above=0.0)


def _record_bands(record: TrajectoryRecord) -> list[float]:
    """The bandwidths already applied to a record, in order."""
    bands = record.meta.get("bandlimit", [])
    if not isinstance(bands, list):
        raise ValidationError(f"bandlimit must be a list of bandwidths, got {bands!r}")
    return [real(b, "bandlimit", above=0.0) for b in bands]


def filter_pole_coefficient(B: float, dt: float) -> float:
    """AR(1) pole of the single-pass low-pass whose two-pass -3 dB point is B/2."""
    fc = (B / 2.0) / math.sqrt(math.sqrt(2.0) - 1.0)
    return math.exp(-2.0 * math.pi * fc * dt)


def vacuum_transfer(B: float, dt: float, kappa: float, n_grid: int = 4096) -> float:
    """Variance transfer of the band-limit filter on the vacuum reference.

    Ratio of filtered to unfiltered variance for a sampled Lorentzian
    process at the mode linewidth (amplitude decay kappa/2), computed from
    the discrete AR(1) spectrum and the zero-phase filter's power response.
    Dividing estimated covariances by this factor restores the vacuum floor
    to exactly 1/2, i.e. the usual shot-noise normalization; it is exact for
    records whose every component shares the mode linewidth, and it keeps
    classical records classical (the rescaled state is still a PSD matrix
    plus the vacuum floor), so the bounds cannot be crossed by filtering.
    """
    r = math.exp(-0.5 * kappa * dt)
    a = filter_pole_coefficient(B, dt)
    w = np.linspace(0.0, math.pi, n_grid)
    cw = np.cos(w)
    spec = (1.0 - r * r) / (1.0 - 2.0 * r * cw + r * r)
    gain = ((1.0 - a) ** 2 / (1.0 - 2.0 * a * cw + a * a)) ** 2
    dw = np.diff(w)

    def trapezoid(y):
        # scipy.integrate.trapezoid's order of operations, bit for bit
        return np.sum(dw * (y[1:] + y[:-1]) / 2.0)

    return float(trapezoid(spec * gain) / trapezoid(spec))


def _zero_phase_lowpass(x: np.ndarray, a: float, padlen: int) -> np.ndarray:
    """The single pole 1 - a over 1 - a z^-1 run forward and backward over
    the columns of x, after odd extension by padlen samples at each end.

    Each pass starts from the filter's steady state for its first input, so
    this is scipy.signal.filtfilt([1 - a], [1, -a], x, axis=0, padlen=padlen)
    up to rounding.  The forward pass is the unit lower bidiagonal L with
    subdiagonal -a, the backward pass its transpose, so both are one
    symmetric tridiagonal solve of L diag(d) L^T: the forward steady state
    zi x_0 enters row 0 of the input, and d[-1] = b0 / (zi + b0) starts the
    backward pass from its steady state zi y_last.
    """
    b0 = 1.0 - a
    zi = a * b0 / (1.0 - a)  # scipy.signal.lfilter_zi's value, computed as it computes it
    # one channel per row: LAPACK solves the column-major ext.T in place, so y is channel-major
    xt = x.T
    ext = np.concatenate(
        (2 * xt[:, :1] - xt[:, padlen:0:-1], xt, 2 * xt[:, -1:] - xt[:, -2 : -(padlen + 2) : -1]),
        axis=1,
    )
    first = zi * ext[:, 0]
    ext *= b0
    ext[:, 0] += first
    d = np.ones(ext.shape[1])
    d[-1] = b0 / (zi + b0)
    # the LAPACK wrapper refuses an empty e, so a one-sample record gets one unread entry
    e = np.full(max(ext.shape[1] - 1, 1), -a)
    y = dpttrs(d, e, ext.T, overwrite_b=True)[0][padlen : padlen + x.shape[0]]
    return np.multiply(y, b0, out=y)


def bandlimit(record: TrajectoryRecord, B: float) -> TrajectoryRecord:
    """Zero-phase low-pass with -3 dB point at B/2 (cycles per unit time).

    A single-pole filter run forward and backward; length preserving.  Not
    idempotent: filtering twice cascades the transfer function.  The
    vacuum-reference variance transfer of the applied filter accumulates in
    the record metadata so covariance estimates can be calibrated.
    """
    B = real(B, "bandwidth", above=0.0)
    nyquist = 1.0 / (2.0 * record.dt)
    if B > nyquist:
        raise BandwidthExceedsNyquistError(
            f"bandwidth {B:g} exceeds record Nyquist {nyquist:g}"
        )
    a = filter_pole_coefficient(B, record.dt)
    n = record.n_steps
    tau = -1.0 / math.log(a) if a > 0 else 1.0
    padlen = int(min(n - 1, max(6, 10.0 * tau)))
    meta = dict(record.meta)
    meta["bandlimit"] = _record_bands(record) + [B]
    meta["bandlimit_cal"] = _record_calibration(record) * vacuum_transfer(
        B, record.dt, _record_kappa(record)
    )
    filtered = _zero_phase_lowpass(record.samples, a, padlen)
    return TrajectoryRecord(
        samples=filtered, dt=record.dt, source=record.source, seed=record.seed, meta=meta
    )


def demodulate(record: TrajectoryRecord, f0: float) -> TrajectoryRecord:
    """Rotate each mode's (X, P) pair by the angle -2 pi f0 t.

    f0 = 0 is the exact identity; simulator output is already in the
    rotating frame.
    """
    f0 = real(f0, "demodulation frequency")
    demod = real(record.meta.get("demod", 0.0), "demod")
    if f0 == 0.0:
        return record
    theta = -2.0 * math.pi * f0 * record.times()
    c, s = np.cos(theta), np.sin(theta)
    X = record.samples
    out = np.empty_like(X)
    out[:, 0] = c * X[:, 0] - s * X[:, 1]
    out[:, 1] = s * X[:, 0] + c * X[:, 1]
    out[:, 2] = c * X[:, 2] - s * X[:, 3]
    out[:, 3] = s * X[:, 2] + c * X[:, 3]
    meta = dict(record.meta)
    meta["demod"] = demod + f0
    return TrajectoryRecord(
        samples=out, dt=record.dt, source=record.source, seed=record.seed, meta=meta
    )


def _ou_mean_attenuation(gamma: float, dt: float, m: int) -> float:
    """Variance attenuation of an m-sample segment mean of an OU process.

    c = (1/m^2) sum_{k,l} r^|k-l| with r = exp(-gamma dt); the segment-mean
    covariance of a single-rate record is c times its true covariance.
    """
    r = math.exp(-gamma * dt)
    if m == 1:
        return 1.0
    j = np.arange(1, m)
    return float(1.0 / m + (2.0 / m**2) * np.sum((m - j) * r**j))


def _cov_of_means(stats: np.ndarray) -> np.ndarray:
    """Sample covariance (ddof 1) of (..., n_seg, 4) segment means, with
    numpy's own order of operations, so one matrix matches numpy bit for bit."""
    d = stats - stats.mean(axis=-2, keepdims=True)
    return d.swapaxes(-1, -2) @ d * (1.0 / (stats.shape[-2] - 1))


def estimate_covariance(record: TrajectoryRecord, config: PipelineConfig) -> EstimatedCovariance:
    """Segmented covariance estimate with bootstrap uncertainties.

    The record, row- or channel-major, is split into floor(duration / T)
    non-overlapping segment views of length T = config.integration_time, each
    giving one statistic (second moments by default), and one reduction of the
    segment statistics gives both the covariance estimate and each
    segment-level bootstrap replicate, whose spread gives the per-entry and
    the witness standard errors.  N_eff = T * B is reported alongside.  The
    sample covariance of k segment means in 4-D has rank <= k - 1, so the
    "mean" statistic needs MIN_MEAN_SEGMENTS segments.
    """
    dt = record.dt
    m = int(round(config.integration_time / dt))
    if m < 1:
        raise ValidationError("integration_time shorter than one sample")
    n_seg = record.n_steps // m
    if n_seg < 2:
        raise TooFewSegmentsError(
            f"record holds {record.n_steps} samples, need >= 2 segments of {m}"
        )
    if config.segment_statistic == "mean" and n_seg < MIN_MEAN_SEGMENTS:
        raise TooFewSegmentsError(
            f"the 'mean' statistic needs >= {MIN_MEAN_SEGMENTS} segments for a "
            f"full-rank covariance, record holds {n_seg} segments of {m} samples"
        )
    X = record.samples[: n_seg * m].T.reshape(4, n_seg, m).transpose(1, 2, 0)
    cal = _record_calibration(record)

    if config.segment_statistic == "second_moment":
        stats = X.swapaxes(1, 2) @ X / m
        reduce, atten = (lambda s: s.mean(axis=-3)), 1.0
    else:
        stats = X.mean(axis=1)
        reduce, atten = _cov_of_means, _ou_mean_attenuation(_record_kappa(record) / 2.0, dt, m)
    V_hat = symmetrize(reduce(stats)) / (atten * cal)

    resamples = config.bootstrap_resamples
    if resamples >= 2:
        rng = np.random.Generator(
            np.random.PCG64(derive_stream_seed(record.seed, _BOOT_STREAM))
        )
        idx = rng.integers(0, n_seg, size=(resamples, n_seg))
        boot = reduce(stats[idx]) / (atten * cal)
        stderr = boot.std(axis=0, ddof=1)
        boot = symmetrize(boot)
        stderr_nu = float(_nu_minus(boot).std(ddof=1))
        stderr_duan = float(_duan_sum(boot).std(ddof=1))
    else:
        # fewer than two replicates have no spread: no standard error, no verdict
        stderr = np.full((4, 4), np.nan)
        stderr_nu = stderr_duan = math.nan

    return EstimatedCovariance(
        V_hat=V_hat,
        n_segments=int(n_seg),
        n_eff=config.integration_time * config.bandwidth,
        stderr=stderr,
        stderr_nu=stderr_nu,
        stderr_duan=stderr_duan,
        attenuation=atten,
        calibration=cal,
        statistic=config.segment_statistic,
        record_seed=record.seed,
        source=record.source.value,
        config_hash=config.digest(),
        meta={"dt": dt, "samples_per_segment": m},
    )


def witness_from_estimate(est: EstimatedCovariance) -> WitnessReport:
    """Witness pair for one estimate, with its segment-bootstrap standard errors.

    A NaN witness standard error fails every 3-sigma test, so a bootstrap
    replicate without a real PT root, or a run with fewer than two
    replicates, can block a verdict but never make one.
    """
    nu, duan = _checked_witnesses(est.V_hat)
    return make_report(nu, duan, est.stderr_nu, est.stderr_duan)


def witness_with_uncertainty(estimates) -> WitnessReport:
    """Ensemble witness: mean and standard error over independent estimates."""
    estimates = list(estimates)
    if len(estimates) < 2:
        raise InsufficientEnsembleError("need at least two independent estimates")
    vals = np.column_stack(_checked_witnesses(np.stack([e.V_hat for e in estimates])))
    m = len(estimates)
    nu_mean, duan_mean = vals.mean(axis=0)
    nu_se = float(vals[:, 0].std(ddof=1)) / math.sqrt(m)
    duan_se = float(vals[:, 1].std(ddof=1)) / math.sqrt(m)
    return make_report(nu_mean, duan_mean, nu_se, duan_se)


def analyze_record(record: TrajectoryRecord, config: PipelineConfig) -> EstimatedCovariance:
    """The shared entry point: band-limit, demodulate, estimate.

    Applied identically to every record; nothing in this path inspects the
    record's provenance tag.
    """
    processed = bandlimit(record, config.bandwidth)
    processed = demodulate(processed, config.demod_frequency)
    return estimate_covariance(processed, config)


def _checked_cells(cells) -> list[tuple[float, float]]:
    """(T, B) pairs of positive reals."""
    return [(real(T, "T", above=0.0), real(B, "B", above=0.0)) for T, B in cells]


def _cell_witness(
    A, D, T, B, runs, segments_per_record, seed, segment_statistic
) -> WitnessReport:
    """Ensemble witness of one (T, B) cell over `runs` fresh records of
    segments_per_record segments each, sampled at dt = min(0.1, 1/(8B)).
    PipelineConfig's T * B >= 1 leaves every segment >= 8 samples long.
    No bootstrap: the ensemble witness reads only each record's V_hat."""
    pconf = PipelineConfig(
        bandwidth=B,
        integration_time=T,
        bootstrap_resamples=0,
        segment_statistic=segment_statistic,
    )
    dt = min(0.1, 1.0 / (8.0 * pconf.bandwidth))
    m = int(round(pconf.integration_time / dt))
    cfg = TrajectoryConfig(dt=dt, n_steps=segments_per_record * m, master_seed=seed)
    return witness_with_uncertainty(
        analyze_record(r, pconf) for r in sample_ensemble(A, D, cfg, runs)
    )


def convergence_sweep(
    A: np.ndarray,
    D: np.ndarray,
    cells,
    runs_per_cell: int = 16,
    segments_per_record: int = 24,
    master_seed: int = 0,
    segment_statistic: str = "second_moment",
) -> dict:
    """Witness mean and standard error versus N_eff = T * B.

    For each (T, B) cell, fresh trajectories are generated, pushed through
    the pipeline, and reduced to the ensemble witness; the fitted slope of
    log(stderr) against log(N_eff) is returned along with the per-cell rows.
    With the number of runs and segments held fixed across cells, the
    standard error scales as N_eff^(-1/2).  The slope needs cells at two or
    more distinct N_eff values.
    """
    runs_per_cell = count(runs_per_cell, "runs_per_cell", at_least=2)
    cells = _checked_cells(cells)
    if len({T * B for T, B in cells}) < 2:
        raise ValidationError("convergence sweep needs cells at >= 2 distinct N_eff = T * B")
    rows = []
    for i, (T, B) in enumerate(cells):
        rep = _cell_witness(
            A, D, T, B, runs_per_cell, segments_per_record,
            derive_stream_seed(master_seed, 1000 + i), segment_statistic,
        )
        rows.append(
            {
                "T": T,
                "B": B,
                "n_eff": T * B,
                "nu_mean": rep.nu_minus,
                "nu_stderr": rep.stderr_nu,
                "duan_mean": rep.duan_sum,
                "duan_stderr": rep.stderr_duan,
                "n_runs": runs_per_cell,
            }
        )
    log_neff = np.log([r["n_eff"] for r in rows])
    slope_nu = float(np.polyfit(log_neff, np.log([r["nu_stderr"] for r in rows]), 1)[0])
    slope_duan = float(np.polyfit(log_neff, np.log([r["duan_stderr"] for r in rows]), 1)[0])
    return {"rows": rows, "slope_nu": slope_nu, "slope_duan": slope_duan}


def crossing_scan(
    kappa: float,
    n: float,
    g_values,
    cells,
    runs_per_cell: int = 12,
    segments_per_record: int = 24,
    master_seed: int = 0,
    segment_statistic: str = "second_moment",
) -> list[dict]:
    """Estimated location of the separability threshold for each (T, B) cell.

    Scans the coupling ratio g = G/kappa across the boundary, estimates the
    ensemble-mean smallest PT symplectic eigenvalue per grid point, and
    interpolates the crossing of the 1/2 bound.  The crossing location is a
    state property; within uncertainty it must not depend on T or B.
    """
    g_values = sorted(real(g, "g_values") for g in g_values)
    rows = []
    for ci, (T, B) in enumerate(_checked_cells(cells)):
        means, errs = [], []
        for gi, g in enumerate(g_values):
            A, D = closed_form_dynamics(g * kappa, kappa, n)
            rep = _cell_witness(
                A, D, T, B, runs_per_cell, segments_per_record,
                derive_stream_seed(master_seed, 10000 + 100 * ci + gi), segment_statistic,
            )
            means.append(rep.nu_minus)
            errs.append(rep.stderr_nu)
        g_cross = sigma = None
        for j in range(1, len(g_values)):
            if means[j - 1] >= 0.5 > means[j]:
                slope = (means[j] - means[j - 1]) / (g_values[j] - g_values[j - 1])
                g_cross = g_values[j - 1] + (0.5 - means[j - 1]) / slope
                sigma = 0.5 * (errs[j - 1] + errs[j]) / abs(slope)
                break
        rows.append({"T": T, "B": B, "g_cross": g_cross, "sigma": sigma})
    return rows
