"""The single analysis path applied identically to every dataset.

Records are band-limited, demodulated into the rotating frame, segmented,
and reduced to an empirical covariance matrix from which both witnesses are
computed; the filter's closed-form vacuum transfer calibrates it.  No code
in this module branches on the record's provenance tag: quantum and
classical null datasets flow through literally the same code.

Estimator.  The one segment statistic is the per-segment second-moment
matrix S_i = mean_k R_k R_k^T over segment i (records are zero-mean by
construction).  Averaging the S_i gives an estimate of V that is unbiased
for any stationary record regardless of its spectral composition, which
matters because null-model records mix classical and vacuum correlation
times, and two-mode-squeezed records relax at two rates; segment-level
bootstrap resampling supplies the uncertainties, with each segment of
length T at bandwidth B carrying N_eff = T * B effective samples; one
bootstrap draw per record gives both the entry-wise and the witness
standard errors.  Singular estimates are refused, never scored: see
witness_from_estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

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
from .trajectory import TrajectoryConfig, TrajectoryRecord, _ensemble, derive_stream_seed

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


def _segment_statistic(value) -> str:
    """The one segment statistic, "second_moment"; any other value is refused."""
    if value != "second_moment":
        raise ValidationError(f"segment_statistic must be 'second_moment', got {value!r}")
    return value


@dataclass(frozen=True)
class PipelineConfig(ConfigFields):
    """Fixed-before-data analysis settings.

    bandwidth and demod_frequency are in cycles per unit time of the record;
    integration_time is the segment length in the same time units.  The
    product integration_time * bandwidth is the effective number of
    independent samples per segment and must be >= 1.  segment_statistic
    has the one value "second_moment"; the field stays so that configs
    naming it, and the digests of every config, keep working.
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
        _segment_statistic(self.segment_statistic)


@dataclass
class EstimatedCovariance:
    """Empirical covariance with segment-bootstrap standard errors.

    stderr_nu and stderr_duan come from the same replicates as stderr (NaN
    if one has no real PT root; all of them are NaN with fewer than two
    replicates).  calibration is the accumulated vacuum-reference transfer
    of any applied band-limit filters, already divided out of V_hat and
    stderr, and reported, never hidden.  source is the record's provenance
    tag, which only groups the outputs.
    """

    V_hat: np.ndarray
    n_segments: int
    n_eff: float
    stderr: np.ndarray
    stderr_nu: float
    stderr_duan: float
    calibration: float
    source: str


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


def _pole_decay(B: float, dt: float) -> float:
    """2 pi f_c dt, minus the log of filter_pole_coefficient(B, dt)."""
    return 2.0 * math.pi * ((B / 2.0) / math.sqrt(math.sqrt(2.0) - 1.0)) * dt


def filter_pole_coefficient(B: float, dt: float) -> float:
    """AR(1) pole of the single-pass low-pass whose two-pass -3 dB point is B/2."""
    return math.exp(-_pole_decay(B, dt))


def vacuum_transfer(B: float, dt: float, kappa: float) -> float:
    """Variance transfer of the band-limit filter on the vacuum reference.

    (1/pi) int_0^pi S(w) |H(w)|^4 dw for the unit-variance AR(1) spectrum S
    of a sampled Lorentzian at the mode linewidth, pole r = exp(-kappa dt/2),
    and the filter H at pole a = filter_pole_coefficient(B, dt).  Its exact
    residue sum g ((1 + a^2)(1 + ar) / (1 + a)^2 + 2 ar g), with
    g = (1 - a) / ((1 + a)(1 - ar)), adds positive terms only, 1 - a and
    1 - r taken from expm1.  Dividing estimated covariances by it restores
    the vacuum floor to exactly 1/2 for records whose every component shares
    the mode linewidth, and keeps classical records classical (a PSD matrix
    plus the vacuum floor), so filtering cannot cross the bounds.
    """
    x, y = _pole_decay(B, dt), 0.5 * kappa * dt
    a, r = math.exp(-x), math.exp(-y)
    u, v = -math.expm1(-x), -math.expm1(-y)  # 1 - a and 1 - r
    g = u / ((1.0 + a) * (u + a * v))
    return g * ((1.0 + a * a) * (1.0 + a * r) / (1.0 + a) ** 2 + 2.0 * a * r * g)


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

    A single-pole filter run forward and backward; length preserving.  Its
    vacuum-reference variance transfer accumulates in the record metadata to
    calibrate covariance estimates.  Not idempotent: for a cascade the product
    of transfers is a lower bound (each |H|^4 falls with frequency; Chebyshev's
    sum inequality), so a twice-filtered estimate reads high and can withhold
    a verdict, never make one.
    """
    B = real(B, "bandwidth", above=0.0)
    nyquist = 1.0 / (2.0 * record.dt)
    if B > nyquist:
        raise BandwidthExceedsNyquistError(
            f"bandwidth {B:g} exceeds record Nyquist {nyquist:g}"
        )
    a = filter_pole_coefficient(B, record.dt)
    if a == 1.0:
        raise ValidationError(f"bandwidth {B:g} is too small for dt {record.dt:g}: pole rounds to 1")
    n = record.n_steps
    tau = -1.0 / math.log(a)
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


def _mean_of_moments(stats: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """stats[idx].mean(axis=-3) for the (..., n_seg) draws idx of (n_seg, 4, 4)
    second moments, without the (..., n_seg, 4, 4) gather.

    numpy sums an outer axis in index order, and so does this, one draw
    column at a time into one accumulator, so the two agree bit for bit.
    take writes into `drawn` directly only in a mode other than "raise";
    "clip" changes no draw of rng.integers(0, n_seg).
    """
    total = np.take(stats, idx[..., 0], axis=0)
    drawn = np.empty_like(total)
    for j in range(1, idx.shape[-1]):
        total += np.take(stats, idx[..., j], axis=0, out=drawn, mode="clip")
    total /= idx.shape[-1]
    return total


def estimate_covariance(record: TrajectoryRecord, config: PipelineConfig) -> EstimatedCovariance:
    """Segmented covariance estimate with bootstrap uncertainties.

    The record, row- or channel-major, is split into floor(duration / T)
    non-overlapping segment views of length T = config.integration_time, each
    giving one second-moment matrix.  Their mean is the covariance estimate,
    and each segment-level bootstrap replicate is the same sum over its draws,
    whose spread gives the per-entry and the witness standard errors.
    Replicates are summed draw by draw, so the bootstrap holds no
    (resamples, n_seg, 4, 4) array.  N_eff = T * B is reported alongside.
    """
    m = int(round(config.integration_time / record.dt))
    if m < 1:
        raise ValidationError("integration_time shorter than one sample")
    n_seg = record.n_steps // m
    if n_seg < 2:
        raise TooFewSegmentsError(
            f"record holds {record.n_steps} samples, need >= 2 segments of {m}"
        )
    X = record.samples[: n_seg * m].T.reshape(4, n_seg, m).transpose(1, 2, 0)
    cal = _record_calibration(record)
    stats = X.swapaxes(1, 2) @ X / m
    V_hat = symmetrize(stats.mean(axis=0)) / cal

    resamples = config.bootstrap_resamples
    if resamples >= 2:
        rng = np.random.Generator(
            np.random.PCG64(derive_stream_seed(record.seed, _BOOT_STREAM))
        )
        idx = rng.integers(0, n_seg, size=(resamples, n_seg))
        boot = _mean_of_moments(stats, idx) / cal
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
        calibration=cal,
        source=record.source.value,
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
    """(T, B) pairs of positive reals, each with N_eff = T * B >= 1."""
    cells = [(real(T, "T", above=0.0), real(B, "B", above=0.0)) for T, B in cells]
    for T, B in cells:
        if T * B < 1.0:
            raise ValidationError(f"cells need T * B >= 1, got T {T!r} and B {B!r}")
    return cells


def _checked_couplings(g_values) -> list[float]:
    """Coupling ratios g = G/kappa, sorted, each with 0 <= g < 1/2 (2G < kappa)."""
    g_values = sorted(real(g, "g_values", at_least=0.0) for g in g_values)
    if g_values and g_values[-1] >= 0.5:
        raise ValidationError(f"g_values must be < 0.5 (2G < kappa), got {g_values[-1]!r}")
    return g_values


def _cell_witness(A, D, kappa, T, B, runs, segments_per_record, seed) -> WitnessReport:
    """Ensemble witness of one (T, B) cell over `runs` fresh records of
    segments_per_record segments each, sampled at dt = min(0.1, 1/(8B)) and
    carrying the mode linewidth kappa, which calibrates the band-limit filter.
    PipelineConfig's T * B >= 1 leaves every segment >= 8 samples long.
    No bootstrap: the ensemble witness reads only each record's V_hat.
    Records are drawn one at a time and map lets go of each once it is
    estimated, so one record is alive however many runs the cell has."""
    pconf = PipelineConfig(bandwidth=B, integration_time=T, bootstrap_resamples=0)
    dt = min(0.1, 1.0 / (8.0 * pconf.bandwidth))
    m = int(round(pconf.integration_time / dt))
    cfg = TrajectoryConfig(dt=dt, n_steps=segments_per_record * m, master_seed=seed)
    records = _ensemble(A, D, cfg, runs, meta={"kappa": kappa})
    return witness_with_uncertainty(map(partial(analyze_record, config=pconf), records))


def convergence_sweep(
    A: np.ndarray,
    D: np.ndarray,
    cells,
    runs_per_cell: int = 16,
    segments_per_record: int = 24,
    master_seed: int = 0,
    kappa: float = 1.0,
) -> dict:
    """Witness mean and standard error versus N_eff = T * B.

    For each (T, B) cell, fresh trajectories are generated, pushed through
    the pipeline, and reduced to the ensemble witness; the fitted slope of
    log(stderr) against log(N_eff) is returned along with the per-cell rows.
    With the number of runs and segments held fixed across cells, the
    standard error scales as N_eff^(-1/2).  The slope needs cells at two or
    more distinct N_eff values.  kappa is the mode linewidth of the dynamics
    (A, D), which every sampled record carries, as simulate's records do.
    """
    runs_per_cell = count(runs_per_cell, "runs_per_cell", at_least=2)
    segments_per_record = count(segments_per_record, "segments_per_record", at_least=2)
    kappa = real(kappa, "kappa", above=0.0)
    cells = _checked_cells(cells)
    if len({T * B for T, B in cells}) < 2:
        raise ValidationError("convergence sweep needs cells at >= 2 distinct N_eff = T * B")
    rows = []
    for i, (T, B) in enumerate(cells):
        rep = _cell_witness(
            A, D, kappa, T, B, runs_per_cell, segments_per_record,
            derive_stream_seed(master_seed, 1000 + i),
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
) -> list[dict]:
    """Estimated location of the separability threshold for each (T, B) cell.

    Scans the coupling ratio g = G/kappa across the boundary, estimates the
    ensemble-mean smallest PT symplectic eigenvalue per grid point, and
    interpolates the crossing of the 1/2 bound.  The crossing location is a
    state property; within uncertainty it must not depend on T or B.  Every
    argument is checked before the first record is drawn.
    """
    n = real(n, "n", at_least=0.0)
    g_values = _checked_couplings(g_values)
    cells = _checked_cells(cells)
    runs_per_cell = count(runs_per_cell, "runs_per_cell", at_least=2)
    segments_per_record = count(segments_per_record, "segments_per_record", at_least=2)
    rows = []
    for ci, (T, B) in enumerate(cells):
        means, errs = [], []
        for gi, g in enumerate(g_values):
            A, D = closed_form_dynamics(g * kappa, kappa, n)
            rep = _cell_witness(
                A, D, kappa, T, B, runs_per_cell, segments_per_record,
                derive_stream_seed(master_seed, 10000 + 100 * ci + gi),
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
