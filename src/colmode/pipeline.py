"""The single analysis path applied identically to every dataset.

Records are demodulated into the rotating frame, band-limited, segmented,
and reduced to an empirical covariance matrix from which both witnesses are
computed; the filter's closed-form vacuum transfer calibrates it.  No code
in this module branches on the record's provenance tag: quantum and
classical null datasets flow through literally the same code.

Estimator.  The one segment statistic is the per-segment second-moment
matrix S_i = mean_k R_k R_k^T over segment i (records are zero-mean by
construction).  Averaging the S_i gives an estimate of V that is unbiased
for any stationary record regardless of its spectral composition, which
matters because null-model records mix classical and vacuum correlation
times, and two-mode-squeezed records relax at two rates; each segment of
length T at bandwidth B carries N_eff = T * B effective samples.  An
ensemble is more segments: its estimate is the segment-weighted mean of its
records' estimates.  One rule gives every standard error, the delete-one
jackknife (Quenouille 1956, Tukey 1958): leave one unit out, a segment of
a record or a record of an ensemble, and take the spread of both witnesses
over the k estimates that remain.  Singular estimates are refused, never
scored: see witness_from_estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ._fields import ConfigFields, checked, count, real
from .errors import (
    BandwidthExceedsNyquistError,
    InsufficientEnsembleError,
    TooFewSegmentsError,
    ValidationError,
)
from .entanglement import WitnessReport, _checked_witnesses, _duan_sum, _nu_minus, make_report
from .gaussian_core import closed_form_dynamics, symmetrize
from .trajectory import (
    _MAX_PATH_ROWS, TrajectoryConfig, TrajectoryRecord, _ensemble, _linear_recurrence,
    _Recurrence, derive_stream_seed,
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

# rows of a record demodulated at a time
_ROTATE_ROWS = 4096


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
    bootstrap_resamples is ignored: the jackknife needs no draws.  It is
    still checked as a count, and keeps its default in every digest, so
    that older configs that set it keep working.
    """

    bandwidth: float = checked(real, above=0.0)
    integration_time: float = checked(real, above=0.0)
    demod_frequency: float = checked(real, 0.0)
    bootstrap_resamples: int = checked(count, 1000, at_least=0)
    segment_statistic: str = checked(_segment_statistic, "second_moment")

    def __post_init__(self):
        super().__post_init__()
        if self.integration_time * self.bandwidth < 1.0:
            raise ValidationError("need integration_time * bandwidth >= 1")


@dataclass
class EstimatedCovariance:
    """Empirical covariance and the per-segment moments it is the mean of.

    moments are the record's (n_segments, 4, 4) per-segment second
    moments, from which witness_from_estimate takes the delete-one jackknife
    standard errors.  calibration is the accumulated vacuum-reference
    transfer of any applied band-limit filters, already divided out of V_hat
    and the moments, and reported, never hidden.  source is the record's
    provenance tag, which only groups the outputs.
    """

    V_hat: np.ndarray
    n_segments: int
    n_eff: float
    moments: np.ndarray
    calibration: float
    source: str


def _record_calibration(record: TrajectoryRecord) -> float:
    """The accumulated band-limit transfer in a record's metadata, 1.0 if none."""
    return real(record.meta.get("bandlimit_cal", 1.0), "bandlimit_cal", above=0.0)


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


class _Lowpass:
    """The single pole 1 - a over 1 - a z^-1 run forward and backward over
    the four columns of a record, after odd extension by padlen samples at each
    end, prepared once for every record it filters.

    Each pass starts from the filter's steady state for its first input, so
    this is scipy.signal.filtfilt([1 - a], [1, -a], x, axis=0, padlen=padlen)
    up to rounding.  Both passes are the sampler's AR(1) kernel, F = a I with
    gain 1 - a, over the record's own rows: forward, then reversed.  The odd
    extensions never exist.  Each pass over the padding ends in a state
    linear in the padding, which enters the record's first row (forward) or
    last row (backward) as a weighted sum:
      - forward, the extension sample 2 x_0 - x_k weighs a^k, k = 1 ..
        padlen, and the first one zi/b0 a^padlen more, zi x_0 being the
        filter's steady state and b0 = 1 - a;
      - backward, 2 x_last - x_(last-k) runs forward and back through the
        padding: it weighs b0 (a^k (1 - a^(2 (padlen - k + 1))) / (1 - a^2)
        + zi/b0 a^(2 padlen - k)), and the record's forward-filtered last
        row the same at k = 0, divided by b0.
    """

    def __init__(self, a: float, padlen: int):
        b0 = 1.0 - a
        zi = a * b0 / (1.0 - a)  # scipy.signal.lfilter_zi's value, computed as it computes it
        k = np.arange(padlen + 1)
        ak = a**k
        self.head = ak.copy()
        self.head[-1] *= 1.0 + zi / b0
        tail = ak * -np.expm1(2.0 * math.log(a) * (padlen + 1 - k)) / (b0 * (1.0 + a))
        tail += (zi / b0) * ak[-1] * ak[::-1]
        self.last, self.tail = tail[0], b0 * tail[1:]
        self.padlen = padlen
        self.ops = _Recurrence(a * np.eye(4), gain=b0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """x filtered in its own buffer, or, if x is not C-contiguous, in a
        C-contiguous copy that is written back; returns x."""
        y = x if x.flags.c_contiguous else np.ascontiguousarray(x)
        # the padding's sums, from the samples before either pass
        first = self.head[1:] @ (2.0 * y[0] - y[1 : self.padlen + 1])
        last = self.tail @ (2.0 * y[-1] - y[-2 : -(self.padlen + 2) : -1])
        y[0] *= self.head[0]
        y[0] += first
        _linear_recurrence(self.ops, y)
        y[-1] *= self.last
        y[-1] += last
        _linear_recurrence(self.ops, y, reverse=True)
        if y is not x:
            x[:] = y
        return x


def _bandlimit_pass(record: TrajectoryRecord, B: float):
    """(pole a, padlen, meta entries) of bandlimit's pass over record.  B and
    every meta field the pass reads are checked here, so a caller that runs
    the pass in place can refuse a record before a sample is touched."""
    B = real(B, "bandwidth", above=0.0)
    nyquist = 1.0 / (2.0 * record.dt)
    if B > nyquist:
        raise BandwidthExceedsNyquistError(
            f"bandwidth {B:g} exceeds record Nyquist {nyquist:g}"
        )
    a = filter_pole_coefficient(B, record.dt)
    if a == 1.0:
        raise ValidationError(f"bandwidth {B:g} is too small for dt {record.dt:g}: pole rounds to 1")
    tau = -1.0 / math.log(a)
    padlen = int(min(record.n_steps - 1, max(6, 10.0 * tau)))
    bands = record.meta.get("bandlimit", [])
    if not isinstance(bands, list):
        raise ValidationError(f"bandlimit must be a list of bandwidths, got {bands!r}")
    bands = [real(b, "bandlimit", above=0.0) for b in bands] + [B]
    cal = _record_calibration(record) * vacuum_transfer(
        B, record.dt, real(record.meta.get("kappa", 1.0), "kappa", above=0.0)
    )
    return a, padlen, {"bandlimit": bands, "bandlimit_cal": cal}


def bandlimit(record: TrajectoryRecord, B: float) -> TrajectoryRecord:
    """Zero-phase low-pass with -3 dB point at B/2 (cycles per unit time).

    A single-pole filter run forward and backward; length preserving.  Its
    vacuum-reference variance transfer accumulates in the record metadata to
    calibrate covariance estimates.  Not idempotent: for a cascade the product
    of transfers is a lower bound (each |H|^4 falls with frequency; Chebyshev's
    sum inequality), so a twice-filtered estimate reads high and can withhold
    a verdict, never make one.  The input record is left as it was: the
    filter runs in a copy of the record.
    """
    a, padlen, entries = _bandlimit_pass(record, B)
    out = replace(record, samples=record.samples.copy())
    _Lowpass(a, padlen)(out.samples)
    out.meta.update(entries)
    return out


def _rotate(samples: np.ndarray, dt: float, f0: float) -> None:
    """Rotate each mode's (X, P) pair of samples, in their own buffer, by the
    angle -2 pi f0 t at t = k dt, _ROTATE_ROWS rows at a time."""
    for start in range(0, samples.shape[0], _ROTATE_ROWS):
        rows = samples[start : start + _ROTATE_ROWS]
        theta = -2.0 * math.pi * f0 * (np.arange(start, start + rows.shape[0]) * dt)
        c, s = np.cos(theta), np.sin(theta)
        for x, p in ((rows[:, 0], rows[:, 1]), (rows[:, 2], rows[:, 3])):
            rotated = c * x - s * p
            p *= c
            p += s * x
            x[:] = rotated


def demodulate(record: TrajectoryRecord, f0: float) -> TrajectoryRecord:
    """Rotate each mode's (X, P) pair by the angle -2 pi f0 t.

    f0 = 0 is the exact identity; simulator output is already in the
    rotating frame.  The input record is left as it was: the rotation runs
    in a copy of the record.
    """
    f0 = real(f0, "demodulation frequency")
    demod = real(record.meta.get("demod", 0.0), "demod")
    out = replace(record, samples=record.samples.copy())
    if f0 != 0.0:
        _rotate(out.samples, out.dt, f0)
        out.meta["demod"] = demod + f0
    return out


def estimate_covariance(record: TrajectoryRecord, config: PipelineConfig) -> EstimatedCovariance:
    """Segmented covariance estimate.

    The record, row- or channel-major, is split into floor(duration / T)
    non-overlapping segment views of length T = config.integration_time, each
    giving one second-moment matrix.  Their mean is the covariance estimate,
    and they are kept for its jackknife.  N_eff = T * B is reported alongside.
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
    return EstimatedCovariance(
        V_hat=symmetrize(stats.mean(axis=0)) / cal,
        n_segments=int(n_seg),
        n_eff=config.integration_time * config.bandwidth,
        moments=stats / cal,
        calibration=cal,
        source=record.source.value,
    )


def _jackknife(point: np.ndarray, units: np.ndarray, weights: np.ndarray) -> WitnessReport:
    """Witness pair of point, the weights-weighted mean of the (k, 4, 4)
    units, with its delete-one jackknife standard errors.

    Leaving unit i out gives (W point - w_i U_i) / (W - w_i), W the sum of
    the weights; each witness's variance is (k - 1)/k times the sum of
    squared deviations of its k delete-one values from their mean.  A
    delete-one estimate with no real PT root makes the nu_minus standard
    error NaN, which fails every 3-sigma test: it can block a verdict but
    never make one.  A point with no real PT root raises ComplexRootError.
    """
    nu, duan = _checked_witnesses(point)
    total = weights.sum()
    loo = (total * point - weights[:, None, None] * units) / (total - weights)[:, None, None]
    loo = symmetrize(loo)
    theta = np.stack((_nu_minus(loo), _duan_sum(loo)))
    return make_report(nu, duan, *np.sqrt((len(units) - 1) * theta.var(axis=1)))


def witness_from_estimate(est: EstimatedCovariance) -> WitnessReport:
    """Witness pair for one estimate, with standard errors from the
    delete-one-segment jackknife over its moments."""
    return _jackknife(est.V_hat, est.moments, np.ones(est.n_segments))


def witness_with_uncertainty(estimates) -> WitnessReport:
    """Ensemble witness over independent estimates: the witnesses of the
    pooled estimate, the segment-weighted mean of their V_hat, with standard
    errors from the delete-one-record jackknife.  Only each estimate's V_hat
    and n_segments are kept, so an estimate can be let go as it is read.  A
    member with no real PT root raises ComplexRootError, as it does alone."""
    members = [(e.V_hat, e.n_segments) for e in estimates]
    if len(members) < 2:
        raise InsufficientEnsembleError("need at least two independent estimates")
    V, weights = np.stack([v for v, _ in members]), np.array([n for _, n in members], float)
    _checked_witnesses(V)
    return _jackknife(np.tensordot(weights, V, 1) / weights.sum(), V, weights)


def analyze_record(
    record: TrajectoryRecord, config: PipelineConfig, filters: dict | None = None
) -> EstimatedCovariance:
    """The shared entry point: demodulate, band-limit, estimate.

    Applied identically to every record; nothing in this path inspects the
    record's provenance tag.  The mode is brought to DC before the low-pass
    keeps the band around DC.  The record is consumed: its samples are
    demodulated and band-limited in their own buffer and both passes are
    entered in its meta, unless the buffer is read-only, when a copy of the
    record is used instead.  Use demodulate and bandlimit to keep a record
    as it is.  Every meta field the path reads is checked before a sample
    is touched.

    filters, if given, is a dict that keeps the prepared filter of each
    (pole, padding) it meets for the next record that has them: the records
    of one run can share one dict, so each filter is prepared once.  The
    estimate is the same with or without it.
    """
    demod = real(record.meta.get("demod", 0.0), "demod")
    a, padlen, entries = _bandlimit_pass(record, config.bandwidth)
    if not record.samples.flags.writeable:
        record = replace(record, samples=record.samples.copy())
    f0 = config.demod_frequency
    if f0 != 0.0:
        _rotate(record.samples, record.dt, f0)
        record.meta["demod"] = demod + f0
    filters = {} if filters is None else filters
    if (a, padlen) not in filters:
        filters[a, padlen] = _Lowpass(a, padlen)
    filters[a, padlen](record.samples)
    record.meta.update(entries)
    return estimate_covariance(record, config)


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


def _cell_plan(T, B, segments_per_record):
    """(PipelineConfig, TrajectoryConfig) of one (T, B) cell's records:
    segments_per_record segments each, sampled at dt = min(0.1, 1/(8B)).
    PipelineConfig's T * B >= 1 leaves every segment >= 8 samples long.  A
    cell whose records numpy cannot hold is refused by its own fields, not
    by TrajectoryConfig's, which a cell does not have."""
    pconf = PipelineConfig(bandwidth=B, integration_time=T)
    dt = min(0.1, 1.0 / (8.0 * pconf.bandwidth))
    m = int(round(pconf.integration_time / dt))
    if segments_per_record * m > _MAX_PATH_ROWS:
        raise ValidationError(
            f"cells need records of at most {_MAX_PATH_ROWS} samples, the most numpy can hold, "
            f"got T {T!r} and B {B!r} at segments_per_record {segments_per_record}"
        )
    return pconf, TrajectoryConfig(dt=dt, n_steps=segments_per_record * m)


def _cell_plans(cells, runs_per_cell, segments_per_record):
    """(runs_per_cell, [_cell_plan of each cell]) of a scan: the cells, then
    runs_per_cell and segments_per_record (each >= 2) are checked, and every
    cell is planned once, before the scan draws its first record."""
    cells = _checked_cells(cells)
    runs_per_cell = count(runs_per_cell, "runs_per_cell", at_least=2)
    segments_per_record = count(segments_per_record, "segments_per_record", at_least=2)
    return runs_per_cell, [_cell_plan(T, B, segments_per_record) for T, B in cells]


def _cell_witness(A, D, kappa, plan, runs, seed) -> WitnessReport:
    """Ensemble witness of one cell over `runs` fresh records of its
    _cell_plan, re-seeded with seed, each carrying the mode linewidth kappa,
    which calibrates the band-limit filter.  The ensemble witness reads only
    each record's V_hat and n_segments.  Records are drawn one at a time and
    map lets go of each once it is estimated, which consumes it, so one
    record is alive however many runs the cell has.  The records share one
    prepared filter."""
    pconf, cfg = plan
    records = _ensemble(A, D, replace(cfg, master_seed=seed), runs, meta={"kappa": kappa})
    return witness_with_uncertainty(map(partial(analyze_record, config=pconf, filters={}), records))


def convergence_sweep(
    A: np.ndarray,
    D: np.ndarray,
    cells,
    runs_per_cell: int = 16,
    segments_per_record: int = 24,
    master_seed: int = 0,
    kappa: float = 1.0,
) -> dict:
    """Ensemble witness and standard error versus N_eff = T * B.

    For each (T, B) cell, fresh trajectories are generated, pushed through
    the pipeline, and reduced to the ensemble witness of their pooled
    estimate; the fitted slope of log(stderr) against log(N_eff) is returned
    along with the per-cell rows.
    With the number of runs and segments held fixed across cells, the
    standard error scales as N_eff^(-1/2).  The slope needs cells at two or
    more distinct N_eff values.  kappa is the mode linewidth of the dynamics
    (A, D), which every sampled record carries, as simulate's records do.
    """
    runs_per_cell, plans = _cell_plans(cells, runs_per_cell, segments_per_record)
    kappa = real(kappa, "kappa", above=0.0)
    if len({pconf.integration_time * pconf.bandwidth for pconf, _ in plans}) < 2:
        raise ValidationError("convergence sweep needs cells at >= 2 distinct N_eff = T * B")
    rows = []
    for i, plan in enumerate(plans):
        rep = _cell_witness(
            A, D, kappa, plan, runs_per_cell, derive_stream_seed(master_seed, 1000 + i)
        )
        T, B = plan[0].integration_time, plan[0].bandwidth
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
    smallest PT symplectic eigenvalue of each grid point's pooled ensemble
    estimate, and interpolates the crossing of the 1/2 bound.  The crossing
    location is a state property; within uncertainty it must not depend on T
    or B.  Every argument is checked before the first record is drawn.
    """
    n = real(n, "n", at_least=0.0)
    g_values = _checked_couplings(g_values)
    plans = _cell_plans(cells, runs_per_cell, segments_per_record)
    return _crossing_rows(kappa, n, g_values, *plans, master_seed)


def _crossing_rows(kappa, n, g_values, runs_per_cell, plans, master_seed) -> list[dict]:
    """crossing_scan's rows for checked arguments and the (runs_per_cell,
    plans) of _cell_plans, so a caller that has planned the cells plans
    them once."""
    rows = []
    for ci, plan in enumerate(plans):
        means, errs = [], []
        for gi, g in enumerate(g_values):
            A, D = closed_form_dynamics(g * kappa, kappa, n)
            rep = _cell_witness(
                A, D, kappa, plan, runs_per_cell,
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
        T, B = plan[0].integration_time, plan[0].bandwidth
        rows.append({"T": T, "B": B, "g_cross": g_cross, "sigma": sigma})
    return rows
