"""Classical correlated-noise generators for falsification runs.

All three generators emit TrajectoryRecords whose stationary statistics are
classical Gaussian states by construction: a positive-semidefinite c-number
covariance V_cl convolved with the vacuum floor, V = V_cl + I/2.  States of
this form admit a positive P-representation, so the Duan sum can never drop
below 2 nor the smallest PT symplectic eigenvalue below 1/2; the generators
are free to chase strong correlations without ever crossing either bound.
Null model C is the closed-form classical mixture that sits exactly on both
bounds.  Classicality is checked once per exact state, with
enforce_classicality: classical_paramp_covariance checks its Lyapunov
solution and gen_optimized_mixture checks its boundary state.

Classical fluctuations are Lorentzian-filtered (single-pole) noise matched
in bandwidth and per-channel power to the quantum records they are compared
against; the vacuum floor is injected as an independent stream per
quadrature at the mode linewidth kappa/2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._fields import ConfigFields, checked, count, real
from .entanglement import _require_symmetric, witness_report_from_covariance
from .errors import NotPsdError, UnstableGainError, ValidationError
from .gaussian_core import ModelParams, build_drift, solve_steady_lyapunov
from .trajectory import (
    Scheme,
    SourceTag,
    TrajectoryConfig,
    TrajectoryRecord,
    _draw_path,
    _row_ranges,
    _Stream,
    derive_stream_seed,
)

__all__ = [
    "NullKind",
    "NullModelSpec",
    "enforce_classicality",
    "gen_shared_noise",
    "gen_classical_paramp",
    "classical_paramp_covariance",
    "gen_optimized_mixture",
    "mixture_state",
    "matched_bandwidth",
    "matched_null_specs",
]

VACUUM = 0.5

# rows of null model A's channel mix taken at a time
_MIX_ROWS = 4096


class NullKind(str, enum.Enum):
    SHARED_NOISE = "SHARED_NOISE"
    CLASSICAL_PARAMP = "CLASSICAL_PARAMP"
    OPTIMIZED_MIXTURE = "OPTIMIZED_MIXTURE"


def matched_bandwidth(kappa: float) -> float:
    """Lorentzian half-width (cycles per unit time) of a mode of linewidth kappa."""
    return kappa / (4.0 * math.pi)


@dataclass(frozen=True)
class NullModelSpec(ConfigFields):
    """Parameters of one classical dataset.

    target_bandwidth is the Lorentzian half-width of the classical
    fluctuations in cycles per unit time (use matched_bandwidth(kappa) to
    mimic a quantum mode); target_power is the per-channel variance of the
    classical part, i.e. the excess above the vacuum floor 1/2 per
    quadrature; correlation is the shared-source fraction; gain is the
    parametric drive rate for CLASSICAL_PARAMP, in the same units as kappa.
    """

    kind: NullKind = checked(NullKind)
    target_bandwidth: float = checked(real, above=0.0)
    target_power: float = checked(real, above=0.0)
    correlation: float = checked(real, 0.0, at_least=0.0)
    gain: float = checked(real, 0.0, at_least=0.0)
    seed: int = checked(count, 0)

    def __post_init__(self):
        super().__post_init__()
        if self.correlation > 1.0:
            raise ValidationError("correlation must lie in [0, 1]")


def enforce_classicality(V_cl: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Vacuum convolution of a positive-P state: V = V_cl + I/2.

    Requires V_cl >= 0; the result has every single-quadrature variance
    >= 1/2 and smallest PT symplectic eigenvalue >= 1/2.
    """
    V_cl = _require_symmetric(V_cl)
    if np.min(np.linalg.eigvalsh(V_cl)) < -tol * max(1.0, np.max(np.abs(V_cl))):
        raise NotPsdError("classical covariance is not positive semidefinite")
    return V_cl + VACUUM * np.eye(4)


def _streams(rates, variances, total: int, rng, dt: float) -> np.ndarray:
    """Stationary scalar OU streams, one column per (rate, variance) pair: one
    _draw_path of the prepared diagonal AR(1) stream from a steady-state R_0,
    a view of the buffer its input was drawn into."""
    f = np.array([math.exp(-r * dt) for r in rates])
    sigma = np.sqrt(np.clip(np.asarray(variances, dtype=float), 0.0, None))
    drive = sigma * np.sqrt(np.clip(1.0 - f * f, 0.0, None))
    return _draw_path(_Stream(np.diag(f), np.diag(drive), np.diag(sigma)), total, rng)


_SOURCE = {
    NullKind.SHARED_NOISE: SourceTag.NULL_A,
    NullKind.CLASSICAL_PARAMP: SourceTag.NULL_B,
    NullKind.OPTIMIZED_MIXTURE: SourceTag.NULL_C,
}


def _checked_config(
    spec: NullModelSpec, kind: NullKind, config: TrajectoryConfig | None
) -> TrajectoryConfig:
    """The trajectory config (or the default one) for a spec of the given kind."""
    if spec.kind is not kind:
        raise ValidationError(f"spec kind {spec.kind} is not {kind.value}")
    if config is None:
        return TrajectoryConfig(dt=0.05, n_steps=20000, scheme=Scheme.EXACT_OU)
    return config


def _null_record(spec, config, kappa, classical, rng, **extra_meta) -> TrajectoryRecord:
    """Record of the classical samples plus four vacuum streams, burn-in dropped.

    The vacuum streams are drawn from rng after any classical streams it
    produced, so each generator keeps its draw order.  They are added into
    classical in place, so the caller frees every other classical buffer
    first and the record holds classical's memory.
    """
    classical += _streams([kappa / 2.0] * 4, [VACUUM] * 4, classical.shape[0], rng, config.dt)
    meta = {
        "kappa": kappa,
        "null_kind": spec.kind.value,
        "burn_in": config.burn_in,
        "target_power": spec.target_power,
        **extra_meta,
    }
    return TrajectoryRecord(
        samples=classical[config.burn_in :],
        dt=config.dt,
        source=_SOURCE[spec.kind],
        seed=spec.seed,
        meta=meta,
    )


def gen_shared_noise(
    spec: NullModelSpec,
    config: TrajectoryConfig | None = None,
    kappa: float = 1.0,
) -> TrajectoryRecord:
    """Null model A: shared Gaussian source, independently filtered channels.

    Each quadrature channel is sqrt(corr) * shared + sqrt(1-corr) * local,
    Lorentzian-filtered at the target bandwidth and scaled to the target
    power, then lifted by an independent vacuum stream per quadrature.
    """
    config = _checked_config(spec, NullKind.SHARED_NOISE, config)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    total = config.burn_in + config.n_steps
    gamma = 2.0 * math.pi * spec.target_bandwidth
    # six unit-variance classical streams: (shared, local_a, local_b) per quadrature
    cl = _streams([gamma] * 6, [1.0] * 6, total, rng, config.dt)
    rho = spec.correlation
    amp = math.sqrt(spec.target_power)
    w_s, w_u = math.sqrt(rho), math.sqrt(1.0 - rho)
    # the record is the first 4 * total numbers of the streams' own C-ordered
    # buffer: its row k ends before stream row k begins, so rows mixed in
    # order through a small scratch overwrite only streams already read
    buf = cl.base  # the path buffer _draw_path drew the streams into
    samples = buf.reshape(-1)[: 4 * total].reshape(total, 4)
    scratch = np.empty((min(total, _MIX_ROWS + 1), 4))
    for start, stop in _row_ranges(total, _MIX_ROWS):
        rows, mix = cl[start:stop], scratch[: stop - start]
        # column j is amp * (w_s * cl[:, shared] + w_u * cl[:, local]), with
        # the same operations in the same order; each local stream is scaled in place
        for j, shared, local in ((0, 0, 1), (2, 0, 2), (1, 3, 4), (3, 3, 5)):  # X_a X_b P_a P_b
            out = np.multiply(rows[:, shared], w_s, out=mix[:, j])
            rows[:, local] *= w_u
            out += rows[:, local]
            out *= amp
        samples[start:stop] = mix
    del cl, rows, samples
    # no view of buf is left: the realloc keeps the record and gives the
    # streams' last third back before the vacuum streams are drawn
    buf.resize((total, 4), refcheck=False)
    return _null_record(spec, config, kappa, buf, rng, correlation=rho)


#: Null model B's drift is -kappa/2 I + g K with K symmetric and K^2 = I.
#: Its columns are K's eigenvectors: (X_a - P_b) / sqrt 2 and (P_a - X_b) /
#: sqrt 2 at eigenvalue +1 (rate kappa/2 - g), (X_a + P_b) / sqrt 2 and
#: (P_a + X_b) / sqrt 2 at -1 (rate kappa/2 + g).
_PARAMP_MODES = np.array(
    [[1.0, 0.0, 0.0, -1.0], [0.0, 1.0, -1.0, 0.0], [1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]]
).T / math.sqrt(2.0)


def _paramp_dynamics(spec: NullModelSpec, kappa: float):
    """Drift, classical diffusion and classical occupancy of null model B."""
    g = spec.gain
    if 2.0 * g >= kappa:
        raise UnstableGainError(f"classical gain {g:g} at or beyond kappa/2 = {kappa / 2:g}")
    # classical occupancy reproducing the target per-quadrature power
    n_cl = spec.target_power * (kappa**2 - 4.0 * g**2) / kappa**2
    A = build_drift(ModelParams(G=g, kappa_a=kappa, kappa_b=kappa, n_a=0.0, n_b=0.0))
    return A, kappa * n_cl * np.eye(4), n_cl


def _paramp_modes(g: float, kappa: float, n_cl: float):
    """(rates, variances) of null model B's classical part along the columns
    of _PARAMP_MODES: four independent OU streams, since the isotropic
    diffusion kappa n_cl I stays isotropic in that orthonormal basis; each
    variance is kappa n_cl / (2 rate)."""
    rates = [kappa / 2.0 - g] * 2 + [kappa / 2.0 + g] * 2
    return rates, [kappa * n_cl / (2.0 * r) for r in rates]


def gen_classical_paramp(
    spec: NullModelSpec,
    config: TrajectoryConfig | None = None,
    kappa: float = 1.0,
) -> TrajectoryRecord:
    """Null model B: c-number analogue of the parametric-amplifier dynamics.

    Same drift as the two-mode-squeezing quantum model at the given gain,
    driven by purely classical noise (no vacuum term in the diffusion),
    then lifted by the vacuum floor.  Exhibits phase-sensitive
    cross-correlations while remaining positive-P by construction.  The
    classical part is drawn in the drift's fixed eigenbasis, as four
    stationary OU streams from spec.seed mixed by _PARAMP_MODES, so it needs
    no matrix exponential and no factor of a degenerate covariance.
    """
    config = _checked_config(spec, NullKind.CLASSICAL_PARAMP, config)
    _, _, n_cl = _paramp_dynamics(spec, kappa)
    total = config.burn_in + config.n_steps
    if n_cl > 0:
        rng = np.random.Generator(np.random.PCG64(spec.seed))
        modes = _streams(*_paramp_modes(spec.gain, kappa, n_cl), total, rng, config.dt)
        classical = modes @ _PARAMP_MODES.T
        del modes  # freed before the vacuum streams are drawn
    else:
        classical = np.zeros((total, 4))
    vac_rng = np.random.Generator(np.random.PCG64(derive_stream_seed(spec.seed, 1)))
    return _null_record(
        spec, config, kappa, classical, vac_rng, gain=spec.gain, classical_occupancy=n_cl
    )


def classical_paramp_covariance(spec: NullModelSpec, kappa: float = 1.0) -> np.ndarray:
    """Exact state of null model B (classical steady state plus vacuum)."""
    A, D_cl, n_cl = _paramp_dynamics(spec, kappa)
    V_cl = solve_steady_lyapunov(A, D_cl) if n_cl > 0 else np.zeros((4, 4))
    return enforce_classicality(V_cl)


# ---------------------------------------------------------------------------
# Null model C: linearly mixed classical signals on the separability bounds.

def mixture_state(M_X, M_P, source_vars, target_power: float):
    """Classical mixture covariance, per-channel power normalized, plus vacuum.

    Two independent classical complex sources with variances source_vars are
    mixed by real 2x2 matrices M_X (X quadratures) and M_P (P quadratures);
    each channel row pair is rescaled so the mean of its X and P classical
    variances equals target_power.  Returns (V, M_X_scaled, M_P_scaled) or
    None when a channel row carries no power.  V_cl = M S M^T with S >= 0 is
    positive semidefinite and is assembled exactly symmetric, so V is
    classical by construction and is returned unchecked.
    """
    M_X = np.asarray(M_X, dtype=float).reshape(2, 2)
    M_P = np.asarray(M_P, dtype=float).reshape(2, 2)
    S = np.diag(np.asarray(source_vars, dtype=float))
    var = 0.5 * (np.diag(M_X @ S @ M_X.T) + np.diag(M_P @ S @ M_P.T))
    if np.any(var < 1e-12):
        return None
    scales = np.sqrt(target_power / var)
    M_Xs = M_X * scales[:, None]
    M_Ps = M_P * scales[:, None]
    BX = M_Xs @ S @ M_Xs.T
    BP = M_Ps @ S @ M_Ps.T
    V_cl = np.zeros((4, 4))
    V_cl[0, 0], V_cl[2, 2], V_cl[0, 2] = BX[0, 0], BX[1, 1], BX[0, 1]
    V_cl[2, 0] = BX[0, 1]
    V_cl[1, 1], V_cl[3, 3], V_cl[1, 3] = BP[0, 0], BP[1, 1], BP[0, 1]
    V_cl[3, 1] = BP[0, 1]
    return V_cl + VACUUM * np.eye(4), M_Xs, M_Ps


def gen_optimized_mixture(
    spec: NullModelSpec,
    config: TrajectoryConfig | None = None,
    kappa: float = 1.0,
):
    """Null model C: the classical mixture on both separability bounds.

    Every state mixture_state can return is V_cl + I/2 with V_cl >= 0, so
    its Duan sum is >= 2 and its nu_minus >= 1/2 (Duan et al., PRL 84, 2722
    (2000); Simon, PRL 84, 2726 (2000)).  One source drives both X
    quadratures (perfectly correlated), another both P quadratures with
    opposite signs (perfectly anti-correlated), each quadrature at the
    target power: Duan sum exactly 2 and nu_minus exactly 1/2, the closest
    any classical state gets to either bound.  The state is checked once
    with enforce_classicality and realized from only the two sources that
    carry weight, drawn from spec.seed.
    Returns (record, report) where report is the exact witness of the
    state; record.meta["optimizer"] holds its Duan sum as "achieved".
    """
    config = _checked_config(spec, NullKind.OPTIMIZED_MIXTURE, config)
    V, M_Xs, M_Ps = mixture_state([1, 0, 1, 0], [0, 1, 0, -1], [1, 1], spec.target_power)
    V = enforce_classicality(V - VACUUM * np.eye(4))
    report = witness_report_from_covariance(V)

    # unit-variance sources (x1, x2, p1, p2) -> quadratures (X_a, P_a, X_b, P_b);
    # only the sources with weight (x1, p2) are drawn, then the vacuum streams
    mixing = np.zeros((4, 4))
    mixing[0::2, :2], mixing[1::2, 2:] = M_Xs, M_Ps
    mixing = mixing[:, np.any(mixing, axis=0)]
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    total = config.burn_in + config.n_steps
    gamma = 2.0 * math.pi * spec.target_bandwidth
    n_src = mixing.shape[1]
    src = _streams([gamma] * n_src, [1.0] * n_src, total, rng, config.dt)
    classical = src @ mixing.T
    del src  # freed before the vacuum streams are drawn
    record = _null_record(
        spec, config, kappa, classical, rng,
        optimizer={"achieved": report.duan_sum, "converged": True, "restarts": 0},
    )
    return record, report


def matched_null_specs(
    V_quantum: np.ndarray,
    kappa: float = 1.0,
    seed: int = 0,
    correlation: float = 0.7,
    gain: float | None = None,
) -> dict[NullKind, NullModelSpec]:
    """One spec per null model, power- and bandwidth-matched to a quantum state."""
    V_quantum = np.asarray(V_quantum, dtype=float)
    power = float(np.mean(np.diag(V_quantum))) - VACUUM
    if power <= 0:
        raise ValidationError("quantum state has no excess power to match")
    bw = matched_bandwidth(kappa)
    if gain is None:
        gain = 0.25 * kappa
    return {
        NullKind.SHARED_NOISE: NullModelSpec(
            kind=NullKind.SHARED_NOISE,
            target_bandwidth=bw,
            target_power=power,
            correlation=correlation,
            seed=derive_stream_seed(seed, 11),
        ),
        NullKind.CLASSICAL_PARAMP: NullModelSpec(
            kind=NullKind.CLASSICAL_PARAMP,
            target_bandwidth=bw,
            target_power=power,
            gain=gain,
            seed=derive_stream_seed(seed, 12),
        ),
        NullKind.OPTIMIZED_MIXTURE: NullModelSpec(
            kind=NullKind.OPTIMIZED_MIXTURE,
            target_bandwidth=bw,
            target_power=power,
            seed=derive_stream_seed(seed, 13),
        ),
    }
