"""Stochastic quadrature time series from the linear Langevin dynamics.

The primary scheme is the exact Ornstein-Uhlenbeck discretization

    R_{k+1} = F R_k + w_k,  F = e^{A dt},  w_k ~ N(0, Q),
    Q = Vinf - F Vinf F^T,

which is statistically exact for any step size; Euler-Maruyama is kept as a
cross-validation scheme.  Both iterate the same linear recurrence, evaluated
in blocks of 16 steps: the steps inside a block are one block-Toeplitz
matrix product, and the states that cross block ends follow the same
recurrence with F^16.  Every trajectory owns an independent RNG stream
(numpy PCG64) whose seed is derived deterministically from a master seed, so
ensembles are reproducible sample-for-sample regardless of scheduling.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemm

from ._fields import ConfigFields, count, real
from .errors import StepTooLargeError, ValidationError
from .gaussian_core import is_stable, solve_steady_lyapunov, symmetrize

__all__ = [
    "Scheme",
    "SourceTag",
    "TrajectoryConfig",
    "TrajectoryRecord",
    "derive_stream_seed",
    "sample_exact_ou",
    "sample_euler_maruyama",
    "sample_ensemble",
]

RNG_ALGORITHM = "pcg64"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# steps per block of _linear_recurrence
_BLOCK = 16


class Scheme(str, enum.Enum):
    EXACT_OU = "EXACT_OU"
    EULER_MARUYAMA = "EULER_MARUYAMA"


class SourceTag(str, enum.Enum):
    QUANTUM = "QUANTUM"
    NULL_A = "NULL_A"
    NULL_B = "NULL_B"
    NULL_C = "NULL_C"


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 avalanche; a bijection on 64-bit ints."""
    x = (x + _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def derive_stream_seed(master_seed: int, task_index: int) -> int:
    """Collision-resistant deterministic seed for stream task_index.

    Pure 64-bit integer mixing (two splitmix64 rounds), identical on every
    platform.  For a fixed master seed the map index -> seed is injective,
    so consecutive task indices can never collide.
    """
    base = _splitmix64(int(master_seed) & _MASK64)
    return _splitmix64((base + (int(task_index) & _MASK64) * _GOLDEN) & _MASK64)


@dataclass(frozen=True)
class TrajectoryConfig(ConfigFields):
    """Sampling plan: step dt (units 1/kappa), record length, scheme, seeding."""

    dt: float
    n_steps: int
    scheme: Scheme = Scheme.EXACT_OU
    master_seed: int = 0
    burn_in: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dt", real(self.dt, "dt", above=0.0))
        object.__setattr__(self, "n_steps", count(self.n_steps, "n_steps", at_least=1))
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        object.__setattr__(self, "master_seed", count(self.master_seed, "master_seed"))
        object.__setattr__(self, "burn_in", count(self.burn_in, "burn_in", at_least=0))


@dataclass
class TrajectoryRecord:
    """Sampled quadratures (n_steps, 4) at uniform dt, with provenance."""

    samples: np.ndarray
    dt: float
    source: SourceTag
    seed: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.dt = real(self.dt, "dt", above=0.0)
        self.seed = count(self.seed, "seed")
        samples = np.asarray(self.samples)
        if samples.dtype.kind not in "iuf":  # not bool, complex, text or objects
            raise ValidationError(f"samples must be integer or real numbers, got {samples.dtype}")
        self.samples = samples.astype(float, copy=False)
        if self.samples.ndim != 2 or self.samples.shape[1] != 4:
            raise ValidationError("samples must have shape (n_steps, 4)")
        if not np.all(np.isfinite(self.samples)):
            raise ValidationError("trajectory contains non-finite samples")
        self.source = SourceTag(self.source)
        self.meta = dict(self.meta)
        self.meta.setdefault("rng", RNG_ALGORITHM)

    @property
    def n_steps(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return self.n_steps * self.dt

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps) * self.dt


def _psd_factor(Q: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """L with L L^T = Q for symmetric PSD Q, tolerant of tiny negative eigs."""
    Q = symmetrize(np.asarray(Q, dtype=float))
    w, U = np.linalg.eigh(Q)
    floor = -tol * max(1.0, float(np.max(np.abs(w))))
    if np.min(w) < floor:
        raise ValidationError(f"matrix is not PSD (min eigenvalue {np.min(w):.3e})")
    return U * np.sqrt(np.clip(w, 0.0, None))


def _linear_recurrence(F: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y_0 = x_0, y_k = F y_{k-1} + x_k over the rows of x (m, n).

    Works in the original basis for any n x n F, defective or unstable.
    Within each block of _BLOCK rows, y is the block's own response, one
    block-Toeplitz product with F^0 .. F^(_BLOCK-1), plus the response
    F^1 .. F^_BLOCK to the state carried in from the previous block.  The
    carried states are the block-end values, which obey the same recurrence
    with F^_BLOCK, so each level of recursion shortens the series _BLOCK-fold.
    """
    m, n = x.shape
    # a series shorter than a block is one block: no power of F beyond its span
    b = min(m, _BLOCK)
    nb = -(-m // b)
    powers = [np.eye(n)]
    for _ in range(b):
        powers.append(F @ powers[-1])
    # block (i, j) is F^(j-i) for j >= i, else 0; rows are states, so each
    # power acts on the right as its transpose
    lag = np.subtract.outer(np.arange(b), np.arange(b))
    blocks = np.stack(powers[:b]).transpose(0, 2, 1)[np.maximum(-lag, 0)]
    blocks[lag > 0] = 0.0
    toeplitz = blocks.transpose(0, 2, 1, 3).reshape(b * n, b * n)
    if m % b:
        x = np.concatenate((x, np.zeros((nb * b - m, n))))
    y = x.reshape(nb, b * n) @ toeplitz
    if nb > 1:
        carried = _linear_recurrence(powers[b], y[:-1, -n:])
        # y[1:] += carried @ [F^1 .. F^b]^T, accumulated in place: y[1:].T is column-major
        dgemm(1.0, np.vstack(powers[1:]), carried.T, beta=1.0, c=y[1:].T, overwrite_c=True)
    return y.reshape(nb * b, n)[:m]


def _steady_prep(A: np.ndarray, D: np.ndarray, dt: float):
    """Shared precomputation for exact-OU sampling: (F, Lq, Linf)."""
    Vinf = solve_steady_lyapunov(A, D)
    F = scipy.linalg.expm(np.asarray(A, dtype=float) * dt)
    Q = symmetrize(Vinf - F @ Vinf @ F.T)
    return F, _psd_factor(Q), _psd_factor(Vinf)


def _draw_paths(F, Lnoise, L0, total: int, rngs, r0=None):
    """For each rng, yield total samples of R_{k+1} = F R_k + Lnoise z_k from
    R_0 = r0, else L0 z (the origin if L0 is None); R_0's normals are drawn
    from rng first.  Every path builds the recurrence's input in the same
    buffer, whose pages are touched once however many paths are drawn; the
    normals are freed before the recurrence allocates the path's samples.
    This is the one AR(1) stream of every sampler."""
    n = F.shape[0]
    x = np.empty((total, n))
    for rng in rngs:
        if r0 is not None:
            x[0] = r0
        elif L0 is not None:
            x[0] = L0 @ rng.standard_normal(n)
        else:
            x[0] = 0.0
        np.matmul(rng.standard_normal((total - 1, n)), Lnoise.T, out=x[1:])
        yield _linear_recurrence(F, x)


def _records(F, Lnoise, L0, config, scheme, source, meta, members, r0=None):
    """Yield one record of _draw_paths per (seed, extra meta) member, burn-in
    dropped.  Nothing here refers to a record once it is yielded, so a consumer
    that lets go of each record holds one at a time."""
    total = config.burn_in + config.n_steps
    base = {"scheme": scheme.value, "burn_in": config.burn_in, **(meta or {})}
    rngs = (np.random.Generator(np.random.PCG64(seed)) for seed, _ in members)
    paths = _draw_paths(F, Lnoise, L0, total, rngs, r0)
    for seed, extra in members:
        yield TrajectoryRecord(
            next(paths)[config.burn_in :], config.dt, source, seed, {**base, **extra}
        )


def sample_exact_ou(
    A: np.ndarray,
    D: np.ndarray,
    config: TrajectoryConfig,
    source: SourceTag = SourceTag.QUANTUM,
    meta: dict | None = None,
) -> TrajectoryRecord:
    """Stationary trajectory with exact one-step statistics at any dt.

    R_0 is drawn from the steady-state Gaussian, so every sample is
    marginally steady-state distributed and burn_in only discards samples.
    """
    F, Lq, Linf = _steady_prep(A, D, config.dt)
    members = [(config.master_seed, {})]
    return next(_records(F, Lq, Linf, config, Scheme.EXACT_OU, source, meta, members))


def sample_euler_maruyama(
    A: np.ndarray,
    D: np.ndarray,
    config: TrajectoryConfig,
    source: SourceTag = SourceTag.QUANTUM,
    r0: np.ndarray | None = None,
    meta: dict | None = None,
) -> TrajectoryRecord:
    """First-order scheme R_{k+1} = R_k + A R_k dt + sqrt(dt) L z_k, L L^T = D.

    Guarded by dt <= 0.1 / max|eig A|.  By default R_0 is a steady-state draw
    when the drift is stable and D is nonzero, else the origin; pass r0 to
    override (e.g. for decay tests).  Noise streams are not sample-compatible
    with the exact scheme even at the same seed.
    """
    A = np.asarray(A, dtype=float)
    D = np.asarray(D, dtype=float)
    rate = float(np.max(np.abs(np.linalg.eigvals(A))))
    if rate > 0 and config.dt > 0.1 / rate:
        raise StepTooLargeError(
            f"dt = {config.dt:g} exceeds accuracy guard 0.1/max|eig A| = {0.1 / rate:g}"
        )
    F = np.eye(4) + A * config.dt
    Lnoise = math.sqrt(config.dt) * _psd_factor(D)
    Linf = None
    if r0 is not None:
        r0 = np.asarray(r0, dtype=float)
        if r0.shape != (4,):
            raise ValidationError("r0 must be a 4-vector")
    elif is_stable(A) and np.max(np.abs(D)) > 0:
        Linf = _psd_factor(solve_steady_lyapunov(A, D))
    members = [(config.master_seed, {})]
    return next(
        _records(F, Lnoise, Linf, config, Scheme.EULER_MARUYAMA, source, meta, members, r0)
    )


def sample_ensemble(
    A: np.ndarray,
    D: np.ndarray,
    config: TrajectoryConfig,
    n_members: int,
    source: SourceTag = SourceTag.QUANTUM,
    meta: dict | None = None,
) -> list[TrajectoryRecord]:
    """n_members independent exact-OU trajectories.

    Member k uses the stream seed derive_stream_seed(master_seed, k); the
    per-member samples depend only on (A, D, config, k), never on execution
    order, so parallel and sequential runs agree sample-for-sample.
    """
    return list(_ensemble(A, D, config, n_members, source, meta))


def _ensemble(A, D, config, n_members, source=SourceTag.QUANTUM, meta=None):
    """sample_ensemble's members as an iterator that draws each one on demand,
    after one shared _steady_prep; the arguments are checked before it returns."""
    if n_members <= 0:
        raise ValidationError("ensemble size must be positive")
    F, Lq, Linf = _steady_prep(A, D, config.dt)
    members = [
        (derive_stream_seed(config.master_seed, k), {"member": k}) for k in range(n_members)
    ]
    return _records(F, Lq, Linf, config, Scheme.EXACT_OU, source, meta, members)
