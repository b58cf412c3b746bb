"""Stochastic quadrature time series from the linear Langevin dynamics.

The primary scheme is the exact Ornstein-Uhlenbeck discretization

    R_{k+1} = F R_k + w_k,  F = e^{A dt},  w_k ~ N(0, Q),
    Q = Vinf - F Vinf F^T,

which is statistically exact for any step size; Euler-Maruyama is kept as a
cross-validation scheme.  Both iterate the same linear recurrence, evaluated
in blocks of 16 steps: the steps inside a block are one block-Toeplitz
matrix product (for F = c I, one 16 x 16 product per channel), and the
states that cross block ends follow the same recurrence with F^16.  A
drift's stream is prepared once (_Stream) and every path drawn from it
reuses its noise factors and powers of F.  Every trajectory owns an
independent RNG stream
(numpy PCG64) whose seed is derived deterministically from a master seed, so
ensembles are reproducible sample-for-sample regardless of scheduling.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._fields import ConfigFields, checked, count, real
from .errors import StepTooLargeError, ValidationError
from .gaussian_core import _expm, is_stable, solve_steady_lyapunov, symmetrize

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
# the m n k of a matrix product at which the OpenBLAS 0.3.x gemm interface may
# start threads: every product of _linear_recurrence stays below it
_GEMM_THREAD_MNK = 262_144
# carried states taken at a time by _linear_recurrence's carried-state product:
# far below _GEMM_THREAD_MNK, with a scratch of 2 % of a 1e5-step path (432
# states, 7 %, would save about 0.3 % of a converge run)
_CARRIED_ROWS = 128
# blocks taken at a time by a scalar drift's per-channel block product: a
# scratch of 128 kB at four channels
_CHANNEL_BLOCKS = 256
# rows of normals drawn and transformed at a time
_DRAW_ROWS = 4096
# the longest path whose buffer, padded to whole blocks, numpy can size: the
# widest buffer is null model A's, six float64 streams
_MAX_PATH_ROWS = (np.iinfo(np.intp).max // (6 * 8)) // _BLOCK * _BLOCK


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

    dt: float = checked(real, above=0.0)
    n_steps: int = checked(count, at_least=1)
    scheme: Scheme = checked(Scheme, Scheme.EXACT_OU)
    master_seed: int = checked(count, 0)
    burn_in: int = checked(count, 0, at_least=0)

    def __post_init__(self):
        super().__post_init__()
        rows = self.burn_in + self.n_steps
        if rows > _MAX_PATH_ROWS:
            raise ValidationError(
                f"n_steps + burn_in must be <= {_MAX_PATH_ROWS}, the most rows numpy can "
                f"hold in a sampler's buffer, got {rows}"
            )


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
        if not self.samples.size:
            raise ValidationError("samples must hold at least one row (n_steps >= 1)")
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


def _whole_blocks(rows: int) -> int:
    """rows rounded up to whole blocks of _linear_recurrence; a series of at
    most one block is one block of its own length."""
    return rows if rows <= _BLOCK else -(-rows // _BLOCK) * _BLOCK


def _row_ranges(rows: int, size: int):
    """(start, stop) ranges of at most size + 1 rows that cover rows in order.

    No range is a single row unless rows is 1: BLAS takes a one-row product
    as a vector product, which rounds differently from the same row of a
    matrix product, so a trailing single row joins the range before it.
    size must be at least 2.
    """
    edges = [*range(0, rows, size), rows]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return zip(edges[:-1], edges[1:])


def _block_toeplitz(powers: np.ndarray, reverse: bool = False) -> np.ndarray:
    """The (b n, b n) matrix whose block (i, j) is powers[j - i].T for j >= i,
    else 0, for the (b, n, n) powers F^0 .. F^(b-1) of an n x n F: rows are
    states, so each power acts on the right as its transpose.  Reversed, its
    block reversal, whose block (i, j) is powers[i - j].T for i >= j.  It is
    one copy of a strided view of the transposed powers after b - 1 zero
    blocks."""
    b, n = powers.shape[:2]
    stacked = np.zeros((2 * b - 1, n, n))
    stacked[b - 1 :] = powers.transpose(0, 2, 1)
    step, row, col = stacked.strides
    lag = -step if reverse else step
    # element (i, c, j, c') is stacked[b - 1 + j - i, c, c'], reversed stacked[b - 1 + i - j, c, c']
    grid = np.ndarray((b, n, b, n), float, stacked, (b - 1) * step, (-lag, row, lag, col))
    # at n = 1 the reshape is a view with a negative stride, which BLAS cannot take
    return np.ascontiguousarray(grid.reshape(b * n, b * n))


def _product_rows(n: int, k: int) -> int:
    """Rows of an (m, n) @ (n, k) block-Toeplitz product taken at a time, a
    range holding at most one more (_row_ranges): the most that keep
    m n k < _GEMM_THREAD_MNK, 62 rows at n = k = 64 and 27 at 96."""
    return max(2, (_GEMM_THREAD_MNK - 1) // (n * k) - 1)


def _block_product(y: np.ndarray, toeplitz: np.ndarray, channel=None) -> None:
    """y = y @ toeplitz in place through one small scratch array: rows of the
    product are independent.  Given the per-channel matrix L of a toeplitz
    that is kron(L^T, I_n) (_Recurrence.channel), each row of y, as a
    (_BLOCK, n) matrix, becomes L @ it, _CHANNEL_BLOCKS rows at a time;
    otherwise _product_rows rows at a time."""
    if channel is not None:
        blocks = y.reshape(y.shape[0], _BLOCK, -1)
        scratch = np.empty((min(y.shape[0], _CHANNEL_BLOCKS), *blocks.shape[1:]))
        for start in range(0, y.shape[0], _CHANNEL_BLOCKS):
            stop = min(start + _CHANNEL_BLOCKS, y.shape[0])
            blocks[start:stop] = np.matmul(channel, blocks[start:stop], out=scratch[: stop - start])
        return
    size = _product_rows(*toeplitz.shape)
    scratch = np.empty((min(y.shape[0], size + 1), y.shape[1]))
    for start, stop in _row_ranges(y.shape[0], size):
        y[start:stop] = np.matmul(y[start:stop], toeplitz, out=scratch[: stop - start])


class _Recurrence:
    """The operators of y_k = F y_{k-1} + gain x_k for one n x n F that
    _linear_recurrence reads, each taken once and kept for every later
    series: F^0 .. F^_BLOCK as far as a series has needed them, so an
    unstable F's unused powers never overflow; the block-Toeplitz matrix,
    times gain, of each block length and direction a series has needed,
    (_BLOCK n)^2 floats, 32 kB at n = 4; the carried-state response
    [F^1 .. F^_BLOCK]^T, a view of the powers, and its block reversal; for F
    = c I with n > 1, the per-channel matrix of each direction; and
    `carried`, the _Recurrence of F^_BLOCK (gain 1) that the carried states,
    already scaled, follow."""

    def __init__(self, F: np.ndarray, gain: float = 1.0):
        self.F = F
        self.gain = gain
        self.powers = np.empty((_BLOCK + 1, *F.shape))
        self.powers[0] = np.eye(F.shape[0])
        self.known = 1
        self.toeplitz = {}
        n = F.shape[0]
        # at n = 1 the block-Toeplitz matrix is already one channel's
        self.scalar = n > 1 and np.array_equal(F, F[0, 0] * np.eye(n))
        self.channels = {}

    def upto(self, count: int) -> np.ndarray:
        """F^0 .. F^(count - 1) as a (count, n, n) view, each F @ F^(k - 1)."""
        for k in range(self.known, count):
            np.matmul(self.F, self.powers[k - 1], out=self.powers[k])
        self.known = max(self.known, count)
        return self.powers[:count]

    def blocks(self, b: int, reverse: bool = False) -> np.ndarray:
        """_block_toeplitz of F^0 .. F^(b - 1), or its block reversal, times gain."""
        if (b, reverse) not in self.toeplitz:
            toeplitz = _block_toeplitz(self.upto(b), reverse)
            if self.gain != 1.0:
                toeplitz *= self.gain
            self.toeplitz[b, reverse] = toeplitz
        return self.toeplitz[b, reverse]

    def channel(self, reverse: bool = False) -> np.ndarray | None:
        """For F = c I, whose blocks(_BLOCK, reverse) is kron(T, I_n): the
        16 x 16 L = T^T, F-ordered (a C-ordered copy rounds apart from the
        full product); else None."""
        if self.scalar and reverse not in self.channels:
            n = self.F.shape[0]
            self.channels[reverse] = self.blocks(_BLOCK, reverse)[::n, ::n].copy().T
        return self.channels.get(reverse)

    @functools.cached_property
    def response(self) -> np.ndarray:
        n = self.F.shape[0]
        return self.upto(_BLOCK + 1)[1:].reshape(_BLOCK * n, n).T

    @functools.cached_property
    def reversed_response(self) -> np.ndarray:
        """[F^_BLOCK .. F^1]^T: a block's rows take the state carried in from
        the next block by these in the backward recurrence."""
        n = self.F.shape[0]
        return self.response.reshape(n, _BLOCK, n)[:, ::-1].reshape(n, _BLOCK * n)

    @functools.cached_property
    def carried(self) -> "_Recurrence":
        return _Recurrence(self.upto(_BLOCK + 1)[_BLOCK])


def _linear_recurrence(ops: _Recurrence, x: np.ndarray, reverse: bool = False) -> np.ndarray:
    """y_0 = g x_0, y_k = F y_{k-1} + g x_k over the rows of x (m, n), for
    the F and gain g of ops; reversed, y_{m-1} = g x_{m-1}, y_k = F y_{k+1}
    + g x_k.

    Works in the original basis for any n x n F, defective or unstable.
    Within each block of _BLOCK rows, y is the block's own response, one
    block-Toeplitz product with F^0 .. F^(_BLOCK-1), plus the response
    F^1 .. F^_BLOCK to the state carried in from the previous block.  The
    carried states are the block-end values, which obey the same recurrence
    with F^_BLOCK, so each level of recursion shortens the series _BLOCK-fold.
    For F = c I the block-Toeplitz matrix is kron(T, I_n), and two or more
    whole blocks take it one channel at a time (_Recurrence.channel).
    Reversed, each block takes the block reversal of the same matrices, and
    the carried states, the blocks' first rows, run through the same chain
    of recurrences from the last block to the first.  Every operator comes
    from ops and its chain of `carried` recurrences, taken once for every
    series run with ops.

    A C-contiguous x is overwritten with y and returned; any other x is
    solved in a C-contiguous copy, which is returned.  Rows past the last
    whole block (before the first, reversed) are solved as one zero-padded
    block in a small scratch.  The scratch of each level is freed before
    the next level's, so the recursion adds about a sixteenth of x and a
    block-product scratch of at most _CHANNEL_BLOCKS blocks.
    """
    if not x.flags.c_contiguous:
        return _linear_recurrence(ops, np.ascontiguousarray(x), reverse)
    m, n = x.shape
    # a series shorter than a block is one block: no power of F beyond its span
    b = min(m, _BLOCK)
    nb, r = divmod(m, b)
    if nb == 1 and r:
        # BLAS would take the one whole block as a one-row product, which
        # rounds apart from a matrix product: solve two blocks, zero-padded
        padded = np.zeros((2 * b, n))
        (padded[-m:] if reverse else padded[:m])[:] = x
        _linear_recurrence(ops, padded, reverse)
        x[:] = padded[-m:] if reverse else padded[:m]
        return x
    toeplitz = ops.blocks(b, reverse)
    rest = x[:r] if reverse else x[nb * b :]
    y = (x[r:] if reverse else x[: nb * b]).reshape(nb, b * n)
    # one block, whole or shorter, is a one-row product, which BLAS takes as
    # a vector product: it keeps the full product to keep its rounding
    _block_product(y, toeplitz, ops.channel(reverse) if nb > 1 else None)
    if r:
        # the rest, zero-padded to a block, and a zero row: a two-row product
        # rounds as the block product's rows do
        padded = np.zeros((2, b, n))
        (padded[0, b - r :] if reverse else padded[0, :r])[:] = rest
        last = np.matmul(padded.reshape(2, b * n), toeplitz)
    rows = nb - (r == 0)  # carried states: every block's but the last block's
    if rows:
        # the carried states, the blocks' last rows (first rows, reversed), in
        # a zero-padded series of whole blocks, then a zero row: a lone
        # carried state joins it in a two-row product
        whole = _whole_blocks(rows)
        carried = np.zeros((whole + 1, n))
        if reverse:
            carried[whole - rows : whole] = y[nb - rows :, :n]
        else:
            carried[:rows] = y[:rows, -n:]
        _linear_recurrence(ops.carried, carried[:-1], reverse)
        response = ops.reversed_response if reverse else ops.response
        # block k + 1 takes carried state k; reversed, block k takes the next block's
        states = carried[whole - (nb - 1) :] if reverse else carried
        if nb > 1:
            # the takers += states @ response, _CARRIED_ROWS rows at a time through one scratch
            takers = y[:-1] if reverse else y[1:]
            scratch = np.empty((min(max(nb - 1, 2), _CARRIED_ROWS + 1), b * n))
            for start, stop in _row_ranges(max(nb - 1, 2), _CARRIED_ROWS):
                part = np.matmul(states[start:stop], response, out=scratch[: stop - start])
                takers[start:stop] += part[: nb - 1 - start]
        if r:
            k = whole - rows if reverse else nb - 1
            last[0] += np.matmul(carried[k : k + 2], response)[0]
    if r:
        rest[:] = last[0].reshape(b, n)[b - r :] if reverse else last[0].reshape(b, n)[:r]
    return x


def _steady_prep(A: np.ndarray, D: np.ndarray, dt: float):
    """Shared precomputation for exact-OU sampling: (F, Lq, Linf)."""
    Vinf = solve_steady_lyapunov(A, D)
    F = _expm(np.asarray(A, dtype=float) * dt)
    Q = symmetrize(Vinf - F @ Vinf @ F.T)
    return F, _psd_factor(Q), _psd_factor(Vinf)


class _Stream:
    """The AR(1) stream R_{k+1} = F R_k + Lnoise z_k from R_0 = r0, else L0 z
    (the origin if L0 is None), prepared once for every path drawn from it:
    the transposed noise factor as a contiguous array, and the _Recurrence of
    F, whose powers the first path takes as deep as it recurses and every
    later path reuses.  It pickles with what it holds, so one prepared stream
    can be handed to spawned workers."""

    def __init__(self, F, Lnoise, L0=None, r0=None):
        self.recurrence = _Recurrence(F)
        self.Lnoise, self.L0, self.r0 = Lnoise, L0, r0
        self.LT = np.ascontiguousarray(Lnoise.T)


def _path_input(stream: _Stream, total: int, rng) -> np.ndarray:
    """One path's recurrence input in a buffer of its own, _whole_blocks(total)
    rows long: R_0 (r0, else L0 z, else the origin), then the noise Lnoise z_k
    drawn _DRAW_ROWS rows at a time, then zeros to the end of the last block."""
    n = stream.LT.shape[0]
    x = np.empty((_whole_blocks(total), n))
    if stream.r0 is not None:
        x[0] = stream.r0
    elif stream.L0 is not None:
        x[0] = stream.L0 @ rng.standard_normal(n)
    else:
        x[0] = 0.0
    # BLAS takes a one-row product as a vector product, which rounds by the
    # factor's layout: a lone noise row keeps the strided view Lnoise.T
    LT = stream.LT if total > 2 else stream.Lnoise.T
    for start, stop in _row_ranges(total - 1, _DRAW_ROWS):
        np.matmul(rng.standard_normal((stop - start, n)), LT, out=x[1 + start : 1 + stop])
    x[total:] = 0.0
    return x


def _draw_path(stream: _Stream, total: int, rng) -> np.ndarray:
    """total samples of the stream's R_k; R_0's normals are drawn from rng
    first.  The samples are a view of the buffer the input was drawn into,
    which the recurrence overwrites.  This is the one AR(1) path of every
    sampler."""
    return _linear_recurrence(stream.recurrence, _path_input(stream, total, rng))[:total]


def _records(stream: _Stream, config, scheme, source, meta, members):
    """Yield one record of a _draw_path of stream per (seed, extra meta)
    member, burn-in dropped; every path reuses the stream's operators.  Each
    path is drawn inside the yield expression, so no name here holds a path or
    its record once it is yielded: a consumer that lets go of each record
    frees its buffer before the next path allocates one."""
    total = config.burn_in + config.n_steps
    base = {"scheme": scheme.value, "burn_in": config.burn_in, **(meta or {})}
    for seed, extra in members:
        rng = np.random.Generator(np.random.PCG64(seed))
        yield TrajectoryRecord(
            _draw_path(stream, total, rng)[config.burn_in :],
            config.dt, source, seed, {**base, **extra},
        )


def _exact_stream(A, D, dt: float) -> _Stream:
    """The exact-OU stream of (A, D) at step dt, from a steady-state R_0."""
    return _Stream(*_steady_prep(A, D, dt))


def _euler_stream(A, D, dt: float, r0=None) -> _Stream:
    """The Euler-Maruyama stream of (A, D) at step dt, from r0, else from a
    steady-state draw when the drift is stable and D is nonzero, else from
    the origin.  Guarded by dt <= 0.1 / max|eig A|."""
    A = np.asarray(A, dtype=float)
    D = np.asarray(D, dtype=float)
    rate = float(np.max(np.abs(np.linalg.eigvals(A))))
    if rate > 0 and dt > 0.1 / rate:
        raise StepTooLargeError(
            f"dt = {dt:g} exceeds accuracy guard 0.1/max|eig A| = {0.1 / rate:g}"
        )
    F = np.eye(4) + A * dt
    Lnoise = math.sqrt(dt) * _psd_factor(D)
    Linf = None
    if r0 is not None:
        r0 = np.asarray(r0, dtype=float)
        if r0.shape != (4,):
            raise ValidationError("r0 must be a 4-vector")
    elif is_stable(A) and np.max(np.abs(D)) > 0:
        Linf = _psd_factor(solve_steady_lyapunov(A, D))
    return _Stream(F, Lnoise, Linf, r0)


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
    members = [(config.master_seed, {})]
    stream = _exact_stream(A, D, config.dt)
    return next(_records(stream, config, Scheme.EXACT_OU, source, meta, members))


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
    members = [(config.master_seed, {})]
    stream = _euler_stream(A, D, config.dt, r0)
    return next(_records(stream, config, Scheme.EULER_MARUYAMA, source, meta, members))


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
    """sample_ensemble's members as an iterator that draws each one on demand
    from one prepared stream, so the members share its _steady_prep and its
    recurrence operators; the arguments are checked before it returns."""
    if n_members <= 0:
        raise ValidationError("ensemble size must be positive")
    stream = _exact_stream(A, D, config.dt)
    members = [
        (derive_stream_seed(config.master_seed, k), {"member": k}) for k in range(n_members)
    ]
    return _records(stream, config, Scheme.EXACT_OU, source, meta, members)
