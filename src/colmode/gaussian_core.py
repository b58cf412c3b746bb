"""Gaussian open-system core for two coupled collective bosonic modes.

Conventions used throughout the package: hbar = 1, vacuum quadrature
variance 1/2, quadrature ordering R = (X_a, P_a, X_b, P_b), symplectic form
Omega = [[0,1],[-1,0]] (+) [[0,1],[-1,0]].

The reduced dynamics is the linear Langevin equation

    dR/dt = A R + xi(t),    <xi_i(t) xi_j(t')> = delta(t - t') D_ij,

so the covariance matrix V_ij = (1/2)<R_i R_j + R_j R_i> - <R_i><R_j> obeys
dV/dt = A V + V A^T + D and, for Hurwitz A, relaxes to the unique solution of
A V + V A^T + D = 0.

Two first-class steady-state constructions are provided:

* ``TMS_HAMILTONIAN``: drift generated by the non-degenerate parametric
  (two-mode squeezing) interaction with local damping and local noise
  injection.  Its symmetric resonant steady state has smallest PT symplectic
  eigenvalue (2n+1) kappa / (2 (kappa + 2G)).
* ``CLOSED_FORM``: the symmetric two-mode squeezed thermal covariance with
  blocks A = B = a I, C = diag(c, -c), whose smallest PT symplectic
  eigenvalue is (2n+1)(kappa - 2G) / (2 (kappa + 2G)).  It is realized
  dynamically by damping both modes into a correlated Gaussian reservoir
  (see :func:`closed_form_dynamics`); the two-mode squeezing drift with
  local baths provably does not produce it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._fields import ConfigFields, checked, real
from .errors import (
    NegativeTimeError,
    SingularSolveError,
    UnstableDriftError,
    ValidationError,
)

__all__ = [
    "OMEGA",
    "Preset",
    "ModelParams",
    "build_drift",
    "build_diffusion",
    "is_stable",
    "solve_steady_lyapunov",
    "evolve_covariance",
    "closed_form_covariance",
    "closed_form_dynamics",
    "steady_state_covariance",
    "steady_dynamics",
    "check_physicality",
    "infer_diffusion",
    "symmetrize",
]

#: Fixed symplectic form for R = (X_a, P_a, X_b, P_b).
OMEGA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)

STABILITY_EPS = 1e-10


class Preset(str, enum.Enum):
    """Which steady-state construction a parameter set refers to."""

    TMS_HAMILTONIAN = "TMS_HAMILTONIAN"
    CLOSED_FORM = "CLOSED_FORM"


@dataclass(frozen=True)
class ModelParams(ConfigFields):
    """Reduced open-system parameter set; the single source of truth for dynamics.

    Rates are in arbitrary consistent units (typically kappa = 1).  The noise
    occupancies n_a, n_b are effective in-band quantities, not assumed thermal.
    """

    G: float = checked(real, at_least=0.0)
    kappa_a: float = checked(real, above=0.0)
    kappa_b: float = checked(real, above=0.0)
    n_a: float = checked(real, at_least=0.0)
    n_b: float = checked(real, at_least=0.0)
    delta_a: float = checked(real, 0.0)
    delta_b: float = checked(real, 0.0)
    preset: Preset = checked(Preset, Preset.TMS_HAMILTONIAN)

    def __post_init__(self):
        super().__post_init__()
        if self.preset is Preset.CLOSED_FORM and not self.symmetric_resonant:
            raise ValidationError(
                "CLOSED_FORM preset requires kappa_a = kappa_b, n_a = n_b, zero detunings"
            )

    @property
    def symmetric_resonant(self) -> bool:
        return (
            self.kappa_a == self.kappa_b
            and self.n_a == self.n_b
            and self.delta_a == 0.0
            and self.delta_b == 0.0
        )


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix or of each matrix in a (..., n, n) stack."""
    return 0.5 * (M + M.swapaxes(-1, -2))


def build_drift(params: ModelParams) -> np.ndarray:
    """Drift matrix of the two-mode-squeezing interaction with local damping.

    dX_a/dt = -kappa_a/2 X_a + delta_a P_a - G P_b, and cyclically; in matrix
    form A = [[-ka/2, da, 0, -G], [-da, -ka/2, -G, 0],
              [0, -G, -kb/2, db], [-G, 0, -db, -kb/2]].
    """
    ka, kb = params.kappa_a, params.kappa_b
    da, db = params.delta_a, params.delta_b
    G = params.G
    return np.array(
        [
            [-ka / 2, da, 0.0, -G],
            [-da, -ka / 2, -G, 0.0],
            [0.0, -G, -kb / 2, db],
            [-G, 0.0, -db, -kb / 2],
        ]
    )


def build_diffusion(params: ModelParams) -> np.ndarray:
    """Diffusion matrix of local noise injection at occupancies n_a, n_b.

    D = diag(ka(2na+1)/2, ka(2na+1)/2, kb(2nb+1)/2, kb(2nb+1)/2).
    """
    da = params.kappa_a * (2.0 * params.n_a + 1.0) / 2.0
    db = params.kappa_b * (2.0 * params.n_b + 1.0) / 2.0
    return np.diag([da, da, db, db])


def is_stable(A: np.ndarray, eps: float = STABILITY_EPS) -> bool:
    """True iff every eigenvalue of A has real part < -eps (Hurwitz)."""
    return bool(np.max(np.linalg.eigvals(np.asarray(A, dtype=float)).real) < -eps)


def solve_steady_lyapunov(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Unique steady covariance solving A V + V A^T + D = 0 for Hurwitz A,
    for D of shape (..., 4, 4): one diffusion matrix or a stack of them.

    Solved by vectorizing to the dense 16x16 system
    (A (x) I + I (x) A) vec(V) = -vec(D), which is exact and cheap at this
    size; a stack shares one stability check and one Kronecker matrix, and
    each of its entries is bit-identical to a solve of that D alone.  The
    output is symmetrized and the residual checked to 1e-10.
    """
    A = np.asarray(A, dtype=float)
    D = np.asarray(D, dtype=float)
    if not is_stable(A):
        raise UnstableDriftError("drift matrix is not Hurwitz; no steady state")
    eye = np.eye(4)
    M = np.kron(A, eye) + np.kron(eye, A)
    try:
        v = np.linalg.solve(M, -D.reshape(*D.shape[:-2], 16, 1))
    except np.linalg.LinAlgError as exc:
        raise SingularSolveError(str(exc)) from exc
    V = symmetrize(v.reshape(D.shape))
    resid = np.max(np.abs(A @ V + V @ A.T + D))
    if not np.isfinite(resid) or resid > 1e-10:
        raise SingularSolveError(f"steady-state residual {resid:.3e} exceeds 1e-10")
    return V


def _expm(M: np.ndarray) -> np.ndarray:
    """e^M for a square M.  A diagonal M gives the exponential of its
    diagonal, as scipy.linalg.expm computes it for one; any other M goes to
    scipy.linalg.expm, which is imported on the first such call, so a run
    whose drifts are all diagonal never loads scipy.linalg."""
    M = np.asarray(M, dtype=float)
    diagonal = np.diagonal(M)
    if np.count_nonzero(M) == np.count_nonzero(diagonal):
        return np.diag(np.exp(diagonal))
    import scipy.linalg

    return scipy.linalg.expm(M)


def evolve_covariance(V0: np.ndarray, A: np.ndarray, D: np.ndarray, t: float) -> np.ndarray:
    """Propagate dV/dt = A V + V A^T + D for a duration t >= 0, for any drift.

    V(t) = F V0 F^T + Q with (F, Q) read off Van Loan's block exponential
    expm([[A, D], [0, -A^T]] h) (Van Loan, IEEE TAC 23, 395 (1978)), so a
    stable, marginal or unstable A takes the same exact path.  The -A^T block
    grows like e^{|A| h}, so the exponential is taken at h = t / 2^k with
    ||A h||_1 <= 1 and doubled back k times: Q <- F Q F^T + Q, F <- F F.
    """
    if not math.isfinite(t) or t < 0:
        raise NegativeTimeError(f"evolution time must be >= 0, got {t!r}")
    V0 = symmetrize(np.asarray(V0, dtype=float))
    A = np.asarray(A, dtype=float)
    D = np.asarray(D, dtype=float)
    if t == 0.0:
        return V0
    scale = np.linalg.norm(A, 1) * t
    k = math.ceil(math.log2(scale)) if scale > 1.0 else 0
    n = A.shape[0]
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = A
    M[:n, n:] = D
    M[n:, n:] = -A.T
    E = _expm(M * (t / 2**k))
    F = E[:n, :n]
    Q = symmetrize(E[:n, n:] @ F.T)
    for _ in range(k):
        Q = F @ Q @ F.T + Q
        F = F @ F
    return symmetrize(F @ V0 @ F.T + Q)


def closed_form_covariance(G, kappa: float, n) -> np.ndarray:
    """Symmetric two-mode squeezed thermal covariance in closed form.

    a = (2n+1)/2 (k^2+4G^2)/(k^2-4G^2), c = (2n+1)/2 4kG/(k^2-4G^2),
    assembled as blocks A = B = a I2, C = diag(c, -c).  Its smallest PT
    symplectic eigenvalue is a - c = (2n+1)(k-2G)/(2(k+2G)) and
    det V = ((2n+1)/2)^4 for every admissible (G, kappa, n).  G and n
    broadcast: scalars give one 4x4 covariance, arrays a (..., 4, 4) stack
    whose every entry is bit for bit the covariance of its scalar arguments.
    """
    if not (np.isfinite(G).all() and math.isfinite(kappa) and np.isfinite(n).all()):
        raise ValidationError("non-finite closed-form arguments")
    if kappa <= 0 or np.any(n < 0) or np.any(G < 0):
        raise ValidationError("need kappa > 0, n >= 0, G >= 0")
    if np.any(2.0 * G >= kappa):
        raise UnstableDriftError("closed form requires 2G < kappa")
    s = (2.0 * n + 1.0) / 2.0
    denom = kappa**2 - 4.0 * G**2
    a, c = np.broadcast_arrays(
        s * (kappa**2 + 4.0 * G**2) / denom, s * 4.0 * kappa * G / denom
    )
    V = np.zeros(a.shape + (4, 4))
    for i in range(4):
        V[..., i, i] = a
    V[..., 0, 2] = V[..., 2, 0] = c
    V[..., 1, 3] = V[..., 3, 1] = -c
    return V


def closed_form_dynamics(G: float, kappa: float, n: float):
    """Langevin pair (A, D) whose steady state is the closed-form covariance.

    Uses pure damping A = -(kappa/2) I with correlated noise D = kappa V,
    i.e. both modes relax into a shared two-mode-squeezed Gaussian
    reservoir.  Because A Omega - Omega A^T = 0 here, D >= 0 is the full
    quantum-validity condition, which holds since V is positive definite.
    """
    V = closed_form_covariance(G, kappa, n)
    A = -0.5 * kappa * np.eye(4)
    return A, kappa * V


def steady_dynamics(params: ModelParams):
    """(A, D) pair generating the steady state selected by the preset."""
    if params.preset is Preset.CLOSED_FORM:
        return closed_form_dynamics(params.G, params.kappa_a, params.n_a)
    return build_drift(params), build_diffusion(params)


def steady_state_covariance(params: ModelParams) -> np.ndarray:
    """Steady covariance for the preset selected in params."""
    if params.preset is Preset.CLOSED_FORM:
        return closed_form_covariance(params.G, params.kappa_a, params.n_a)
    return solve_steady_lyapunov(build_drift(params), build_diffusion(params))


def check_physicality(V: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff V + (i/2) Omega >= 0, the bona fide Gaussian state condition."""
    V = np.asarray(V, dtype=float)
    if np.max(np.abs(V - V.T)) > 1e-12 * max(1.0, np.max(np.abs(V))):
        raise ValidationError("covariance matrix must be symmetric")
    H = V + 0.5j * OMEGA
    return bool(np.min(np.linalg.eigvalsh(H)) >= -tol)


def infer_diffusion(A: np.ndarray, V_target: np.ndarray, tol: float = 1e-12):
    """Diffusion matrix that would hold V_target steady under drift A.

    Returns (D, psd_flag) with D = -(A V + V A^T) symmetrized.  A False flag
    means no legitimate noise input can pin V_target under this drift.
    """
    A = np.asarray(A, dtype=float)
    V = symmetrize(np.asarray(V_target, dtype=float))
    D = symmetrize(-(A @ V + V @ A.T))
    psd = bool(np.min(np.linalg.eigvalsh(D)) >= -max(tol, 1e-12 * np.max(np.abs(D))))
    return D, psd
