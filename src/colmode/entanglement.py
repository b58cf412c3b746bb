"""Partial transpose, symplectic spectra, and inseparability witnesses.

A two-mode Gaussian state with covariance V is entangled iff the smallest
symplectic eigenvalue nu_minus of the partially transposed covariance
Lambda V Lambda (Lambda = diag(1,1,1,-1)) drops below the vacuum value 1/2.
The Duan EPR-variance witness W = Var(X_a -+ X_b) + Var(P_a +- P_b)
certifies entanglement when W < 2 in the same vacuum = 1/2 normalization;
the two sign orientations are both evaluated and the smaller is reported,
which makes the witness robust to the squeezing phase of symmetric states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComplexRootError, NotPositiveDefiniteError, ValidationError
from .gaussian_core import OMEGA, symmetrize

__all__ = [
    "LAMBDA_PT",
    "WitnessReport",
    "partial_transpose",
    "symplectic_eigenvalues",
    "ppt_nu_minus",
    "duan_witness",
    "analytic_nu_minus",
    "analytic_boundary",
    "witness_report_from_covariance",
]

#: Partial transpose of mode b at the covariance level: P_b -> -P_b.
LAMBDA_PT = np.diag([1.0, 1.0, 1.0, -1.0])

PPT_BOUND = 0.5
DUAN_BOUND = 2.0

# Cut the A, B, C blocks of (n, 4, 4) covariances as one (n, 3, 2, 2) stack
_BLOCK_ROWS = np.array([[0, 1], [2, 3], [0, 1]])[:, :, None]
_BLOCK_COLS = np.array([[0, 1], [2, 3], [2, 3]])[:, None, :]


@dataclass(frozen=True)
class WitnessReport:
    """Entanglement verdicts for one dataset (exact state or estimate).

    Verdicts use the 3-sigma rule: a bound counts as violated only when the
    witness falls below it by more than three standard errors.  For exact
    covariances the standard errors are zero and the rule reduces to a plain
    threshold comparison.
    """

    nu_minus: float
    duan_sum: float
    entangled_ppt: bool
    entangled_duan: bool
    stderr_nu: float = 0.0
    stderr_duan: float = 0.0

    def to_dict(self) -> dict:
        return {
            "nu_minus": self.nu_minus,
            "duan_sum": self.duan_sum,
            "entangled_ppt": self.entangled_ppt,
            "entangled_duan": self.entangled_duan,
            "stderr_nu": self.stderr_nu,
            "stderr_duan": self.stderr_duan,
        }


_VERDICT_EPS = 1e-12  # rounding floor so exact boundary states never flip
_DISC_TOL = 1e-10  # most negative PT discriminant still read as a real root


def _violates(witness, bound, stderr=0.0):
    """The 3-sigma decision rule: True where a witness value falls below its
    bound by more than three standard errors; elementwise over arrays."""
    return witness < bound - 3.0 * stderr - _VERDICT_EPS


def make_report(nu_minus, duan_sum, stderr_nu=0.0, stderr_duan=0.0) -> WitnessReport:
    """Apply the 3-sigma decision rule to witness values."""
    return WitnessReport(
        nu_minus=float(nu_minus),
        duan_sum=float(duan_sum),
        entangled_ppt=bool(_violates(nu_minus, PPT_BOUND, stderr_nu)),
        entangled_duan=bool(_violates(duan_sum, DUAN_BOUND, stderr_duan)),
        stderr_nu=float(stderr_nu),
        stderr_duan=float(stderr_duan),
    )


def _require_symmetric(V: np.ndarray, stacked: bool = False) -> np.ndarray:
    """V as one finite symmetric 4x4 covariance, or with stacked=True as a
    (..., 4, 4) stack of them; the symmetry tolerance is per matrix."""
    V = np.asarray(V, dtype=float)
    if V.shape[-2:] != (4, 4) or (V.ndim != 2 and not stacked):
        raise ValidationError(f"expected a 4x4 covariance matrix, got {V.shape}")
    if not np.isfinite(V).all():
        raise ValidationError("covariance matrix has non-finite entries")
    scale = np.maximum(1.0, np.abs(V).max(axis=(-2, -1)))
    if np.any(np.abs(V - V.swapaxes(-1, -2)).max(axis=(-2, -1)) > 1e-10 * scale):
        raise ValidationError("covariance matrix must be symmetric")
    return symmetrize(V)


def _require_positive_definite(V: np.ndarray, stacked: bool = False) -> np.ndarray:
    V = _require_symmetric(V, stacked)
    if np.min(np.linalg.eigvalsh(V)) <= 0.0:
        raise NotPositiveDefiniteError("covariance matrix must be positive definite")
    return V


def partial_transpose(V: np.ndarray) -> np.ndarray:
    """Lambda V Lambda; an involution (applying twice restores V)."""
    V = _require_symmetric(V)
    return LAMBDA_PT @ V @ LAMBDA_PT


def symplectic_eigenvalues(V: np.ndarray) -> tuple[float, float]:
    """The positive pair (nu_plus, nu_minus) from the spectrum of i Omega V.

    Eigenvalues of i Omega V come in pairs {+-nu_plus, +-nu_minus}; the
    absolute values are sorted and the two distinct magnitudes returned with
    nu_plus >= nu_minus > 0.
    """
    V = _require_positive_definite(V)
    ev = np.abs(np.linalg.eigvals(1j * OMEGA @ V))
    ev.sort()
    return float(ev[3]), float(ev[0])


def _nu_minus(V: np.ndarray):
    """Smallest PT symplectic eigenvalue of each covariance in a (..., 4, 4) stack.

    nu^2 solves nu^4 - Delta nu^2 + det V = 0 with
    Delta = det A + det B - 2 det C; the smaller root is evaluated in the
    cancellation-free form 2 det V / (Delta + sqrt(Delta^2 - 4 det V)).
    Near spectral degeneracy (discriminant at rounding level) the invariant
    route loses half the working precision, so the spectrum of
    i Omega Lambda V Lambda takes over there; the two routes agree to 1e-10
    everywhere else (property-tested).  Entries with no real positive root
    (det V <= 0, discriminant below -_DISC_TOL, or a non-positive
    denominator) are NaN, so an invalid estimate can never read as
    entangled.  No positive-definiteness check: callers validate where they
    need one.
    """
    V = np.asarray(V, dtype=float)
    stack = V.reshape(-1, 4, 4)
    det_a, det_b, det_c = np.linalg.det(stack[:, _BLOCK_ROWS, _BLOCK_COLS]).T
    det_v = np.linalg.det(stack)
    delta = det_a + det_b - 2.0 * det_c
    disc = delta * delta - 4.0 * det_v
    denom = delta + np.sqrt(np.maximum(disc, 0.0))
    real = (det_v > 0.0) & (disc >= -_DISC_TOL) & (denom > 0.0)
    nu = np.sqrt(np.divide(2.0 * det_v, denom, out=np.full_like(det_v, np.nan), where=real))
    spectral = real & (disc <= 1e-9 * delta * delta)
    if np.count_nonzero(spectral):
        pt = LAMBDA_PT @ stack[spectral] @ LAMBDA_PT
        nu[spectral] = np.abs(np.linalg.eigvals(1j * OMEGA @ pt)).min(axis=-1)
    # [()] turns the 0-d result of a single matrix into a scalar
    return nu.reshape(V.shape[:-2])[()]


def _duan_sum(V: np.ndarray):
    """EPR-variance sum of each covariance in a (..., 4, 4) stack, minimized
    over the two sign orientations; no positive-definiteness check."""
    # v[j, i] is V[..., i, j], stack axes reversed until the final .T
    v = np.asarray(V, dtype=float).T
    xx, pp = v[0, 0] + v[2, 2], v[1, 1] + v[3, 3]
    w1 = (xx - 2 * v[2, 0]) + (pp + 2 * v[3, 1])
    w2 = (xx + 2 * v[2, 0]) + (pp - 2 * v[3, 1])
    return np.minimum(w1, w2).T


def _checked_witnesses(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nu_minus, duan_sum) over a (..., 4, 4) stack; a covariance with no
    real PT root raises ComplexRootError, never a verdict.  No
    positive-definiteness check: callers validate where they need one."""
    nu = _nu_minus(V)
    if np.isnan(nu).any():
        raise ComplexRootError("PT symplectic invariants admit no real positive root")
    return nu, _duan_sum(V)


def ppt_nu_minus(V: np.ndarray) -> float:
    """Smallest PT symplectic eigenvalue of a validated covariance."""
    return float(_checked_witnesses(_require_positive_definite(V))[0])


def duan_witness(V: np.ndarray) -> float:
    """EPR-variance sum, minimized over the two sign orientations.

    W = min[ Var(X_a - X_b) + Var(P_a + P_b),
             Var(X_a + X_b) + Var(P_a - P_b) ];
    separable states satisfy W >= 2 with vacuum variance 1/2.
    """
    return float(_duan_sum(_require_positive_definite(V)))


def analytic_nu_minus(G, kappa, n):
    """Closed-form smallest PT symplectic eigenvalue of the symmetric state:
    (2n+1)(kappa - 2G) / (2 (kappa + 2G)), valid for 0 <= 2G < kappa.

    The arguments broadcast: arrays give an array, each entry bit for bit
    the value of its scalar arguments, and scalars give a float."""
    G, kappa, n = (np.asarray(x, dtype=float) for x in (G, kappa, n))
    if not all(np.isfinite(x).all() for x in (G, kappa, n)):
        raise ValidationError("non-finite arguments")
    if np.any((kappa <= 0) | (n < 0) | (G < 0) | (2.0 * G >= kappa)):
        raise ValidationError("domain requires kappa > 0, n >= 0, 0 <= 2G < kappa")
    nu = 0.5 * (2.0 * n + 1.0) * (kappa - 2.0 * G) / (kappa + 2.0 * G)
    return nu if nu.ndim else float(nu)


def analytic_boundary(n: float) -> float:
    """Critical coupling ratio 2G/kappa = n/(n+1) where nu_minus = 1/2."""
    if not math.isfinite(n) or n < 0:
        raise ValidationError("occupancy must be finite and >= 0")
    return n / (n + 1.0)


def witness_report_from_covariance(V: np.ndarray) -> WitnessReport:
    """Exact-state witness report (zero statistical uncertainty)."""
    return make_report(*_checked_witnesses(_require_positive_definite(V)))
