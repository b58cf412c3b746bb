import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, settings

from colmode.gaussian_core import OMEGA, ModelParams, build_drift, is_stable

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def random_stable_params(rng, margin: float = 0.02) -> ModelParams:
    """Random parameter draw, rejected until comfortably Hurwitz."""
    while True:
        kappa_a = rng.uniform(0.5, 2.0)
        kappa_b = rng.uniform(0.5, 2.0)
        params = ModelParams(
            G=rng.uniform(0.0, 0.4 * min(kappa_a, kappa_b)),
            kappa_a=kappa_a,
            kappa_b=kappa_b,
            n_a=rng.uniform(0.0, 3.0),
            n_b=rng.uniform(0.0, 3.0),
            delta_a=rng.uniform(-0.5, 0.5),
            delta_b=rng.uniform(-0.5, 0.5),
        )
        A = build_drift(params)
        if is_stable(A) and np.max(np.linalg.eigvals(A).real) < -margin:
            return params


def random_symplectic(rng, scale: float = 0.6) -> np.ndarray:
    """exp(Omega H) for random symmetric H is symplectic."""
    M = rng.standard_normal((4, 4))
    H = scale * (M + M.T) / 2.0
    return scipy.linalg.expm(OMEGA @ H)


def random_physical_covariance(rng) -> np.ndarray:
    """Random bona fide two-mode Gaussian state via the Williamson form."""
    S = random_symplectic(rng)
    nus = 0.5 + rng.exponential(0.5, size=2)
    W = np.diag([nus[0], nus[0], nus[1], nus[1]])
    V = S @ W @ S.T
    return 0.5 * (V + V.T)


def vanloan_step(A: np.ndarray, D: np.ndarray, h: float):
    """Exact discrete covariance propagator, independent of the Lyapunov solve.

    Returns (Phi, Q) with V(t+h) = Phi V(t) Phi^T + Q, computed from the
    block matrix exponential of [[A, D], [0, -A^T]] h.
    """
    n = A.shape[0]
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = A
    M[:n, n:] = D
    M[n:, n:] = -A.T
    E = scipy.linalg.expm(M * h)
    Phi = E[:n, :n]
    Q = E[:n, n:] @ Phi.T
    return Phi, 0.5 * (Q + Q.T)


def evolve_by_vanloan(V0, A, D, t, steps):
    Phi, Q = vanloan_step(A, D, t / steps)
    V = np.asarray(V0, dtype=float)
    for _ in range(steps):
        V = Phi @ V @ Phi.T + Q
    return 0.5 * (V + V.T)


def evolve_affine(V0, A, D, t):
    """Closed-form evolution e^{At} (V0 - Vinf) e^{A^T t} + Vinf for Hurwitz A.

    Vinf comes from the Kronecker form (A (x) I + I (x) A) vec(V) = -vec(D),
    so this route shares no code with the Van Loan block exponential.
    """
    n = A.shape[0]
    eye = np.eye(n)
    Vinf = np.linalg.solve(np.kron(A, eye) + np.kron(eye, A), -D.reshape(n * n))
    Vinf = Vinf.reshape(n, n)
    F = scipy.linalg.expm(A * t)
    V = F @ (np.asarray(V0, dtype=float) - Vinf) @ F.T + Vinf
    return 0.5 * (V + V.T)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


#: Steps of the records the working-set tests measure; one record of
#: (RECORD_STEPS, 4) float64 samples is the unit they count in.
RECORD_STEPS = 100_000


def traced_peak_records(fn, *args, steps: int = RECORD_STEPS, **kwargs):
    """(peak traced memory of fn(*args, **kwargs) in records of `steps`
    samples, its result); memory allocated before the call is not counted."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (steps * 4 * 8), result
