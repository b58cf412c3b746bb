"""Operational calculators: measured noise to entanglement thresholds.

This module works in SI units.  It links voltage noise density, bandwidth,
capacitance, and temperature to the effective occupancy of a collective
envelope mode, to the correlation cooperativity, to minimum collective
fluctuation amplitudes, to collective occupation numbers, and to phase
diffusion rates.  Distance enters only through a measured coupling curve
G(d).
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

from ._fields import ConfigFields, real
from .errors import (
    MissingNoiseInputError,
    OutOfRangeError,
    ValidationError,
    ZeroOccupancyError,
)

__all__ = [
    "K_B",
    "HBAR",
    "VminForm",
    "NoiseInputSpec",
    "CouplingCurve",
    "n_eff_from_noise",
    "cooperativity",
    "v_min",
    "collective_occupation",
    "phase_diffusion",
    "coupling_at",
    "max_entangled_distance",
]

#: Exact CODATA values.
K_B = 1.380649e-23  # J/K
HBAR = 1.054571817e-34  # J s


class VminForm(str, enum.Enum):
    """Which minimum-amplitude closed form to evaluate.

    GENERAL:      sqrt(S_V(0) B / C_corr)            from the measured noise density
    THERMAL:      sqrt(4 k_B T R_eff B / C_corr)     thermal voltage noise of R_eff
    CONSERVATIVE: sqrt(2 k_B T B / (C_eff kappa))    strong-coupling bound G ~ kappa
    """

    GENERAL = "GENERAL"
    THERMAL = "THERMAL"
    CONSERVATIVE = "CONSERVATIVE"


@dataclass(frozen=True)
class NoiseInputSpec(ConfigFields):
    """Measured inputs around the collective envelope band.

    S_V0 (V^2/Hz) may be omitted when it can be supplied by R_eff via the
    thermal form 4 k_B T R_eff, or by Re_Y_eff via R_eff = 1/Re_Y_eff.
    """

    B: float  # bandwidth, Hz
    C_eff: float  # effective capacitance, F
    omega_col: float  # collective envelope angular frequency, rad/s
    T_amb: float  # ambient temperature, K
    S_V0: float | None = None  # voltage noise density at band center, V^2/Hz
    R_eff: float | None = None  # effective series resistance, Ohm
    Re_Y_eff: float | None = None  # real part of effective admittance, S

    def __post_init__(self):
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if v is not None or f.default is dataclasses.MISSING:
                object.__setattr__(self, f.name, real(v, f.name, above=0.0))

    def resolved_S_V0(self) -> float:
        """S_V(0), taken directly or supplied by R_eff or Re_Y_eff."""
        if self.S_V0 is not None:
            return self.S_V0
        if self.R_eff is not None:
            return 4.0 * K_B * self.T_amb * self.R_eff
        if self.Re_Y_eff is not None:
            return 4.0 * K_B * self.T_amb / self.Re_Y_eff
        raise MissingNoiseInputError("need one of S_V0, R_eff, Re_Y_eff")


def n_eff_from_noise(spec: NoiseInputSpec) -> tuple[float, bool]:
    """Effective occupancy from in-band injected energy.

    2 n_eff + 1 = C_eff S_V(0) B / (hbar omega_col); the in-band energy is
    E = (1/2) C_eff <V^2> with <V^2> = S_V(0) B.  Returns (n_eff, clamped):
    a measured noise level below the vacuum floor clamps n_eff to zero and
    sets the flag.
    """
    ratio = spec.C_eff * spec.resolved_S_V0() * spec.B / (HBAR * spec.omega_col)
    n_eff = (ratio - 1.0) / 2.0
    if n_eff < 0.0:
        return 0.0, True
    return n_eff, False


def cooperativity(G: float, kappa: float, n_eff: float) -> float:
    """Correlation cooperativity C = (2G/kappa) (n_eff + 1) / n_eff.

    The unique form linear in 2G/kappa that equals one exactly on the
    separability boundary 2G/kappa = n_eff/(n_eff + 1); C > 1 is equivalent
    to entanglement of the symmetric closed-form steady state.
    """
    G = real(G, "G", at_least=0.0)
    kappa = real(kappa, "kappa", above=0.0)
    n_eff = real(n_eff, "n_eff", at_least=0.0)
    if 2.0 * G >= kappa:
        raise ValidationError("domain requires 2G < kappa")
    if n_eff == 0:
        raise ZeroOccupancyError(
            "boundary degenerates at n_eff = 0; use the PT eigenvalue criterion directly"
        )
    return (2.0 * G / kappa) * (n_eff + 1.0) / n_eff


def v_min(
    form: VminForm,
    spec: NoiseInputSpec | None = None,
    C_corr: float | None = None,
    kappa: float | None = None,
) -> float:
    """Minimum collective rms fluctuation amplitude, in volts.

    GENERAL and THERMAL need the correlation cooperativity C_corr;
    CONSERVATIVE needs kappa and uses the strong-coupling grouping
    sqrt(2 k_B T B / (C_eff kappa)).
    """
    form = VminForm(form)
    if spec is None:
        raise ValidationError("a NoiseInputSpec is required")
    if form is VminForm.GENERAL:
        C_corr = real(C_corr, "C_corr", above=0.0)
        return math.sqrt(spec.resolved_S_V0() * spec.B / C_corr)
    if form is VminForm.THERMAL:
        C_corr = real(C_corr, "C_corr", above=0.0)
        R = real(spec.R_eff, "R_eff", above=0.0)
        return math.sqrt(4.0 * K_B * spec.T_amb * R * spec.B / C_corr)
    kappa = real(kappa, "kappa", above=0.0)
    return math.sqrt(2.0 * K_B * spec.T_amb * spec.B / (spec.C_eff * kappa))


def collective_occupation(V_col: float, C_eff: float, omega_col: float) -> float:
    """N_col = E_col / (hbar omega_col) with E_col = (1/2) C_eff V_col^2."""
    V_col = real(V_col, "V_col", above=0.0)
    C_eff = real(C_eff, "C_eff", above=0.0)
    omega_col = real(omega_col, "omega_col", above=0.0)
    return 0.5 * C_eff * V_col**2 / (HBAR * omega_col)


def phase_diffusion(kappa: float, n_eff: float, N_col: float, T_int: float):
    """Collective phase diffusion: D_phi = kappa (2 n_eff + 1) / (4 N_col).

    Returns (D_phi, sigma2_phi) with sigma2_phi = 2 D_phi T_int.  Large
    collective occupation slows diffusion but never stops it.
    """
    kappa = real(kappa, "kappa", above=0.0)
    N_col = real(N_col, "N_col", above=0.0)
    n_eff = real(n_eff, "n_eff", at_least=0.0)
    T_int = real(T_int, "T_int", at_least=0.0)
    d_phi = kappa * (2.0 * n_eff + 1.0) / (4.0 * N_col)
    return d_phi, 2.0 * d_phi * T_int


@dataclass(frozen=True)
class CouplingCurve:
    """Measured coupling rate versus distance, interpolated piecewise-linearly.

    Distances must be strictly increasing and couplings nonnegative.  No
    extrapolation: queries outside the tabulated range are refused.
    """

    distances: tuple
    couplings: tuple

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=float)
        g = np.asarray(self.couplings, dtype=float)
        if d.ndim != 1 or d.size < 2 or d.shape != g.shape:
            raise ValidationError("need matching 1-d arrays with at least two knots")
        if not np.all(np.isfinite(d)) or not np.all(np.isfinite(g)):
            raise ValidationError("curve contains non-finite values")
        if np.any(np.diff(d) <= 0):
            raise ValidationError("distances must be strictly increasing")
        if np.any(g < 0):
            raise ValidationError("couplings must be nonnegative")
        object.__setattr__(self, "distances", tuple(float(x) for x in d))
        object.__setattr__(self, "couplings", tuple(float(x) for x in g))


def coupling_at(curve: CouplingCurve, d: float) -> float:
    """G(d) by linear interpolation; out-of-range queries raise."""
    d = real(d, "distance")
    lo, hi = curve.distances[0], curve.distances[-1]
    if d < lo or d > hi:
        raise OutOfRangeError(f"distance {d:g} outside tabulated range [{lo:g}, {hi:g}]")
    return float(np.interp(d, curve.distances, curve.couplings))


def max_entangled_distance(curve: CouplingCurve, kappa: float, n_eff: float) -> float | None:
    """Largest tabulated distance with cooperativity above one.

    Requires a nonincreasing coupling curve; returns None when even the
    closest tabulated distance fails the condition, and clamps to the last
    knot rather than extrapolating.  Otherwise the curve first reaches the
    threshold coupling kappa n_eff / (2 (n_eff + 1)) on one knot interval,
    where it is linear: the distance is that segment's root.
    """
    kappa = real(kappa, "kappa", above=0.0)
    if n_eff <= 0:
        raise ZeroOccupancyError("distance solver needs n_eff > 0")
    d, g = np.asarray(curve.distances), np.asarray(curve.couplings)
    if np.any(np.diff(g) > 0):
        raise ValidationError("distance solver requires a nonincreasing coupling curve")
    g_threshold = 0.5 * kappa * n_eff / (n_eff + 1.0)
    if g[0] <= g_threshold:
        return None
    if g[-1] > g_threshold:
        return float(d[-1])
    j = int(np.argmax(g <= g_threshold))  # g[j - 1] > g_threshold >= g[j]
    return float(d[j - 1] + (g[j - 1] - g_threshold) / (g[j - 1] - g[j]) * (d[j] - d[j - 1]))
