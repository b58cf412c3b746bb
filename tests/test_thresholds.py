import math

import numpy as np
import pytest

from colmode.entanglement import analytic_nu_minus
from colmode.errors import (
    MissingNoiseInputError,
    OutOfRangeError,
    ValidationError,
    ZeroOccupancyError,
)
from colmode.thresholds import (
    HBAR,
    K_B,
    CouplingCurve,
    NoiseInputSpec,
    VminForm,
    collective_occupation,
    cooperativity,
    coupling_at,
    max_entangled_distance,
    n_eff_from_noise,
    phase_diffusion,
    v_min,
)

TWO_PI = 2.0 * math.pi

# representative room-temperature operating point
ROOM = dict(B=0.4e6, C_eff=1e-12, T_amb=300.0, R_eff=50.0)


def room_spec(f_col=1e6, **kw):
    base = dict(ROOM, omega_col=TWO_PI * f_col)
    base.update(kw)
    return NoiseInputSpec(**base)


class TestEffectiveOccupancy:
    def test_thermal_50_ohm_megahertz_envelope(self):
        # S_V0 = 4 k_B T R = 8.284e-19 V^2/Hz; C S_V0 B / (hbar w) ~ 500
        spec = room_spec()
        assert spec.resolved_S_V0() == pytest.approx(8.283894e-19, rel=1e-6)
        n_eff, clamped = n_eff_from_noise(spec)
        expected_ratio = (1e-12 * 4 * K_B * 300.0 * 50.0 * 0.4e6) / (HBAR * TWO_PI * 1e6)
        assert not clamped
        assert 2 * n_eff + 1 == pytest.approx(expected_ratio, rel=1e-12)
        assert n_eff == pytest.approx(250.0, rel=2e-3)

    def test_gigahertz_envelope_clamps_to_vacuum(self):
        n_eff, clamped = n_eff_from_noise(room_spec(f_col=1e9))
        assert n_eff == 0.0
        assert clamped

    def test_vacuum_level_noise_is_zero_without_clamp(self):
        # E_noise = hbar w / 2 exactly: C S_V0 B = hbar w
        omega = TWO_PI * 5e6
        S = HBAR * omega / (1e-12 * 0.4e6)
        n_eff, clamped = n_eff_from_noise(
            NoiseInputSpec(B=0.4e6, C_eff=1e-12, omega_col=omega, T_amb=300.0, S_V0=S)
        )
        assert n_eff == 0.0
        assert not clamped

    def test_input_resolution_chain(self):
        direct = NoiseInputSpec(B=1e6, C_eff=1e-12, omega_col=TWO_PI * 1e6,
                                T_amb=300.0, S_V0=1e-18)
        assert direct.resolved_S_V0() == 1e-18
        via_y = NoiseInputSpec(B=1e6, C_eff=1e-12, omega_col=TWO_PI * 1e6,
                               T_amb=300.0, Re_Y_eff=0.02)
        assert via_y.resolved_S_V0() == pytest.approx(4 * K_B * 300.0 / 0.02, rel=1e-12)
        bare = NoiseInputSpec(B=1e6, C_eff=1e-12, omega_col=TWO_PI * 1e6, T_amb=300.0)
        with pytest.raises(MissingNoiseInputError):
            bare.resolved_S_V0()

    @pytest.mark.parametrize("other", ["S_V0", "R_eff"])
    def test_re_y_eff_with_a_second_source_is_refused(self, other):
        """Re_Y_eff supplies S_V0 as R_eff does, so giving it with S_V0 or
        R_eff would silently drop one value; S_V0 with R_eff stays valid."""
        base = dict(B=1e6, C_eff=1e-12, omega_col=TWO_PI * 1e6, T_amb=300.0)
        with pytest.raises(ValidationError, match=f"^give '{other}' or 'Re_Y_eff', not both$"):
            NoiseInputSpec(**base, Re_Y_eff=0.001, **{other: 50.0})
        spec = NoiseInputSpec(**base, S_V0=1e-18, R_eff=50.0)
        assert spec.resolved_S_V0() == 1e-18

    def test_monotone_in_each_input(self):
        base = n_eff_from_noise(room_spec())[0]
        assert n_eff_from_noise(room_spec(S_V0=2e-18))[0] >= base
        assert n_eff_from_noise(room_spec(B=0.8e6))[0] >= base
        assert n_eff_from_noise(room_spec(C_eff=2e-12))[0] >= base


class TestCooperativity:
    def test_boundary_is_unity(self):
        assert cooperativity(0.25, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_linear_in_coupling(self):
        assert cooperativity(0.125, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_equivalent_to_ppt_criterion(self, rng):
        for _ in range(200):
            g = rng.uniform(0.01, 0.49)
            n = rng.uniform(0.05, 20.0)
            above = cooperativity(g, 1.0, n) > 1.0
            entangled = analytic_nu_minus(g, 1.0, n) < 0.5
            assert above == entangled

    def test_zero_occupancy_degenerate(self):
        with pytest.raises(ZeroOccupancyError):
            cooperativity(0.2, 1.0, 0.0)

    def test_domain(self):
        with pytest.raises(ValidationError):
            cooperativity(0.5, 1.0, 1.0)


class TestVmin:
    def test_conservative_room_temperature_value(self):
        # sqrt(2 k_B T B / (C kappa)) with kappa = 1/15 us
        kappa = 1.0 / 15e-6
        spec = room_spec(f_col=1e9)
        expected = math.sqrt(2 * K_B * 300.0 * 0.4e6 / (1e-12 * kappa))
        got = v_min(VminForm.CONSERVATIVE, spec, kappa=kappa)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(2.2294e-4, rel=1e-4)
        # consistent with the rounded reference 3e-4 to within a factor 1.5
        assert 3e-4 / got < 1.5

    def test_thermal_form_independent_arithmetic(self):
        spec = room_spec()
        got = v_min(VminForm.THERMAL, spec, C_corr=1.0)
        assert got == pytest.approx(math.sqrt(4 * K_B * 300.0 * 50.0 * 0.4e6), rel=1e-12)
        assert got == pytest.approx(5.7563e-7, rel=1e-4)

    def test_general_form_scaling(self):
        spec = room_spec(S_V0=1e-18)
        v1 = v_min(VminForm.GENERAL, spec, C_corr=0.5)
        v4 = v_min(VminForm.GENERAL, spec, C_corr=2.0)
        assert v4 == pytest.approx(v1 / 2.0, rel=1e-12)

    def test_general_equals_saturation_voltage(self):
        # at the boundary the cooperativity is one and V_min = sqrt(S_V0 B)
        spec = room_spec(S_V0=3e-18)
        n = 2.0
        g_star = 0.5 * n / (n + 1.0)
        c = cooperativity(g_star * (1 - 1e-15), 1.0, n)
        assert v_min(VminForm.GENERAL, spec, C_corr=c) == pytest.approx(
            math.sqrt(3e-18 * 0.4e6), rel=1e-9
        )

    def test_thermal_dimensional_scaling(self):
        spec1 = room_spec()
        lam = 3.7
        spec2 = room_spec(T_amb=300.0 * lam, B=0.4e6 * lam)
        v1 = v_min(VminForm.THERMAL, spec1, C_corr=1.0)
        v2 = v_min(VminForm.THERMAL, spec2, C_corr=1.0)
        assert v2**2 == pytest.approx(lam**2 * v1**2, rel=1e-12)

    def test_missing_inputs(self):
        with pytest.raises(ValidationError):
            v_min(VminForm.GENERAL, room_spec())  # no C_corr
        with pytest.raises(ValidationError):
            v_min(VminForm.CONSERVATIVE, room_spec())  # no kappa


class TestCollectiveOccupation:
    def test_reference_value(self):
        # 0.1 mV on 1 pF at 1 GHz: N_col ~ 7.5e3
        n_col = collective_occupation(1e-4, 1e-12, TWO_PI * 1e9)
        assert n_col == pytest.approx(0.5e-12 * 1e-8 / (HBAR * TWO_PI * 1e9), rel=1e-12)
        assert n_col == pytest.approx(7545.95, rel=1e-5)
        assert n_col == pytest.approx(7.5e3, rel=0.05)

    def test_quadratic_scaling(self):
        n1 = collective_occupation(1e-4, 1e-12, TWO_PI * 1e9)
        n2 = collective_occupation(2e-4, 1e-12, TWO_PI * 1e9)
        assert n2 == pytest.approx(4.0 * n1, rel=1e-12)

    def test_single_quantum(self):
        omega = TWO_PI * 1e9
        v = math.sqrt(2.0 * HBAR * omega / 1e-12)
        assert collective_occupation(v, 1e-12, omega) == pytest.approx(1.0, rel=1e-12)


class TestPhaseDiffusion:
    def test_reference_rate(self):
        d_phi, sigma2 = phase_diffusion(6.7e4, 0.0, 7.5e3, 1.0)
        assert d_phi == pytest.approx(67.0 / 30.0, rel=1e-12)
        assert sigma2 == pytest.approx(2.0 * 67.0 / 30.0, rel=1e-12)

    def test_zero_integration_time(self):
        _, sigma2 = phase_diffusion(1e5, 1.0, 1e4, 0.0)
        assert sigma2 == 0.0

    def test_large_occupation_slows_but_never_stops(self):
        d1, _ = phase_diffusion(1e5, 10.0, 1e3, 1.0)
        d2, _ = phase_diffusion(1e5, 10.0, 1e9, 1.0)
        assert d2 < d1
        assert d2 > 0.0


class TestCouplingCurve:
    CURVE = CouplingCurve(distances=(0.1, 0.2, 0.4, 0.8), couplings=(0.4, 0.3, 0.2, 0.05))

    def test_knots_exact(self):
        for d, g in zip(self.CURVE.distances, self.CURVE.couplings):
            assert coupling_at(self.CURVE, d) == g

    def test_midpoint_linear(self):
        assert coupling_at(self.CURVE, 0.3) == pytest.approx(0.25, abs=1e-15)

    def test_out_of_range_refused(self):
        with pytest.raises(OutOfRangeError):
            coupling_at(self.CURVE, 0.05)
        with pytest.raises(OutOfRangeError):
            coupling_at(self.CURVE, 0.9)

    def test_validation(self):
        with pytest.raises(ValidationError):
            CouplingCurve(distances=(0.2, 0.1), couplings=(0.1, 0.2))
        with pytest.raises(ValidationError):
            CouplingCurve(distances=(0.1, 0.2), couplings=(0.1, -0.2))

    def test_bisection_against_grid_scan(self):
        kappa, n_eff = 1.0, 1.0
        d_max = max_entangled_distance(self.CURVE, kappa, n_eff)
        # exhaustive oracle on a dense grid
        grid = np.linspace(0.1, 0.8, 200_001)
        g_thr = 0.5 * kappa * n_eff / (n_eff + 1.0)
        ok = grid[np.interp(grid, self.CURVE.distances, self.CURVE.couplings) > g_thr]
        assert d_max == pytest.approx(float(ok[-1]), abs=1e-5)

    def test_entangled_everywhere_clamps_to_last_knot(self):
        d_max = max_entangled_distance(self.CURVE, 1.0, 0.05)
        assert d_max == 0.8

    def test_never_entangled_returns_none(self):
        assert max_entangled_distance(self.CURVE, 1.0, 20.0) is None

    def test_nonmonotone_curve_rejected_by_solver(self):
        bumpy = CouplingCurve(distances=(0.1, 0.2, 0.3), couplings=(0.2, 0.3, 0.1))
        with pytest.raises(ValidationError):
            max_entangled_distance(bumpy, 1.0, 1.0)
