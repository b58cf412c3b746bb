import numpy as np
import pytest
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st

from colmode.entanglement import (
    DUAN_BOUND,
    LAMBDA_PT,
    PPT_BOUND,
    _duan_sum,
    _nu_minus,
    _require_positive_definite,
    _require_symmetric,
    _violates,
    analytic_boundary,
    analytic_nu_minus,
    duan_witness,
    make_report,
    partial_transpose,
    ppt_nu_minus,
    symplectic_eigenvalues,
    witness_report_from_covariance,
)
from colmode.errors import ComplexRootError, NotPositiveDefiniteError, ValidationError
from colmode.gaussian_core import closed_form_covariance

from conftest import random_physical_covariance


def symmetric_block_state(a, c):
    V = a * np.eye(4)
    V[0, 2] = V[2, 0] = c
    V[1, 3] = V[3, 1] = -c
    return V


class TestPartialTranspose:
    def test_diagonal_fixed_point(self):
        V = 0.5 * np.eye(4)
        assert np.array_equal(partial_transpose(V), V)

    def test_flips_sign_of_c_block_corner(self):
        V = symmetric_block_state(1.0, 0.4)
        Vpt = partial_transpose(V)
        assert np.allclose(Vpt[:2, 2:], np.diag([0.4, 0.4]), atol=0)

    def test_involution(self, rng):
        for _ in range(20):
            V = random_physical_covariance(rng)
            assert np.max(np.abs(partial_transpose(partial_transpose(V)) - V)) < 1e-14

    def test_requires_symmetric(self):
        V = np.arange(16.0).reshape(4, 4)
        with pytest.raises(ValidationError):
            partial_transpose(V)
        # in a stack, one asymmetric matrix is enough; the tolerance is per
        # matrix, so a large neighbour does not widen it
        slightly = 0.5 * np.eye(4)
        slightly[0, 1] += 1e-8
        for bad in (V, slightly):
            with pytest.raises(ValidationError):
                _require_symmetric(np.stack([1e3 * np.eye(4), bad]), stacked=True)
        ok = np.stack([1e3 * np.eye(4), 0.5 * np.eye(4)])
        assert np.array_equal(_require_symmetric(ok, stacked=True), ok)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        # inf - inf is NaN, which no symmetry tolerance can catch
        V = np.eye(4)
        V[0, 0] = V[2, 2] = bad
        for fn in (partial_transpose, witness_report_from_covariance):
            with pytest.raises(ValidationError, match="non-finite"):
                fn(V)
        with pytest.raises(ValidationError, match="non-finite"):
            _require_symmetric(np.stack([np.eye(4), V]), stacked=True)

    def test_single_matrix_functions_reject_stacks(self):
        stack = np.stack([0.5 * np.eye(4), np.eye(4)])
        for fn in (partial_transpose, symplectic_eigenvalues, ppt_nu_minus,
                   duan_witness, witness_report_from_covariance):
            for V in (stack, np.eye(3), np.ones(16)):
                with pytest.raises(ValidationError):
                    fn(V)


class TestSymplecticEigenvalues:
    def test_thermal_williamson_form(self):
        for a in (0.5, 1.0, 2.5):
            nu_p, nu_m = symplectic_eigenvalues(a * np.eye(4))
            assert nu_p == pytest.approx(a, abs=1e-12)
            assert nu_m == pytest.approx(a, abs=1e-12)

    def test_squeezed_plus_vacuum(self):
        # mode a squeezed: nu_a = sqrt(2 * 0.125) = 0.5; mode b vacuum
        nu_p, nu_m = symplectic_eigenvalues(np.diag([2.0, 0.125, 0.5, 0.5]))
        assert nu_p == pytest.approx(0.5, abs=1e-12)
        assert nu_m == pytest.approx(0.5, abs=1e-12)

    @given(g=st.floats(0.0, 0.49), n=st.floats(0.0, 10.0))
    def test_closed_form_degenerate_spectrum(self, g, n):
        nu_p, nu_m = symplectic_eigenvalues(closed_form_covariance(g, 1.0, n))
        expected = (2 * n + 1) / 2
        assert nu_p == pytest.approx(expected, rel=1e-10)
        assert nu_m == pytest.approx(expected, rel=1e-10)

    def test_not_positive_definite_rejected(self):
        singular = np.diag([1.0, 1.0, 1.0, 0.0])
        with pytest.raises(NotPositiveDefiniteError):
            symplectic_eigenvalues(singular)
        with pytest.raises(NotPositiveDefiniteError):
            _require_positive_definite(np.stack([np.eye(4), singular, np.eye(4)]), stacked=True)


class TestPptNuMinus:
    def test_block_formula_oracle(self):
        # independent oracle: nu = a - |c| for the symmetric block form
        V = symmetric_block_state(5.0 / 6.0, 2.0 / 3.0)
        assert ppt_nu_minus(V) == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_vacuum_boundary(self):
        assert ppt_nu_minus(0.5 * np.eye(4)) == pytest.approx(0.5, abs=1e-14)

    def test_thermal_not_entangled(self):
        assert ppt_nu_minus(2.5 * np.eye(4)) == pytest.approx(2.5, abs=1e-12)

    def test_block_oracle_randomized(self, rng):
        for _ in range(200):
            a = rng.uniform(0.5, 4.0)
            c = rng.uniform(0.0, a - 1e-6) * rng.choice([-1.0, 1.0])
            V = symmetric_block_state(a, c)
            assert ppt_nu_minus(V) == pytest.approx(a - abs(c), abs=1e-12)

    def test_route_equivalence_random_states(self, rng):
        # invariant route vs spectrum of the partially transposed covariance
        states = [random_physical_covariance(rng) for _ in range(1000)]
        for V in states:
            via_invariants = ppt_nu_minus(V)
            via_spectrum = symplectic_eigenvalues(partial_transpose(V))[1]
            assert abs(via_invariants - via_spectrum) < 1e-10
        # the same states as one stack: elementwise equal to the scalar calls
        stack = np.stack(states)
        assert np.array_equal(_nu_minus(stack), [ppt_nu_minus(V) for V in states])
        assert np.array_equal(_duan_sum(stack), [duan_witness(V) for V in states])

    def test_stack_mixes_degenerate_and_generic_states(self):
        # thermal entries take the spectral route, the squeezed one does not
        stack = np.stack([1.7 * np.eye(4), symmetric_block_state(1.0, 0.6), 0.5 * np.eye(4)])
        nu = _nu_minus(stack.reshape(3, 1, 4, 4))
        assert nu.shape == (3, 1)
        assert nu.ravel() == pytest.approx([1.7, 0.4, 0.5], abs=1e-12)
        duan = _duan_sum(stack.reshape(3, 1, 4, 4))
        assert duan.shape == (3, 1)
        assert duan.ravel() == pytest.approx([6.8, 1.6, 2.0], abs=1e-12)

    def test_no_real_root_is_nan_never_zero(self):
        # det V = 0 must not read as nu_minus = 0, i.e. maximal entanglement
        singular = np.diag([1.0, 1.0, 1.0, 0.0])
        indefinite = np.diag([1.0, -1.0, 1.0, 1.0])
        nu = _nu_minus(np.stack([singular, indefinite, 0.5 * np.eye(4)]))
        assert np.isnan(nu[0]) and np.isnan(nu[1])
        assert nu[2] == pytest.approx(0.5, abs=1e-14)
        assert np.isnan(_nu_minus(singular))

    def test_underflowing_determinant_raises_not_zero(self):
        # positive definite, but det V underflows to 0: no computable root
        V = np.diag([1.0, 1.0, 1e-200, 1e-200])
        with pytest.raises(ComplexRootError):
            ppt_nu_minus(V)
        with pytest.raises(ComplexRootError):
            witness_report_from_covariance(V)

    def test_degenerate_discriminant_clamped(self):
        # thermal states have nu_+ = nu_-; rounding noise must not raise
        assert ppt_nu_minus(1.7 * np.eye(4)) == pytest.approx(1.7, abs=1e-12)


class TestDuanWitness:
    def test_vacuum_saturates_bound(self):
        assert duan_witness(0.5 * np.eye(4)) == pytest.approx(2.0, abs=1e-14)

    def test_closed_form_value(self):
        V = closed_form_covariance(0.25, 1.0, 0.0)
        assert duan_witness(V) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_equals_four_nu_for_symmetric_states(self, rng):
        for _ in range(100):
            a = rng.uniform(0.5, 3.0)
            c = rng.uniform(0.0, min(a - 1e-9, a - 0.25 / a))
            V = symmetric_block_state(a, c)
            assert duan_witness(V) == pytest.approx(4.0 * ppt_nu_minus(V), rel=1e-10)

    def test_orientation_robustness(self):
        # flipping the squeezing phase (c -> -c) must not change the witness
        V1 = symmetric_block_state(1.0, 0.6)
        V2 = symmetric_block_state(1.0, -0.6)
        assert duan_witness(V1) == pytest.approx(duan_witness(V2), abs=1e-14)

    @given(scale=st.floats(0.01, 3.0), seed=st.integers(0, 2**31))
    def test_classical_states_never_violate(self, scale, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((4, 4))
        V_cl = scale * (M @ M.T)
        V = V_cl + 0.5 * np.eye(4)
        assert duan_witness(V) >= 2.0 - 1e-12
        assert ppt_nu_minus(V) >= 0.5 - 1e-10


class TestAnalyticForms:
    def test_vacuum_boundary_value(self):
        assert analytic_nu_minus(0.0, 1.0, 0.0) == pytest.approx(0.5, abs=0)

    def test_threshold_case(self):
        # 2G/kappa = 0.5 with n = 1 sits exactly on the boundary
        assert analytic_nu_minus(0.25, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_entangled_case(self):
        assert analytic_nu_minus(0.25, 1.0, 0.0) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_matches_closed_form_state(self, rng):
        for _ in range(50):
            g = rng.uniform(0.0, 0.49)
            n = rng.uniform(0.0, 5.0)
            V = closed_form_covariance(g, 1.0, n)
            assert ppt_nu_minus(V) == pytest.approx(analytic_nu_minus(g, 1.0, n), rel=1e-10)

    def test_domain_violations(self):
        for args in ((0.5, 1.0, 0.0), (-0.1, 1.0, 0.0), (0.1, 1.0, -1.0), (0.1, -1.0, 0.0)):
            with pytest.raises(ValidationError):
                analytic_nu_minus(*args)

    def test_array_form_is_bit_identical_to_scalars(self, rng):
        G = rng.uniform(0.0, 0.6, 9)
        n = rng.uniform(0.0, 5.0, 13)
        kappa = 1.37
        nu = analytic_nu_minus(G[:, None], kappa, n)
        assert nu.shape == (9, 13)
        for i, j in np.ndindex(nu.shape):
            scalar = analytic_nu_minus(G[i], kappa, n[j])
            assert type(scalar) is float and nu[i, j] == scalar
        with pytest.raises(ValidationError):
            analytic_nu_minus(np.array([0.1, 0.7]), kappa, 0.0)

    def test_boundary_values(self):
        assert analytic_boundary(0.0) == 0.0
        assert analytic_boundary(1.0) == pytest.approx(0.5, abs=0)
        assert analytic_boundary(100.0) == pytest.approx(100.0 / 101.0, abs=1e-15)

    @pytest.mark.parametrize("n", [0.5, 1.0, 5.0, 100.0])
    def test_boundary_is_root_of_closed_form(self, n):
        root = scipy.optimize.brentq(
            lambda g2: analytic_nu_minus(g2 / 2.0, 1.0, n) - 0.5,
            0.0,
            0.999999,
            xtol=1e-15,
            rtol=8.9e-16,
        )
        assert abs(root - analytic_boundary(n)) < 1e-12

    def test_monotonicity(self):
        gs = np.linspace(0.0, 0.49, 60)
        vals = [analytic_nu_minus(g, 1.0, 1.0) for g in gs]
        assert np.all(np.diff(vals) < 0)
        ns = np.linspace(0.0, 10.0, 60)
        vals = [analytic_nu_minus(0.2, 1.0, n) for n in ns]
        assert np.all(np.diff(vals) > 0)


class TestWitnessReport:
    def test_exact_state_report(self):
        rep = witness_report_from_covariance(closed_form_covariance(0.25, 1.0, 0.0))
        assert rep.entangled_ppt and rep.entangled_duan
        assert rep.stderr_nu == 0.0 and rep.stderr_duan == 0.0

    def test_three_sigma_rule(self):
        rep = make_report(0.45, 1.9, stderr_nu=0.02, stderr_duan=0.05)
        assert not rep.entangled_ppt  # 0.45 > 0.5 - 0.06
        assert not rep.entangled_duan  # 1.9 > 2.0 - 0.15
        rep = make_report(0.40, 1.7, stderr_nu=0.02, stderr_duan=0.05)
        assert rep.entangled_ppt and rep.entangled_duan

    def test_verdict_rule_is_elementwise(self, rng):
        nu = rng.uniform(0.3, 0.7, 50)
        err = rng.uniform(0.0, 0.05, 50)
        nu[:2], err[:2] = 0.5 - 1e-12, 0.0  # the rounding floor
        duan = 4.0 * nu
        verdicts = _violates(nu, PPT_BOUND, err)
        assert verdicts.dtype == bool
        for k in range(50):
            rep = make_report(nu[k], duan[k], err[k], err[k])
            assert rep.entangled_ppt == verdicts[k]
            assert rep.entangled_duan == _violates(duan[k], DUAN_BOUND, err[k])

    def test_serialization_round_trip(self):
        rep = make_report(0.25, 1.1, 0.01, 0.02)
        d = rep.to_dict()
        assert set(d) == {
            "nu_minus", "duan_sum", "entangled_ppt", "entangled_duan",
            "stderr_nu", "stderr_duan",
        }

    def test_lambda_matrix(self):
        assert np.array_equal(LAMBDA_PT, np.diag([1.0, 1.0, 1.0, -1.0]))
