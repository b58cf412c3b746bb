import math

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.blas import dgemm
from scipy.signal import lfilter

from colmode.errors import StepTooLargeError, UnstableDriftError, ValidationError
from colmode.gaussian_core import (
    ModelParams,
    build_diffusion,
    build_drift,
    closed_form_dynamics,
    solve_steady_lyapunov,
)
from colmode import trajectory as trajectory_mod
from colmode.trajectory import (
    Scheme,
    SourceTag,
    TrajectoryConfig,
    TrajectoryRecord,
    derive_stream_seed,
    sample_ensemble,
    sample_euler_maruyama,
    sample_exact_ou,
    _Recurrence,
    _euler_stream,
    _exact_stream,
    _linear_recurrence,
    _psd_factor,
    _records,
    _row_ranges,
    _steady_prep,
    _whole_blocks,
)

from conftest import RECORD_STEPS, random_stable_params, traced_peak_records


def vacuum_system():
    p = ModelParams(G=0.0, kappa_a=1.0, kappa_b=1.0, n_a=0.0, n_b=0.0)
    return build_drift(p), build_diffusion(p)


def second_moment(samples):
    return samples.T @ samples / samples.shape[0]


def covariance_bound(V, n_eff_samples, n_sigma=5.0):
    """Wishart-style entrywise sampling bound for a covariance estimate."""
    d = np.diag(V)
    return n_sigma * np.sqrt((np.outer(d, d) + V**2) / n_eff_samples)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_stream_seed(123, 45) == derive_stream_seed(123, 45)

    def test_neighbors_differ(self):
        assert derive_stream_seed(123, 45) != derive_stream_seed(123, 46)
        assert derive_stream_seed(123, 45) != derive_stream_seed(124, 45)

    def test_known_vector_stability(self):
        # frozen values: any change to the mixing function breaks replay
        # of previously recorded datasets
        assert derive_stream_seed(0, 0) == 12035550249420947055
        assert derive_stream_seed(123456789, 42) == 14236843709313967207
        assert derive_stream_seed(2**64 - 1, 1) == derive_stream_seed(-1, 1)

    def test_no_collisions_over_a_million_indices(self):
        seeds = {derive_stream_seed(987654321, i) for i in range(1_000_000)}
        assert len(seeds) == 1_000_000


class TestExactOu:
    def test_bit_identical_reruns(self):
        A, D = vacuum_system()
        cfg = TrajectoryConfig(dt=0.05, n_steps=4000, master_seed=7)
        r1 = sample_exact_ou(A, D, cfg)
        r2 = sample_exact_ou(A, D, cfg)
        assert np.array_equal(r1.samples, r2.samples)

    def test_stationary_covariance_vacuum(self):
        A, D = vacuum_system()
        cfg = TrajectoryConfig(dt=0.05, n_steps=1_000_000, master_seed=11)
        rec = sample_exact_ou(A, D, cfg)
        V = 0.5 * np.eye(4)
        emp = second_moment(rec.samples)
        # correlated samples: inflate the Wishart error by sum of rho^2
        r = math.exp(-0.5 * cfg.dt)
        inflation = (1 + r * r) / (1 - r * r)
        bound = covariance_bound(V, cfg.n_steps / inflation)
        assert np.all(np.abs(emp - V) <= bound)

    def test_lag_one_autocorrelation(self):
        A, D = vacuum_system()
        cfg = TrajectoryConfig(dt=0.1, n_steps=400_000, master_seed=3)
        x = sample_exact_ou(A, D, cfg).samples[:, 0]
        rho_hat = np.mean(x[1:] * x[:-1]) / np.mean(x * x)
        rho = math.exp(-0.5 * cfg.dt)
        se = math.sqrt((1 - rho**2) / len(x))
        assert abs(rho_hat - rho) < 3.0 * se

    def test_burn_in_is_a_pure_slice(self):
        A, D = vacuum_system()
        full = sample_exact_ou(A, D, TrajectoryConfig(dt=0.1, n_steps=500, master_seed=5))
        tail = sample_exact_ou(
            A, D, TrajectoryConfig(dt=0.1, n_steps=400, master_seed=5, burn_in=100)
        )
        assert np.array_equal(full.samples[100:], tail.samples)

    def test_unstable_drift_rejected(self):
        p = ModelParams(G=0.6, kappa_a=1.0, kappa_b=1.0, n_a=0.0, n_b=0.0)
        with pytest.raises(UnstableDriftError):
            sample_exact_ou(build_drift(p), build_diffusion(p),
                            TrajectoryConfig(dt=0.1, n_steps=10))

    def test_statistics_exact_at_coarse_steps(self):
        # one-step exactness: even dt >> 1/kappa keeps the right covariance
        A, D = closed_form_dynamics(0.25, 1.0, 0.0)
        V = solve_steady_lyapunov(A, D)
        cfg = TrajectoryConfig(dt=3.0, n_steps=200_000, master_seed=21)
        emp = second_moment(sample_exact_ou(A, D, cfg).samples)
        r = math.exp(-0.5 * cfg.dt)
        inflation = (1 + r * r) / (1 - r * r)
        bound = covariance_bound(V, cfg.n_steps / inflation)
        assert np.all(np.abs(emp - V) <= bound)

    def test_no_nonfinite_samples_across_draws(self, rng):
        for _ in range(20):
            p = random_stable_params(rng)
            cfg = TrajectoryConfig(
                dt=0.05, n_steps=2000, master_seed=int(rng.integers(2**63))
            )
            rec = sample_exact_ou(build_drift(p), build_diffusion(p), cfg)
            assert np.all(np.isfinite(rec.samples))


def loop_ar1(F, r0, w):
    """R_{k+1} = F R_k + w_k one step at a time: the kernel's oracle."""
    out = np.empty((w.shape[0] + 1, F.shape[0]))
    out[0] = r0
    for k in range(w.shape[0]):
        out[k + 1] = F @ out[k] + w[k]
    return out


def _tms_step(G=0.25, kappa_b=1.0, delta_a=0.0, delta_b=0.0, dt=0.05):
    p = ModelParams(G=G, kappa_a=1.0, kappa_b=kappa_b, n_a=0.0, n_b=0.0,
                    delta_a=delta_a, delta_b=delta_b)
    return scipy.linalg.expm(build_drift(p) * dt)


def _rotation_step(theta=0.1):
    c, s = math.cos(theta), math.sin(theta)
    R = np.array([[c, -s], [s, c]])
    return scipy.linalg.block_diag(R, R.T @ R.T)


AR1_DRIFTS = {
    "closed_form": lambda: scipy.linalg.expm(closed_form_dynamics(0.25, 1.0, 0.0)[0] * 0.05),
    "tms_resonant": lambda: _tms_step(),
    "tms_detuned": lambda: _tms_step(G=0.2, kappa_b=0.6, delta_a=0.3, delta_b=-0.2),
    # unstable: just past the 2G = kappa threshold, growing ~1e23-fold over 1e5 steps
    "tms_unstable": lambda: _tms_step(G=0.51),
    # defective: one eigenvalue with a single Jordan chain
    "jordan": lambda: scipy.linalg.expm((-0.5 * np.eye(4) + np.eye(4, k=1)) * 0.05),
    # orthogonal: unit-modulus complex eigenvalues, nothing decays
    "rotation": _rotation_step,
}


def out_of_place_ar1(F, x, block=16, reverse=False, gain=1.0):
    """The blocked recurrence as one whole block-Toeplitz product, times gain,
    into a new array, and a fresh padded copy at every level, with the carried
    states added by the same BLAS call: the in-place kernel's bit-for-bit
    reference.  Reversed, the block reversal of the same matrices, the padding
    before the first row, and the blocks' first rows carried backwards."""
    m, n = x.shape
    b = min(m, block)
    nb = -(-m // b)
    powers = [np.eye(n)]
    for _ in range(b):
        powers.append(F @ powers[-1])
    lag = np.subtract.outer(np.arange(b), np.arange(b))
    if reverse:
        lag = -lag
    blocks = np.stack(powers[:b]).transpose(0, 2, 1)[np.maximum(-lag, 0)]
    blocks[lag > 0] = 0.0
    toeplitz = blocks.transpose(0, 2, 1, 3).reshape(b * n, b * n)
    if gain != 1.0:
        toeplitz *= gain
    if m % b:
        pad = np.zeros((nb * b - m, n))
        x = np.concatenate((pad, x) if reverse else (x, pad))
    y = x.reshape(nb, b * n) @ toeplitz
    if nb > 1:
        if reverse:
            carried = out_of_place_ar1(powers[b], y[1:, :n].copy(), block, True)
            dgemm(1.0, np.vstack(powers[b:0:-1]), carried.T, beta=1.0, c=y[:-1].T,
                  overwrite_c=True)
        else:
            carried = out_of_place_ar1(powers[b], y[:-1, -n:].copy(), block)
            dgemm(1.0, np.vstack(powers[1:]), carried.T, beta=1.0, c=y[1:].T, overwrite_c=True)
    y = y.reshape(nb * b, n)
    return y[nb * b - m :] if reverse else y[:m]


def reference_path(F, Lnoise, L0, total, seed):
    """One exact-OU path drawn the plain way: R_0's normals, then all the
    noise normals in one draw, then the out-of-place recurrence."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x = np.empty((total, F.shape[0]))
    x[0] = L0 @ rng.standard_normal(F.shape[0])
    x[1:] = rng.standard_normal((total - 1, F.shape[0])) @ Lnoise.T
    return out_of_place_ar1(F, x)


def spy_products(monkeypatch):
    """The (left, right) operand shapes of every np.matmul call from now on."""
    products = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        products.append((a.shape, b.shape))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return products


class TestAr1Kernel:
    # the recurrence runs in blocks of 16 steps: 1 + n rows put the series
    # one short of, on and one past block ends; 1e5 rows recurse four levels deep
    @pytest.mark.parametrize("drift", sorted(AR1_DRIFTS))
    @pytest.mark.parametrize("n", [0, 1, 14, 15, 30, 31, 82, 254, 255, 20000, 99999])
    def test_matches_plain_loop(self, drift, n):
        F = AR1_DRIFTS[drift]()
        rng = np.random.default_rng(n)
        r0 = rng.standard_normal(4)
        w = rng.standard_normal((n, 4))
        want = loop_ar1(F, r0, w)
        got = _linear_recurrence(_Recurrence(F), np.vstack([r0, w]))
        assert got.shape == (n + 1, 4)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    # 2 block rows a chunk put chunk ends everywhere, a trailing single row among
    # them; 543 leaves 33 carried states, one past a chunk of 32 of them
    @pytest.mark.parametrize("product_rows", [2, None])
    @pytest.mark.parametrize("drift", sorted(AR1_DRIFTS))
    @pytest.mark.parametrize("n", [0, 1, 14, 15, 30, 31, 82, 254, 255, 543, 20000, 99999])
    def test_in_place_equals_out_of_place_bit_for_bit(self, monkeypatch, drift, n, product_rows):
        """A whole-block input is overwritten and returned, and holds the
        out-of-place product's numbers exactly, chunked or not."""
        if product_rows:
            monkeypatch.setattr(trajectory_mod, "_product_rows", lambda n, k: product_rows)
            monkeypatch.setattr(trajectory_mod, "_CARRIED_ROWS", 16 * product_rows)
        F = AR1_DRIFTS[drift]()
        rng = np.random.default_rng(n)
        x = np.zeros((_whole_blocks(n + 1), 4))
        x[: n + 1] = rng.standard_normal((n + 1, 4))
        want = out_of_place_ar1(F, x[: n + 1].copy())
        got = _linear_recurrence(_Recurrence(F), x)
        assert got is x
        assert np.array_equal(got[: n + 1], want)
        # any other length is solved in its own buffer too, with the same numbers
        w = rng.standard_normal((n + 1, 4))
        want = out_of_place_ar1(F, w.copy())
        got = _linear_recurrence(_Recurrence(F), w)
        assert got is w
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("drift", sorted(AR1_DRIFTS))
    @pytest.mark.parametrize("n", [0, 1, 14, 15, 16, 30, 31, 82, 254, 255, 543, 20000, 99999])
    def test_reversed_matches_plain_backward_loop(self, drift, n):
        """Reversed, y_k = F y_(k+1) + x_k from the last row, in the input's
        own buffer, for every length: the loop over the reversed rows."""
        F = AR1_DRIFTS[drift]()
        rng = np.random.default_rng(n + 7)
        x = rng.standard_normal((n + 1, 4))
        want = loop_ar1(F, x[-1], x[-2::-1])[::-1]
        got = _linear_recurrence(_Recurrence(F), x, reverse=True)
        assert got is x
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gain_scales_the_input(self, reverse):
        """_Recurrence(F, gain) runs y_k = F y_(k-1) + gain x_k: the series of
        gain times the input, to rounding."""
        F = AR1_DRIFTS["tms_detuned"]()
        x = np.random.default_rng(3).standard_normal((5001, 4))
        want = _linear_recurrence(_Recurrence(F), 0.37 * x, reverse)
        got = _linear_recurrence(_Recurrence(F, gain=0.37), x.copy(), reverse)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    # 2 and 3 blocks are the fewest that take the per-channel product; 255 to
    # 257 put one carried level on, one short of and one past 16 blocks; 6000
    # is a converge record's pass; a chunk of 2 blocks puts chunk ends everywhere
    @pytest.mark.parametrize("chunk", [2, None])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("blocks", [2, 3, 255, 256, 257, 6000])
    @pytest.mark.parametrize("width", [1, 4, 6])
    def test_scalar_drift_takes_the_per_channel_product_bit_for_bit(
        self, monkeypatch, width, blocks, reverse, chunk
    ):
        """For F = c I the block product is one 16 x 16 product per channel,
        never the (16 n)^2 one, and gives the whole product's numbers exactly;
        at n = 1 the block-Toeplitz matrix is already one channel's."""
        if chunk:
            monkeypatch.setattr(trajectory_mod, "_CHANNEL_BLOCKS", chunk)
        F = 0.97 * np.eye(width)
        x = np.random.default_rng(blocks + width).standard_normal((16 * blocks, width))
        want = out_of_place_ar1(F, x.copy(), reverse=reverse, gain=0.37)
        products = spy_products(monkeypatch)
        got = _linear_recurrence(_Recurrence(F, gain=0.37), x, reverse)
        monkeypatch.undo()
        assert got is x
        assert np.array_equal(got, want)
        cols = 16 * width
        assert all(b != (cols, cols) for _, b in products) or width == 1
        per_channel = [b for a, b in products if len(b) == 3]
        assert bool(per_channel) == (width > 1)
        most = chunk or trajectory_mod._CHANNEL_BLOCKS
        assert all(b[0] <= most and b[1:] == (16, width) for b in per_channel)

    @pytest.mark.parametrize("case", ["one_block", "diagonal", "tms_resonant"])
    def test_other_series_keep_the_whole_block_product(self, monkeypatch, case):
        """A 16-row series of F = c I (its one block is a one-row product) and
        an F not a multiple of the identity take the (16 n)^2 block-Toeplitz
        product and no per-channel one."""
        F = {
            "one_block": 0.97 * np.eye(4),
            "diagonal": np.diag(np.linspace(0.5, 0.99, 4)),
            "tms_resonant": _tms_step(),
        }[case]
        x = np.random.default_rng(5).standard_normal((16 if case == "one_block" else 96_000, 4))
        products = spy_products(monkeypatch)
        _linear_recurrence(_Recurrence(F), x)
        monkeypatch.undo()
        assert (64, 64) in [b for _, b in products]
        assert not any(len(b) == 3 for _, b in products)

    @pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 5, 7, 9, 10, 11])
    def test_row_ranges_cover_in_order_with_no_lone_row(self, rows):
        """A one-row product is a vector product in BLAS and rounds apart from
        a matrix product, so no range is one row unless all of them is."""
        ranges = list(_row_ranges(rows, 3))
        assert [i for r in ranges for i in range(*r)] == list(range(rows))
        assert all(1 < stop - start <= 4 for start, stop in ranges) or rows == 1

    @pytest.mark.parametrize("total", [1, 2, 17, 4098, 20001])
    def test_chunked_draws_match_one_draw(self, monkeypatch, total):
        """Normals drawn a few rows at a time and the product taken a few
        block rows at a time give the path of one whole draw, bit for bit."""
        A, D = closed_form_dynamics(0.25, 1.0, 0.5)
        F, Lq, Linf = _steady_prep(A, D, 0.05)
        want = reference_path(F, Lq, Linf, total, 21)
        monkeypatch.setattr(trajectory_mod, "_DRAW_ROWS", 3)
        monkeypatch.setattr(trajectory_mod, "_product_rows", lambda n, k: 2)
        monkeypatch.setattr(trajectory_mod, "_CARRIED_ROWS", 32)
        got = sample_exact_ou(A, D, TrajectoryConfig(dt=0.05, n_steps=total, master_seed=21))
        assert np.array_equal(got.samples, want)

    @pytest.mark.parametrize("width", [1, 2, 4, 6])
    def test_contiguous_transposed_factor_draws_as_the_strided_view(self, width):
        """The prepared stream draws its noise as z @ LT with LT the
        contiguous copy of Lnoise.T; on every chunk length a draw can have
        (2 to _DRAW_ROWS rows: a lone row keeps the strided view), it gives
        the strided view's numbers bit for bit, over random factors."""
        rng = np.random.default_rng(width)
        for _ in range(20):
            G = rng.standard_normal((width, width))
            for L in (_psd_factor(G @ G.T), np.diag(rng.random(width)), np.tril(G)):
                LT = np.ascontiguousarray(L.T)
                for rows in (2, 3, 15, 16, 17, 255, 1000, 4095, 4096):
                    z = rng.standard_normal((rows, width))
                    assert np.array_equal(z @ LT, z @ L.T)

    @pytest.mark.parametrize("width", [4, 6])
    def test_every_product_stays_below_the_gemm_thread_size(self, monkeypatch, width):
        """Every block-Toeplitz and carried-state chunk keeps m n k below
        262,144, where OpenBLAS's gemm may start threads, at 64 and 96
        columns, and the block product takes as many rows as that allows:
        62 or 63 at 64 columns, 27 or 28 at 96.  For F = c I the block
        product is (16, 16) @ (16, n) per block, _CHANNEL_BLOCKS at a time."""
        cols = 16 * width
        x = np.random.default_rng(width).standard_normal((96_000, width))
        for F in (np.diag(np.linspace(0.5, 0.99, width)), 0.97 * np.eye(width)):
            products = spy_products(monkeypatch)
            _linear_recurrence(_Recurrence(F), x.copy())
            monkeypatch.undo()
            shapes = [(*a, b[1]) for a, b in products if len(b) == 2]
            block = [m for m, n, k in shapes if n == k == cols]
            carried = [m for m, n, k in shapes if (n, k) == (width, cols)]
            per_channel = [(a, b) for a, b in products if len(b) == 3]
            assert carried
            assert all(m * n * k < 262_144 for m, n, k in shapes if k == cols)
            if F[0, 0] != F[-1, -1]:
                assert block and not per_channel
                assert max(block) >= {4: 62, 6: 27}[width]
                assert (max(block) + 2) * cols * cols >= 262_144
            else:
                assert per_channel and not block
                most = trajectory_mod._CHANNEL_BLOCKS
                assert all(a == (16, 16) and b[0] <= most and b[1:] == (16, width)
                           for a, b in per_channel)

    def test_exact_ou_holds_one_record_and_little_more(self):
        """The path's input buffer becomes its samples: 1.17 records traced,
        the stream's kept operators included, where a separate normals
        buffer and output took 2.23."""
        A, D = closed_form_dynamics(0.25, 1.0, 0.0)
        cfg = TrajectoryConfig(dt=0.1, n_steps=RECORD_STEPS, master_seed=4)
        peak, rec = traced_peak_records(sample_exact_ou, A, D, cfg)
        assert rec.n_steps == RECORD_STEPS
        assert peak <= 1.25

    @pytest.mark.parametrize("width", [3, 4, 6])
    def test_diagonal_is_columnwise_filter(self, width):
        f = np.linspace(0.5, 0.99, width)
        rng = np.random.default_rng(width)
        r0 = rng.standard_normal(width)
        w = rng.standard_normal((3000, width))
        want = np.column_stack(
            [lfilter([1.0], [1.0, -f[j]], np.r_[r0[j], w[:, j]]) for j in range(width)]
        )
        got = _linear_recurrence(_Recurrence(np.diag(f)), np.vstack([r0, w]))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestEulerMaruyama:
    def test_noiseless_decay(self):
        A = -0.5 * np.eye(4)
        cfg = TrajectoryConfig(dt=0.05, n_steps=200, master_seed=1,
                               scheme=Scheme.EULER_MARUYAMA)
        r0 = np.array([1.0, -2.0, 0.5, 3.0])
        rec = sample_euler_maruyama(A, np.zeros((4, 4)), cfg, r0=r0)
        factor = 1.0 - 0.5 * cfg.dt
        expected = r0[None, :] * factor ** np.arange(200)[:, None]
        assert np.allclose(rec.samples, expected, rtol=1e-12)

    def test_step_guard(self):
        A, D = vacuum_system()
        with pytest.raises(StepTooLargeError):
            sample_euler_maruyama(A, D, TrajectoryConfig(dt=0.5, n_steps=10))

    def test_weak_convergence_to_exact_scheme(self):
        A, D = closed_form_dynamics(0.25, 1.0, 0.0)
        V = solve_steady_lyapunov(A, D)
        cfg = TrajectoryConfig(dt=0.01, n_steps=4096, master_seed=17)
        stack = []
        for k in range(128):
            c = TrajectoryConfig(dt=cfg.dt, n_steps=cfg.n_steps,
                                 master_seed=derive_stream_seed(17, k))
            stack.append(sample_euler_maruyama(A, D, c).samples)
        emp = second_moment(np.concatenate(stack))
        assert np.max(np.abs(emp - V)) / np.max(np.abs(V)) < 0.1

    def test_schemes_are_distinct_streams(self):
        A, D = vacuum_system()
        cfg_ou = TrajectoryConfig(dt=0.05, n_steps=100, master_seed=9)
        cfg_em = TrajectoryConfig(dt=0.05, n_steps=100, master_seed=9,
                                  scheme=Scheme.EULER_MARUYAMA)
        r_ou = sample_exact_ou(A, D, cfg_ou)
        r_em = sample_euler_maruyama(A, D, cfg_em)
        assert not np.allclose(r_ou.samples, r_em.samples)


def _jordan_dynamics():
    """A stable defective drift, one eigenvalue -1/2 with a single Jordan chain."""
    return -0.5 * np.eye(4) + np.eye(4, k=1), np.eye(4)


def _detuned_tms_dynamics():
    p = ModelParams(G=0.2, kappa_a=1.0, kappa_b=0.6, n_a=0.3, n_b=0.1,
                    delta_a=0.3, delta_b=-0.2)
    return build_drift(p), build_diffusion(p)


STREAM_DYNAMICS = {
    "closed_form": lambda: closed_form_dynamics(0.25, 1.0, 0.5),
    "tms_detuned": _detuned_tms_dynamics,
    "jordan": _jordan_dynamics,
}


class TestPreparedStream:
    # totals 1 to 96,005: one short of, on and past a block end, 33 carried
    # states, and four levels of recursion; a path of 2 draws one noise row
    LENGTHS = [1, 16, 17, 543, 96_000]

    @pytest.mark.parametrize("scheme", [Scheme.EXACT_OU, Scheme.EULER_MARUYAMA])
    @pytest.mark.parametrize("dynamics", sorted(STREAM_DYNAMICS))
    def test_shared_stream_draws_solo_records_bit_for_bit(self, dynamics, scheme):
        """Records drawn one after another from one prepared stream, longest
        first and shortest first, equal records drawn alone, each from a
        stream of its own, bit for bit and with the same meta."""
        A, D = STREAM_DYNAMICS[dynamics]()
        if scheme is Scheme.EXACT_OU:
            stream, solo = _exact_stream(A, D, 0.05), sample_exact_ou
        else:
            stream, solo = _euler_stream(A, D, 0.05), sample_euler_maruyama
        for burn_in in (0, 1, 5):
            for n_steps in sorted(self.LENGTHS, reverse=burn_in != 1):
                seed = 7 * n_steps + burn_in
                cfg = TrajectoryConfig(dt=0.05, n_steps=n_steps, burn_in=burn_in,
                                       scheme=scheme, master_seed=seed)
                (shared,) = _records(stream, cfg, scheme, SourceTag.QUANTUM, None, [(seed, {})])
                want = solo(A, D, cfg)
                assert shared.samples.shape == (n_steps, 4)
                assert np.array_equal(shared.samples, want.samples)
                assert shared.meta == want.meta and shared.seed == want.seed


class TestEnsembles:
    def test_members_match_manual_derivation(self):
        A, D = closed_form_dynamics(0.2, 1.0, 0.3)
        cfg = TrajectoryConfig(dt=0.05, n_steps=300, master_seed=31)
        members = sample_ensemble(A, D, cfg, 5)
        for k, rec in enumerate(members):
            solo_cfg = TrajectoryConfig(
                dt=0.05, n_steps=300, master_seed=derive_stream_seed(31, k)
            )
            solo = sample_exact_ou(A, D, solo_cfg)
            assert np.array_equal(rec.samples, solo.samples)
            assert rec.seed == solo_cfg.master_seed

    def test_ensemble_covariance_matches_lyapunov(self):
        A, D = closed_form_dynamics(0.25, 1.0, 0.5)
        V = solve_steady_lyapunov(A, D)
        cfg = TrajectoryConfig(dt=0.5, n_steps=2, master_seed=77)
        members = sample_ensemble(A, D, cfg, 4000)
        finals = np.array([m.samples[-1] for m in members])
        emp = second_moment(finals)
        bound = covariance_bound(V, 4000)
        assert np.all(np.abs(emp - V) <= bound)

    def test_time_average_equals_ensemble_average(self):
        # ergodicity: a long single record reproduces the steady covariance
        A, D = closed_form_dynamics(0.3, 1.0, 0.2)
        V = solve_steady_lyapunov(A, D)
        cfg = TrajectoryConfig(dt=0.2, n_steps=400_000, master_seed=13)
        emp = second_moment(sample_exact_ou(A, D, cfg).samples)
        r = math.exp(-0.5 * cfg.dt)
        inflation = (1 + r * r) / (1 - r * r)
        bound = covariance_bound(V, cfg.n_steps / inflation)
        assert np.all(np.abs(emp - V) <= bound)


class TestRecordValidation:
    def test_shape_and_finite_guards(self):
        with pytest.raises(ValidationError):
            TrajectoryRecord(samples=np.zeros((10, 3)), dt=0.1,
                             source=SourceTag.QUANTUM, seed=0)
        bad = np.zeros((10, 4))
        bad[3, 2] = np.inf
        with pytest.raises(ValidationError):
            TrajectoryRecord(samples=bad, dt=0.1, source=SourceTag.QUANTUM, seed=0)
        with pytest.raises(ValidationError, match="at least one row"):
            TrajectoryRecord(samples=np.zeros((0, 4)), dt=0.1, source=SourceTag.QUANTUM, seed=0)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TrajectoryConfig(dt=0.0, n_steps=10)
        with pytest.raises(ValidationError):
            TrajectoryConfig(dt=0.1, n_steps=0)
        with pytest.raises(ValidationError):
            TrajectoryConfig(dt=0.1, n_steps=10, burn_in=-1)
