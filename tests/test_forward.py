import functools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from waverom import profile
from waverom.config import load_config
from waverom.errors import NyquistViolation, OperatorOverflow, WaveromError
from waverom.forward import (
    CHEB_MAX_NODES,
    CHEB_RATIO,
    CHEB_TOL,
    DT_FACTOR,
    DataSet,
    DiscreteOperator,
    Pulse,
    SensorArray,
    TraceRecord,
    _laplacian_2d,
    chebyshev_interval,
    chebyshev_moments,
    initial_states,
    line_array,
    propagate_snapshots,
    ring_array,
    sample_coeffs,
    sample_functions,
    scaled_entries,
    symmetrize_and_sample,
    synthesize_dataset,
    synthesize_measurements,
)
from waverom.model import Grid2D, VelocityModel, make_camembert_model, make_constant_model

from oracles import FlatPulse, block, eigenpairs, velocity_at

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def grid():
    return Grid2D(20, 20, 100.0, 100.0)


@pytest.fixture
def pulse():
    return Pulse(6.0, 4.0)


def random_velocity(grid, seed=0, base=1500.0, spread=0.4):
    rng = np.random.default_rng(seed)
    return VelocityModel(grid, base * (1.0 + spread * rng.random((grid.nx, grid.nz))))


def moment_case(case, pulse):
    """(model, array, pulse, tau, n) for the moment-vs-spectral comparison."""
    if case in ("desk", "sweep"):
        name = "camembert_desk" if case == "desk" else "topography_sweep"
        cfg = load_config(REPO / "configs" / f"{name}.json")
        v = cfg.build_model()
        acq = cfg.build_acquisition(v.grid)
        return v, acq.array, acq.pulse, acq.tau, acq.n
    grid = Grid2D(20, 20, 100.0, 100.0)
    v = random_velocity(grid, seed=12)
    arr = line_array(grid, 1 if case == "m1" else 3, depth=300.0)
    n = 1 if case == "n1" else 4
    return v, arr, FlatPulse() if case == "flat" else pulse, pulse.default_tau(), n


def pulse_f(pulse, t):
    """The pulse in time, cos(omega0 t) exp(-(2 pi B t)^2 / 2)."""
    t = np.asarray(t, dtype=float)
    a = 2.0 * math.pi * pulse.bandwidth_hz
    return np.cos(pulse.omega0 * t) * np.exp(-0.5 * (a * t) ** 2)


class TestPulse:
    def test_even(self, pulse):
        t = np.linspace(-0.3, 0.3, 101)
        np.testing.assert_array_equal(pulse_f(pulse, t), pulse_f(pulse, -t))

    def test_spectrum_nonnegative(self, pulse):
        w = np.linspace(-300.0, 300.0, 2001)
        assert np.all(pulse.f_hat(w) >= 0)

    def test_support_cut(self, pulse):
        assert abs(pulse_f(pulse, pulse.tf)) <= 1e-8
        assert abs(pulse_f(pulse, 2 * pulse.tf)) < 1e-8

    def test_essential_frequency_matches_ten_hz(self, pulse):
        assert pulse.omega_ess == pytest.approx(2 * math.pi * 10.0)

    def test_f_hat_against_fft(self, pulse):
        # FFT oracle for the closed-form transform, convention
        # f_hat(w) = int f(t) exp(-i w t) dt
        dt = 1e-3
        t = np.arange(-4096, 4096) * dt
        ft = pulse_f(pulse, t)
        spec = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(ft))) * dt
        omega = 2 * math.pi * np.fft.fftshift(np.fft.fftfreq(t.size, dt))
        sel = np.abs(omega) < 150.0
        np.testing.assert_allclose(spec.real[sel], pulse.f_hat(omega[sel]), atol=1e-6)
        assert np.max(np.abs(spec.imag[sel])) < 1e-9

    def test_derivative_consistent(self, pulse):
        t = np.linspace(-0.2, 0.2, 41)
        h = 1e-6
        fd = (pulse_f(pulse, t + h) - pulse_f(pulse, t - h)) / (2 * h)
        np.testing.assert_allclose(pulse.df(t), fd, rtol=1e-6, atol=1e-6)

    def test_built_from_the_config_keys_with_the_angular_frequency_derived(self):
        # every Chebyshev table key and f_hat value rests on this omega0
        pulse = Pulse(**{"freq_hz": 6.0, "bandwidth_hz": 2.0})
        assert pulse.omega0 == 2.0 * math.pi * 6.0
        assert pulse.omega_b == 2.0 * math.pi * 2.0
        assert (pulse.freq_hz, pulse.bandwidth_hz) == (6.0, 2.0)


class TestOperator:
    def test_symmetry_random_pairs(self, grid):
        op = DiscreteOperator(random_velocity(grid))
        rng = np.random.default_rng(1)
        w = grid.quad_weight
        for _ in range(10):
            u = rng.standard_normal(grid.n_dof)
            v = rng.standard_normal(grid.n_dof)
            a = w * ((op.matrix @ u) @ v)
            b = w * (u @ (op.matrix @ v))
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))

    def test_constant_coefficient_eigenpair(self, grid):
        c0 = 1500.0
        op = DiscreteOperator(make_constant_model(c0, grid))
        # lowest Dirichlet mode sin(pi x / Lx) sin(pi z / Lz) on the nodes
        lam_exact = c0**2 * (
            4 / grid.hx**2 * math.sin(math.pi / (2 * (grid.nx + 1))) ** 2
            + 4 / grid.hz**2 * math.sin(math.pi / (2 * (grid.nz + 1))) ** 2
        )
        xx = np.arange(1, grid.nx + 1)
        zz = np.arange(1, grid.nz + 1)
        mode = np.outer(
            np.sin(math.pi * xx / (grid.nx + 1)), np.sin(math.pi * zz / (grid.nz + 1))
        ).ravel()
        np.testing.assert_allclose(op.matrix @ mode, lam_exact * mode, rtol=1e-10)

    def test_smallest_eigenvalue_closed_form(self, grid):
        c0 = 1500.0
        w, _ = eigenpairs(DiscreteOperator(make_constant_model(c0, grid)))
        lam_exact = c0**2 * (
            4 / grid.hx**2 * math.sin(math.pi / (2 * (grid.nx + 1))) ** 2
            + 4 / grid.hz**2 * math.sin(math.pi / (2 * (grid.nz + 1))) ** 2
        )
        assert w[0] == pytest.approx(lam_exact, rel=1e-10)
        assert w[0] > 0  # Dirichlet positive definite

    def test_gershgorin_bounds_spectrum(self, grid):
        op = DiscreteOperator(random_velocity(grid, seed=2))
        w, _ = eigenpairs(op)
        assert w[-1] <= op.lambda_upper() * (1 + 1e-12)

    @pytest.mark.parametrize("case", ["dirichlet", "camembert"])
    def test_matrix_bitwise_equal_to_scaled_laplacian_copy(self, case):
        v, _ = spectral_case(case)
        c = v.c.ravel()
        a = _laplacian_2d(v.grid).copy()
        rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        a.data = a.data * c[rows] * c[a.indices]
        m = DiscreteOperator(v).matrix
        for part in ("data", "indices", "indptr"):
            assert getattr(m, part).tobytes() == getattr(a, part).tobytes(), part

    def test_bound_without_the_operator_is_the_operators(self, grid):
        v = random_velocity(grid, seed=5)
        data, bound = scaled_entries(v)
        op = DiscreteOperator(v)
        assert data.tobytes() == op.matrix.data.tobytes()
        assert bound == op.lambda_upper()

    def test_spectral_cap(self, grid, monkeypatch):
        monkeypatch.setattr("waverom.forward.SPECTRAL_CAP", 10)
        op = DiscreteOperator(random_velocity(grid))
        with pytest.raises(ValueError, match="exceeds spectral cap"):
            op.eig(np.ones((grid.n_dof, 1)))


def spectral_case(case):
    """(model, array) of the eigen-coordinate comparisons."""
    if case == "camembert":
        # the disk centred in the square: many exactly degenerate eigenvalues
        g = Grid2D(19, 19, 100.0, 100.0)
        return make_camembert_model(g), line_array(g, 3, depth=300.0)
    g = Grid2D(20, 20, 100.0, 100.0)
    v = random_velocity(g, seed=13)
    return v, line_array(g, 1 if case == "m1" else 3, depth=300.0)


def dataset_through_eigenvectors(v, arr, pulse, tau, n):
    """D_j and Ddot_j contracted through the full eigenvector matrix of
    `eigenpairs`, p = Q^T th, symmetrized as the synthesis does."""
    lam, q = eigenpairs(DiscreteOperator(v))
    p = q.T @ (arr.theta_matrix(v.grid) / arr.local_velocities(v))
    c = sample_functions(pulse, tau, 2 * n - 1, np.maximum(lam, 0.0))
    data = v.grid.quad_weight * np.einsum("kfj,kr,ks->fjrs", c, p, p)
    return 0.5 * (data + np.swapaxes(data, -1, -2))


class TestEigCoordinates:
    @pytest.mark.parametrize("case", ["dirichlet", "camembert", "m1"])
    def test_spectral_data_match_the_full_eigenvectors(self, case, pulse):
        v, arr = spectral_case(case)
        if case == "camembert":
            w, _ = eigenpairs(DiscreteOperator(v))
            assert np.sum(np.diff(w) < 1e-12 * w[-1]) > 10
        tau, n = pulse.default_tau(), 4
        ds = synthesize_dataset(v, arr, pulse, tau, n, method="spectral")
        ref = dataset_through_eigenvectors(v, arr, pulse, tau, n)
        for field, expected in zip(("d", "ddot"), ref):
            got = getattr(ds, field)
            err = np.linalg.norm(got - expected) / np.linalg.norm(expected)
            assert err <= 1e-12, (field, err)

    @pytest.mark.parametrize("case", ["dirichlet", "camembert"])
    def test_eigenvalues_and_column_norms(self, case):
        v, arr = spectral_case(case)
        op = DiscreteOperator(v)
        x = arr.theta_matrix(v.grid) / arr.local_velocities(v)
        w, p = op.eig(x)
        w_ref, _ = eigenpairs(op)
        assert p.shape == x.shape
        assert np.max(np.abs(w - w_ref)) <= 1e-12 * w_ref[-1]
        norms = np.linalg.norm(x, axis=0)
        np.testing.assert_allclose(np.linalg.norm(p, axis=0), norms, rtol=1e-12, atol=0)

    def test_one_column(self, grid):
        op = DiscreteOperator(random_velocity(grid, seed=14))
        x = np.random.default_rng(15).standard_normal((grid.n_dof, 1))
        w, p = op.eig(x)
        assert p.shape == (grid.n_dof, 1)
        # x^T A^k x = sum_i w_i^k p_i^2, whatever the eigenvectors' signs
        ax = x
        for k in range(4):
            expected = (x.T @ ax).item()
            assert np.sum(w**k * p[:, 0] ** 2) == pytest.approx(expected, rel=1e-12)
            ax = op.matrix @ ax

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("cols", [1, 3])
    def test_only_reads_x_and_caches_nothing(self, grid, order, cols):
        op = DiscreteOperator(random_velocity(grid, seed=16))
        x = np.array(np.random.default_rng(17).standard_normal((grid.n_dof, cols)), order=order)
        kept, attributes = x.copy(order="A"), set(vars(op))
        w, p = op.eig(x)
        assert x.tobytes(order="A") == kept.tobytes(order="A")
        assert set(vars(op)) == attributes
        x.flags.writeable = False
        w2, p2 = op.eig(x)
        np.testing.assert_array_equal(w2, w)
        np.testing.assert_array_equal(p2, p)

    def test_spectral_synthesis_calls_eig_once(self, grid, pulse, monkeypatch):
        # perfbench's `forward.eig` span wraps the class attribute this way
        calls = []
        eig = DiscreteOperator.eig

        @functools.wraps(eig)
        def counted(*args, **kwargs):
            calls.append(args[0])
            return eig(*args, **kwargs)

        monkeypatch.setattr(DiscreteOperator, "eig", counted)
        v, arr = random_velocity(grid, seed=18), line_array(grid, 2, depth=300.0)
        for method, expected in (("spectral", 1), ("chebyshev", 0), ("spectral", 1)):
            calls.clear()
            synthesize_dataset(v, arr, pulse, pulse.default_tau(), 3, method)
            assert len(calls) == expected, method

    def test_spectral_cap_through_the_synthesis(self, grid, pulse, monkeypatch):
        monkeypatch.setattr("waverom.forward.SPECTRAL_CAP", 10)
        arr = line_array(grid, 2, depth=300.0)
        with pytest.raises(ValueError, match="exceeds spectral cap"):
            synthesize_dataset(random_velocity(grid), arr, pulse, pulse.default_tau(), 2, "spectral")


def scipy_dct_coeffs(pulse, tau: float, count: int, lam_max: float):
    """`sample_coeffs`' node loop with the nodes in natural order and the
    DCT-II from `scipy.fft`; returns the table, c[0] halved, and its node
    count."""
    n = 64
    while True:
        x = np.cos(math.pi * (np.arange(n) + 0.5) / n)
        y = sample_functions(pulse, tau, count, 0.5 * lam_max * (x + 1.0))
        c = scipy.fft.dct(y, type=2, axis=0) / n
        mag = np.abs(c).max(axis=2)
        peak = mag.max(axis=0)
        env = (mag[:, peak > 0] / peak[peak > 0]).max(axis=1, initial=0.0)
        above = np.nonzero(env >= CHEB_TOL)[0]
        size = above[-1] + 1 if above.size else 1
        if 2 * size <= n or n >= CHEB_MAX_NODES:
            c = c[:size]
            c[0] *= 0.5
            return c, n
        n *= 2


def test_cli_import_loads_no_scipy_fft_or_special():
    code = "import sys, waverom.cli; print(*sys.modules, sep=chr(10))"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    modules = run.stdout.split()
    assert "waverom.cli" in modules and "scipy.sparse" in modules
    loaded = [m for m in modules if m.split(".")[:2] in (["scipy", "fft"], ["scipy", "special"])]
    assert loaded == []


class TestChebyshev:
    @pytest.mark.parametrize("lam_max, nodes", [(1e3, 64), (1e4, 128), (3e4, 256), (1e5, 512), (3e5, 1024)])
    def test_dct_matches_scipy_on_sample_families(self, pulse, lam_max, nodes):
        tau = pulse.default_tau()
        expected, n = scipy_dct_coeffs(pulse, tau, 15, lam_max)
        assert n == nodes
        c = sample_coeffs.__wrapped__(pulse, tau, 15, lam_max)
        assert c.shape == expected.shape
        for f in range(expected.shape[1]):  # each family against its own peak
            peak = np.abs(expected[:, f]).max()
            assert np.abs(c[:, f] - expected[:, f]).max() <= 1e-15 * peak

    @pytest.mark.parametrize("name", ["camembert_desk", "topography_sweep", "camembert_paper"])
    def test_reference_table_length_matches_scipy_dct(self, name):
        run = load_config(REPO / "configs" / f"{name}.json")
        acq = run.acquisition
        lam = chebyshev_interval(DiscreteOperator(run.reference).lambda_upper())
        count = 2 * acq.n - 1
        expected, _ = scipy_dct_coeffs(acq.pulse, acq.tau, count, lam)
        assert sample_coeffs(acq.pulse, acq.tau, count, lam).shape == expected.shape

    def test_coefficients_reproduce_function(self):
        for name in ("camembert_desk", "topography_sweep", "camembert_paper"):
            run = load_config(REPO / "configs" / f"{name}.json")
            acq = run.acquisition
            lam_max = chebyshev_interval(DiscreteOperator(run.reference).lambda_upper())
            count = 2 * acq.n - 1
            c = sample_coeffs(acq.pulse, acq.tau, count, lam_max)
            lam = np.linspace(0.0, lam_max, 777)
            x = 2 * lam / lam_max - 1.0
            vals = np.polynomial.chebyshev.chebval(x, c)  # c[0] is already halved
            expected = sample_functions(acq.pulse, acq.tau, count, lam)
            for f in range(2):  # each family against its own peak
                peak = np.abs(expected[:, f]).max()
                err = np.abs(vals[f].T - expected[:, f]).max() / peak
                assert err <= 1e-12, (name, f, err)

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 24, 25])
    @given(size=st.integers(1, 12), cols=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_doubled_moments_match_recurrence(self, count, size, cols, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((size, size))
        a = g @ g.T + 0.1 * np.eye(size)
        lam_max = np.abs(a).sum(axis=1).max()
        x = rng.standard_normal((size, cols))
        x /= np.linalg.norm(x)
        t = [x, 2.0 * a @ x / lam_max - x]
        while len(t) < count:
            t.append(2.0 * (2.0 * a @ t[-1] / lam_max - t[-1]) - t[-2])
        expected = np.array([x.T @ tk for tk in t[:count]])
        mu = chebyshev_moments(a, x, count, lam_max)
        assert mu.shape == (count, cols, cols)
        np.testing.assert_allclose(mu, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 84])
    def test_moments_take_half_count_products_with_the_matrix(self, grid, count):
        class CountingCsr(sp.csr_matrix):
            log = None  # set on the instance under test; a derived matrix has none

            def __matmul__(self, other):
                self.log.append(self)
                return super().__matmul__(other)

        v = random_velocity(grid, seed=5)
        op = DiscreteOperator(v)
        a = CountingCsr(op.matrix)
        a.log = []
        x = line_array(grid, 3, depth=300.0).theta_matrix(grid)
        lam_max = op.lambda_upper()
        before = profile.counts()
        mu = chebyshev_moments(a, x, count, lam_max)
        assert len(a.log) == count // 2
        assert all(m is a for m in a.log)
        after = profile.counts()
        for name, added in (("forward.matvecs", count // 2), ("forward.matvec_cols", count // 2 * 3)):
            assert after.get(name, 0) - before.get(name, 0) == added
        np.testing.assert_array_equal(mu, chebyshev_moments(op.matrix, x, count, lam_max))

    def test_moments_only_read_x(self, grid):
        op = DiscreteOperator(random_velocity(grid, seed=6))
        x = np.array(line_array(grid, 3, depth=300.0).theta_matrix(grid))
        kept = x.copy()
        lam_max = op.lambda_upper()
        mu = chebyshev_moments(op.matrix, x, 25, lam_max)
        assert x.tobytes() == kept.tobytes()
        x.flags.writeable = False
        np.testing.assert_array_equal(chebyshev_moments(op.matrix, x, 25, lam_max), mu)

    def test_interval_rounds_up_within_one_ratio(self, grid):
        for seed in range(5):
            lam_upper = DiscreteOperator(random_velocity(grid, seed=seed)).lambda_upper()
            lam = chebyshev_interval(lam_upper)
            assert lam_upper <= lam < CHEB_RATIO * lam_upper
        on_grid = CHEB_RATIO**12345
        assert chebyshev_interval(on_grid) == on_grid
        # just above a grid point the log quotient rounds down onto its exponent
        above = np.nextafter(on_grid, np.inf)
        assert chebyshev_interval(above) == CHEB_RATIO**12346 >= above

    @pytest.mark.parametrize("bound", [math.inf, math.nan])
    def test_interval_of_a_bound_that_is_not_finite_raises(self, bound):
        with pytest.raises(OperatorOverflow):
            chebyshev_interval(bound)
        assert issubclass(OperatorOverflow, WaveromError)

    @pytest.mark.parametrize("method", ["chebyshev", "spectral"])
    def test_overflowing_operator_raises_on_either_method(self, grid, pulse, method):
        # c^2 / h^2 overflows the float range, so A has infinite entries
        v = make_constant_model(1e300, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(OperatorOverflow):
                synthesize_dataset(
                    v, line_array(grid, 2, depth=300.0), pulse, pulse.default_tau(), 3, method
                )

    def test_table_cached_read_only_and_halved(self, grid, pulse):
        tau, count = pulse.default_tau(), 7
        lam = chebyshev_interval(DiscreteOperator(random_velocity(grid, seed=3)).lambda_upper())
        c = sample_coeffs(pulse, tau, count, lam)
        assert not c.flags.writeable
        assert c.base is None  # a compact copy, not a view of the DCT buffer
        assert sample_coeffs(Pulse(6.0, 4.0), tau, count, lam) is c
        direct = sample_coeffs.__wrapped__(pulse, tau, count, lam)
        assert direct is not c
        assert c.shape == direct.shape
        assert c.tobytes() == direct.tobytes()

    def test_syntheses_in_one_bucket_share_a_table(self, grid, pulse):
        v = random_velocity(grid, seed=10)
        w = VelocityModel(grid, v.c * (1.0 + 1e-7))
        bounds = [DiscreteOperator(u).lambda_upper() for u in (v, w)]
        assert bounds[0] != bounds[1]
        assert chebyshev_interval(bounds[0]) == chebyshev_interval(bounds[1])
        arr = line_array(grid, 2, depth=300.0)
        synthesize_dataset(v, arr, pulse, pulse.default_tau(), 3, method="chebyshev")
        before = sample_coeffs.cache_info()
        synthesize_dataset(w, arr, pulse, pulse.default_tau(), 3, method="chebyshev")
        after = sample_coeffs.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_table_cache_holds_cycled_buckets(self, grid):
        pulse = Pulse(5.0, 3.0)  # no other test builds a table for this pulse
        v = random_velocity(grid, seed=11)
        models = [VelocityModel(grid, v.c * scale) for scale in (1.0, 1.01, 1.02)]
        lams = {chebyshev_interval(DiscreteOperator(u).lambda_upper()) for u in models}
        assert len(lams) == 3
        arr = line_array(grid, 2, depth=300.0)
        before = sample_coeffs.cache_info()
        for _ in range(3):
            for u in models:
                synthesize_dataset(u, arr, pulse, pulse.default_tau(), 3, method="chebyshev")
        after = sample_coeffs.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (6, 3)

    def test_table_length_clear_of_round_off_plateau(self):
        # a cut at the DCT's ~1e-14 plateau would take 2026 terms here
        cfg = load_config(REPO / "configs" / "topography_sweep.json")
        truth = cfg.build_model()
        acq = cfg.build_acquisition(truth.grid)
        lam_max = DiscreteOperator(truth).lambda_upper()
        c = sample_coeffs(acq.pulse, acq.tau, 2 * acq.n - 1, lam_max)
        assert c.shape[1:] == (2, 2 * acq.n - 1)
        assert c.shape[0] <= 2 * 246


class TestSensorFunctions:
    def test_theta_matrix_is_the_gaussian_computed_once(self, grid):
        positions = np.array([[350.0, 300.0], [1000.0, 1050.0], [1700.0, 1900.0]])
        width = 150.0
        theta = SensorArray(positions, width).theta_matrix(grid)
        xx, zz = grid.mesh()
        for col, (x, z) in zip(theta.T, positions):
            r2 = (xx - x) ** 2 + (zz - z) ** 2
            ref = np.where(r2 <= (4.0 * width) ** 2, np.exp(-r2 / (2.0 * width**2)), 0.0)
            np.testing.assert_array_equal(col, ref.ravel() / (ref.sum() * grid.quad_weight))
        assert not theta.flags.writeable
        same = SensorArray(positions.copy(), width)
        assert same.theta_matrix(Grid2D(20, 20, 100.0, 100.0)) is theta
        assert SensorArray(positions, 2 * width).theta_matrix(grid) is not theta

    @pytest.mark.parametrize("width", [math.nan, math.inf, 0.0, -1.0])
    def test_width_must_be_positive_and_finite(self, width):
        with pytest.raises(ValueError, match="theta_width"):
            SensorArray(np.array([[500.0, 500.0]]), width)

    @pytest.mark.parametrize("coord", [math.nan, math.inf, -math.inf])
    def test_position_must_be_finite(self, coord):
        with pytest.raises(ValueError, match="sensor positions must be finite"):
            SensorArray(np.array([[500.0, 500.0], [coord, 500.0]]), 100.0)

    @pytest.mark.parametrize("inset", [0.0, -50.0, -1e308, -math.inf, math.inf, math.nan])
    def test_ring_inset_must_be_positive_and_finite(self, grid, inset):
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="inset must be positive and finite"):
                ring_array(grid, 4, inset)

    def test_ring_puts_one_of_four_sensors_on_each_edge(self):
        # 800 x 1800 rectangle inset 100 in a 1000 x 2000 domain: sensors
        # every 1300 m of perimeter, clockwise from the top-left corner
        arr = ring_array(Grid2D(9, 19, 100.0, 100.0), 4, 100.0)
        np.testing.assert_array_equal(
            arr.positions, [[100.0, 100.0], [900.0, 600.0], [900.0, 1900.0], [100.0, 1400.0]]
        )

    def test_repeated_position_raises(self):
        positions = np.array([[500.0, 500.0], [700.0, 500.0], [500.0, 500.0]])
        with pytest.raises(ValueError, match="share a position"):
            SensorArray(positions, 100.0)

    def test_out_of_domain_sensor_raises_on_every_call(self, grid):
        arr = SensorArray(np.array([[500.0, 500.0], [500.0, -50.0]]), theta_width=grid.hx)
        for _ in range(3):
            with pytest.raises(ValueError, match="outside node block"):
                arr.theta_matrix(grid)

    def test_local_velocities_match_nearest_node(self, grid):
        v = random_velocity(grid, seed=9)
        # half-cell ties in x, in z and in both, plus an off-node point
        positions = np.array(
            [[250.0, 300.0], [400.0, 650.0], [1050.0, 1150.0], [333.0, 777.0], [100.0, 2000.0]]
        )
        arr = SensorArray(positions, theta_width=grid.hx)
        expected = np.array([velocity_at(v, x, z) for x, z in positions])
        for _ in range(2):
            np.testing.assert_array_equal(arr.local_velocities(v), expected)


class TestInitialStates:
    def test_flat_spectrum_identity(self, grid):
        v = random_velocity(grid, seed=3)
        arr = line_array(grid, 3, depth=300.0)
        u0 = initial_states(eigenpairs(DiscreteOperator(v)), v, arr, FlatPulse())
        theta = arr.theta_matrix(grid)
        cs = arr.local_velocities(v)
        np.testing.assert_allclose(u0, theta / cs, atol=1e-12)

    def test_support_radius(self):
        # mass outside 3 c(x_s) tf below 1e-3 of total
        g = Grid2D(48, 48, 50.0, 50.0)
        v = make_constant_model(1500.0, g)
        pulse = Pulse(6.0, 8.0)  # tight pulse so the ball fits
        arr = SensorArray(np.array([[1225.0, 1225.0]]), theta_width=g.hx)
        u0 = initial_states(eigenpairs(DiscreteOperator(v)), v, arr, pulse).ravel()
        xx, zz = g.mesh()
        r = np.hypot(xx - 1225.0, zz - 1225.0).ravel()
        radius = 3 * 1500.0 * pulse.tf
        total = np.sum(np.abs(u0))
        outside = np.sum(np.abs(u0)[r > radius])
        assert outside < 1e-3 * total


class TestPropagation:
    def test_j0_identity(self, grid, pulse):
        v = random_velocity(grid)
        pairs = eigenpairs(DiscreteOperator(v))
        arr = line_array(grid, 2, depth=300.0)
        u0 = initial_states(pairs, v, arr, pulse)
        snaps = propagate_snapshots(pairs, u0, 0.045, 1)
        np.testing.assert_array_equal(block(snaps, 2, 0), u0)

    def test_eigenmode_oscillates_exactly(self, grid):
        c0 = 1700.0
        w, q = eigenpairs(DiscreteOperator(make_constant_model(c0, grid)))
        k = 7
        u0 = q[:, [k]]
        tau = 0.01
        snaps = propagate_snapshots((w, q), u0, tau, 9)
        for j in range(9):
            expected = math.cos(j * tau * math.sqrt(w[k]))
            assert block(snaps, 1, j)[:, 0] @ q[:, k] == pytest.approx(expected, abs=1e-11)

    def test_nyquist_warning(self, grid, pulse):
        v = make_constant_model(1500.0, grid)
        arr = line_array(grid, 1, depth=300.0)
        bad_tau = 1.2 * pulse.nyquist_tau
        for method in ("spectral", "chebyshev"):
            with pytest.warns(NyquistViolation):
                synthesize_dataset(v, arr, pulse, bad_tau, 2, method=method)
            with warnings.catch_warnings():
                warnings.simplefilter("error", NyquistViolation)
                with pytest.raises(NyquistViolation):
                    synthesize_dataset(v, arr, pulse, bad_tau, 2, method=method)


class TestDataset:
    def test_gram_structure(self, grid, pulse):
        v = make_camembert_model(Grid2D(19, 24, 100.0, 100.0))
        arr = line_array(v.grid, 4, depth=200.0)
        ds = synthesize_dataset(v, arr, pulse, pulse.default_tau(), 4, method="spectral")
        w = np.linalg.eigvalsh(ds.d[0])
        assert w.min() > -1e-12 * abs(w.max())  # D_0 positive semidefinite
        assert np.all(np.diag(ds.d[0]) > 0)

    def test_symmetry_before_symmetrization(self, grid, pulse):
        v = random_velocity(grid, seed=6)
        pairs = eigenpairs(DiscreteOperator(v))
        arr = line_array(grid, 3, depth=300.0)
        u0 = initial_states(pairs, v, arr, pulse)
        tau = pulse.default_tau()
        snaps = propagate_snapshots(pairs, u0, tau, 5)
        for j in range(5):
            raw = grid.quad_weight * (u0.T @ block(snaps, 3, j))
            assert np.linalg.norm(raw - raw.T) / np.linalg.norm(raw) < 1e-10

    def test_snapshot_cosine_law(self, grid, pulse):
        # <u_i, u_j> = (D_{i+j} + D_{|i-j|}) / 2 on the spectral path
        v = random_velocity(grid, seed=7)
        arr = line_array(grid, 2, depth=300.0)
        tau = pulse.default_tau()
        n = 4
        ds = synthesize_dataset(v, arr, pulse, tau, n, method="spectral")
        pairs = eigenpairs(DiscreteOperator(v))
        u0 = initial_states(pairs, v, arr, pulse)
        snaps = propagate_snapshots(pairs, u0, tau, n)
        for i in range(n):
            for j in range(n):
                direct = grid.quad_weight * (block(snaps, 2, i).T @ block(snaps, 2, j))
                paired = 0.5 * (ds.d[i + j] + ds.d[abs(i - j)])
                assert np.linalg.norm(direct - paired) <= 1e-10 * np.linalg.norm(paired)

    def test_entry_bound_by_d0(self, grid, pulse):
        # Cauchy-Schwarz: |D_j entries| bounded by max diagonal of D_0
        v = random_velocity(grid, seed=8)
        arr = line_array(grid, 3, depth=300.0)
        ds = synthesize_dataset(v, arr, pulse, pulse.default_tau(), 5, method="spectral")
        bound = np.max(np.diag(ds.d[0]))
        for j in range(len(ds.d)):
            assert np.max(np.abs(ds.d[j])) <= bound * (1 + 1e-12)

    def test_trace_energy_single_sensor(self, grid, pulse):
        # trace(D_j) equals the spectral sum of cos-weighted projections
        v = random_velocity(grid, seed=9)
        arr = line_array(grid, 1, depth=300.0)
        tau = pulse.default_tau()
        ds = synthesize_dataset(v, arr, pulse, tau, 3, method="spectral")
        w, q = eigenpairs(DiscreteOperator(v))
        u0 = initial_states((w, q), v, arr, pulse).ravel()
        proj = (q.T @ u0) ** 2 * grid.quad_weight
        for j in range(5):
            expected = np.sum(proj * np.cos(j * tau * np.sqrt(np.maximum(w, 0.0))))
            assert np.trace(ds.d[j]) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("case", ["desk", "sweep", "n1", "m1", "flat"])
    def test_moments_match_spectral(self, case, pulse):
        v, arr, pulse, tau, n = moment_case(case, pulse)
        a = synthesize_dataset(v, arr, pulse, tau, n, method="chebyshev")
        b = synthesize_dataset(v, arr, pulse, tau, n, method="spectral")
        for field in ("d", "ddot"):
            ref = getattr(b, field)
            err = np.linalg.norm(getattr(a, field) - ref) / np.linalg.norm(ref)
            assert err <= 1e-12, (field, err)

    def test_moments_warn_beyond_nyquist(self, grid, pulse):
        v = make_constant_model(1500.0, grid)
        arr = line_array(grid, 2, depth=300.0)
        with pytest.warns(NyquistViolation):
            synthesize_dataset(v, arr, pulse, 1.2 * pulse.nyquist_tau, 2, method="chebyshev")

    def test_sizes_read_from_the_stacks(self):
        ds = DataSet(np.zeros((5, 2, 2)), np.zeros((5, 2, 2)), 0.05)
        assert (ds.m, ds.n) == (2, 3)

    @pytest.mark.parametrize("shape, message", [
        ((4, 2, 2), r"\(2n - 1, m, m\) with n, m >= 1, not \(4, 2, 2\)"),
        ((3, 2, 3), r"not \(3, 2, 3\)"),
        ((3, 0, 0), r"not \(3, 0, 0\)"),
        ((3, 4), r"not \(3, 4\)"),
    ], ids=["even-sample-count", "non-square-blocks", "no-sensor", "not-a-stack"])
    def test_refuses_stacks_of_another_form(self, shape, message):
        with pytest.raises(ValueError, match=message):
            DataSet(np.zeros(shape), np.zeros(shape), 0.05)

    def test_refuses_ddot_of_another_shape_naming_both(self):
        with pytest.raises(ValueError, match=r"d has shape \(3, 2, 2\) but ddot has "
                           r"shape \(5, 2, 2\)"):
            DataSet(np.zeros((3, 2, 2)), np.zeros((5, 2, 2)), 0.05)


@pytest.fixture(scope="module")
def setup():
    g = Grid2D(30, 30, 2000 / 31, 2000 / 31)
    v = make_camembert_model(g, center=(1000.0, 1000.0), radius=500.0)
    pulse = Pulse(6.0, 4.0)
    arr = line_array(g, 3, depth=180.0)
    tau = pulse.default_tau()
    n = 5
    rec = synthesize_measurements(v, arr, pulse, tau, n)
    return g, v, pulse, arr, tau, n, rec


def allocating_leapfrog(v, arr, pulse, tau, n):
    """The leapfrog loop that allocates every intermediate, one pulse.df call
    per step, from the grid time at or before -tf through one step past
    (2n - 2) tau; the in-place loop of `synthesize_measurements` must
    match it."""
    theta = arr.theta_matrix(v.grid)
    c2 = v.c.ravel() ** 2
    dt = tau / DT_FACTOR
    k0 = int(math.ceil(pulse.tf / dt - 1e-12))
    nt = k0 + (2 * n - 2) * DT_FACTOR + 2
    t0 = -k0 * dt
    lap = _laplacian_2d(v.grid)
    traces = np.empty((nt, arr.m, arr.m))
    p_prev = np.zeros_like(theta)
    p_cur = np.zeros_like(theta)
    traces[0] = v.grid.quad_weight * (theta.T @ p_cur)
    for k in range(1, nt):
        accel = -c2[:, None] * (lap @ p_cur) + pulse.df(t0 + (k - 1) * dt) * theta
        p_prev, p_cur = p_cur, 2.0 * p_cur - p_prev + dt**2 * accel
        traces[k] = v.grid.quad_weight * (theta.T @ p_cur)
    return t0, traces


class TestTimeDomain:
    @pytest.mark.parametrize("case", ["dirichlet", "camembert"])
    def test_in_place_leapfrog_matches_allocating_loop_and_counts(self, pulse, case):
        v, arr = spectral_case(case)
        tau = pulse.default_tau()
        before = profile.counts()
        rec = synthesize_measurements(v, arr, pulse, tau, 5)
        after = profile.counts()
        t0, expected = allocating_leapfrog(v, arr, pulse, tau, 5)
        assert rec.times()[0] == t0 and rec.data.shape == expected.shape
        assert np.abs(rec.data - expected).max() <= 1e-12 * np.abs(expected).max()
        assert after.get("forward.timedomain", 0) - before.get("forward.timedomain", 0) == 1
        matvecs = "forward.timedomain.matvecs"
        assert after.get(matvecs, 0) - before.get(matvecs, 0) == rec.nt - 1
        assert after.get("forward.matvecs") == before.get("forward.matvecs")

    def test_cfl_violation(self, grid, pulse):
        # tau = 50 s gives the leapfrog a step of 1 s
        v = make_constant_model(3000.0, grid)
        with pytest.raises(WaveromError, match="exceeds the leapfrog stability limit"):
            synthesize_measurements(v, line_array(grid, 1, depth=300.0), pulse, 50.0, 1)

    def test_reciprocity(self, setup):
        _, _, _, _, _, _, rec = setup
        peak = np.max(np.abs(rec.data))
        asym = np.max(np.abs(rec.data - np.swapaxes(rec.data, 1, 2)))
        assert asym < 1e-6 * peak

    def test_causality_before_first_arrival(self, setup):
        g, v, pulse, arr, _, _, rec = setup
        c_max = float(v.c.max())
        pos = arr.positions
        times = rec.times()
        peak = np.max(np.abs(rec.data))
        for r in range(arr.m):
            for s in range(arr.m):
                if r == s:
                    continue
                dist = np.hypot(*(pos[r] - pos[s]))
                quiet = times < dist / c_max - pulse.tf
                if quiet.any():
                    assert np.max(np.abs(rec.data[quiet, r, s])) < 1e-6 * peak

    def test_cross_path_consistency(self, setup):
        g, v, pulse, arr, tau, n, rec = setup
        ds_time = symmetrize_and_sample(rec, arr, v)
        ds_spec = synthesize_dataset(v, arr, pulse, tau, n, method="spectral")
        for field in ("d", "ddot"):
            a = getattr(ds_time, field)
            b = getattr(ds_spec, field)
            err = np.sqrt(np.sum((a - b) ** 2)) / np.sqrt(np.sum(b**2))
            assert err < 1e-3


class TestSymmetrizeAndSample:
    DT = 0.001
    OMEGA = 2 * math.pi * 5.0

    @pytest.fixture
    def even_cosine(self):
        """The DataSet of the even trace cos(omega t), recorded at one sensor
        where c = 2000 on [-0.4, 0.201], the record `record_layout` lays out
        for n = 3."""
        g = Grid2D(10, 10, 100.0, 100.0)
        v = make_constant_model(2000.0, g)
        arr = SensorArray(np.array([[500.0, 500.0]]), theta_width=100.0)
        k0, nt = 400, 400 + 4 * DT_FACTOR + 2
        times = -k0 * self.DT + self.DT * np.arange(nt)
        trace = np.cos(self.OMEGA * times)
        rec = TraceRecord(DT_FACTOR * self.DT, k0, trace.reshape(-1, 1, 1))
        return symmetrize_and_sample(rec, arr, v)

    def test_even_trace_fixed_point(self, even_cosine):
        # an even recorded trace comes back shape-unchanged, scaled by velocities
        expected = 2.0 * np.cos(self.OMEGA * DT_FACTOR * self.DT * np.arange(5)) / 2000.0**2
        np.testing.assert_allclose(even_cosine.d[:, 0, 0], expected, atol=1e-12)

    def test_central_difference_of_cosine(self, even_cosine):
        # the second difference of cos(omega t) is 2 (cos(omega dt) - 1) / dt^2
        # times itself, at j = 0 (through the fold's evenness) as elsewhere
        ds = even_cosine
        expected = 2.0 * (math.cos(self.OMEGA * self.DT) - 1.0) / self.DT**2 * ds.d
        assert np.abs(ds.ddot - expected).max() <= 1e-12 * np.abs(expected).max()

    # a record that starts at t = 0.05, after t = 0, has k0 = -50
    @pytest.mark.parametrize("k0", [-50], ids=["after-zero"])
    def test_record_must_hold_t_zero(self, k0):
        with pytest.raises(ValueError, match="t = 0"):
            TraceRecord(DT_FACTOR * self.DT, k0, np.ones((1201, 1, 1)))


def test_serialized_dataset_is_symmetric_invariant(grid, pulse):
    v = random_velocity(grid, seed=11)
    arr = line_array(grid, 3, depth=250.0)
    ds = synthesize_dataset(v, arr, pulse, pulse.default_tau(), 4, method="spectral")
    for j in range(len(ds.d)):
        np.testing.assert_array_equal(ds.d[j], ds.d[j].T)
        np.testing.assert_array_equal(ds.ddot[j], ds.ddot[j].T)
