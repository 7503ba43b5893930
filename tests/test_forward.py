import math

import numpy as np
import pytest

from waverom.errors import CflViolation, EigUnavailable, InsufficientRecordLength, NyquistViolation
from waverom.forward import (
    DataSet,
    DiscreteOperator,
    FlatPulse,
    Pulse,
    SensorArray,
    TraceRecord,
    chebyshev_coeffs,
    initial_states,
    line_array,
    propagate_snapshots,
    second_derivative_fourier,
    symmetrize_and_sample,
    synthesize_dataset,
    synthesize_measurements,
)
from waverom.model import Grid2D, VelocityModel, make_camembert_model, make_constant_model


@pytest.fixture
def grid():
    return Grid2D(20, 20, 100.0, 100.0)


@pytest.fixture
def pulse():
    return Pulse.from_hz(6.0, 4.0)


def random_velocity(grid, seed=0, base=1500.0, spread=0.4):
    rng = np.random.default_rng(seed)
    return VelocityModel(grid, base * (1.0 + spread * rng.random((grid.nx, grid.nz))))


class TestPulse:
    def test_even(self, pulse):
        t = np.linspace(-0.3, 0.3, 101)
        np.testing.assert_array_equal(pulse.f(t), pulse.f(-t))

    def test_spectrum_nonnegative(self, pulse):
        w = np.linspace(-300.0, 300.0, 2001)
        assert np.all(pulse.f_hat(w) >= 0)

    def test_support_cut(self, pulse):
        assert abs(pulse.f(pulse.tf)) <= 1e-8
        assert abs(pulse.f(2 * pulse.tf)) < 1e-8

    def test_essential_frequency_matches_ten_hz(self, pulse):
        assert pulse.omega_ess == pytest.approx(2 * math.pi * 10.0)

    def test_f_hat_against_fft(self, pulse):
        # FFT oracle for the closed-form transform, convention
        # f_hat(w) = int f(t) exp(-i w t) dt
        dt = 1e-3
        t = np.arange(-4096, 4096) * dt
        ft = pulse.f(t)
        spec = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(ft))) * dt
        omega = 2 * math.pi * np.fft.fftshift(np.fft.fftfreq(t.size, dt))
        sel = np.abs(omega) < 150.0
        np.testing.assert_allclose(spec.real[sel], pulse.f_hat(omega[sel]), atol=1e-6)
        assert np.max(np.abs(spec.imag[sel])) < 1e-9

    def test_derivative_consistent(self, pulse):
        t = np.linspace(-0.2, 0.2, 41)
        h = 1e-6
        fd = (pulse.f(t + h) - pulse.f(t - h)) / (2 * h)
        np.testing.assert_allclose(pulse.df(t), fd, rtol=1e-6, atol=1e-6)


class TestOperator:
    def test_symmetry_random_pairs(self, grid):
        op = DiscreteOperator(random_velocity(grid))
        rng = np.random.default_rng(1)
        w = grid.quad_weight
        for _ in range(10):
            u = rng.standard_normal(grid.n_dof)
            v = rng.standard_normal(grid.n_dof)
            a = w * (op.apply(u) @ v)
            b = w * (u @ op.apply(v))
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
        np.testing.assert_allclose(op.apply(mode), lam_exact * mode, rtol=1e-10)

    def test_smallest_eigenvalue_closed_form(self, grid):
        c0 = 1500.0
        op = DiscreteOperator(make_constant_model(c0, grid))
        w, _ = op.eig()
        lam_exact = c0**2 * (
            4 / grid.hx**2 * math.sin(math.pi / (2 * (grid.nx + 1))) ** 2
            + 4 / grid.hz**2 * math.sin(math.pi / (2 * (grid.nz + 1))) ** 2
        )
        assert w[0] == pytest.approx(lam_exact, rel=1e-10)
        assert w[0] > 0  # Dirichlet positive definite

    def test_gershgorin_bounds_spectrum(self, grid):
        op = DiscreteOperator(random_velocity(grid, seed=2))
        w, _ = op.eig()
        assert w[-1] <= op.lambda_upper() * (1 + 1e-12)

    def test_spectral_cap(self, grid):
        op = DiscreteOperator(random_velocity(grid))
        with pytest.raises(EigUnavailable):
            op.eig(cap=10)


class TestChebyshev:
    def test_coefficients_reproduce_function(self):
        lam_max = 500.0
        fn = lambda lam: np.cos(0.05 * np.sqrt(lam))
        c = chebyshev_coeffs(fn, lam_max)
        lam = np.linspace(0.0, lam_max, 777)
        x = 2 * lam / lam_max - 1.0
        vals = np.polynomial.chebyshev.chebval(x, np.r_[c[0] / 2, c[1:]])
        np.testing.assert_allclose(vals, fn(lam), atol=1e-13)


class TestInitialStates:
    def test_flat_spectrum_identity(self, grid):
        v = random_velocity(grid, seed=3)
        op = DiscreteOperator(v)
        arr = line_array(grid, 3, depth=300.0)
        u0 = initial_states(op, arr, FlatPulse())
        theta = arr.theta_matrix(grid)
        cs = arr.local_velocities(v)
        np.testing.assert_allclose(u0, theta / cs, atol=1e-12)

    def test_spectral_vs_chebyshev(self, grid, pulse):
        op = DiscreteOperator(random_velocity(grid, seed=4))
        arr = line_array(grid, 2, depth=300.0)
        a = initial_states(op, arr, pulse, method="spectral")
        b = initial_states(op, arr, pulse, method="chebyshev")
        assert np.linalg.norm(a - b) / np.linalg.norm(a) < 1e-10

    def test_support_radius(self):
        # mass outside 3 c(x_s) tf below 1e-3 of total
        g = Grid2D(48, 48, 50.0, 50.0)
        v = make_constant_model(1500.0, g)
        op = DiscreteOperator(v)
        pulse = Pulse.from_hz(6.0, 8.0)  # tight pulse so the ball fits
        arr = SensorArray(np.array([[1225.0, 1225.0]]), theta_width=g.hx)
        u0 = initial_states(op, arr, pulse).ravel()
        xx, zz = g.mesh()
        r = np.hypot(xx.ravel() - 1225.0, zz.ravel() - 1225.0)
        radius = 3 * 1500.0 * pulse.tf
        total = np.sum(np.abs(u0))
        outside = np.sum(np.abs(u0)[r > radius])
        assert outside < 1e-3 * total


class TestPropagation:
    def test_j0_identity(self, grid, pulse):
        op = DiscreteOperator(random_velocity(grid))
        arr = line_array(grid, 2, depth=300.0)
        u0 = initial_states(op, arr, pulse)
        snaps = propagate_snapshots(op, u0, 0.045, 1)
        np.testing.assert_array_equal(snaps.block(0), u0)

    def test_recurrence_matches_spectral(self, grid, pulse):
        op = DiscreteOperator(random_velocity(grid, seed=5))
        arr = line_array(grid, 2, depth=300.0)
        u0 = initial_states(op, arr, pulse, method="spectral")
        tau = pulse.default_tau()
        a = propagate_snapshots(op, u0, tau, 6, method="spectral")
        b = propagate_snapshots(op, u0, tau, 6, method="chebyshev")
        j = 5
        num = np.linalg.norm(a.block(j) - b.block(j))
        assert num / np.linalg.norm(a.block(j)) < 1e-10

    def test_eigenmode_oscillates_exactly(self, grid):
        c0 = 1700.0
        op = DiscreteOperator(make_constant_model(c0, grid))
        w, q = op.eig()
        k = 7
        u0 = q[:, [k]]
        tau = 0.01
        snaps = propagate_snapshots(op, u0, tau, 9)
        for j in range(9):
            expected = math.cos(j * tau * math.sqrt(w[k]))
            assert snaps.block(j)[:, 0] @ q[:, k] == pytest.approx(expected, abs=1e-11)

    def test_nyquist_warning(self, grid, pulse):
        op = DiscreteOperator(make_constant_model(1500.0, grid))
        arr = line_array(grid, 1, depth=300.0)
        u0 = initial_states(op, arr, pulse)
        bad_tau = 1.2 * pulse.nyquist_tau
        with pytest.warns(NyquistViolation):
            propagate_snapshots(op, u0, bad_tau, 2, omega_ess=pulse.omega_ess)
        with pytest.raises(NyquistViolation):
            propagate_snapshots(
                op, u0, bad_tau, 2, omega_ess=pulse.omega_ess, strict_nyquist=True
            )


class TestDataset:
    def test_gram_structure(self, grid, pulse):
        v = make_camembert_model(Grid2D(19, 24, 100.0, 100.0))
        arr = line_array(v.grid, 4, depth=200.0)
        ds = synthesize_dataset(v, arr, pulse, pulse.default_tau(), 4)
        w = np.linalg.eigvalsh(ds.d[0])
        assert w.min() > -1e-12 * abs(w.max())  # D_0 positive semidefinite
        assert np.all(np.diag(ds.d[0]) > 0)

    def test_symmetry_before_symmetrization(self, grid, pulse):
        v = random_velocity(grid, seed=6)
        op = DiscreteOperator(v)
        arr = line_array(grid, 3, depth=300.0)
        u0 = initial_states(op, arr, pulse)
        tau = pulse.default_tau()
        snaps = propagate_snapshots(op, u0, tau, 5)
        for j in range(5):
            raw = grid.quad_weight * (u0.T @ snaps.block(j))
            assert np.linalg.norm(raw - raw.T) / np.linalg.norm(raw) < 1e-10

    def test_snapshot_cosine_law(self, grid, pulse):
        # <u_i, u_j> = (D_{i+j} + D_{|i-j|}) / 2 on the spectral path
        v = random_velocity(grid, seed=7)
        arr = line_array(grid, 2, depth=300.0)
        tau = pulse.default_tau()
        n = 4
        ds = synthesize_dataset(v, arr, pulse, tau, n)
        op = DiscreteOperator(v)
        u0 = initial_states(op, arr, pulse)
        snaps = propagate_snapshots(op, u0, tau, n)
        for i in range(n):
            for j in range(n):
                direct = grid.quad_weight * (snaps.block(i).T @ snaps.block(j))
                paired = 0.5 * (ds.d[i + j] + ds.d[abs(i - j)])
                assert np.linalg.norm(direct - paired) <= 1e-10 * np.linalg.norm(paired)

    def test_entry_bound_by_d0(self, grid, pulse):
        # Cauchy-Schwarz: |D_j entries| bounded by max diagonal of D_0
        v = random_velocity(grid, seed=8)
        arr = line_array(grid, 3, depth=300.0)
        ds = synthesize_dataset(v, arr, pulse, pulse.default_tau(), 5)
        bound = np.max(np.diag(ds.d[0]))
        for j in range(ds.n_samples):
            assert np.max(np.abs(ds.d[j])) <= bound * (1 + 1e-12)

    def test_trace_energy_single_sensor(self, grid, pulse):
        # trace(D_j) equals the spectral sum of cos-weighted projections
        v = random_velocity(grid, seed=9)
        op = DiscreteOperator(v)
        arr = line_array(grid, 1, depth=300.0)
        tau = pulse.default_tau()
        ds = synthesize_dataset(v, arr, pulse, tau, 3)
        w, q = op.eig()
        u0 = initial_states(op, arr, pulse).ravel()
        proj = (q.T @ u0) ** 2 * grid.quad_weight
        for j in range(5):
            expected = np.sum(proj * np.cos(j * tau * np.sqrt(np.maximum(w, 0.0))))
            assert np.trace(ds.d[j]) == pytest.approx(expected, rel=1e-10)

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            DataSet(np.zeros((4, 2, 2)), np.zeros((4, 2, 2)), 0.05, 2, 2)


@pytest.fixture(scope="module")
def setup():
    g = Grid2D(30, 30, 2000 / 31, 2000 / 31)
    v = make_camembert_model(g, center=(1000.0, 1000.0), radius=500.0)
    pulse = Pulse.from_hz(6.0, 4.0)
    arr = line_array(g, 3, depth=180.0)
    tau = pulse.default_tau()
    n = 5
    dt = tau / 50
    rec = synthesize_measurements(v, arr, pulse, 1.3 * (2 * n - 2) * tau, dt)
    return g, v, pulse, arr, tau, n, rec


class TestTimeDomain:
    def test_cfl_violation(self, grid, pulse):
        v = make_constant_model(3000.0, grid)
        with pytest.raises(CflViolation):
            synthesize_measurements(v, line_array(grid, 1, depth=300.0), pulse, 0.1, 1.0)

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
        ds_time = symmetrize_and_sample(rec, arr, v, tau, n)
        ds_spec = synthesize_dataset(v, arr, pulse, tau, n, method="spectral")
        for field in ("d", "ddot"):
            a = getattr(ds_time, field)
            b = getattr(ds_spec, field)
            err = np.sqrt(np.sum((a - b) ** 2)) / np.sqrt(np.sum(b**2))
            assert err < 1e-3

    def test_insufficient_record(self, setup):
        g, v, pulse, arr, tau, n, rec = setup
        with pytest.raises(InsufficientRecordLength):
            symmetrize_and_sample(rec, arr, v, tau, 4 * n)


class TestSymmetrizeAndSample:
    def test_even_trace_fixed_point(self):
        # an even recorded trace comes back shape-unchanged, scaled by velocities
        g = Grid2D(10, 10, 100.0, 100.0)
        v = make_constant_model(2000.0, g)
        arr = SensorArray(np.array([[500.0, 500.0]]), theta_width=100.0)
        dt, k0, nt = 0.01, 40, 121
        times = -k0 * dt + dt * np.arange(nt)
        trace = np.cos(2 * math.pi * 5.0 * times)  # even in t
        rec = TraceRecord(-k0 * dt, dt, trace.reshape(-1, 1, 1))
        ds = symmetrize_and_sample(rec, arr, v, tau=5 * dt, n=3, taper_fraction=0.0)
        expected = 2.0 * np.cos(2 * math.pi * 5.0 * 5 * dt * np.arange(5)) / 2000.0**2
        np.testing.assert_allclose(ds.d[:, 0, 0], expected, atol=1e-12)

    def test_fourier_derivative_of_cosine(self):
        # periodic band-limited cosine differentiates exactly
        omega = 2 * math.pi * 4.0
        dt = 1 / 256.0
        npos = 129  # even extension length 256, exactly 4 Hz periodic
        t = dt * np.arange(npos)
        series = np.cos(omega * t)
        dd = second_derivative_fourier(series, dt, taper_fraction=0.0)
        np.testing.assert_allclose(dd, -(omega**2) * series, rtol=1e-8, atol=1e-8)


def test_serialized_dataset_is_symmetric_invariant(grid, pulse):
    v = random_velocity(grid, seed=11)
    arr = line_array(grid, 3, depth=250.0)
    ds = synthesize_dataset(v, arr, pulse, pulse.default_tau(), 4)
    for j in range(ds.n_samples):
        np.testing.assert_array_equal(ds.d[j], ds.d[j].T)
        np.testing.assert_array_equal(ds.ddot[j], ds.ddot[j].T)
