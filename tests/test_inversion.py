import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import svdvals

from waverom.errors import ResidualShorterThanN, SingularSystem
from waverom.forward import Pulse, line_array
from waverom.inversion import (
    GnConfig,
    LayerSchedule,
    gn_step,
    jacobian,
    line_search,
    run_inversion,
    tikhonov_mu,
)
from waverom.model import GaussianBump, Grid2D, Parametrization, evaluate_velocity, make_constant_model
from waverom.objective import Acquisition
from waverom.rom import build_rom


def svd(jac):
    """The thin SVD triple gn_step takes."""
    return scipy.linalg.svd(jac, full_matrices=False)


class TestJacobian:
    def test_quadratic_toy(self):
        fn = lambda eta: np.array([eta[0] ** 2, eta[1]])
        jac = jacobian(fn, np.array([1.0, 1.0]), fd_step=1e-6)
        np.testing.assert_allclose(jac, [[2.0, 0.0], [0.0, 1.0]], atol=5e-6)

    def test_directional_derivative(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 3))

        def fn(eta):
            return a @ eta + 0.1 * np.sin(eta).sum() * np.ones(7)

        eta = rng.standard_normal(3)
        jac = jacobian(fn, eta, fd_step=1e-7)
        w = rng.standard_normal(3)
        delta = 1e-7
        fd = (fn(eta + delta * w) - fn(eta)) / delta
        assert np.linalg.norm(jac @ w - fd) < 1e-5

    def test_residual_shorter_than_n(self):
        fn = lambda eta: np.array([eta.sum()])
        with pytest.raises(ResidualShorterThanN):
            jacobian(fn, np.zeros(3), fd_step=1e-6)

    def test_rank_deficiency_warns(self):
        from waverom.errors import JacobianRankWarning

        a = np.ones((6, 3))  # all columns identical
        fn = lambda eta: a @ eta
        jac = jacobian(fn, np.zeros(3), fd_step=1e-6)
        with pytest.warns(JacobianRankWarning):
            gn_step(svd(jac), np.ones(6), 1.0)

    def test_threaded_matches_serial(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((9, 4))
        fn = lambda eta: a @ eta + eta @ eta * np.ones(9)
        eta = rng.standard_normal(4)
        j1 = jacobian(fn, eta, fd_step=1e-6, threads=1)
        j4 = jacobian(fn, eta, fd_step=1e-6, threads=4)
        np.testing.assert_array_equal(j1, j4)


class TestTikhonovMu:
    def test_identity(self):
        assert tikhonov_mu(svdvals(np.eye(5)), 0.3) == pytest.approx(1.0)

    def test_diagonal_hand_case(self):
        jac = np.diag([4.0, 3.0, 2.0, 1.0])
        assert tikhonov_mu(svdvals(jac), 0.3) == pytest.approx(16.0)  # floor(1.2) = 1 -> sigma_1

    def test_gamma_ordering(self):
        # smaller gamma -> smaller index -> larger sigma -> more regularization
        rng = np.random.default_rng(2)
        jac = rng.standard_normal((40, 10))
        assert tikhonov_mu(svdvals(jac), 0.25) >= tikhonov_mu(svdvals(jac), 0.39)

    def test_floor_zero_maps_to_largest(self):
        # floor(gamma N) = 0 falls back to sigma_1: maximal regularization
        jac = np.diag([5.0, 1.0, 0.5])
        assert tikhonov_mu(svdvals(jac), 0.21) == pytest.approx(25.0)

    def test_matches_independent_svd(self):
        rng = np.random.default_rng(3)
        jac = rng.standard_normal((30, 8))
        gamma = 0.3
        sigma = np.linalg.svd(jac, compute_uv=False)
        idx = max(int(np.floor(gamma * 8)), 1)
        assert tikhonov_mu(svdvals(jac), gamma) == pytest.approx(sigma[idx - 1] ** 2, rel=1e-13)


class TestGnStep:
    def test_zero_residual(self):
        d = gn_step(svd(np.eye(3)), np.zeros(3), 1.0)
        np.testing.assert_allclose(d, 0.0, atol=1e-14)

    def test_hand_system(self):
        d = gn_step(svd(np.eye(2)), np.array([1.0, 2.0]), 1.0)
        np.testing.assert_allclose(d, [-0.5, -1.0], rtol=1e-12)

    def test_large_mu_gradient_limit(self):
        rng = np.random.default_rng(4)
        jac = rng.standard_normal((6, 3))
        r = rng.standard_normal(6)
        mu = 1e8
        d = gn_step(svd(jac), r, mu)
        np.testing.assert_allclose(d, -(jac.T @ r) / mu, rtol=1e-6)

    def test_singular_at_zero_mu(self):
        jac = np.zeros((4, 2))
        jac[:, 0] = 1.0  # rank 1
        with pytest.raises(SingularSystem):
            gn_step(svd(jac), np.ones(4), 0.0)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(5)
        jac = rng.standard_normal((8, 4))
        r = rng.standard_normal(8)
        mu = 0.37
        d = gn_step(svd(jac), r, mu)
        expected = -np.linalg.solve(jac.T @ jac + mu * np.eye(4), jac.T @ r)
        np.testing.assert_allclose(d, expected, rtol=1e-10)


class TestLineSearch:
    def test_quadratic_minimum(self):
        eta = np.zeros(1)
        d = np.ones(1)
        f = lambda e: float((e[0] - 1.0) ** 2)
        alpha = line_search(eta, d, f, alpha_max=3.0)
        assert alpha == pytest.approx(1.0, rel=0.05)

    def test_increasing_rejected(self):
        f = lambda e: float(e[0])
        assert line_search(np.zeros(1), np.ones(1), f, 3.0) == 0.0

    def test_infeasible_prefix_masked(self):
        def f(e):
            if e[0] > 1.0:
                return float("inf")
            return float((e[0] - 0.8) ** 2)

        alpha = line_search(np.zeros(1), np.ones(1), f, 3.0)
        assert 0.0 < alpha <= 1.0
        assert alpha == pytest.approx(0.8, rel=0.1)


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            LayerSchedule((4, 2), 3, 1)  # decreasing k
        with pytest.raises(ValueError):
            LayerSchedule((2, 4), 0, 1)  # no iterations
        with pytest.raises(ValueError):
            LayerSchedule((2, 4), 3, 3)  # d > k_1

    def test_uniform(self):
        s = LayerSchedule.uniform(8, 4, 3)
        assert s.k == (2, 4, 6, 8)
        assert s.total_iterations == 12

    def test_gn_config_gamma_interval(self):
        with pytest.raises(ValueError):
            GnConfig(gamma=0.5)
        with pytest.raises(ValueError):
            GnConfig(gamma=0.2)
        GnConfig(gamma=0.21)


@pytest.fixture(scope="module")
def toy_problem():
    g = Grid2D(16, 16, 1200 / 17, 1200 / 17)
    bg = make_constant_model(2000.0, g)
    pulse = Pulse.from_hz(6.0, 4.0)
    arr = line_array(g, 3, depth=150.0)
    acq = Acquisition(arr, pulse, pulse.default_tau(), 4, method="spectral")
    bumps = (
        GaussianBump((400.0, 500.0), 180.0),
        GaussianBump((800.0, 500.0), 180.0),
        GaussianBump((600.0, 850.0), 180.0),
    )
    param = Parametrization(bg, bumps)
    eta_star = np.array([90.0, -70.0, 120.0])
    v_true = evaluate_velocity(param, eta=eta_star)
    ref_rom = build_rom(acq.dataset(v_true))
    return param, eta_star, v_true, ref_rom, acq


class TestRunInversion:
    def test_identifiable_toy_recovery(self, toy_problem):
        param, eta_star, v_true, ref_rom, acq = toy_problem
        sched = LayerSchedule((acq.n,), q=8, d=acq.n)
        cfg = GnConfig(regularization="off")
        est, state = run_inversion(ref_rom, param, sched, cfg, acq, mode="rom")
        assert np.linalg.norm(state.eta - eta_star) / np.linalg.norm(eta_star) < 1e-4
        assert state.i == 8

    def test_deterministic(self, toy_problem):
        param, eta_star, v_true, ref_rom, acq = toy_problem
        sched = LayerSchedule((2, acq.n), q=2, d=2)
        cfg = GnConfig(gamma=0.3)
        _, s1 = run_inversion(ref_rom, param, sched, cfg, acq, mode="rom")
        _, s2 = run_inversion(ref_rom, param, sched, cfg, acq, mode="rom")
        np.testing.assert_array_equal(s1.eta, s2.eta)
        assert s1.objective_trace == s2.objective_trace
        assert s1.mu_trace == s2.mu_trace
        assert s1.alpha_trace == s2.alpha_trace

    def test_accepted_step_monotonicity(self, toy_problem):
        param, eta_star, v_true, ref_rom, acq = toy_problem
        sched = LayerSchedule((2, acq.n), q=3, d=2)
        _, state = run_inversion(ref_rom, param, sched, GnConfig(), acq, mode="rom")
        for f_new, f_old in state.penalized_trace:
            assert f_new <= f_old * (1 + 1e-12)
        # the plain objective is also non-increasing within each layer
        for i in range(1, state.i):
            if state.k_trace[i] == state.k_trace[i - 1]:
                assert state.objective_trace[i] <= state.objective_trace[i - 1] * (1 + 1e-12)

    def test_fwi_truncation_parity(self, toy_problem):
        # fwi_truncate limits each layer to the 2k-1 samples its ROM
        # counterpart would use; the full run uses all samples throughout
        param, eta_star, v_true, ref_rom, acq = toy_problem
        ref_ds = acq.dataset(v_true)
        sched = LayerSchedule((2, acq.n), q=1, d=2)
        _, full = run_inversion(
            ref_ds, param, sched, GnConfig(regularization="off"), acq, mode="fwi"
        )
        _, trunc = run_inversion(
            ref_ds, param, sched, GnConfig(regularization="off", fwi_truncate=True),
            acq, mode="fwi",
        )
        assert full.i == trunc.i == 2
        assert not np.array_equal(full.eta, trunc.eta)  # different data windows

    def test_rejected_step_keeps_eta(self, toy_problem):
        param, eta_star, v_true, ref_rom, acq = toy_problem
        # shift the background so eta=0 is already optimal: steps reject
        sched = LayerSchedule((acq.n,), q=2, d=acq.n)
        cfg = GnConfig(regularization="off")
        bg_star = evaluate_velocity(param, eta=eta_star)
        param0 = Parametrization(bg_star, param.basis)
        est, state = run_inversion(ref_rom, param0, sched, cfg, acq, mode="rom")
        np.testing.assert_array_equal(state.eta, np.zeros(3))
        assert all(a == 0.0 for a in state.alpha_trace)

    def test_fwi_mode_runs_and_recovers(self, toy_problem):
        param, eta_star, v_true, ref_rom, acq = toy_problem
        ref_ds = acq.dataset(v_true)
        sched = LayerSchedule((acq.n,), q=8, d=acq.n)
        cfg = GnConfig(regularization="off")
        est, state = run_inversion(ref_ds, param, sched, cfg, acq, mode="fwi")
        assert np.linalg.norm(state.eta - eta_star) / np.linalg.norm(eta_star) < 1e-3

    def test_mode_reference_type_checked(self, toy_problem):
        param, eta_star, v_true, ref_rom, acq = toy_problem
        sched = LayerSchedule((acq.n,), q=1, d=acq.n)
        with pytest.raises(TypeError):
            run_inversion(ref_rom, param, sched, GnConfig(), acq, mode="fwi")

    def test_amplitude_scale_invariance_at_mu_zero(self, toy_problem):
        # phi_l -> s phi_l with eta -> eta/s leaves v(x; eta) unchanged
        param, eta_star, *_ = toy_problem
        s = 40.0
        scaled = Parametrization(
            param.background,
            tuple(GaussianBump(b.center, b.width, s * b.amplitude) for b in param.basis),
        )
        v1 = evaluate_velocity(param, eta=eta_star)
        v2 = evaluate_velocity(scaled, eta=eta_star / s)
        np.testing.assert_allclose(v1.c, v2.c, rtol=1e-13)
