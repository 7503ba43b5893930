import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import svdvals

from waverom import inversion, profile
from waverom.errors import JacobianRankWarning, MassNotSPD, ResidualShorterThanN, SingularSystem
from waverom.forward import Pulse, line_array
from waverom.inversion import (
    GnConfig,
    LayerSchedule,
    gn_step,
    jacobian,
    line_search,
    qr_svd,
    run_inversion,
    tikhonov_mu,
)
from waverom.model import GaussianBump, Grid2D, Parametrization, evaluate_velocity, make_constant_model
from waverom.objective import Acquisition
from waverom.rom import build_rom


def fd_jacobian(fn, eta, fd_step):
    """`jacobian` given G(eta) and a new Fortran-ordered (M, N) array."""
    base = fn(eta)
    return jacobian(fn, eta, fd_step, base, np.empty((base.size, eta.size), order="F"))


def factor(jac, r):
    """gn_step's (SVD of R, Q^T r) for a copy of jac."""
    return qr_svd(np.array(jac, dtype=float, order="F"), np.asarray(r, dtype=float))


class TestJacobian:
    def test_quadratic_toy(self):
        fn = lambda eta: np.array([eta[0] ** 2, eta[1]])
        jac = fd_jacobian(fn, np.array([1.0, 1.0]), fd_step=1e-6)
        np.testing.assert_allclose(jac, [[2.0, 0.0], [0.0, 1.0]], atol=5e-6)

    def test_directional_derivative(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 3))

        def fn(eta):
            return a @ eta + 0.1 * np.sin(eta).sum() * np.ones(7)

        eta = rng.standard_normal(3)
        jac = fd_jacobian(fn, eta, fd_step=1e-7)
        w = rng.standard_normal(3)
        delta = 1e-7
        fd = (fn(eta + delta * w) - fn(eta)) / delta
        assert np.linalg.norm(jac @ w - fd) < 1e-5

    def test_residual_shorter_than_n(self):
        fn = lambda eta: np.array([eta.sum()])
        with pytest.raises(ResidualShorterThanN):
            fd_jacobian(fn, np.zeros(3), fd_step=1e-6)

    def test_rank_deficiency_warns(self):
        a = np.ones((6, 3))  # all columns identical
        fn = lambda eta: a @ eta
        jac = fd_jacobian(fn, np.zeros(3), fd_step=1e-6)
        with pytest.warns(JacobianRankWarning):
            gn_step(*factor(jac, np.ones(6)), 1.0)

    def test_fortran_order_bitwise_equal_to_column_formula(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((9, 4))
        fn = lambda eta: np.tanh(a @ eta) + eta.sum() ** 2
        eta = np.array([0.3, -2.5, 7.0, 0.0])  # deltas both fd_step and fd_step |eta_l|
        base = fn(eta)
        jac = jacobian(fn, eta, fd_step=1e-2, base=base, out=np.empty((9, 4), order="F"))

        def column(l):
            delta = 1e-2 * max(1.0, abs(eta[l]))
            bumped = eta.copy()
            bumped[l] += delta
            return (fn(bumped) - base) / delta

        expected = np.column_stack([column(l) for l in range(4)])
        assert jac.flags.f_contiguous
        np.testing.assert_array_equal(jac, expected)
        out = np.empty((9, 4), order="F")
        assert jacobian(fn, eta, fd_step=1e-2, base=base, out=out) is out
        np.testing.assert_array_equal(out, expected)

    def test_infeasible_forward_column_falls_back_to_backward(self):
        def walled(lo, hi):
            """A smooth residual, infeasible outside [lo, hi] in eta[1]."""

            def fn(eta):
                if not lo <= eta[1] <= hi:
                    raise MassNotSPD(0, "trial beyond the wall")
                return np.array([eta[0] ** 2, np.exp(eta[1]), eta[0] * eta[1]])

            return fn

        fn = walled(-1.0, 0.5)
        eta = np.array([0.3, 0.5])
        before = profile.counts().get("inversion.fd_backward", 0)
        jac = fd_jacobian(fn, eta, fd_step=1e-2)
        assert profile.counts().get("inversion.fd_backward", 0) - before == 1
        base = fn(eta)
        forward = (fn(eta + [1e-2, 0.0]) - base) / 1e-2
        backward = (base - fn(eta - [0.0, 1e-2])) / 1e-2
        np.testing.assert_array_equal(jac, np.column_stack([forward, backward]))
        with pytest.raises(MassNotSPD):
            fd_jacobian(walled(0.5, 0.5), eta, fd_step=1e-2)


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
        d = gn_step(*factor(np.eye(3), np.zeros(3)), 1.0)
        np.testing.assert_allclose(d, 0.0, atol=1e-14)

    def test_hand_system(self):
        d = gn_step(*factor(np.eye(2), [1.0, 2.0]), 1.0)
        np.testing.assert_allclose(d, [-0.5, -1.0], rtol=1e-12)

    def test_large_mu_gradient_limit(self):
        rng = np.random.default_rng(4)
        jac = rng.standard_normal((6, 3))
        r = rng.standard_normal(6)
        mu = 1e8
        d = gn_step(*factor(jac, r), mu)
        np.testing.assert_allclose(d, -(jac.T @ r) / mu, rtol=1e-6)

    def test_singular_at_zero_mu(self):
        jac = np.zeros((4, 2))
        jac[:, 0] = 1.0  # rank 1
        with pytest.warns(JacobianRankWarning), pytest.raises(SingularSystem):
            gn_step(*factor(jac, np.ones(4)), 0.0)

    def test_rank_cutoff_counts_residual_rows(self):
        # sigma_N lies between eps N sigma_1 and eps M sigma_1: the cutoff
        # uses M, the residual length, not the order N of R
        rng = np.random.default_rng(7)
        m, n = 4000, 4
        u, _ = np.linalg.qr(rng.standard_normal((m, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        jac = (u * [1.0, 1.0, 1.0, 1e-13]) @ v.T
        svd, qtr = factor(jac, rng.standard_normal(m))
        eps = np.finfo(float).eps
        assert eps * n * svd[1][0] < svd[1][-1] < eps * m * svd[1][0]
        with pytest.raises(SingularSystem):
            gn_step(svd, qtr, 0.0)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(5)
        jac = rng.standard_normal((8, 4))
        r = rng.standard_normal(8)
        mu = 0.37
        d = gn_step(*factor(jac, r), mu)
        expected = -np.linalg.solve(jac.T @ jac + mu * np.eye(4), jac.T @ r)
        np.testing.assert_allclose(d, expected, rtol=1e-10)

    @pytest.mark.parametrize("grading", [0.0, 8.0], ids=["random", "graded"])
    def test_qr_route_matches_thin_svd(self, grading):
        # graded: column l scaled by 10^(-grading l / (N - 1)), rows by up
        # to 10^-3, as residual entries and parameter sensitivities differ
        rng = np.random.default_rng(8)
        m, n = 300, 24
        jac = rng.standard_normal((m, n)) * np.logspace(0, -grading, n)
        jac *= np.logspace(0, -3 * (grading > 0), m)[:, None]
        r = rng.standard_normal(m)
        u, sigma, vt = scipy.linalg.svd(jac, full_matrices=False)  # the oracle
        mu = tikhonov_mu(sigma, 0.3)
        expected = -(vt.T @ (sigma / (sigma**2 + mu) * (u.T @ r)))
        svd, qtr = factor(jac, r)
        np.testing.assert_allclose(svd[1], sigma, rtol=1e-12)
        assert tikhonov_mu(svd[1], 0.3) == pytest.approx(mu, rel=1e-12)
        d = gn_step(svd, qtr, tikhonov_mu(svd[1], 0.3))
        assert np.linalg.norm(d - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_one_update_holds_one_jacobian(self):
        # jacobian, factor and direction of one update on a linear residual
        # peak at about the M x N Jacobian itself; the thin-SVD route
        # peaked at about 3x, holding J, its copy and U in the SVD
        rng = np.random.default_rng(9)
        m, n = 4000, 60
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        fn = lambda eta: a @ eta - b
        eta = np.zeros(n)
        base = fn(eta)
        tracemalloc.start()
        try:
            svd, qtr = qr_svd(jacobian(fn, eta, 1e-2, base, np.empty((m, n), order="F")), base)
            d = gn_step(svd, qtr, tikhonov_mu(svd[1], 0.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.shape == (n,)
        assert peak <= 1.3 * m * n * 8


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

    @pytest.mark.parametrize("golden", [inversion.GOLDEN, 0.5], ids=["golden", "midpoint"])
    @pytest.mark.parametrize("level, expected", [
        (lambda a: -1.0, 3.0),
        (lambda a: -1.0 if a in (3.0 * 0.7**2, 3.0 * 0.7**5) else 0.0, 3.0 * 0.7**2),
    ], ids=["plateau", "tied-grid-points"])
    def test_first_alpha_probed_of_least_value_wins(self, monkeypatch, golden, level, expected):
        # at a golden ratio of 0.5 both refinement points are the midpoint,
        # so the first refinement probes one alpha twice
        monkeypatch.setattr(inversion, "GOLDEN", golden)
        probes = []

        def f(e):
            alpha = float(e[0])
            probes.append(alpha)
            return 0.0 if alpha == 0.0 else level(alpha)

        assert line_search(np.zeros(1), np.ones(1), f, 3.0) == expected
        assert (len(set(probes)) < len(probes)) == (golden == 0.5)


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            LayerSchedule((4, 2), 3, 1)  # decreasing k
        with pytest.raises(ValueError):
            LayerSchedule((2, 4), 0, 1)  # no iterations
        with pytest.raises(ValueError):
            LayerSchedule((2, 4), 3, 3)  # d > k_1

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
        est, state = run_inversion(ref_rom, param, sched, cfg, acq)
        assert np.linalg.norm(state.eta - eta_star) / np.linalg.norm(eta_star) < 1e-4
        assert state.i == 8

    def test_deterministic(self, toy_problem):
        param, eta_star, v_true, ref_rom, acq = toy_problem
        sched = LayerSchedule((2, acq.n), q=2, d=2)
        cfg = GnConfig(gamma=0.3)
        _, s1 = run_inversion(ref_rom, param, sched, cfg, acq)
        _, s2 = run_inversion(ref_rom, param, sched, cfg, acq)
        np.testing.assert_array_equal(s1.eta, s2.eta)
        assert s1.objective_trace == s2.objective_trace
        assert s1.mu_trace == s2.mu_trace
        assert s1.alpha_trace == s2.alpha_trace

    def test_accepted_step_monotonicity(self, toy_problem):
        param, eta_star, v_true, ref_rom, acq = toy_problem
        sched = LayerSchedule((2, acq.n), q=3, d=2)
        _, state = run_inversion(ref_rom, param, sched, GnConfig(), acq)
        for f_new, f_old in state.penalized_trace:
            assert f_new <= f_old * (1 + 1e-12)
        # the plain objective is also non-increasing within each layer
        for i in range(1, state.i):
            if state.k_trace[i] == state.k_trace[i - 1]:
                assert state.objective_trace[i] <= state.objective_trace[i - 1] * (1 + 1e-12)

    def test_rejected_step_keeps_eta(self, toy_problem):
        param, eta_star, v_true, ref_rom, acq = toy_problem
        # shift the background so eta=0 is already optimal: steps reject
        sched = LayerSchedule((acq.n,), q=2, d=acq.n)
        cfg = GnConfig(regularization="off")
        bg_star = evaluate_velocity(param, eta=eta_star)
        param0 = Parametrization(bg_star, param.basis)
        est, state = run_inversion(ref_rom, param0, sched, cfg, acq)
        np.testing.assert_array_equal(state.eta, np.zeros(3))
        assert all(a == 0.0 for a in state.alpha_trace)

    def test_fwi_mode_runs_and_recovers(self, toy_problem):
        param, eta_star, v_true, ref_rom, acq = toy_problem
        ref_ds = acq.dataset(v_true)
        sched = LayerSchedule((acq.n,), q=8, d=acq.n)
        cfg = GnConfig(regularization="off")
        est, state = run_inversion(ref_ds, param, sched, cfg, acq)
        assert np.linalg.norm(state.eta - eta_star) / np.linalg.norm(eta_star) < 1e-3

    def test_mode_reference_type_checked(self, toy_problem):
        # only an OperatorRom or a DataSet reference picks a misfit, and
        # either refuses a schedule beyond its n
        param, eta_star, v_true, ref_rom, acq = toy_problem
        ref_ds = acq.dataset(v_true)
        sched = LayerSchedule((acq.n,), q=1, d=acq.n)
        with pytest.raises(TypeError):
            run_inversion(ref_ds.d, param, sched, GnConfig(), acq)
        beyond = LayerSchedule((acq.n + 1,), q=1, d=acq.n)
        for reference in (ref_rom, ref_ds):
            with pytest.raises(ValueError):
                run_inversion(reference, param, beyond, GnConfig(), acq)
