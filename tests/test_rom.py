import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waverom.errors import BandExceedsMatrix, IndexOutOfRange, MassNotSPD
from waverom.forward import (
    DataSet,
    DiscreteOperator,
    FlatPulse,
    Pulse,
    SensorArray,
    initial_states,
    line_array,
    propagate_snapshots,
    synthesize_dataset,
)
from waverom.model import Grid2D, VelocityModel, make_camembert_model
from waverom.rom import (
    assemble_mass,
    assemble_stiffness,
    block_cholesky,
    build_rom,
    rest_dk,
    rest_dk_length,
    restrict,
    triu_vec,
)


def synthetic_dataset(seed=0, m=2, n=4, tau=0.08):
    """Exact data from a synthetic spectral measure (no PDE involved)."""
    rng = np.random.default_rng(seed)
    k = 60
    lam = np.sort(rng.uniform(1.0, 900.0, k))
    weights = rng.standard_normal((k, m))
    d = np.empty((2 * n - 1, m, m))
    ddot = np.empty_like(d)
    for j in range(2 * n - 1):
        cosj = np.cos(j * tau * np.sqrt(lam))
        dj = weights.T @ (cosj[:, None] * weights)
        ddj = -weights.T @ ((lam * cosj)[:, None] * weights)
        d[j] = 0.5 * (dj + dj.T)
        ddot[j] = 0.5 * (ddj + ddj.T)
    return DataSet(d, ddot, tau, m, n)


def decorrelated_dataset(n=5):
    """Wave data with nearly orthogonal snapshots: sensors far apart and a
    long sampling interval make cond(M) ~ 10, so tail perturbations keep
    the mass matrix SPD."""
    g = Grid2D(16, 16, 100.0, 100.0)
    rng = np.random.default_rng(11)
    v = VelocityModel(g, 1500.0 * (1.0 + 0.5 * rng.random((16, 16))))
    op = DiscreteOperator(v)
    lam_max = op.eig()[0][-1]
    arr = SensorArray(
        np.array([[300.0, 300.0], [1300.0, 500.0], [800.0, 1400.0]]), theta_width=100.0
    )
    tau = 5.0 * np.pi / np.sqrt(lam_max) * 1.0173
    return synthesize_dataset(v, arr, FlatPulse(), tau, n)


@pytest.fixture(scope="module")
def wave_setup():
    g = Grid2D(24, 30, 2000 / 25, 2500 / 31)
    v = make_camembert_model(g)
    pulse = Pulse.from_hz(6.0, 4.0)
    arr = line_array(g, 4, depth=150.0)
    tau = pulse.default_tau()
    n = 6
    ds = synthesize_dataset(v, arr, pulse, tau, n, method="spectral")
    op = DiscreteOperator(v)
    u0 = initial_states(op, arr, pulse)
    snaps = propagate_snapshots(op, u0, tau, n)
    return g, v, op, ds, snaps


def random_spd(rng, dim):
    """SPD matrix with every eigenvalue of every principal submatrix >= dim."""
    a = rng.standard_normal((dim, dim))
    return a @ a.T + dim * np.eye(dim)


class TestAssembly:
    def test_block_00_is_d0(self):
        ds = synthetic_dataset()
        mass = assemble_mass(ds)
        np.testing.assert_array_equal(mass[: ds.m, : ds.m], ds.d[0])
        stiff = assemble_stiffness(ds)
        np.testing.assert_array_equal(stiff[: ds.m, : ds.m], -ds.ddot[0])

    def test_block_symmetry(self):
        ds = synthetic_dataset(seed=1)
        mass = assemble_mass(ds)
        m = ds.m
        for i in range(ds.n):
            for j in range(ds.n):
                bij = mass[i * m : (i + 1) * m, j * m : (j + 1) * m]
                bji = mass[j * m : (j + 1) * m, i * m : (i + 1) * m]
                np.testing.assert_array_equal(bij, bji.T)

    def test_mass_equals_snapshot_gram(self, wave_setup):
        g, v, op, ds, snaps = wave_setup
        mass = assemble_mass(ds)
        gram = g.quad_weight * (snaps.u.T @ snaps.u)
        assert np.linalg.norm(mass - gram) / np.linalg.norm(gram) < 1e-10

    def test_stiffness_equals_operator_gram(self, wave_setup):
        g, v, op, ds, snaps = wave_setup
        stiff = assemble_stiffness(ds)
        direct = g.quad_weight * (snaps.u.T @ op.apply(snaps.u))
        assert np.linalg.norm(stiff - direct) / np.linalg.norm(direct) < 1e-10

    @given(m=st.integers(1, 4), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_block_formula(self, m, n, seed):
        rng = np.random.default_rng(seed)
        d = rng.standard_normal((2 * n - 1, m, m))
        ddot = rng.standard_normal((2 * n - 1, m, m))
        ds = DataSet(d, ddot, 1.0, m, n)
        mass = np.empty((n * m, n * m))
        stiff = np.empty_like(mass)
        for i in range(n):
            for j in range(n):
                blk = np.s_[i * m : (i + 1) * m, j * m : (j + 1) * m]
                mass[blk] = 0.5 * (d[i + j] + d[abs(i - j)])
                stiff[blk] = -0.5 * (ddot[i + j] + ddot[abs(i - j)])
        np.testing.assert_array_equal(assemble_mass(ds), mass)
        np.testing.assert_array_equal(assemble_stiffness(ds), stiff)

    def test_rayleigh_trace_bound(self, wave_setup):
        g, v, op, ds, _ = wave_setup
        lam_min = op.eig()[0][0]
        mass = assemble_mass(ds)
        stiff = assemble_stiffness(ds)
        assert np.trace(stiff) >= lam_min * np.trace(mass)


class TestBlockCholesky:
    def test_identity(self):
        r = block_cholesky(np.eye(6), 2)
        np.testing.assert_array_equal(r, np.eye(6))

    def test_hand_scalar_case(self):
        mass = np.array([[4.0, 2.0], [2.0, 5.0]])
        r = block_cholesky(mass, 1)
        np.testing.assert_allclose(r, [[2.0, 1.0], [0.0, 2.0]])

    def test_factorization_contract(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((12, 12))
        mass = a @ a.T + 12 * np.eye(12)
        r = block_cholesky(mass, 3)
        assert np.linalg.norm(r.T @ r - mass) / np.linalg.norm(mass) < 1e-12
        # strictly upper triangular (diagonal blocks are themselves upper)
        assert np.allclose(r, np.triu(r))
        assert np.all(np.diag(r) > 0)

    def test_matches_lapack_cholesky(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((8, 8))
        mass = a @ a.T + 8 * np.eye(8)
        r = block_cholesky(mass, 2)
        np.testing.assert_allclose(r, np.linalg.cholesky(mass).T, rtol=1e-12, atol=1e-12)

    def test_not_spd_reports_block(self):
        mass = np.eye(6)
        mass[4, 4] = -1.0
        with pytest.raises(MassNotSPD) as err:
            block_cholesky(mass, 2)
        assert err.value.block_index == 2

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            block_cholesky(np.eye(6), 4)

    @given(m=st.integers(1, 4), blocks=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_spd_factor(self, m, blocks, seed):
        mass = random_spd(np.random.default_rng(seed), m * blocks)
        r = block_cholesky(mass, m)
        assert np.linalg.norm(r.T @ r - mass) <= 1e-12 * np.linalg.norm(mass)
        np.testing.assert_array_equal(r, np.triu(r))
        assert np.all(np.diag(r) > 0)
        np.testing.assert_allclose(r, np.linalg.cholesky(mass).T, rtol=1e-12, atol=1e-12)

    @given(
        m=st.integers(1, 4),
        blocks=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_not_spd_block_matches_eigvalsh_oracle(self, m, blocks, seed, data):
        # a rank-one downdate on rows p.. drives the leading principal
        # submatrix of order p + 1 indefinite and leaves the smaller ones
        rng = np.random.default_rng(seed)
        dim = m * blocks
        chosen = data.draw(st.integers(0, blocks - 1))
        p = chosen * m + data.draw(st.integers(0, m - 1))
        mass = random_spd(rng, dim)
        v = np.zeros(dim)
        v[p:] = rng.standard_normal(dim - p)
        v[p] = 1.0
        excess = data.draw(st.floats(0.1, 10.0)) * dim
        mass -= (mass[p, p] + excess) * np.outer(v, v)
        leading_min_eig = [
            np.linalg.eigvalsh(mass[: (k + 1) * m, : (k + 1) * m])[0] for k in range(blocks)
        ]
        first_not_pd = next(k for k, lam in enumerate(leading_min_eig) if lam <= 0)
        assert first_not_pd == chosen
        with pytest.raises(MassNotSPD) as err:
            block_cholesky(mass, m)
        assert err.value.block_index == first_not_pd


class TestBuildRom:
    def test_single_mode_stub(self):
        # 1-DOF medium: D_j = w^2 cos(j tau sqrt(lam)), ROM recovers lam
        lam, weight, tau, n = 123.4, 0.7, 0.05, 1
        d = np.array([[[weight**2 * np.cos(j * tau * np.sqrt(lam))]] for j in range(1)])
        ddot = np.array([[[-lam * weight**2 * np.cos(j * tau * np.sqrt(lam))]] for j in range(1)])
        rom = build_rom(DataSet(d, ddot, tau, 1, n))
        assert rom.a_rom.shape == (1, 1)
        assert rom.a_rom[0, 0] == pytest.approx(lam, rel=1e-12)

    def test_full_span_matches_operator_spectrum(self):
        # snapshots span the whole 16-dim space: ROM is a conjugation of A
        g = Grid2D(4, 4, 50.0, 50.0)
        rng = np.random.default_rng(7)
        v = VelocityModel(g, 1500.0 * (1.0 + 0.3 * rng.random((4, 4))))
        pos = np.column_stack([g.xs(), g.zs()[[0, 2, 1, 3]]])
        arr = SensorArray(pos, theta_width=40.0)
        op = DiscreteOperator(v)
        w_true, _ = op.eig()
        tau = 0.8 * np.pi / np.sqrt(w_true[-1])
        ds = synthesize_dataset(v, arr, FlatPulse(), tau, 4)
        rom = build_rom(ds)
        w_rom = np.sort(np.linalg.eigvalsh(rom.a_rom))
        assert np.max(np.abs(w_rom - w_true) / w_true) < 1e-8

    def test_rt_r_reproduces_mass(self, wave_setup):
        _, _, _, ds, _ = wave_setup
        rom = build_rom(ds)
        mass = assemble_mass(ds)
        assert np.linalg.norm(rom.r.T @ rom.r - mass) / np.linalg.norm(mass) < 1e-12

    def test_symmetric_and_contained_spectrum(self, wave_setup):
        _, _, op, ds, _ = wave_setup
        rom = build_rom(ds)
        np.testing.assert_array_equal(rom.a_rom, rom.a_rom.T)
        w_op, _ = op.eig()
        w_rom = np.linalg.eigvalsh(rom.a_rom)
        span = w_op[-1] - w_op[0]
        assert w_rom[0] >= w_op[0] - 1e-10 * span
        assert w_rom[-1] <= w_op[-1] + 1e-10 * span

    def test_galerkin_consistency(self, wave_setup):
        # A_rom equals <V, A V> with V the orthonormalized snapshots
        g, v, op, ds, snaps = wave_setup
        rom = build_rom(ds)
        vbasis = np.linalg.solve(rom.r.T, (np.sqrt(g.quad_weight) * snaps.u).T).T
        direct = g.quad_weight * (
            (vbasis / np.sqrt(g.quad_weight)).T @ op.apply(vbasis / np.sqrt(g.quad_weight))
        )
        assert np.linalg.norm(direct - rom.a_rom) / np.linalg.norm(rom.a_rom) < 1e-10

    def test_data_interpolation(self):
        # resolved-measure regime: ROM time response reproduces the samples
        g = Grid2D(30, 30, 60.0, 60.0)
        v = VelocityModel(g, np.full((30, 30), 1500.0))
        pulse = Pulse.from_hz(14.0, 0.4)
        arr = line_array(g, 2, depth=200.0)
        tau = pulse.default_tau()
        n = 4
        ds = synthesize_dataset(v, arr, pulse, tau, n, method="spectral")
        rom = build_rom(ds)
        w, q = np.linalg.eigh(rom.a_rom)
        u0t = rom.initial_block()
        for j in range(2 * n - 1):
            cosj = q @ (np.cos(j * tau * np.sqrt(np.maximum(w, 0.0)))[:, None] * (q.T @ u0t))
            dj = u0t.T @ cosj
            assert np.linalg.norm(dj - ds.d[j]) / np.linalg.norm(ds.d[j]) < 1e-8


class TestRestrict:
    def test_full_and_leading(self):
        ds = synthetic_dataset(seed=2)
        rom = build_rom(ds)
        np.testing.assert_array_equal(restrict(rom, ds.n), rom.a_rom)
        np.testing.assert_array_equal(restrict(rom, 1), rom.a_rom[: ds.m, : ds.m])

    def test_out_of_range(self):
        rom = build_rom(synthetic_dataset(seed=3))
        with pytest.raises(IndexOutOfRange):
            restrict(rom, 0)
        with pytest.raises(IndexOutOfRange):
            restrict(rom, rom.n + 1)

    def test_truncation_equivalence(self):
        # restriction of the full ROM equals the ROM of the first 2k-1
        # samples: the data-causality theorem behind layer stripping
        ds = synthetic_dataset(seed=4, m=2, n=5)
        rom = build_rom(ds)
        for k in (1, 2, 3, 4):
            small = build_rom(ds.truncate(k))
            a = restrict(rom, k)
            assert np.linalg.norm(small.a_rom - a) <= 1e-10 * np.linalg.norm(a)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_causality_under_tail_perturbation(self, k):
        # samples j >= 2k-1 cannot affect the leading km x km block; needs
        # a well-conditioned mass matrix for the perturbed set to stay SPD
        ds = decorrelated_dataset()
        rom = build_rom(ds)
        d = np.array(ds.d)
        ddot = np.array(ds.ddot)
        d[2 * k - 1 :] *= 1.1
        ddot[2 * k - 1 :] *= 1.1
        rom2 = build_rom(DataSet(d, ddot, ds.tau, ds.m, ds.n))
        a, b = restrict(rom, k), restrict(rom2, k)
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(a)


class TestBandExtraction:
    def test_rest_dk_full_band_is_triu(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 6))
        x = x + x.T
        np.testing.assert_array_equal(rest_dk(x, 3, 2), triu_vec(x))

    def test_identity_pattern(self):
        x = np.eye(6)
        vec = rest_dk(x, 1, 2)
        assert vec.sum() == 6.0
        assert np.count_nonzero(vec) == 6

    def test_hand_count_m3_k2_d1(self):
        x = np.arange(36, dtype=float).reshape(6, 6)
        x = x + x.T
        assert rest_dk(x, 1, 3).size == 15  # 3 * (6 - 1)

    def test_row_major_order(self):
        x = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
        np.testing.assert_array_equal(triu_vec(x), [1, 2, 3, 4, 5, 6])
        np.testing.assert_array_equal(rest_dk(x, 1, 1), [1, 4, 6])
        np.testing.assert_array_equal(rest_dk(x, 2, 1), [1, 2, 4, 5, 6])

    def test_band_exceeds(self):
        with pytest.raises(BandExceedsMatrix):
            rest_dk(np.eye(4), 3, 2)

    def test_triu_matches_index_enumeration(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 4))
        x = x + x.T
        expected = [x[i, j] for i in range(4) for j in range(i, 4)]
        np.testing.assert_array_equal(triu_vec(x), expected)

    @given(
        m=st.integers(1, 3),
        k=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_length_formula(self, m, k, data):
        d = data.draw(st.integers(1, k))
        dim = k * m
        x = np.zeros((dim, dim))
        vec = rest_dk(x, d, m)
        assert vec.size == rest_dk_length(d, k, m)
        assert vec.size == d * m * (k * m - (d * m - 1) / 2)
