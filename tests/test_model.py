import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waverom.errors import OperatorOverflow
from waverom.model import (
    C_MIN,
    C_TOP,
    SLOPE_DROP,
    GaussianBump,
    Grid2D,
    Parametrization,
    VelocityModel,
    evaluate_velocity,
    make_bump_lattice,
    make_camembert_model,
    make_constant_model,
    make_two_layer_model,
)

from oracles import velocity_at


@pytest.fixture
def grid():
    return Grid2D(19, 24, 2000 / 20, 2500 / 25)


@pytest.fixture
def small_param(grid):
    bg = make_constant_model(2000.0, grid)
    bumps = (
        GaussianBump((600.0, 800.0), 200.0),
        GaussianBump((1400.0, 1500.0), 200.0),
    )
    return Parametrization(bg, bumps)


class TestGrid:
    def test_domain_extent(self, grid):
        lx, lz = grid.extent
        assert lx == pytest.approx(2000.0)
        assert lz == pytest.approx(2500.0)
        assert grid.n_dof == 19 * 24

    def test_nodes_strictly_interior(self, grid):
        assert grid.xs()[0] == pytest.approx(grid.hx)
        assert grid.xs()[-1] == pytest.approx(grid.extent[0] - grid.hx)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            Grid2D(2, 5, 10.0, 10.0)
        with pytest.raises(ValueError):
            Grid2D(5, 5, -1.0, 10.0)


class TestVelocityModel:
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_rejects_nonpositive_or_nonfinite(self, grid, value):
        c = np.full((grid.nx, grid.nz), 1500.0)
        c[3, 4] = value
        with pytest.raises(ValueError, match="velocity values must be positive and finite"):
            VelocityModel(grid, c)

    def test_immutable(self, grid):
        v = make_constant_model(1500.0, grid)
        with pytest.raises(ValueError):
            v.c[0, 0] = 99.0


class TestEvaluateVelocity:
    def test_zero_eta_returns_background(self, small_param):
        v = evaluate_velocity(small_param, np.zeros(small_param.n_params))
        np.testing.assert_array_equal(v.c, small_param.background.c)

    def test_single_bump_at_center(self, grid):
        bg = make_constant_model(2000.0, grid)
        center = (grid.xs()[6], grid.zs()[8])  # on a node
        p = Parametrization(bg, (GaussianBump(center, 150.0),))
        v = evaluate_velocity(p, np.array([100.0]))
        assert velocity_at(v, *center) == pytest.approx(2000.0 + 100.0)

    def test_camembert_search_space_dimensions(self):
        # 20x20 bump lattice over [0, 2] x [0, 2.5] km gives N = 400
        g = Grid2D(39, 49, 50.0, 50.0)
        bg = make_constant_model(3000.0, g)
        p = make_bump_lattice(bg, (20, 20))
        assert p.n_params == 400
        assert p.basis_matrix.shape == (g.n_dof, 400)

    def test_basis_matrix_stacks_bumps_once(self, small_param, grid):
        phi = small_param.basis_matrix
        xx, zz = grid.mesh()
        stacked = np.stack([b.evaluate(xx, zz).ravel() for b in small_param.basis], axis=1)
        np.testing.assert_array_equal(phi, stacked)
        assert not phi.flags.writeable
        assert small_param.basis_matrix is phi

    def test_clamp_floor(self, small_param):
        v = evaluate_velocity(small_param, [-5000.0, 0.0])
        assert v.c.min() == pytest.approx(C_MIN)

    @pytest.mark.parametrize("eta", [[1e308, 1e308], [-1e308, -1e308], [np.inf, 0.0],
                                     [-np.inf, 0.0], [np.inf, -np.inf], [np.nan, 0.0]],
                             ids=["+inf", "-inf", "+inf-eta", "-inf-eta", "nan-sum", "nan-eta"])
    def test_velocity_beyond_float_range_overflows_silently(self, grid, eta):
        # two bumps on one center, so that 1e308 + 1e308 overflows there; the
        # velocity leaves the float range before the clamp, whose floor would
        # hide a -inf
        bump = GaussianBump((600.0, 800.0), 200.0)
        p = Parametrization(make_constant_model(2000.0, grid), (bump, bump))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OperatorOverflow, match="trial velocity is not finite"):
                evaluate_velocity(p, eta)

    @given(
        a=st.floats(-30.0, 30.0),
        b=st.floats(-30.0, 30.0),
        e1=st.floats(-5.0, 5.0),
        e2=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_linear_in_eta_above_clamp(self, a, b, e1, e2):
        g = Grid2D(8, 8, 100.0, 100.0)
        bg = make_constant_model(2000.0, g)
        p = Parametrization(bg, (GaussianBump((400.0, 400.0), 150.0),))
        va = evaluate_velocity(p, eta=[a * e1 + b * e2])
        v1 = evaluate_velocity(p, eta=[e1])
        v2 = evaluate_velocity(p, eta=[e2])
        lhs = va.c - bg.c
        rhs = a * (v1.c - bg.c) + b * (v2.c - bg.c)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_bump_decays_within_six_widths(self, grid):
        bump = GaussianBump((1000.0, 1200.0), 100.0)
        xx, zz = grid.mesh()
        phi = bump.evaluate(xx, zz)
        r = np.hypot(xx - 1000.0, zz - 1200.0)
        outside = phi[r >= 6 * 100.0]
        if outside.size:
            assert outside.max() < 1e-6 * phi.max()


class TestTwoLayer:
    def test_paper_values(self, grid):
        v = make_two_layer_model(1200.0, 2.0, grid)
        assert velocity_at(v, 100.0, 100.0) == pytest.approx(1500.0)
        assert velocity_at(v, 100.0, 2300.0) == pytest.approx(3000.0)

    def test_no_contrast_degenerate(self, grid):
        v = make_two_layer_model(1200.0, 1.0, grid)
        np.testing.assert_array_equal(v.c, np.full((grid.nx, grid.nz), 1500.0))

    def test_node_by_node_membership(self, grid):
        # per-node oracle re-evaluating the interface inequality
        depth, contrast = 1000.0, 1.5
        v = make_two_layer_model(depth, contrast, grid)
        xs, zs = grid.xs(), grid.zs()
        for i in range(grid.nx):
            for j in range(grid.nz):
                iface = depth + SLOPE_DROP * xs[i] / grid.extent[0]
                expected = contrast * C_TOP if zs[j] > iface else C_TOP
                assert v.c[i, j] == expected

    def test_bad_depth_rejected(self, grid):
        with pytest.raises(ValueError):
            make_two_layer_model(9000.0, 2.0, grid)


class TestCamembert:
    def test_paper_values(self, grid):
        v = make_camembert_model(grid)
        assert velocity_at(v, 1000.0, 1000.0) == pytest.approx(4000.0)
        assert velocity_at(v, grid.xs()[0], grid.zs()[0]) == pytest.approx(3000.0)

    def test_boundary_is_inside_by_closed_disk(self):
        g = Grid2D(39, 49, 50.0, 50.0)
        v = make_camembert_model(g)
        # (1 km, 1.6 km) sits exactly on the circle; distance oracle
        assert np.hypot(1000.0 - 1000.0, 1600.0 - 1000.0) == pytest.approx(600.0)
        assert velocity_at(v, 1000.0, 1600.0) == pytest.approx(4000.0)

    def test_domain_too_small(self):
        g = Grid2D(10, 10, 50.0, 50.0)
        with pytest.raises(ValueError, match="inclusion disk does not fit"):
            make_camembert_model(g)

    def test_factories_reproducible(self, grid):
        a = make_camembert_model(grid)
        b = make_camembert_model(grid)
        np.testing.assert_array_equal(a.c, b.c)


class TestParametrization:
    def test_center_outside_domain_rejected(self, grid):
        bg = make_constant_model(2000.0, grid)
        with pytest.raises(ValueError):
            Parametrization(bg, (GaussianBump((99999.0, 0.0), 100.0),))

    def test_lattice_covers_domain(self, grid):
        bg = make_constant_model(2000.0, grid)
        p = make_bump_lattice(bg, (4, 5))
        assert p.n_params == 20
        xs = [b.center[0] for b in p.basis]
        zs = [b.center[1] for b in p.basis]
        lx, lz = grid.extent
        assert min(xs) > 0 and max(xs) < lx
        assert min(zs) > 0 and max(zs) < lz
