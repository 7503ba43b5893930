"""Velocity fields, grids, and the search-space parametrization.

Conventions
-----------
- The 2D domain is [0, (nx+1)hx] x [0, (nz+1)hz] with z measured as
  depth (increasing downward).  The nx*nz stored nodes are strictly
  interior: node (i, j) sits at ((i+1)hx, (j+1)hz), so homogeneous
  Dirichlet walls live one spacing outside the node block.
- Search bumps have unit amplitude, so one unit of a coefficient moves
  the velocity by at most one m/s.
- Velocity arrays have shape (nx, nz), C order, which makes z the
  fastest-varying index when flattened (the on-disk layout).
- Units are meters, seconds, m/s throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from .errors import OperatorOverflow

#: Lower clamp on trial velocities (m/s), which keeps the wave operator
#: well-posed during aggressive line-search trials.
C_MIN = 300.0

#: Search bump width in geometric-mean lattice spacings (`make_bump_lattice`).
BUMP_WIDTH = 1.5

#: The two-layer model's interface drop across the domain width (m) and its
#: velocity above the interface (m/s) (`make_two_layer_model`).
SLOPE_DROP = 400.0
C_TOP = 1500.0


def whole(value, name: str, least: int = None) -> int:
    """A count given in a config: `value` as an int, or ValueError when it
    is not a whole number (a bool, a fraction, NaN or a string) or, given
    `least`, is below it."""
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integral or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {int(value)}")
    return int(value)


@dataclass(frozen=True)
class Grid2D:
    """Uniform tensor grid of interior nodes."""

    nx: int
    nz: int
    hx: float
    hz: float

    def __post_init__(self):
        if self.nx < 3 or self.nz < 3:
            raise ValueError("grid needs nx, nz >= 3")
        if not (0 < self.hx < math.inf and 0 < self.hz < math.inf):
            raise ValueError("grid spacings must be positive and finite")
        if not all(map(math.isfinite, self.extent)):
            raise ValueError("grid extent must be finite")
        if not all(np.finfo(float).tiny <= h * h < math.inf for h in (self.hx, self.hz)):
            raise ValueError("grid spacings must have squares that are normal doubles "
                             "(the Laplacian divides by them)")

    @property
    def n_dof(self) -> int:
        return self.nx * self.nz

    @property
    def quad_weight(self) -> float:
        """Quadrature weight of one node in all inner products."""
        return self.hx * self.hz

    @property
    def extent(self) -> tuple[float, float]:
        """Domain size (Lx, Lz) including the boundary offset."""
        return (self.nx + 1) * self.hx, (self.nz + 1) * self.hz

    def xs(self) -> np.ndarray:
        return self.hx * np.arange(1, self.nx + 1)

    def zs(self) -> np.ndarray:
        return self.hz * np.arange(1, self.nz + 1)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Node coordinates as an (nx, 1) column of x and a (1, nz) row of
        z, which broadcast to the (nx, nz) node block."""
        return np.meshgrid(self.xs(), self.zs(), indexing="ij", sparse=True)

    def nearest_node(self, x: float, z: float) -> tuple[int, int]:
        i = int(round(x / self.hx)) - 1
        j = int(round(z / self.hz)) - 1
        if not (0 <= i < self.nx and 0 <= j < self.nz):
            raise ValueError(f"point ({x}, {z}) outside node block")
        return i, j

    def contains(self, x: float, z: float) -> bool:
        lx, lz = self.extent
        return 0 <= x <= lx and 0 <= z <= lz


@dataclass(frozen=True)
class VelocityModel:
    """Velocity field c(x) on a grid."""

    grid: Grid2D
    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.grid.nx, self.grid.nz):
            raise ValueError(f"c has shape {c.shape}, expected {(self.grid.nx, self.grid.nz)}")
        if not np.all(np.isfinite(c)) or np.any(c <= 0):
            raise ValueError("velocity values must be positive and finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "c", c)

    def rel_l2_error(self, other: "VelocityModel") -> float:
        """Relative L2 distance of self from `other` (the reference)."""
        if self.grid != other.grid:
            raise ValueError("velocity models on different grids")
        diff = self.c - other.c
        return float(np.linalg.norm(diff) / np.linalg.norm(other.c))


@dataclass(frozen=True)
class GaussianBump:
    """One search-space basis function: exp(-|x-center|^2 / (2 w^2))."""

    center: tuple[float, float]
    width: float

    def __post_init__(self):
        if not (0 < self.width < math.inf and self.width**2 > 0):
            raise ValueError("bump width must be positive and finite, with a nonzero square")

    def evaluate(self, xx: np.ndarray, zz: np.ndarray) -> np.ndarray:
        """The bump at the node coordinates `xx`, `zz` of `Grid2D.mesh`."""
        r2 = (xx - self.center[0]) ** 2 + (zz - self.center[1]) ** 2
        return np.exp(-r2 / (2.0 * self.width**2))


@dataclass(frozen=True)
class Parametrization:
    """Search space v(x; eta) = c_o(x) + sum_l eta_l phi_l(x).

    Each phi_l must be finite and, at eta_l = 1, change c_o at some node:
    a phi_l that changes none gives a Jacobian column of zeros.
    """

    background: VelocityModel
    basis: tuple[GaussianBump, ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        if len(self.basis) < 1:
            raise ValueError("parametrization needs at least one basis function")
        g = self.background.grid
        for b in self.basis:
            if not g.contains(*b.center):
                raise ValueError(f"bump center {b.center} outside the domain")
        c, phi = self.background.c.ravel()[:, None], self.basis_matrix
        moves = np.isfinite(phi).all(axis=0) & (c + phi != c).any(axis=0)
        if not moves.all():
            b = self.basis[int(np.argmin(moves))]
            raise ValueError(
                f"bump at {b.center} is not finite, or at unit coefficient moves the "
                "background velocity at no node"
            )

    @property
    def n_params(self) -> int:
        return len(self.basis)

    @cached_property
    def basis_matrix(self) -> np.ndarray:
        """All basis functions as a read-only (n_dof, N) matrix.

        Column l is phi_l evaluated on the background grid, flattened in C
        order.  It is computed once per parametrization, on one mesh of
        the grid, so each trial velocity is a single matrix-vector product.
        """
        xx, zz = self.background.grid.mesh()
        phi = np.column_stack([b.evaluate(xx, zz).ravel() for b in self.basis])
        phi.flags.writeable = False
        return phi


def evaluate_velocity(p: Parametrization, eta) -> VelocityModel:
    """Evaluate v(x; eta) = c_o(x) + sum_l eta_l phi_l(x) on the background grid,
    each node clamped below at C_MIN.  A v that leaves the float range at
    some node, before the clamp, raises OperatorOverflow; numpy warns nothing."""
    g = p.background.grid
    with np.errstate(over="ignore", invalid="ignore"):
        c = p.background.c.ravel() + p.basis_matrix @ np.asarray(eta, dtype=float)
    if not np.isfinite(c).all():
        raise OperatorOverflow("trial velocity is not finite")
    return VelocityModel(g, np.maximum(c, C_MIN).reshape(g.nx, g.nz))


def make_constant_model(c0: float, g: Grid2D) -> VelocityModel:
    return VelocityModel(g, np.full((g.nx, g.nz), float(c0)))


def make_two_layer_model(depth_left: float, contrast: float, g: Grid2D) -> VelocityModel:
    """Two regions separated by a slanted interface.

    The interface depth grows linearly from `depth_left` at the left edge
    to `depth_left + SLOPE_DROP` at the right edge; velocity is C_TOP
    above and `contrast * C_TOP` below.
    """
    if not (0 < depth_left < g.extent[1]):
        raise ValueError("depth_left must lie inside the domain depth")
    if contrast <= 0:
        raise ValueError("contrast must be positive")
    xx, zz = g.mesh()
    iface = depth_left + SLOPE_DROP * xx / g.extent[0]
    c = np.where(zz > iface, contrast * C_TOP, C_TOP)
    return VelocityModel(g, c)


def make_camembert_model(
    g: Grid2D,
    center: tuple[float, float] = (1000.0, 1000.0),
    radius: float = 600.0,
    c_inside: float = 4000.0,
    c_outside: float = 3000.0,
) -> VelocityModel:
    """Circular inclusion in a constant background (closed-disk convention)."""
    cx, cz = center
    if not (math.isfinite(cx) and math.isfinite(cz) and 0 < radius < math.inf):
        raise ValueError("camembert needs a finite center and a positive, finite radius")
    lx, lz = g.extent
    if cx - radius < 0 or cx + radius > lx or cz - radius < 0 or cz + radius > lz:
        raise ValueError("inclusion disk does not fit inside the domain")
    xx, zz = g.mesh()
    inside = (xx - cx) ** 2 + (zz - cz) ** 2 <= radius**2
    c = np.where(inside, c_inside, c_outside)
    return VelocityModel(g, c)


def make_gradient_model(c_top: float, c_bottom: float, g: Grid2D) -> VelocityModel:
    """One-dimensional velocity gradient in depth."""
    zz = g.zs()
    prof = c_top + (c_bottom - c_top) * zz / g.extent[1]
    return VelocityModel(g, np.tile(prof, (g.nx, 1)))


def make_bump_lattice(background: VelocityModel, lattice: tuple[int, int]) -> Parametrization:
    """Gaussian bumps centered on a uniform p x q `lattice` over the domain.

    Each bump is BUMP_WIDTH times the geometric-mean lattice spacing wide,
    enough overlap to represent smooth fields without making the basis
    ill-conditioned.
    """
    p, q = (whole(v, "lattice", 1) for v in lattice)
    g = background.grid
    lx, lz = g.extent
    dx, dz = lx / p, lz / q
    width = BUMP_WIDTH * math.sqrt(dx * dz)
    centers_x = dx * (np.arange(p) + 0.5)
    centers_z = dz * (np.arange(q) + 0.5)
    basis = [GaussianBump((float(cx), float(cz)), width) for cx in centers_x for cz in centers_z]
    return Parametrization(background, tuple(basis))
