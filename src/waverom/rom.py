"""Data-driven reduced-order model of the wave operator.

The mass and stiffness matrices are assembled purely from the sampled
data via the cosine product identity, factored by one LAPACK Cholesky
(the unique block Cholesky factor of an SPD mass matrix), and combined
into the projected operator A_rom = R^{-T} S R^{-1} without ever forming
internal wavefields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BandExceedsMatrix, IndexOutOfRange, MassNotSPD
from .forward import DataSet


@dataclass(frozen=True)
class MassStiffness:
    """Snapshot Gram (mass) and operator (stiffness) matrices, nm x nm."""

    mass: np.ndarray
    stiffness: np.ndarray
    m: int
    n: int


@dataclass(frozen=True)
class OperatorRom:
    """Projected wave operator with its block Cholesky provenance."""

    a_rom: np.ndarray
    r: np.ndarray
    m: int
    n: int

    @property
    def dimension(self) -> int:
        return self.n * self.m

    def initial_block(self) -> np.ndarray:
        """Projection of the first snapshot block onto the ROM basis.

        Equals the leading block column of R, [R_00; 0; ...]; feeding it
        through cos(j tau sqrt(A_rom)) reproduces the data samples.
        """
        return self.r[:, : self.m].copy()


def _paired_blocks(samples: np.ndarray, n: int, m: int, sign: float) -> np.ndarray:
    """Assemble the nm x nm matrix with blocks sign/2 (X_{i+j} + X_{|i-j|})."""
    i, j = np.indices((n, n))
    blocks = 0.5 * sign * (samples[i + j] + samples[abs(i - j)])
    return blocks.transpose(0, 2, 1, 3).reshape(n * m, n * m)


def assemble_mass(data: DataSet) -> np.ndarray:
    """Mass matrix blocks M_{i,j} = (D_{i+j} + D_{|i-j|}) / 2."""
    return _paired_blocks(data.d, data.n, data.m, 1.0)


def assemble_stiffness(data: DataSet) -> np.ndarray:
    """Stiffness matrix blocks S_{i,j} = -(Ddot_{i+j} + Ddot_{|i-j|}) / 2."""
    return _paired_blocks(data.ddot, data.n, data.m, -1.0)


def block_cholesky(mass: np.ndarray, m: int) -> np.ndarray:
    """Block Cholesky factor R with M = R^T R.

    R is block upper triangular with m x m blocks and each diagonal block
    upper triangular with positive diagonal.  That is the ordinary upper
    Cholesky factor, unique for SPD M, so one LAPACK potrf computes it.
    Raises MassNotSPD with the index of the block holding the first
    leading principal submatrix that is not positive definite.
    """
    dim = mass.shape[0]
    if mass.shape != (dim, dim) or dim % m:
        raise ValueError("mass must be square with block size dividing its dimension")
    r, info = scipy.linalg.lapack.dpotrf(mass, lower=False, clean=True)
    if info > 0:
        raise MassNotSPD((info - 1) // m)
    return r


def build_rom(data: DataSet) -> OperatorRom:
    """Projected operator A_rom = R^{-T} S R^{-1} via triangular solves."""
    mass = assemble_mass(data)
    stiff = assemble_stiffness(data)
    r = block_cholesky(mass, data.m)
    y = scipy.linalg.solve_triangular(r, stiff, lower=False, trans="T")
    a = scipy.linalg.solve_triangular(r, y.T, lower=False, trans="T").T
    return OperatorRom(0.5 * (a + a.T), r, data.m, data.n)


def restrict(rom: OperatorRom, k: int) -> np.ndarray:
    """Upper-left km x km submatrix of A_rom."""
    if not 1 <= k <= rom.n:
        raise IndexOutOfRange(f"restriction k={k} outside 1..{rom.n}")
    km = k * rom.m
    return rom.a_rom[:km, :km]


def rest_dk(x: np.ndarray, d: int, m: int) -> np.ndarray:
    """Stack the first d*m upper diagonals (main included) of a km x km
    symmetric matrix into a vector.

    Entries are taken row-major over the kept band: row i contributes
    x[i, i], x[i, i+1], ..., up to d*m - 1 places right of the diagonal.
    The result has length dm (km - (dm - 1)/2).
    """
    dim = x.shape[0]
    if x.shape != (dim, dim) or dim % m:
        raise ValueError("input must be square with block size dividing its dimension")
    band = d * m
    if not 1 <= band <= dim:
        raise BandExceedsMatrix(f"band {band} outside 1..{dim}")
    i, j = np.indices(x.shape)
    keep = (j >= i) & (j - i < band)
    return x[keep]


def triu_vec(x: np.ndarray) -> np.ndarray:
    """Upper triangle (diagonal included) stacked row-major."""
    dim = x.shape[0]
    if x.shape != (dim, dim):
        raise ValueError("input must be square")
    i, j = np.indices(x.shape)
    return x[j >= i]


def rest_dk_length(d: int, k: int, m: int) -> int:
    """Length of the rest_dk output vector."""
    band = d * m
    return band * k * m - band * (band - 1) // 2
