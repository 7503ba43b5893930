"""Data-driven reduced-order model of the wave operator.

The mass and stiffness matrices are assembled purely from the sampled
data via the cosine product identity, factored by one LAPACK Cholesky
(the unique block Cholesky factor of an SPD mass matrix), and combined
into the projected operator A_rom = R^{-T} S R^{-1} without ever forming
internal wavefields.  An `OperatorRom` keeps A_rom, R and the block size
m; its n is read from A_rom.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from . import profile
from .errors import MassNotSPD
from .forward import DataSet, _check_info


@dataclass(frozen=True)
class OperatorRom:
    """Projected wave operator A_rom, nm x nm, with its block Cholesky
    factor R and the block size m, the sensor count; n is read from A_rom."""

    a_rom: np.ndarray
    r: np.ndarray
    m: int

    @property
    def dimension(self) -> int:
        return self.a_rom.shape[0]

    @property
    def n(self) -> int:
        return self.dimension // self.m


@lru_cache(maxsize=16)
def _pair_indices(n: int) -> tuple:
    """Read-only n x n arrays i + j and |i - j|."""
    i, j = np.indices((n, n))
    pairs = (i + j, abs(i - j))
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _paired_blocks(samples: np.ndarray, n: int, m: int, sign: float) -> np.ndarray:
    """Assemble the nm x nm matrix with blocks sign/2 (X_{i+j} + X_{|i-j|})."""
    plus, minus = _pair_indices(n)
    blocks = 0.5 * sign * (samples[plus] + samples[minus])
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
    profile.count("rom.build")
    mass = assemble_mass(data)
    stiff = assemble_stiffness(data)
    r = block_cholesky(mass, data.m)
    # R^T Y = S, then R^T A^T = Y^T, each by LAPACK's dtrtrs: the call that
    # solve_triangular makes for the F-ordered R, without its checks
    a = stiff
    for _ in range(2):
        a, info = scipy.linalg.lapack.dtrtrs(r, a, lower=0, trans=1)
        _check_info("dtrtrs", info)
        a = a.T
    return OperatorRom(0.5 * (a + a.T), r, data.m)


def restrict(rom: OperatorRom, k: int) -> np.ndarray:
    """Upper-left km x km submatrix of A_rom."""
    if not 1 <= k <= rom.n:
        raise ValueError(f"restriction k={k} outside 1..{rom.n}")
    km = k * rom.m
    return rom.a_rom[:km, :km]


@lru_cache(maxsize=16)
def _band_mask(dim: int, band: int) -> np.ndarray:
    """Read-only dim x dim mask of the first `band` upper diagonals."""
    i, j = np.indices((dim, dim))
    keep = (j >= i) & (j - i < band)
    keep.flags.writeable = False
    return keep


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
        raise ValueError(f"band {band} outside 1..{dim}")
    return x[_band_mask(dim, band)]

