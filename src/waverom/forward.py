"""Wave propagation and array-data synthesis.

Two independent routes produce the sampled data matrices:

- `synthesize_dataset` works with the symmetrized operator A = C L C and
  never forms a wavefield.  Its chebyshev method contracts one cached
  Chebyshev table of the sample functions (`sample_coeffs`, a DCT-II on
  `numpy.fft`) with block moments of A; its spectral method, the exact
  oracle, evaluates them at the eigenvalues from `DiscreteOperator.eig`,
  the only dense eigensolver here, which never forms A's eigenvectors.
- The time-domain route leapfrogs the pressure equation in DT_FACTOR
  steps per sample interval and records sensor traces
  (`synthesize_measurements`) laid out in whole steps by `record_layout`;
  `symmetrize_and_sample` folds and samples them, one sample per
  interval that the record holds.

Both share the same discrete operator, so their disagreement measures
only time-discretization error.  The snapshot oracles `initial_states`
and `propagate_snapshots`, which no command calls, take the eigenpairs
(w, Q) of A from their caller.  A `DataSet` reads m and n from its
sample stacks, and a `Pulse` holds the `freq_hz` and `bandwidth_hz` a
config states.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.blas import daxpy, dscal

from . import profile
from .errors import NyquistViolation, OperatorOverflow, WaveromError
from .model import Grid2D, VelocityModel, whole

#: Largest n_dof for which the dense eigendecomposition path is allowed.
SPECTRAL_CAP = 20_000

#: |f(t)| / peak below which the pulse is treated as switched off.
PULSE_SUPPORT_CUT = 1e-8

#: Leapfrog steps per sample interval tau of the time-domain route.
DT_FACTOR = 50


def _sym(x: np.ndarray) -> np.ndarray:
    """Symmetrize the trailing two axes."""
    return 0.5 * (x + np.swapaxes(x, -1, -2))


# Pulse --------------------------------------------------------------------


@dataclass(frozen=True)
class Pulse:
    """Even band-limited probing pulse cos(omega0 t) exp(-(omega_b t)^2 / 2).

    `freq_hz` is the central frequency and `bandwidth_hz` is B, both in
    Hz, as a config's `acquisition.pulse` states them; `omega0` = 2 pi
    freq_hz and `omega_b` = 2 pi B are their angular values (rad/s).
    """

    freq_hz: float
    bandwidth_hz: float

    def __post_init__(self):
        a = self.omega_b  # f_hat divides by a^2
        if not (self.freq_hz > 0 and self.bandwidth_hz > 0 and math.isfinite(self.omega_ess)
                and sys.float_info.min <= a * a < math.inf):
            raise ValueError("pulse needs freq_hz > 0 and bandwidth_hz > 0 with "
                             "2 pi (freq_hz + bandwidth_hz) finite and "
                             "(2 pi bandwidth_hz)^2 a normal double")

    @property
    def omega0(self) -> float:
        return 2.0 * math.pi * self.freq_hz

    @property
    def omega_b(self) -> float:
        return 2.0 * math.pi * self.bandwidth_hz

    @property
    def tf(self) -> float:
        """Effective support half-width: the time beyond which the envelope
        drops below PULSE_SUPPORT_CUT of the peak."""
        return math.sqrt(-2.0 * math.log(PULSE_SUPPORT_CUT)) / self.omega_b

    @property
    def omega_ess(self) -> float:
        """Essential angular frequency omega0 + 2 pi B (rad/s)."""
        return self.omega0 + self.omega_b

    @property
    def nyquist_tau(self) -> float:
        return math.pi / self.omega_ess

    def default_tau(self, nyquist_factor: float = 0.9) -> float:
        """Sampling interval: `nyquist_factor` times the Nyquist limit."""
        return nyquist_factor * self.nyquist_tau

    def df(self, t):
        """Analytic derivative f'(t), the source time function."""
        t = np.asarray(t, dtype=float)
        a = self.omega_b
        env = np.exp(-0.5 * (a * t) ** 2)
        return (-self.omega0 * np.sin(self.omega0 * t) - a**2 * t * np.cos(self.omega0 * t)) * env

    def f_hat(self, omega):
        """Fourier transform under the convention \\int f(t) e^{-i w t} dt.

        A sum of two Gaussians centered at +-omega0; non-negative.
        """
        omega = np.asarray(omega, dtype=float)
        a = self.omega_b
        scale = math.sqrt(2.0 * math.pi) / (2.0 * a)
        return scale * (
            np.exp(-((omega - self.omega0) ** 2) / (2.0 * a**2))
            + np.exp(-((omega + self.omega0) ** 2) / (2.0 * a**2))
        )


# Sensor array ---------------------------------------------------------------


@dataclass(frozen=True)
class SensorArray:
    """Identical sensors at m distinct positions (m, 2); theta_width, positive
    and finite, is the Gaussian width of the shared sensor function,
    truncated at 4 widths."""

    positions: np.ndarray
    theta_width: float

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float)).copy()
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError("positions must be (m, 2)")
        if not np.isfinite(pos).all():
            raise ValueError("sensor positions must be finite")
        if len(np.unique(pos, axis=0)) < len(pos):
            raise ValueError("two sensors share a position")
        if not 0 < self.theta_width < math.inf:
            raise ValueError("theta_width must be positive and finite")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)

    @property
    def m(self) -> int:
        return self.positions.shape[0]

    def theta_matrix(self, grid: Grid2D) -> np.ndarray:
        """Discrete sensor functions, one column per sensor (read-only).

        Each column is a Gaussian of width `theta_width` centered at the
        sensor, truncated at 4 widths and normalized to unit discrete mass
        (sum * hx * hz = 1).  Computed once per grid; a sensor whose
        nearest node is outside the node block raises ValueError on every
        call.
        """
        return _sensors(grid, self.positions.tobytes(), self.theta_width)[1]

    def local_velocities(self, v: VelocityModel) -> np.ndarray:
        """c(x_s) at the node nearest each sensor."""
        return v.c.ravel()[_sensors(v.grid, self.positions.tobytes(), self.theta_width)[0]]


@lru_cache(maxsize=16)
def _sensors(grid: Grid2D, positions: bytes, theta_width: float) -> tuple[np.ndarray, np.ndarray]:
    """The flat index of the node nearest each sensor (`Grid2D.nearest_node`,
    which refuses a sensor off the node block) and `SensorArray.theta_matrix`,
    both read-only, for positions given as float64 bytes."""
    xx, zz = grid.mesh()
    w2 = theta_width**2
    nodes, cols = [], []
    for x, z in np.frombuffer(positions).reshape(-1, 2):
        i, j = grid.nearest_node(x, z)
        nodes.append(i * grid.nz + j)
        r2 = (xx - x) ** 2 + (zz - z) ** 2
        th = np.exp(-r2 / (2.0 * w2))
        th[r2 > (4.0 * theta_width) ** 2] = 0.0
        total = th.sum() * grid.quad_weight
        if total <= 0:
            raise ValueError("sensor function has no support on the grid")
        cols.append((th / total).ravel())
    index, theta = np.array(nodes, dtype=np.intp), np.column_stack(cols)
    index.flags.writeable = theta.flags.writeable = False
    return index, theta


def line_array(grid: Grid2D, m: int, depth: float) -> SensorArray:
    """Uniform horizontal line of m sensors at the given depth, inset 5% of
    the width from the side walls, each one grid cell, hx, wide."""
    m = whole(m, "m", 1)
    margin = 0.05 * grid.extent[0]
    xs = np.linspace(margin, grid.extent[0] - margin, m)
    return SensorArray(np.column_stack([xs, np.full(m, depth)]), grid.hx)


def ring_array(grid: Grid2D, m: int, inset: float) -> SensorArray:
    """m sensors spread along a rectangle inset from the domain boundary by a
    positive, finite `inset` that leaves the rectangle a positive width and
    depth, each one grid cell, hx, wide."""
    m = whole(m, "m", 1)
    if not 0 < inset < math.inf:
        raise ValueError(f"inset must be positive and finite, got {inset!r}")
    lx, lz = grid.extent
    px, pz = lx - 2 * inset, lz - 2 * inset
    if not (px > 0 and pz > 0):
        raise ValueError(f"inset {inset} leaves no rectangle inside the {lx} x {lz} domain")
    perimeter = 2 * (px + pz)
    s = np.arange(m) * perimeter / m
    # top, right and bottom edges; the left edge is the default
    edges = [s < px, s < px + pz, s < 2 * px + pz]
    x = np.select(edges, [inset + s, lx - inset, lx - inset - (s - px - pz)], inset)
    z = np.select(edges, [inset, inset + (s - px), lz - inset], lz - inset - (s - 2 * px - pz))
    return SensorArray(np.column_stack([x, z]), grid.hx)


# Discrete operator ----------------------------------------------------------


def _laplacian_1d(n: int, h: float) -> sp.csr_matrix:
    """Negated 1D second difference with Dirichlet ends: the ghost nodes one
    spacing outside are pinned to zero, so the diagonal is 2/h^2 throughout."""
    off = np.full(n - 1, -1.0)
    return sp.diags([off, np.full(n, 2.0), off], [-1, 0, 1], format="csr") / h**2


@lru_cache(maxsize=16)
def _laplacian_2d(grid: Grid2D) -> sp.csr_matrix:
    """Negated 5-point Laplacian (symmetric positive definite) on the grid.

    Its arrays are read-only: every `DiscreteOperator` on the grid shares
    the index arrays.
    """
    tx = _laplacian_1d(grid.nx, grid.hx)
    tz = _laplacian_1d(grid.nz, grid.hz)
    lap = sp.kronsum(tz, tx, format="csr")
    for part in (lap.data, lap.indices, lap.indptr):
        part.flags.writeable = False
    return lap


@lru_cache(maxsize=16)
def _laplacian_rows(grid: Grid2D) -> np.ndarray:
    """Row of each stored entry of `_laplacian_2d` (read-only)."""
    lap = _laplacian_2d(grid)
    rows = np.repeat(np.arange(lap.shape[0]), np.diff(lap.indptr))
    rows.flags.writeable = False
    return rows


def scaled_entries(v: VelocityModel) -> tuple[np.ndarray, float]:
    """The entries of A = C L C on the pattern of `_laplacian_2d` (each of L
    times c at its row and column) and A's Gershgorin bound, their largest
    absolute row sum.  `DiscreteOperator` stores these entries, so a bound
    taken here without the operator is the operator's, bit for bit, inf on overflow."""
    c = v.c.ravel()
    lap = _laplacian_2d(v.grid)
    with np.errstate(over="ignore"):
        data = lap.data * c[_laplacian_rows(v.grid)] * c[lap.indices]
        return data, float(np.max(np.add.reduceat(np.abs(data), lap.indptr[:-1])))


class DiscreteOperator:
    """Symmetrized wave operator A = C L C on a grid.

    C is the diagonal of nodal velocities and L the negated 5-point
    Laplacian with homogeneous Dirichlet walls one spacing outside the
    node block, so A is symmetric positive definite.
    """

    def __init__(self, velocity: VelocityModel):
        lap = _laplacian_2d(velocity.grid)
        data, self._bound = scaled_entries(velocity)
        self.matrix = sp.csr_matrix((data, lap.indices, lap.indptr), shape=lap.shape)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def lambda_upper(self) -> float:
        """Gershgorin upper bound on the spectrum (see `scaled_entries`)."""
        return self._bound

    def eig(self, x: np.ndarray):
        """Ascending eigenvalues w of A and the coordinates V^T x of the
        block x in A's orthonormal eigenbasis V, without forming V.

        One Householder reduction Q^T A Q = T (`dsytrd`, lower) overwrites
        an F-ordered dense copy of A.  Its reflectors H(1)...H(n-1) sit
        below the subdiagonal in `dgeqrf` layout and leave row 0 alone, so
        Q^T x is row 0 of x stacked on `dormqr` of the other rows.  The
        copy is dropped before divide and conquer on the tridiagonal
        (`scipy.linalg.eigh_tridiagonal`, which runs `dstevd`) gives
        T = S diag(w) S^T, and the result is (w, S^T Q^T x).  `x` is only
        read and nothing is cached: no n x n eigenvector matrix of A is
        ever held beside the workspace.  Raises ValueError above
        SPECTRAL_CAP and LinAlgError when LAPACK reports a failure.
        """
        if self.dimension > SPECTRAL_CAP:
            raise ValueError(
                f"n_dof {self.dimension} exceeds spectral cap {SPECTRAL_CAP}; "
                "use the Chebyshev path"
            )
        lapack = scipy.linalg.lapack
        lwork, info = lapack.dsytrd_lwork(self.dimension, lower=1)
        _check_info("dsytrd_lwork", info)
        c, d, e, tau, info = lapack.dsytrd(
            self.matrix.toarray(order="F"), lower=1, lwork=int(lwork), overwrite_a=1
        )
        _check_info("dsytrd", info)
        # the minimal workspace runs the unblocked product, as fast here
        # for a few columns; the call copies the strided reflector block
        y = np.array(x, dtype=float, order="F")
        y[1:], _, info = lapack.dormqr("L", "T", c[1:, :-1], tau, y[1:], y.shape[1])
        _check_info("dormqr", info)
        del c
        w, s = scipy.linalg.eigh_tridiagonal(d, e, check_finite=False)
        return w, s.T @ y


def _check_info(routine: str, info: int):
    """Raise LinAlgError when a LAPACK routine reports failure."""
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed with info {info}")


# Matrix functions -----------------------------------------------------------

#: Coefficients below this fraction of their family's largest are dropped.
CHEB_TOL = 1e-13

#: Most Chebyshev nodes sampled before a table is accepted as it stands.
CHEB_MAX_NODES = 4096

#: Ratio of the geometric grid the Chebyshev interval is rounded up to.
CHEB_RATIO = 1.001


def chebyshev_moments(a, x: np.ndarray, count: int, lam_max: float) -> np.ndarray:
    """Block moments mu_k = x^T T_k(2 a / lam_max - I) x for k < count.

    With t_k = T_k(2 a / lam_max - I) x, the doubling 2 t_j^T t_k =
    mu_j+k + mu_|j-k| gives them from count // 2 products with `a`, which
    it adds to `forward.matvecs` (and their columns to
    `forward.matvec_cols`) in `profile`: mu_2k+1 from t_k+1^T t_k, mu_2
    and the last even moment from t_k^T t_k, the others from the gemm
    t_j+1^T t_j-1 (faster here than the syrk t_j^T t_j).  The recurrence
    t_k+1 = 2 (2 a t_k / lam_max - t_k) - t_k-1 runs in place on each
    product, as one BLAS scaling and two axpys whose power-of-two factors
    keep the values of the subtractions written out, so `x` is only read.
    """
    scale = 2.0 / lam_max
    half = count // 2
    mu = np.empty((count, x.shape[1], x.shape[1]))
    np.matmul(x.T, x, out=mu[0])
    prev, cur = None, x
    for k in range(1, half + 1):
        # scipy's BLAS updates the flat product in place and returns it
        nxt = (a @ cur).reshape(-1)
        if k == 1:
            nxt = daxpy(cur.reshape(-1), dscal(scale, nxt), a=-1.0)
        else:
            nxt = dscal(2.0 * scale, nxt)
            nxt = daxpy(cur.reshape(-1), nxt, a=-2.0)
            nxt = daxpy(prev.reshape(-1), nxt, a=-1.0)
        nxt = nxt.reshape(cur.shape)
        np.matmul(nxt.T, cur, out=mu[2 * k - 1])
        if k > 2:
            np.matmul(nxt.T, prev, out=mu[2 * k - 2])
        if 2 * k < count and (k == 1 or k == half):
            np.matmul(nxt.T, nxt, out=mu[2 * k])
        prev, cur = cur, nxt
    profile.count("forward.matvecs", half)
    profile.count("forward.matvec_cols", half * x.shape[1])
    mu[2:] *= 2.0
    if count > 2:
        mu[2] -= mu[0]
        mu[3::2] -= mu[1]
        mu[4 : 2 * half : 2] -= mu[2]
        if count % 2 and half > 1:
            mu[2 * half] -= mu[0]
    return mu


def sample_functions(pulse, tau: float, count: int, lam: np.ndarray) -> np.ndarray:
    """The data functions at the eigenvalues lam, shape (N, 2, count).

    Family 0 holds f_hat(sqrt(lam)) cos(j tau sqrt(lam)) and family 1
    -lam f_hat(sqrt(lam)) cos(j tau sqrt(lam)), for j = 0..count-1.
    """
    root = np.sqrt(lam)
    d = pulse.f_hat(root)[:, None] * np.cos(np.outer(root, tau * np.arange(count)))
    return np.stack([d, -lam[:, None] * d], axis=1)


def chebyshev_interval(lam_upper: float) -> float:
    """lam_upper rounded up to the geometric grid CHEB_RATIO**e, e integer.

    Operators whose bounds share a grid point share one Chebyshev table.
    A bound that is not positive and finite raises OperatorOverflow.
    """
    if not 0 < lam_upper < math.inf:
        raise OperatorOverflow(
            f"the operator's spectral bound {lam_upper} is not positive and finite"
        )
    e = math.ceil(math.log(lam_upper) / math.log(CHEB_RATIO))
    if CHEB_RATIO**e < lam_upper:  # the log quotient rounded down onto e
        e += 1
    return CHEB_RATIO**e


@lru_cache(maxsize=32)
def sample_coeffs(pulse, tau: float, count: int, lam_max: float) -> np.ndarray:
    """Chebyshev table of `sample_functions` on [0, lam_max], cut to one length K.

    Returns the coefficients c, shape (K, 2, count), such that
    `sample_functions(pulse, tau, count, lam)` ~ sum_k c[k] T_k(x) with
    x = 2 lam / lam_max - 1: c[0] is already halved, ready to contract.
    Cached and read-only; a compact copy, so that it does not keep the DCT
    buffer alive.  The 32 entries hold every bucket a sweep cycles through
    (21 on the shipped 21x21 sweep, one per value of its inner axis).

    Each family is scaled by its largest coefficient, and the table is cut
    where the largest scaled coefficient of what follows drops below
    CHEB_TOL.  The node count doubles from 64 until that cut lies in the
    first half of the coefficients, which keeps the DCT's round-off
    plateau from setting K.

    The DCT-II of the samples runs on `numpy.fft` as one real FFT
    (Makhoul, IEEE TASSP 28(1), 1980): the nodes are sampled with the even
    indices ascending and then the odd ones descending, and the FFT of
    that sequence, turned by exp(-i pi k / 2n), gives coefficient k as its
    real part and coefficient n - k as minus its imaginary part.
    """
    n = 64
    while True:
        k = np.concatenate([np.arange(0, n, 2), np.arange(1, n, 2)[::-1]])
        x = np.cos(math.pi * (k + 0.5) / n)
        y = sample_functions(pulse, tau, count, 0.5 * lam_max * (x + 1.0))
        h = n // 2 + 1
        turn = (2.0 / n) * np.exp(-0.5j * math.pi * np.arange(h) / n)
        u = np.fft.rfft(y, axis=0)
        u *= turn[:, None, None]
        c = np.empty(y.shape)
        c[:h] = u.real
        np.negative(u.imag[n - h : 0 : -1], out=c[h:])
        mag = np.abs(c).max(axis=2)
        peak = mag.max(axis=0)
        env = (mag[:, peak > 0] / peak[peak > 0]).max(axis=1, initial=0.0)
        above = np.nonzero(env >= CHEB_TOL)[0]
        size = above[-1] + 1 if above.size else 1
        if 2 * size <= n or n >= CHEB_MAX_NODES:
            break
        n *= 2
    c = c[:size].copy()
    c[0] *= 0.5
    c.flags.writeable = False
    return c


# Data -------------------------------------------------------------------------


@dataclass(frozen=True)
class DataSet:
    """Sampled array data {D_j, Ddot_j}, j = 0..2n-2, each m x m, with m
    and n whole numbers >= 1: `d` and `ddot` are (2n - 1, m, m) stacks of
    one shape, which fixes m and n."""

    d: np.ndarray
    ddot: np.ndarray
    tau: float

    def __post_init__(self):
        for name in ("d", "ddot"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        shape = self.d.shape
        if self.ddot.shape != shape:
            raise ValueError(f"d has shape {shape} but ddot has shape {self.ddot.shape}")
        if len(shape) != 3 or shape[0] % 2 == 0 or shape[1] != shape[2] or not shape[1]:
            raise ValueError(f"data blocks must be (2n - 1, m, m) with n, m >= 1, "
                             f"not {shape}")
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")

    @property
    def m(self) -> int:
        return self.d.shape[1]

    @property
    def n(self) -> int:
        return (self.d.shape[0] + 1) // 2


def initial_states(eigenpairs, v: VelocityModel, arr: SensorArray, pulse) -> np.ndarray:
    """First snapshot block u_0^(s) = f_hat^(1/2)(sqrt(A)) theta_s / c(x_s)
    on the model v, through the eigenpairs A = Q diag(w) Q^T of its
    operator, which the caller supplies as (w, Q)."""
    w, q = eigenpairs
    th = arr.theta_matrix(v.grid) / arr.local_velocities(v)
    g = np.sqrt(np.maximum(pulse.f_hat(np.sqrt(np.maximum(w, 0.0))), 0.0))
    return q @ (g[:, None] * (q.T @ th))


def propagate_snapshots(eigenpairs, u0: np.ndarray, tau: float, count: int) -> np.ndarray:
    """Snapshots u_j = cos(j tau sqrt(A)) u_0 for j = 0..count-1, each
    cosine evaluated exactly through the eigenpairs (w, Q) of A.

    Returns the (n_dof, count m) block matrix whose block j holds the m
    states of the (n_dof, m) array u_0 at time j tau.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if tau <= 0:
        raise ValueError("tau must be positive")
    m = u0.shape[1]
    blocks = np.empty((u0.shape[0], count * m))
    blocks[:, :m] = u0
    w, q = eigenpairs
    sq = np.sqrt(np.maximum(w, 0.0))
    p = q.T @ u0
    for j in range(1, count):
        blocks[:, j * m : (j + 1) * m] = q @ (np.cos(j * tau * sq)[:, None] * p)
    return blocks


def synthesize_dataset(
    v: VelocityModel, arr: SensorArray, pulse, tau: float, n: int, method: str
) -> DataSet:
    """Sampled data matrices D_j = w th^T f_hat(sqrt(A)) cos(j tau sqrt(A)) th
    and Ddot_j = -w th^T A f_hat(sqrt(A)) cos(j tau sqrt(A)) th.

    th = Theta diag(1/c_s) holds the scaled sensor functions and w = hx*hz
    is the grid quadrature weight.  Both methods contract the 2(2n-1)
    `sample_functions` against a spectral measure of th.  The spectral
    method evaluates them at the eigenvalues of A = V diag(lam) V^T and
    contracts with p = V^T th, so D_j = w p^T diag(f_j(lam)) p; lam and p
    come from `DiscreteOperator.eig`, one Householder
    tridiagonal reduction that never forms V.  The chebyshev method
    expands them in one table of length K on [0, lam_max]
    and contracts it against the block moments th^T T_k(2A/lam_max - I) th,
    which cost K // 2 sparse products.  lam_max is `lambda_upper` rounded
    up to the grid CHEB_RATIO**e, so that every operator whose bound falls
    in the same bucket reuses the cached table of the same (pulse, tau,
    count, lam_max).  Both sample families are symmetrized to remove
    round-off asymmetry.

    A tau beyond the pulse's Nyquist interval issues NyquistViolation as a
    warning; `warnings.simplefilter("error", NyquistViolation)` makes it
    an error.  Either method raises OperatorOverflow when the operator's
    bound is not positive and finite.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if method not in ("spectral", "chebyshev"):
        raise ValueError(f"unknown method {method!r}")
    if tau > pulse.nyquist_tau:
        warnings.warn(
            NyquistViolation(f"tau={tau:g} exceeds the Nyquist interval {pulse.nyquist_tau:g}"),
            stacklevel=2,
        )
    profile.count("forward.synth")
    op = DiscreteOperator(v)
    lam_max = chebyshev_interval(op.lambda_upper())
    th = arr.theta_matrix(v.grid) / arr.local_velocities(v)
    count = 2 * n - 1
    if method == "chebyshev":
        c = sample_coeffs(pulse, tau, count, lam_max)
        mu = chebyshev_moments(op.matrix, th, c.shape[0], lam_max)
    else:
        lam, p = op.eig(th)
        c = sample_functions(pulse, tau, count, np.maximum(lam, 0.0))
        mu = p[:, :, None] * p[:, None, :]
    data = v.grid.quad_weight * np.tensordot(c, mu, axes=(0, 0))
    return DataSet(_sym(data[0]), _sym(data[1]), tau)


# Time-domain measurement path -----------------------------------------------


def record_layout(pulse: Pulse, tau: float, n: int, m: int) -> tuple[int, int]:
    """(k0, nt) of the record of n sample pairs in steps of dt = tau / DT_FACTOR.

    The leapfrog starts k0 = ceil(tf / dt - 1e-12) steps before t = 0, at
    or before -tf where the field is quiescent, and records nt = k0 +
    (2n - 2) DT_FACTOR + 2 times, through one step past the last sample.
    ValueError for a tau so small that dt underflows to 0, or m x m traces
    (8 nt m^2 bytes) beyond the physical memory; OverflowError when tf /
    dt is not finite.
    """
    dt = tau / DT_FACTOR
    if not dt > 0:
        raise ValueError(f"the step tau / {DT_FACTOR} underflows to 0 at tau = {tau:g}")
    k0 = math.ceil(pulse.tf / dt - 1e-12)
    nt = k0 + (2 * n - 2) * DT_FACTOR + 2
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 8 * nt * m * m > memory:
        raise ValueError(f"a record of {nt} steps of {dt:g} s needs {8 * nt * m * m:.3g} "
                         f"bytes of traces, more than the {memory:.3g} bytes of memory")
    return k0, nt


@dataclass(frozen=True)
class TraceRecord:
    """Receiver traces M^(r,s)(t) at t = (k - k0) dt, k = 0..nt-1, with
    dt = tau / DT_FACTOR: sample j of interval tau is step k0 + j DT_FACTOR."""

    tau: float
    k0: int
    data: np.ndarray  # (nt, m, m), [k, r, s]

    def __post_init__(self):
        object.__setattr__(self, "k0", whole(self.k0, "k0"))
        if self.k0 < 0:
            raise ValueError(f"the record must hold t = 0, but starts {-self.k0} steps after it")
        if not self.tau > 0:
            raise ValueError("tau must be positive")

    @property
    def dt(self) -> float:
        return self.tau / DT_FACTOR

    @property
    def nt(self) -> int:
        return self.data.shape[0]

    @property
    def m(self) -> int:
        return self.data.shape[1]

    def times(self) -> np.ndarray:
        return -self.k0 * self.dt + self.dt * np.arange(self.nt)


def synthesize_measurements(
    v: VelocityModel, arr: SensorArray, pulse: Pulse, tau: float, n: int
) -> TraceRecord:
    """Leapfrog the pressure equation and record all m^2 sensor traces.

    The record is laid out by `record_layout`, in steps of dt = tau /
    DT_FACTOR.  Raises WaveromError when dt exceeds the stability limit of
    the discrete operator.

    Each step is p+ = S p - p- + dt^2 f'(t) theta, one product and two
    updates, with the step operator S = 2 I - dt^2 C^2 L formed once on
    the Laplacian's pattern (which holds every diagonal entry) and the
    kicks dt^2 f'(t) taken once per record.  Counts one
    `forward.timedomain` per record and its nt - 1 products as
    `forward.timedomain.matvecs` in `profile`.
    """
    k0, nt = record_layout(pulse, tau, n, arr.m)
    dt = tau / DT_FACTOR
    dt_max = 2.0 / math.sqrt(scaled_entries(v)[1])
    if dt > dt_max:
        raise WaveromError(f"dt={dt:g} exceeds the leapfrog stability limit {dt_max:g}")
    profile.count("forward.timedomain")
    theta = arr.theta_matrix(v.grid)
    lap = _laplacian_2d(v.grid)
    rows = _laplacian_rows(v.grid)
    data = lap.data * (-(dt**2) * v.c.ravel() ** 2)[rows]
    data[rows == lap.indices] += 2.0
    step = sp.csr_matrix((data, lap.indices, lap.indptr), shape=lap.shape)
    kick = dt**2 * pulse.df(-k0 * dt + dt * np.arange(nt - 1))

    traces = np.empty((nt, arr.m, arr.m))
    traces[0] = 0.0
    p_prev = np.zeros_like(theta)
    p_cur = np.zeros_like(theta)
    for k in range(1, nt):
        p_next = step @ p_cur
        p_next -= p_prev
        p_next += kick[k - 1] * theta
        p_prev, p_cur = p_cur, p_next
        np.matmul(theta.T, p_cur, out=traces[k])
    profile.count("forward.timedomain.matvecs", nt - 1)
    traces *= v.grid.quad_weight
    return TraceRecord(tau, k0, traces)


def symmetrize_and_sample(rec: TraceRecord, arr: SensorArray, v: VelocityModel) -> DataSet:
    """Build the sampled DataSet of interval rec.tau from recorded traces.

    D(t) = [M(t) + M(-t)] / (c(x_r) c(x_s)) on the non-negative time grid,
    with M(-t) taken as zero beyond the k0 recorded steps before t = 0.
    Sample j lies at step i = j DT_FACTOR after t = 0, at every such step
    with a successor in the record, and each Ddot_j is the central second
    difference (D[i+1] - 2 D[i] + D[i-1]) / dt^2 there, the difference the
    leapfrog itself satisfies; the source terms are odd in t and cancel in
    the fold, and at i = 0 the fold's evenness gives D[-1] = D[1].  A
    record laid out by `record_layout` for n gives the 2n - 1 samples of
    n; `DataSet` refuses the even sample count of a record cut short.
    """
    if rec.m != arr.m:
        raise ValueError("trace record and sensor array disagree on m")
    i0 = rec.k0
    cs = arr.local_velocities(v)
    dpos = np.array(rec.data[i0:], copy=True)
    k = np.arange(1, min(i0, len(dpos) - 1) + 1)
    dpos[k] += rec.data[i0 - k]
    dpos[:1] *= 2.0  # t = 0, if the record reaches it
    dpos /= np.outer(cs, cs)
    idx = np.arange(0, len(dpos) - 1, DT_FACTOR)
    d = dpos[idx]
    ddot = (dpos[idx + 1] - 2.0 * d + dpos[np.abs(idx - 1)]) / rec.dt**2
    return DataSet(_sym(d), _sym(ddot), rec.tau)
