"""Wave propagation and array-data synthesis.

Two independent routes produce the sampled data matrices:

- the spectral/Chebyshev route applies matrix functions of the
  symmetrized operator A = C L C directly (`synthesize_dataset`), and
- the time-domain route leapfrogs the pressure equation, records sensor
  traces, and symmetrizes/samples them (`synthesize_measurements` +
  `symmetrize_and_sample`).

Both share the same discrete operator, so their disagreement measures
only time-discretization error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft
import scipy.linalg
import scipy.sparse as sp

from .errors import (
    CflViolation,
    ConfigError,
    EigUnavailable,
    InsufficientRecordLength,
    NyquistViolation,
)
from .model import Grid2D, VelocityModel

#: Largest n_dof for which the dense eigendecomposition path is allowed.
SPECTRAL_CAP = 20_000

#: |f(t)| / peak below which the pulse is treated as switched off.
PULSE_SUPPORT_CUT = 1e-8


def _sym(x: np.ndarray) -> np.ndarray:
    """Symmetrize the trailing two axes."""
    return 0.5 * (x + np.swapaxes(x, -1, -2))


# Pulse --------------------------------------------------------------------


@dataclass(frozen=True)
class Pulse:
    """Even band-limited probing pulse cos(omega0 t) exp(-(2 pi B)^2 t^2 / 2).

    `omega0` is the angular central frequency (rad/s), `bandwidth` is B in
    Hz.  `tf` is the effective support half-width: the time beyond which
    the envelope drops below PULSE_SUPPORT_CUT of the peak.
    """

    omega0: float
    bandwidth: float
    tf: float = None

    def __post_init__(self):
        if self.omega0 < 0 or self.bandwidth <= 0:
            raise ValueError("pulse needs omega0 >= 0 and bandwidth > 0")
        if self.tf is None:
            a = 2.0 * math.pi * self.bandwidth
            object.__setattr__(self, "tf", math.sqrt(-2.0 * math.log(PULSE_SUPPORT_CUT)) / a)

    @classmethod
    def from_hz(cls, freq_hz: float, bandwidth_hz: float) -> "Pulse":
        return cls(2.0 * math.pi * freq_hz, bandwidth_hz)

    @property
    def omega_ess(self) -> float:
        """Essential angular frequency omega0 + 2 pi B (rad/s)."""
        return self.omega0 + 2.0 * math.pi * self.bandwidth

    @property
    def nyquist_tau(self) -> float:
        return math.pi / self.omega_ess

    def default_tau(self, factor: float = 0.9) -> float:
        """Sampling interval: `factor` times the Nyquist limit."""
        return factor * self.nyquist_tau

    def f(self, t):
        t = np.asarray(t, dtype=float)
        a = 2.0 * math.pi * self.bandwidth
        return np.cos(self.omega0 * t) * np.exp(-0.5 * (a * t) ** 2)

    def df(self, t):
        """Analytic derivative f'(t), the source time function."""
        t = np.asarray(t, dtype=float)
        a = 2.0 * math.pi * self.bandwidth
        env = np.exp(-0.5 * (a * t) ** 2)
        return (-self.omega0 * np.sin(self.omega0 * t) - a**2 * t * np.cos(self.omega0 * t)) * env

    def f_hat(self, omega):
        """Fourier transform under the convention \\int f(t) e^{-i w t} dt.

        A sum of two Gaussians centered at +-omega0; non-negative.
        """
        omega = np.asarray(omega, dtype=float)
        a = 2.0 * math.pi * self.bandwidth
        scale = math.sqrt(2.0 * math.pi) / (2.0 * a)
        return scale * (
            np.exp(-((omega - self.omega0) ** 2) / (2.0 * a**2))
            + np.exp(-((omega + self.omega0) ** 2) / (2.0 * a**2))
        )

    def f_hat_sqrt(self, omega):
        return np.sqrt(np.maximum(self.f_hat(omega), 0.0))


class FlatPulse:
    """Stub with a flat unit spectrum, for operator-function identities."""

    omega_ess = None
    tf = 0.0

    @staticmethod
    def f_hat(omega):
        return np.ones_like(np.asarray(omega, dtype=float))

    @staticmethod
    def f_hat_sqrt(omega):
        return np.ones_like(np.asarray(omega, dtype=float))


# Sensor array ---------------------------------------------------------------


@dataclass(frozen=True)
class SensorArray:
    """Identical sensors at positions (m, 2); theta_width is the Gaussian
    width of the shared sensor function, truncated at 4 widths."""

    positions: np.ndarray
    theta_width: float

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float)).copy()
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError("positions must be (m, 2)")
        if self.theta_width <= 0:
            raise ValueError("theta_width must be positive")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)

    @property
    def m(self) -> int:
        return self.positions.shape[0]

    def validate_in_domain(self, grid: Grid2D):
        for x, z in self.positions:
            if not grid.contains(x, z):
                raise ValueError(f"sensor at ({x}, {z}) outside the domain")

    def theta_matrix(self, grid: Grid2D) -> np.ndarray:
        """Discrete sensor functions, one column per sensor.

        Each column is a Gaussian of width `theta_width` centered at the
        sensor, truncated at 4 widths and normalized to unit discrete mass
        (sum * hx * hz = 1).
        """
        self.validate_in_domain(grid)
        xx, zz = grid.mesh()
        w2 = self.theta_width**2
        cols = []
        for x, z in self.positions:
            r2 = (xx - x) ** 2 + (zz - z) ** 2
            th = np.exp(-r2 / (2.0 * w2))
            th[r2 > (4.0 * self.theta_width) ** 2] = 0.0
            total = th.sum() * grid.quad_weight
            if total <= 0:
                raise ValueError("sensor function has no support on the grid")
            cols.append((th / total).ravel())
        return np.column_stack(cols)

    def local_velocities(self, v: VelocityModel) -> np.ndarray:
        """c(x_s) at the node nearest each sensor."""
        return np.array([v.at(x, z) for x, z in self.positions])


def line_array(
    grid: Grid2D, m: int, depth: float, theta_width: float = None, margin: float = None
) -> SensorArray:
    """Uniform horizontal line of m sensors at the given depth."""
    lx = grid.extent[0]
    margin = 0.05 * lx if margin is None else margin
    xs = np.linspace(grid.x0 + margin, grid.x_max - margin, m)
    pos = np.column_stack([xs, np.full(m, grid.z0 + depth)])
    return SensorArray(pos, grid.hx if theta_width is None else theta_width)


def ring_array(grid: Grid2D, m: int, inset: float, theta_width: float = None) -> SensorArray:
    """m sensors spread along a rectangle inset from the domain boundary."""
    lx, lz = grid.extent
    px, pz = lx - 2 * inset, lz - 2 * inset
    perimeter = 2 * (px + pz)
    ds = np.arange(m) * perimeter / m
    pos = []
    for s in ds:
        if s < px:
            x, z = inset + s, inset
        elif s < px + pz:
            x, z = lx - inset, inset + (s - px)
        elif s < 2 * px + pz:
            x, z = lx - inset - (s - px - pz), lz - inset
        else:
            x, z = inset, lz - inset - (s - 2 * px - pz)
        pos.append((grid.x0 + x, grid.z0 + z))
    return SensorArray(np.array(pos), grid.hx if theta_width is None else theta_width)


# Discrete operator ----------------------------------------------------------


@lru_cache(maxsize=32)
def _laplacian_1d(n: int, h: float, lo: str, hi: str) -> sp.csr_matrix:
    """Negated 1D second difference with the given end conditions.

    Dirichlet keeps the full 2/h^2 diagonal at the edge (ghost node pinned
    to zero one spacing outside); Neumann mirrors the ghost, leaving 1/h^2.
    """
    main = np.full(n, 2.0)
    if lo == "neumann":
        main[0] = 1.0
    if hi == "neumann":
        main[-1] = 1.0
    off = np.full(n - 1, -1.0)
    t = sp.diags([off, main, off], [-1, 0, 1], format="csr") / h**2
    return t


@lru_cache(maxsize=16)
def _laplacian_2d(grid: Grid2D, bc: tuple) -> sp.csr_matrix:
    """Negated 5-point Laplacian (positive semidefinite) on the grid."""
    tx = _laplacian_1d(grid.nx, grid.hx, bc[0], bc[1])
    tz = _laplacian_1d(grid.nz, grid.hz, bc[2], bc[3])
    lap = sp.kron(tx, sp.identity(grid.nz)) + sp.kron(sp.identity(grid.nx), tz)
    return lap.tocsr()


class DiscreteOperator:
    """Symmetrized wave operator A = C L C on a grid.

    C is the diagonal of nodal velocities and L the negated 5-point
    Laplacian with the model's homogeneous boundary conditions, so A is
    symmetric positive (semi)definite and spd under Dirichlet walls.
    """

    def __init__(self, velocity: VelocityModel):
        self.velocity = velocity
        self.grid = velocity.grid
        c = velocity.c.ravel()
        lap = _laplacian_2d(self.grid, velocity.bc)
        a = lap.copy()
        rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        a.data = a.data * c[rows] * c[a.indices]
        self.matrix = a
        self._eig = None

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def lambda_upper(self) -> float:
        """Gershgorin upper bound on the spectrum."""
        a = self.matrix
        return float(np.max(np.add.reduceat(np.abs(a.data), a.indptr[:-1])))

    def eig(self, cap: int = SPECTRAL_CAP):
        """Dense eigendecomposition (ascending values), cached."""
        if self._eig is None:
            if self.dimension > cap:
                raise EigUnavailable(
                    f"n_dof {self.dimension} exceeds spectral cap {cap}; "
                    "use the Chebyshev path"
                )
            w, q = scipy.linalg.eigh(self.matrix.toarray())
            self._eig = (w, q)
        return self._eig


# Matrix functions -----------------------------------------------------------


def chebyshev_coeffs(fn, lam_max: float, tol: float = 5e-15, max_degree: int = 4096):
    """Chebyshev expansion of fn on [0, lam_max], adaptively truncated.

    Returns coefficients c such that fn(lam) ~ c[0]/2 + sum_k c[k] T_k(x)
    with x = 2 lam / lam_max - 1, accurate to ~tol relative.
    """
    n = 64
    while True:
        k = np.arange(n)
        x = np.cos(math.pi * (k + 0.5) / n)
        lam = 0.5 * lam_max * (x + 1.0)
        y = fn(lam)
        c = scipy.fft.dct(y, type=2) / n
        cmax = np.max(np.abs(c))
        if cmax == 0.0:
            return c[:1]
        if np.max(np.abs(c[-8:])) <= tol * cmax or n >= max_degree:
            break
        n *= 2
    keep = np.nonzero(np.abs(c) > tol * cmax)[0]
    return c[: keep[-1] + 1]


def _clenshaw(matvec, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate sum_k c_k T_k(T) x via the Clenshaw recurrence, where
    matvec applies the operator already scaled to spectrum [-1, 1]."""
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    for ck in coeffs[:0:-1]:
        b1, b2 = ck * x + 2.0 * matvec(b1) - b2, b1
    return 0.5 * coeffs[0] * x + matvec(b1) - b2


class _ChebOperatorFunction:
    """g(A) as a Chebyshev polynomial in A, applied to blocks of vectors."""

    def __init__(self, op: DiscreteOperator, g, lam_max: float = None, tol: float = 5e-15):
        self.lam_max = op.lambda_upper() if lam_max is None else lam_max
        self.coeffs = chebyshev_coeffs(g, self.lam_max, tol=tol)
        self._a = op.matrix
        self._scale = 2.0 / self.lam_max

    def _scaled_matvec(self, x):
        return self._scale * (self._a @ x) - x

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _clenshaw(self._scaled_matvec, self.coeffs, x)


def apply_operator_function(
    op: DiscreteOperator,
    g,
    x: np.ndarray,
    method: str = "spectral",
) -> np.ndarray:
    """Apply g(A) to the columns of x.

    `g` takes eigenvalues (a 1D array) and returns values.  The spectral
    method is exact via the dense eigendecomposition; the chebyshev method
    approximates g to near machine precision on [0, lambda_upper].
    """
    if method == "spectral":
        w, q = op.eig()
        return q @ (g(np.maximum(w, 0.0))[:, None] * (q.T @ x))
    if method == "chebyshev":
        return _ChebOperatorFunction(op, g)(x)
    raise ValueError(f"unknown method {method!r}")


# Snapshots and data ---------------------------------------------------------


@dataclass(frozen=True)
class Snapshots:
    """Block matrix of propagated wavefields; block j holds the m states
    at time j tau."""

    u: np.ndarray
    m: int

    def __post_init__(self):
        if self.u.shape[1] % self.m:
            raise ValueError("column count must be a multiple of m")

    @property
    def count(self) -> int:
        return self.u.shape[1] // self.m

    def block(self, j: int) -> np.ndarray:
        return self.u[:, j * self.m : (j + 1) * self.m]


@dataclass(frozen=True)
class DataSet:
    """Sampled array data {D_j, Ddot_j}, j = 0..2n-2, each m x m."""

    d: np.ndarray
    ddot: np.ndarray
    tau: float
    m: int
    n: int

    def __post_init__(self):
        shape = (2 * self.n - 1, self.m, self.m)
        if self.d.shape != shape or self.ddot.shape != shape:
            raise ValueError(f"data blocks must have shape {shape}")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        for name in ("d", "ddot"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_samples(self) -> int:
        return 2 * self.n - 1

    def truncate(self, k: int) -> "DataSet":
        """First 2k-1 samples as a DataSet of size k.

        By causality of the projected operator, the ROM built from the
        truncated set equals the upper-left km x km restriction of the
        full ROM.
        """
        if not 1 <= k <= self.n:
            raise ValueError(f"truncation k={k} outside 1..{self.n}")
        if k == self.n:
            return self
        return DataSet(self.d[: 2 * k - 1], self.ddot[: 2 * k - 1], self.tau, self.m, k)


def check_nyquist(tau: float, omega_ess: float, strict: bool = False):
    if omega_ess and tau > math.pi / omega_ess:
        msg = f"tau={tau:g} exceeds the Nyquist interval {math.pi / omega_ess:g}"
        if strict:
            raise NyquistViolation(msg)
        warnings.warn(NyquistViolation(msg), stacklevel=3)


def initial_states(
    op: DiscreteOperator, arr: SensorArray, pulse, method: str = "spectral"
) -> np.ndarray:
    """First snapshot block: u_0^(s) = f_hat^(1/2)(sqrt(A)) theta_s / c(x_s)."""
    theta = arr.theta_matrix(op.grid)
    cs = arr.local_velocities(op.velocity)
    g = lambda lam: pulse.f_hat_sqrt(np.sqrt(np.maximum(lam, 0.0)))
    return apply_operator_function(op, g, theta / cs, method)


def propagate_snapshots(
    op: DiscreteOperator,
    u0: np.ndarray,
    tau: float,
    count: int,
    method: str = "spectral",
    omega_ess: float = None,
    strict_nyquist: bool = False,
) -> Snapshots:
    """Snapshots u_j = cos(j tau sqrt(A)) u_0 for j = 0..count-1.

    The spectral path evaluates each cosine exactly; the chebyshev path
    expands cos(tau sqrt(A)) once and uses the exact three-term identity
    u_{j+1} = 2 cos(tau sqrt(A)) u_j - u_{j-1}.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if omega_ess is not None:
        check_nyquist(tau, omega_ess, strict_nyquist)
    u0 = np.atleast_2d(u0.T).T if u0.ndim == 1 else u0
    m = u0.shape[1]
    blocks = np.empty((u0.shape[0], count * m))
    blocks[:, :m] = u0
    if method == "spectral":
        w, q = op.eig()
        sq = np.sqrt(np.maximum(w, 0.0))
        p = q.T @ u0
        for j in range(1, count):
            blocks[:, j * m : (j + 1) * m] = q @ (np.cos(j * tau * sq)[:, None] * p)
    elif method == "chebyshev":
        step = _ChebOperatorFunction(op, lambda lam: np.cos(tau * np.sqrt(np.maximum(lam, 0.0))))
        prev, cur = None, u0
        for j in range(1, count):
            nxt = 2.0 * step(cur) - prev if prev is not None else step(cur)
            blocks[:, j * m : (j + 1) * m] = nxt
            prev, cur = cur, nxt
    else:
        raise ValueError(f"unknown method {method!r}")
    return Snapshots(blocks, m)


def synthesize_dataset(
    v: VelocityModel,
    arr: SensorArray,
    pulse,
    tau: float,
    n: int,
    method: str = "spectral",
    op: DiscreteOperator = None,
) -> DataSet:
    """Sampled data matrices D_j = <u_0, u_j>, Ddot_j = -<u_0, A u_j>.

    Inner products carry the grid quadrature weight hx*hz; both sample
    families are symmetrized to remove round-off asymmetry.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    op = DiscreteOperator(v) if op is None else op
    u0 = initial_states(op, arr, pulse, method)
    snaps = propagate_snapshots(
        op, u0, tau, 2 * n - 1, method, omega_ess=getattr(pulse, "omega_ess", None)
    )
    w = v.grid.quad_weight
    m = arr.m
    d = np.empty((2 * n - 1, m, m))
    ddot = np.empty_like(d)
    for j in range(2 * n - 1):
        uj = snaps.block(j)
        d[j] = _sym(w * (u0.T @ uj))
        ddot[j] = _sym(-w * (u0.T @ op.apply(uj)))
    return DataSet(d, ddot, tau, m, n)


# Time-domain measurement path -----------------------------------------------


@dataclass(frozen=True)
class TraceRecord:
    """Receiver traces M^(r,s)(t) on a uniform time grid starting at t0."""

    t0: float
    dt: float
    data: np.ndarray  # (nt, m, m), [k, r, s]

    @property
    def nt(self) -> int:
        return self.data.shape[0]

    @property
    def m(self) -> int:
        return self.data.shape[1]

    @property
    def t_max(self) -> float:
        return self.t0 + (self.nt - 1) * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.nt)


def synthesize_measurements(
    v: VelocityModel, arr: SensorArray, pulse: Pulse, t_end: float, dt: float
) -> TraceRecord:
    """Leapfrog the pressure equation and record all m^2 sensor traces.

    Integration starts at the first grid time at or before -tf (the field
    is quiescent there) and runs through t_end.  Raises CflViolation when
    dt exceeds the stability limit of the discrete operator.
    """
    op = DiscreteOperator(v)
    dt_max = 2.0 / math.sqrt(op.lambda_upper())
    if dt > dt_max:
        raise CflViolation(f"dt={dt:g} exceeds the leapfrog stability limit {dt_max:g}")
    theta = arr.theta_matrix(v.grid)
    c2 = v.c.ravel() ** 2

    k0 = int(math.ceil(pulse.tf / dt - 1e-12))
    nt = k0 + int(math.ceil(t_end / dt - 1e-12)) + 1
    t0 = -k0 * dt
    w = v.grid.quad_weight

    lap = _laplacian_2d(v.grid, v.bc)
    traces = np.empty((nt, arr.m, arr.m))
    p_prev = np.zeros_like(theta)
    p_cur = np.zeros_like(theta)
    traces[0] = w * (theta.T @ p_cur)
    for k in range(1, nt):
        t_k = t0 + (k - 1) * dt
        accel = -c2[:, None] * (lap @ p_cur) + pulse.df(t_k) * theta
        p_prev, p_cur = p_cur, 2.0 * p_cur - p_prev + dt**2 * accel
        traces[k] = w * (theta.T @ p_cur)
    return TraceRecord(t0, dt, traces)


def second_derivative_fourier(
    series: np.ndarray, dt: float, taper_fraction: float = 0.1
) -> np.ndarray:
    """d^2/dt^2 of an even-in-time series given on t >= 0.

    The series is extended evenly to a full period, differentiated by
    multiplying with -omega^2 in the Fourier domain, and transformed
    back.  A cosine taper spanning the trailing `taper_fraction` of the
    record suppresses wrap-around leakage; entries in the tapered zone
    are unreliable.
    """
    npos = series.shape[0]
    if npos < 3:
        raise ValueError("need at least 3 samples")
    taper = np.ones(npos)
    if taper_fraction > 0:
        ramp = int(math.ceil(taper_fraction * (npos - 1)))
        s = np.linspace(0.0, math.pi, ramp + 1)
        taper[npos - 1 - ramp :] = 0.5 * (1.0 + np.cos(s))
    tapered = series * taper.reshape((npos,) + (1,) * (series.ndim - 1))
    ext = np.concatenate([tapered, tapered[-2:0:-1]], axis=0)
    nfft = ext.shape[0]
    omega = 2.0 * math.pi * np.fft.rfftfreq(nfft, dt)
    spec = np.fft.rfft(ext, axis=0)
    spec *= (-(omega**2)).reshape((-1,) + (1,) * (series.ndim - 1))
    return np.fft.irfft(spec, n=nfft, axis=0)[:npos]


def symmetrize_and_sample(
    rec: TraceRecord,
    arr: SensorArray,
    v: VelocityModel,
    tau: float,
    n: int,
    taper_fraction: float = 0.1,
) -> DataSet:
    """Build the sampled DataSet from recorded traces.

    D(t) = [M(t) + M(-t)] / (c(x_r) c(x_s)) on the non-negative time grid,
    with M(-t) taken as zero beyond the recorded pre-zero segment; the
    second derivative comes from Fourier-domain differentiation of the
    even extension.  Samples at j*tau, j = 0..2n-2, must land on grid
    points outside the tapered tail.
    """
    if rec.m != arr.m:
        raise ValueError("trace record and sensor array disagree on m")
    dt = rec.dt
    i0 = -rec.t0 / dt
    if abs(i0 - round(i0)) > 1e-8:
        raise ValueError("t = 0 must lie on the trace time grid")
    i0 = int(round(i0))
    npos = rec.nt - i0
    stride = tau / dt
    if abs(stride - round(stride)) > 1e-6 * stride:
        raise ConfigError("tau must be an integer multiple of the trace dt")
    stride = int(round(stride))
    need = (2 * n - 2) * stride
    usable = int(math.floor((1.0 - taper_fraction) * (npos - 1)))
    if need > usable:
        raise InsufficientRecordLength(
            f"need samples through t={need * dt:g}s but the un-tapered record "
            f"ends at t={usable * dt:g}s"
        )

    cs = arr.local_velocities(v)
    norm = np.outer(cs, cs)
    dpos = np.array(rec.data[i0:], copy=True)
    k = np.arange(1, min(i0, npos - 1) + 1)
    dpos[k] += rec.data[i0 - k]
    dpos[0] *= 2.0
    dpos /= norm
    ddot_t = second_derivative_fourier(dpos, dt, taper_fraction)

    idx = stride * np.arange(2 * n - 1)
    return DataSet(_sym(dpos[idx]), _sym(ddot_t[idx]), tau, arr.m, n)
