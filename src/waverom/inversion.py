"""Layer-stripping Gauss-Newton minimization of ROM or FWI misfit.

The outer loop runs exactly L*q regularized Gauss-Newton updates.  Each
update linearizes the residual by forward finite differences and takes
one thin SVD of the Jacobian.  That SVD gives the adaptive Tikhonov
weight, the rank check and the damped direction.  The update then
line-searches the penalized functional with a rejection fallback so
accepted steps never increase it.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    JacobianRankWarning,
    MassNotSPD,
    ResidualShorterThanN,
    SingularSystem,
)
from .model import DEFAULT_C_MIN, Parametrization, VelocityModel, basis_matrix, evaluate_velocity
from .objective import Acquisition, RomResidualSpec, fwi_objective, rom_objective
from .rom import OperatorRom, build_rom
from .forward import DataSet


@dataclass(frozen=True)
class LayerSchedule:
    """Layer-stripping schedule: q iterations at each restriction size k_l."""

    k: tuple[int, ...]
    q: int
    d: int

    def __post_init__(self):
        k = tuple(int(v) for v in self.k)
        object.__setattr__(self, "k", k)
        if len(k) < 1 or self.q < 1:
            raise ValueError("need at least one layer and one iteration per layer")
        if any(k[i] > k[i + 1] for i in range(len(k) - 1)) or k[0] < 1:
            raise ValueError("k must satisfy 1 <= k_1 <= ... <= k_L")
        if not 1 <= self.d <= k[0]:
            raise ValueError("need 1 <= d <= k_1")

    @property
    def layers(self) -> int:
        return len(self.k)

    @property
    def total_iterations(self) -> int:
        return self.layers * self.q

    @classmethod
    def uniform(cls, n: int, layers: int, q: int, d: int = None) -> "LayerSchedule":
        """k_l growing linearly to n, e.g. n=8, layers=4 -> (2, 4, 6, 8)."""
        k = tuple(max(1, round(n * (l + 1) / layers)) for l in range(layers))
        d = k[0] if d is None else d
        return cls(k, q, d)


@dataclass(frozen=True)
class GnConfig:
    """Gauss-Newton knobs.

    gamma is the Tikhonov quantile: mu_i is the squared floor(gamma N)-th
    largest singular value of the Jacobian (index clamped to 1 at the
    low end).  Setting regularization="off" forces mu_i = 0, the plain
    Gauss-Newton limit.
    """

    gamma: float = 0.3
    alpha_max: float = 3.0
    fd_step: float = 1e-2
    regularization: str = "adaptive"
    c_min: float = DEFAULT_C_MIN
    stop_objective: float = 0.0
    fwi_truncate: bool = False

    def __post_init__(self):
        if not 0.2 < self.gamma < 0.4:
            raise ValueError("gamma must lie in the open interval (0.2, 0.4)")
        if self.alpha_max <= 0:
            raise ValueError("alpha_max must be positive")
        if self.regularization not in ("adaptive", "off"):
            raise ValueError("regularization must be 'adaptive' or 'off'")


@dataclass
class InversionState:
    """Iteration index, coefficients, and per-iteration traces.

    penalized_trace holds F_i evaluated at eta^(i) and at eta^(i-1), the
    pair whose ordering the accepted-step monotonicity contract promises.
    """

    eta: np.ndarray
    i: int = 0
    k_trace: list = field(default_factory=list)
    objective_trace: list = field(default_factory=list)
    mu_trace: list = field(default_factory=list)
    alpha_trace: list = field(default_factory=list)
    penalized_trace: list = field(default_factory=list)
    eta_trace: list = field(default_factory=list)

    def record(self, k: int, objective: float, mu: float, alpha: float, penalized=None):
        self.i += 1
        self.k_trace.append(k)
        self.objective_trace.append(objective)
        self.mu_trace.append(mu)
        self.alpha_trace.append(alpha)
        self.penalized_trace.append(penalized)
        self.eta_trace.append(np.array(self.eta))


def jacobian(
    residual_fn,
    eta: np.ndarray,
    fd_step: float,
    base: np.ndarray = None,
    threads: int = 1,
) -> np.ndarray:
    """Forward finite-difference Jacobian of a residual function.

    Column l is [G(eta + delta_l e_l) - G(eta)] / delta_l with
    delta_l = fd_step * max(1, |eta_l|); with unit-amplitude bumps one
    eta unit is one m/s of velocity, so fd_step is a velocity step.
    Columns are evaluated independently (optionally in a thread pool)
    and assembled in index order.
    """
    eta = np.asarray(eta, dtype=float)
    n = eta.size
    base = residual_fn(eta) if base is None else base
    if base.size < n:
        raise ResidualShorterThanN(
            f"residual has {base.size} entries for {n} parameters"
        )

    def column(l: int) -> np.ndarray:
        delta = fd_step * max(1.0, abs(eta[l]))
        bumped = eta.copy()
        bumped[l] += delta
        return (residual_fn(bumped) - base) / delta

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            cols = list(pool.map(column, range(n)))
    else:
        cols = [column(l) for l in range(n)]
    return np.column_stack(cols)


def tikhonov_mu(sigma: np.ndarray, gamma: float) -> float:
    """Adaptive Tikhonov weight from the descending singular values of
    the Jacobian: square of the floor(gamma N)-th largest; a zero index
    falls back to the largest (maximal regularization for the degenerate
    small-N case)."""
    idx = max(int(math.floor(gamma * sigma.size)), 1)
    return float(sigma[idx - 1] ** 2)


def gn_step(svd, r: np.ndarray, mu: float) -> np.ndarray:
    """Damped Gauss-Newton direction -(J^T J + mu I)^{-1} J^T r.

    `svd` is the thin SVD (U, sigma, V^T) of J, so the direction is
    -V diag(sigma / (sigma^2 + mu)) U^T r.  Warns JacobianRankWarning when
    sigma_N / sigma_1 < 1e-14; with mu = 0 a rank-deficient J (sigma_N at
    or below the least-squares cutoff eps * max(M, N) * sigma_1) raises
    SingularSystem.
    """
    if mu < 0:
        raise ValueError("mu must be non-negative")
    u, sigma, vt = svd
    if sigma[0] > 0 and sigma[-1] / sigma[0] < 1e-14:
        warnings.warn(
            JacobianRankWarning(
                f"Jacobian numerically rank deficient: "
                f"sigma_N/sigma_1 = {sigma[-1] / sigma[0]:.2e}"
            ),
            stacklevel=2,
        )
    cutoff = np.finfo(float).eps * max(u.shape[0], vt.shape[1]) * sigma[0]
    if mu == 0.0 and sigma[-1] <= cutoff:
        raise SingularSystem("Jacobian rank deficient and mu = 0")
    return -(vt.T @ (sigma / (sigma**2 + mu) * (u.T @ r)))


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def line_search(
    eta: np.ndarray,
    direction: np.ndarray,
    functional,
    alpha_max: float,
    rho: float = 0.7,
    grid_size: int = 13,
    golden_iters: int = 8,
) -> float:
    """Step length minimizing the functional along eta + alpha*direction.

    Samples the geometric grid {alpha_max * rho^j} and refines around the
    best grid point with a golden-section pass; the functional may return
    +inf for infeasible trials.  Returns 0 when no sampled step improves
    on the current value (step rejected).
    """
    f0 = functional(eta)
    best_alpha, best_val = 0.0, f0
    evals = {}

    def probe(alpha: float) -> float:
        if alpha not in evals:
            evals[alpha] = functional(eta + alpha * direction)
        return evals[alpha]

    grid = [alpha_max * rho**j for j in range(grid_size)]
    for alpha in grid:
        val = probe(alpha)
        if val < best_val:
            best_alpha, best_val = alpha, val
    if best_alpha == 0.0:
        return 0.0

    lo = best_alpha * rho
    hi = min(best_alpha / rho, alpha_max)
    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = probe(x1), probe(x2)
    for _ in range(golden_iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = probe(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = probe(x2)
    for alpha, val in evals.items():
        if val < best_val:
            best_alpha, best_val = alpha, val
    return best_alpha


def make_rom_residual_fn(
    param: Parametrization, spec: RomResidualSpec, acq: Acquisition, cfg: GnConfig, basis=None
):
    basis = basis_matrix(param, param.background.grid) if basis is None else basis

    def residual(eta: np.ndarray) -> np.ndarray:
        v = evaluate_velocity(param, eta=eta, c_min=cfg.c_min, _basis=basis)
        return rom_objective(v, spec, acq)[1]

    return residual


def make_fwi_residual_fn(
    param: Parametrization, reference: DataSet, acq: Acquisition, cfg: GnConfig,
    k: int = None, basis=None,
):
    basis = basis_matrix(param, param.background.grid) if basis is None else basis

    def residual(eta: np.ndarray) -> np.ndarray:
        v = evaluate_velocity(param, eta=eta, c_min=cfg.c_min, _basis=basis)
        return fwi_objective(v, reference, acq, k=k)[1]

    return residual


def run_inversion(
    reference,
    param: Parametrization,
    schedule: LayerSchedule,
    cfg: GnConfig,
    acq: Acquisition,
    mode: str = "rom",
    threads: int = 1,
) -> tuple[VelocityModel, InversionState]:
    """Run L*q Gauss-Newton updates minimizing the layered misfit.

    `reference` is the measured-data OperatorRom in "rom" mode or the
    reference DataSet in "fwi" mode.  Starting from eta = 0, update
    i = (l-1)q + j line-searches the penalized functional
    F_i(eta) = O_{d,k_l}(eta) + mu_i |eta - eta^(i-1)|^2 along the damped
    Gauss-Newton direction, the same quadratic model the direction solve
    minimizes; a rejected step (alpha = 0) advances i without changing
    eta.  An infeasible trial (MassNotSPD) scores +inf in the line search.
    """
    if mode not in ("rom", "fwi"):
        raise ValueError("mode must be 'rom' or 'fwi'")
    if mode == "rom":
        if not isinstance(reference, OperatorRom):
            raise TypeError("rom mode needs an OperatorRom reference")
        if schedule.k[-1] > reference.n:
            raise ValueError("schedule k exceeds reference n")
    elif not isinstance(reference, DataSet):
        raise TypeError("fwi mode needs a DataSet reference")

    grid = param.background.grid
    basis = basis_matrix(param, grid)
    state = InversionState(eta=np.zeros(param.n_params))

    for layer_k in schedule.k:
        if mode == "rom":
            spec = RomResidualSpec(schedule.d, layer_k, reference)
            residual_fn = make_rom_residual_fn(param, spec, acq, cfg, basis)
        else:
            k = layer_k if cfg.fwi_truncate else None
            residual_fn = make_fwi_residual_fn(param, reference, acq, cfg, k, basis)

        # Residual cache, valid within one layer (the residual map changes
        # with k_l).  Line-search probes land here, so the accepted point's
        # residual is free at the next iteration.
        cache: dict[bytes, np.ndarray] = {}

        def cached_residual(eta: np.ndarray):
            key = eta.tobytes()
            if key not in cache:
                try:
                    cache[key] = residual_fn(eta)
                except MassNotSPD:
                    cache[key] = None
            return cache[key]

        def objective_or_inf(eta: np.ndarray) -> float:
            r = cached_residual(eta)
            return math.inf if r is None else float(r @ r)

        for _ in range(schedule.q):
            anchor = state.eta
            base = cached_residual(anchor)
            if base is None:
                raise MassNotSPD(-1, "candidate ROM infeasible at the current iterate")
            obj0 = float(base @ base)
            if obj0 <= cfg.stop_objective:
                state.record(layer_k, obj0, 0.0, 0.0, (obj0, obj0))
                continue
            jac = jacobian(residual_fn, anchor, cfg.fd_step, base=base, threads=threads)
            svd = scipy.linalg.svd(jac, full_matrices=False)
            mu = tikhonov_mu(svd[1], cfg.gamma) if cfg.regularization == "adaptive" else 0.0
            direction = gn_step(svd, base, mu)
            # J and U (n_res x N) would otherwise stay alive through the
            # line search and raise the peak memory of the run.
            del jac, svd

            # F_i penalizes the departure from the linearization point, the
            # quadratic model the damped direction actually minimizes.
            def penalized(eta: np.ndarray) -> float:
                step = eta - anchor
                return objective_or_inf(eta) + mu * float(step @ step)

            alpha = line_search(anchor, direction, penalized, cfg.alpha_max)
            if alpha > 0.0:
                state.eta = anchor + alpha * direction
                obj = objective_or_inf(state.eta)
                f_new = obj + mu * alpha**2 * float(direction @ direction)
            else:
                obj, f_new = obj0, obj0
            state.record(layer_k, obj, mu, alpha, (f_new, obj0))

    estimate = evaluate_velocity(param, eta=state.eta, c_min=cfg.c_min, _basis=basis)
    return estimate, state
