"""Layer-stripping Gauss-Newton minimization of ROM or FWI misfit.

The outer loop records exactly L*q regularized Gauss-Newton updates and
computes those that can move the iterate, in stretches of one residual
map: one per k for the ROM misfit, one per run for FWI.  Each linearizes
the residual by forward finite differences (backward where the forward
trial is infeasible), one synthesis per column in index order, into one
M x N Jacobian, factored in place by one Householder QR; the SVD of the
N x N triangle gives the adaptive Tikhonov weight, the rank check and
the damped direction.  The update then line-searches the penalized
functional with a rejection fallback so accepted steps never increase it.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from . import profile
from .errors import JacobianRankWarning, MassNotSPD, OperatorOverflow, WaveromError
from .forward import DataSet, _check_info
from .model import C_MIN, Parametrization, VelocityModel, evaluate_velocity, whole
from .objective import Acquisition, fwi_objective, rom_objective
from .rom import OperatorRom


#: What the residual of an infeasible trial velocity raises: its ROM mass
#: matrix is not SPD, or the velocity or its operator leaves the float range.
INFEASIBLE = (MassNotSPD, OperatorOverflow)


@dataclass(frozen=True)
class LayerSchedule:
    """Layer-stripping schedule: q iterations at each restriction size k_l."""

    k: tuple[int, ...]
    q: int
    d: int

    def __post_init__(self):
        k = tuple(whole(v, "k") for v in self.k)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "q", whole(self.q, "q"))
        object.__setattr__(self, "d", whole(self.d, "d"))
        if len(k) < 1 or self.q < 1:
            raise ValueError("need at least one layer and one iteration per layer")
        if any(k[i] > k[i + 1] for i in range(len(k) - 1)) or k[0] < 1:
            raise ValueError("k must satisfy 1 <= k_1 <= ... <= k_L")
        if not 1 <= self.d <= k[0]:
            raise ValueError("need 1 <= d <= k_1")


@dataclass(frozen=True)
class GnConfig:
    """Gauss-Newton settings, the fields of a config's `gn` section.

    gamma is the Tikhonov quantile: mu_i is the squared floor(gamma N)-th
    largest singular value of the Jacobian (index clamped to 1 at the
    low end).  alpha_max caps the line-search step (positive and finite)
    and fd_step is the finite-difference velocity step in m/s (positive
    and below C_MIN, the clamp on trial velocities).  Load also refuses
    an fd_step under which some bump of the config's search moves no
    node of its background.
    """

    gamma: float = 0.3
    alpha_max: float = 3.0
    fd_step: float = 1e-2

    def __post_init__(self):
        if not 0.2 < self.gamma < 0.4:
            raise ValueError("gamma must lie in the open interval (0.2, 0.4)")
        if not 0 < self.alpha_max < math.inf:
            raise ValueError("alpha_max must be positive and finite")
        if not 0 < self.fd_step < C_MIN:
            raise ValueError(f"fd_step must be positive and below C_MIN = {C_MIN:g} m/s")


class GnUpdate(NamedTuple):
    """One Gauss-Newton update: its restriction size k_l, the objective at
    its iterate, mu, the accepted step alpha, the pair
    (F_i(eta^(i)), F_i(eta^(i-1))) whose ordering the accepted-step
    monotonicity contract promises, and the iterate eta^(i), read-only.
    Updates after one that leaves eta in its stretch repeat it at their own
    k_l (run_inversion)."""

    k: int
    objective: float
    mu: float
    alpha: float
    penalized: tuple[float, float]
    eta: np.ndarray


def jacobian(
    residual_fn, eta: np.ndarray, fd_step: float, base: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Forward finite-difference Jacobian of a residual function.

    Column l is [G(eta + delta_l e_l) - G(eta)] / delta_l with
    delta_l = fd_step * max(1, |eta_l|); the bumps have unit amplitude, so
    one eta unit is one m/s of velocity and fd_step is a velocity step.
    `base` is G(eta).  Columns are evaluated one after another in index
    order and written straight into `out`, a Fortran-ordered (M, N) array,
    the layout qr_svd factors in place.

    A column whose forward trial is infeasible (INFEASIBLE) becomes the
    backward difference [G(eta) - G(eta - delta_l e_l)] / delta_l, and
    adds one to `inversion.fd_backward` in `profile`; when the backward
    trial is infeasible too, its error is raised.
    """
    eta = np.asarray(eta, dtype=float)
    n = eta.size
    if base.size < n:
        raise ValueError(f"residual has {base.size} entries for {n} parameters")

    for l in range(n):
        delta = fd_step * max(1.0, abs(eta[l]))
        bumped = eta.copy()
        bumped[l] += delta
        column = out[:, l]
        try:
            np.subtract(residual_fn(bumped), base, out=column)
        except INFEASIBLE:
            bumped[l] = eta[l] - delta
            np.subtract(base, residual_fn(bumped), out=column)
            profile.count("inversion.fd_backward")
        column /= delta
    return out


def qr_svd(jac: np.ndarray, r: np.ndarray):
    """SVD of an M x N Jacobian (M >= N) through its QR factor, and Q^T r.

    Factors J = QR in place with one Householder QR, so `jac` is
    overwritten by the reflectors; applies Q^T to r from the reflectors;
    then takes the SVD U_R diag(sigma) V^T of the N x N triangle R.  Since
    J = (Q U_R) diag(sigma) V^T, this is the SVD of J without a copy of J
    or its M x N left factor (Chan, ACM TOMS 8(1), 1982).  Returns
    ((U_R, sigma, V^T), Q^T r), the arguments of gn_step.
    """
    (reflectors, tau), r_factor = scipy.linalg.qr(
        jac, mode="raw", overwrite_a=True, check_finite=False
    )
    dormqr = scipy.linalg.lapack.dormqr
    rhs = r.reshape(-1, 1)
    lwork = int(dormqr("L", "T", reflectors, tau, rhs, -1)[1][0])
    qtr, _, info = dormqr("L", "T", reflectors, tau, rhs, lwork)
    _check_info("dormqr", info)
    return scipy.linalg.svd(r_factor, overwrite_a=True, check_finite=False), qtr[:, 0]


def tikhonov_mu(sigma: np.ndarray, gamma: float) -> float:
    """Adaptive Tikhonov weight from the descending singular values of
    the Jacobian: square of the floor(gamma N)-th largest; a zero index
    falls back to the largest (the largest weight, for the degenerate
    small-N case)."""
    idx = max(int(math.floor(gamma * sigma.size)), 1)
    return float(sigma[idx - 1] ** 2)


def gn_step(svd, qtr: np.ndarray, mu: float) -> np.ndarray:
    """Damped Gauss-Newton direction -(J^T J + mu I)^{-1} J^T r.

    `svd` and `qtr` are what qr_svd returns for J = QR and r: the SVD
    (U_R, sigma, V^T) of the N x N factor R and all M entries of Q^T r.
    The direction is -V diag(sigma / (sigma^2 + mu)) U_R^T (Q^T r)[:N].
    Warns JacobianRankWarning when sigma_N / sigma_1 < 1e-14; with mu = 0
    a rank-deficient J (sigma_N at or below the least-squares cutoff
    eps * max(M, N) * sigma_1, with M the residual length) raises
    WaveromError.
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
    cutoff = np.finfo(float).eps * max(qtr.size, vt.shape[1]) * sigma[0]
    if mu == 0.0 and sigma[-1] <= cutoff:
        raise WaveromError("Jacobian rank deficient and mu = 0")
    return -(vt.T @ (sigma / (sigma**2 + mu) * (u.T @ qtr[: sigma.size])))


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Ratio, size and golden-section refinement passes of the line-search grid.
LS_RHO = 0.7
LS_GRID_SIZE = 13
LS_GOLDEN_ITERS = 8


def line_search(
    eta: np.ndarray, direction: np.ndarray, functional, alpha_max: float, start: tuple
) -> tuple:
    """Step length minimizing the functional along eta + alpha*direction.

    `functional` maps a trial to a (value, payload) pair, and `start` is
    that pair at eta.  Samples the geometric grid
    {alpha_max * LS_RHO^j, j < LS_GRID_SIZE} and refines around the best
    grid point with LS_GOLDEN_ITERS golden-section passes; the functional
    may return +inf for infeasible trials.  Returns (alpha, value, payload)
    of the first probed alpha of least value, or (0, *start) when no
    sampled step improves on start's value (step rejected).  A probe is
    kept only when its value is strictly lower, so value never exceeds
    start's.
    """
    best = (0.0, *start)

    def probe(alpha: float) -> float:
        nonlocal best
        with np.errstate(over="ignore"):  # the functional refuses a trial beyond the float range
            trial = eta + alpha * direction
        val, payload = functional(trial)
        if val < best[1]:
            best = (alpha, val, payload)
        return val

    for j in range(LS_GRID_SIZE):
        probe(alpha_max * LS_RHO**j)
    if best[0] == 0.0:
        return best

    a, b = best[0] * LS_RHO, min(best[0] / LS_RHO, alpha_max)
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = probe(x1), probe(x2)
    for _ in range(LS_GOLDEN_ITERS):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = probe(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = probe(x2)
    return best


def make_residual_fn(reference, param: Parametrization, acq: Acquisition, d: int, k: int):
    """Residual map eta -> r(v(eta)) of the layer with restriction size k.

    An OperatorRom reference gives the banded ROM misfit O_{d,k}, which reads
    d and k; a DataSet the FWI data misfit over all its samples, reading neither.
    """
    if isinstance(reference, OperatorRom):
        return lambda eta: rom_objective(evaluate_velocity(param, eta), reference, d, k, acq)
    return lambda eta: fwi_objective(evaluate_velocity(param, eta), reference, acq)


def run_inversion(
    reference,
    param: Parametrization,
    schedule: LayerSchedule,
    cfg: GnConfig,
    acq: Acquisition,
) -> tuple[VelocityModel, list[GnUpdate]]:
    """Run L*q Gauss-Newton updates minimizing the layered misfit.

    The type of `reference`, an OperatorRom or a DataSet with n >= k_L,
    picks the misfit (see make_residual_fn).  Starting from eta = 0, update
    i = (l-1)q + j line-searches the penalized functional
    F_i(eta) = O_{d,k_l}(eta) + mu_i |eta - eta^(i-1)|^2 along the damped
    Gauss-Newton direction, the same quadratic model the direction solve
    minimizes.  Returns the estimate v(eta^(Lq)) and one GnUpdate per
    update, whose penalized pair leads with the value the line search
    accepted.  Consecutive updates with one residual map form a stretch:
    those of one k for an OperatorRom (k is nondecreasing), all L*q for a
    DataSet, whose map reads no k.  A stretch synthesizes the residual at
    its first anchor; each later anchor's is the one the line search hands
    back with the step it accepts.  An update that leaves eta (a rejected
    step, alpha = 0, or a zero objective) changes no input of the next, so
    it is recorded again, at each k_l, for the rest of its stretch, which
    ends there.  An infeasible trial (INFEASIBLE) scores +inf in the line
    search and adds one to `inversion.infeasible` in `profile`; an
    infeasible first anchor raises its residual's error.
    """
    if not isinstance(reference, (OperatorRom, DataSet)):
        raise TypeError(f"reference is a {type(reference).__name__}, not an OperatorRom or DataSet")
    if schedule.k[-1] > reference.n:
        raise ValueError(f"schedule k_L = {schedule.k[-1]} exceeds reference n = {reference.n}")

    eta = np.zeros(param.n_params)
    eta.flags.writeable = False
    updates: list[GnUpdate] = []

    ks = [k for k in schedule.k for _ in range(schedule.q)]  # k_l of each update
    rom = isinstance(reference, OperatorRom)
    for _, stretch in itertools.groupby(ks, key=lambda k: k if rom else None):
        stretch = list(stretch)
        residual_fn = make_residual_fn(reference, param, acq, schedule.d, stretch[0])
        base = residual_fn(eta)  # then handed back by each line search
        # One Jacobian array per stretch: one per update raised the desk ROM
        # inversion's peak RSS by 1.6-3.3 MB from about 68 MB (seed 0, 2 vCPUs).
        jac = np.empty((base.size, param.n_params), order="F")
        for i, k in enumerate(stretch):
            anchor = eta
            obj0 = float(base @ base)
            if obj0 == 0.0:
                update = GnUpdate(k, obj0, 0.0, 0.0, (obj0, obj0), eta)
            else:
                svd, qtr = qr_svd(jacobian(residual_fn, anchor, cfg.fd_step, base, jac), base)
                mu = tikhonov_mu(svd[1], cfg.gamma)
                direction = gn_step(svd, qtr, mu)

                # F_i penalizes the departure from the linearization point, the
                # quadratic model the damped direction actually minimizes; an
                # infeasible trial scores +inf before its step is measured.
                def penalized(trial: np.ndarray):
                    try:
                        r = residual_fn(trial)
                    except INFEASIBLE:
                        profile.count("inversion.infeasible")
                        return math.inf, None
                    step = trial - anchor
                    return float(r @ r) + mu * float(step @ step), r

                alpha, f_new, base = line_search(anchor, direction, penalized,
                                                 cfg.alpha_max, start=(obj0, base))
                eta = anchor + alpha * direction
                eta.flags.writeable = False
                update = GnUpdate(k, float(base @ base), mu, alpha, (f_new, obj0), eta)
            if update.alpha == 0.0:  # eta stays: the rest of the stretch repeats this update
                updates += [update._replace(k=k_l) for k_l in stretch[i:]]
                break
            updates.append(update)

    return evaluate_velocity(param, eta), updates
