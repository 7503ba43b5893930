"""Test oracles that no command of the program calls.

A flat-spectrum pulse for operator-function identities, the dense
eigenpairs of an operator, the blocks of a snapshot matrix, the
truncated data set behind the causality checks, and the velocity at a
point.
"""

import math

import numpy as np
import scipy.linalg

from waverom.forward import DataSet, DiscreteOperator
from waverom.model import VelocityModel


class FlatPulse:
    """Stub with a flat unit spectrum, for operator-function identities."""

    nyquist_tau = math.inf
    tf = 0.0

    @staticmethod
    def f_hat(omega):
        return np.ones_like(np.asarray(omega, dtype=float))


def eigenpairs(op: DiscreteOperator) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues w and orthonormal eigenvectors Q of the
    operator's matrix, A = Q diag(w) Q^T: LAPACK's divide and conquer
    (`evd`) on an F-ordered dense copy of A that it overwrites with Q.
    The pairs `initial_states` and `propagate_snapshots` take."""
    return scipy.linalg.eigh(
        op.matrix.toarray(order="F"), driver="evd", overwrite_a=True, check_finite=False
    )


def block(snapshots: np.ndarray, m: int, j: int) -> np.ndarray:
    """Block j, the m states at time j tau, of the (n_dof, count m) matrix
    that `propagate_snapshots` returns."""
    return snapshots[:, j * m : (j + 1) * m]


def truncate(ds: DataSet, k: int) -> DataSet:
    """First 2k-1 samples as a DataSet of size k.

    By causality of the projected operator, the ROM built from the
    truncated set equals the upper-left km x km restriction of the full
    ROM.
    """
    if not 1 <= k <= ds.n:
        raise ValueError(f"truncation k={k} outside 1..{ds.n}")
    if k == ds.n:
        return ds
    return DataSet(ds.d[: 2 * k - 1], ds.ddot[: 2 * k - 1], ds.tau)


def velocity_at(v: VelocityModel, x: float, z: float) -> float:
    """Velocity at the node nearest to (x, z)."""
    i, j = v.grid.nearest_node(x, z)
    return float(v.c[i, j])
