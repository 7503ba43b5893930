"""ROM-misfit and FWI data-misfit objectives and their residual vectors."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .forward import DataSet, Pulse, SensorArray, synthesize_dataset
from .model import VelocityModel
from .rom import OperatorRom, build_rom, rest_dk, restrict, triu_vec


@dataclass(frozen=True)
class Acquisition:
    """Everything the data synthesis needs besides the velocity model.

    A candidate objective is only comparable to its reference when both
    were produced with the identical bundle.
    """

    array: SensorArray
    pulse: Pulse
    tau: float
    n: int
    method: str = "spectral"

    def dataset(self, v: VelocityModel) -> DataSet:
        return synthesize_dataset(v, self.array, self.pulse, self.tau, self.n, method=self.method)

    def with_n(self, n: int) -> "Acquisition":
        return dataclasses.replace(self, n=n)


@dataclass(frozen=True)
class RomResidualSpec:
    """Band depth d, restriction size k, and the reference ROM."""

    d: int
    k: int
    reference_rom: OperatorRom

    def __post_init__(self):
        if not 1 <= self.d <= self.k <= self.reference_rom.n:
            raise ValueError(
                f"need 1 <= d={self.d} <= k={self.k} <= n={self.reference_rom.n}"
            )


def rom_residual(candidate: OperatorRom, spec: RomResidualSpec) -> np.ndarray:
    """rest_dk of the restricted ROM difference."""
    diff = restrict(candidate, spec.k) - restrict(spec.reference_rom, spec.k)
    return rest_dk(diff, spec.d, candidate.m)


def rom_objective(
    v: VelocityModel, spec: RomResidualSpec, acq: Acquisition
) -> tuple[float, np.ndarray]:
    """ROM misfit O_{d,k}(v) and its residual vector.

    Synthesizes candidate data for v under the acquisition bundle, builds
    its ROM, and measures the banded restricted difference against the
    reference.  By causality the restriction [A_rom(v)]_k only needs the
    first 2k-1 samples, so that is all the candidate synthesis produces.
    MassNotSPD from the candidate propagates to the caller, which signals
    an infeasible trial velocity.
    """
    acq_k = acq if spec.k == acq.n else acq.with_n(spec.k)
    candidate = build_rom(acq_k.dataset(v))
    r = rom_residual(candidate, spec)
    return float(r @ r), r


def fwi_residual(candidate: DataSet, reference: DataSet, n_samples: int = None) -> np.ndarray:
    """Stacked upper triangles of D_j(v) - D_j over the sample range."""
    n_samples = reference.n_samples if n_samples is None else n_samples
    return np.concatenate(
        [triu_vec(candidate.d[j] - reference.d[j]) for j in range(n_samples)]
    )


def fwi_objective(
    v: VelocityModel,
    reference: DataSet,
    acq: Acquisition,
    k: int = None,
) -> tuple[float, np.ndarray]:
    """Conventional FWI data misfit and its residual vector.

    Sums squared upper-triangle differences over all available samples
    j = 0..2n-2.  Passing `k` truncates the range to j <= 2k-2, the
    restriction-parity variant used for layer-stripping comparisons.
    """
    n_samples = reference.n_samples if k is None else 2 * k - 1
    acq_k = acq if k is None or k == acq.n else acq.with_n(k)
    candidate = acq_k.dataset(v)
    r = fwi_residual(candidate, reference, n_samples)
    return float(r @ r), r
