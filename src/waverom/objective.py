"""ROM-misfit and FWI data-misfit objectives and their residual vectors."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forward import DataSet, Pulse, SensorArray, synthesize_dataset
from .model import VelocityModel
from .rom import OperatorRom, build_rom, rest_dk, restrict


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
    method: str

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")

    def dataset(self, v: VelocityModel, n: int = None) -> DataSet:
        """Data of v, samples j = 0..2n-2 (by default n = self.n)."""
        n = self.n if n is None else n
        return synthesize_dataset(v, self.array, self.pulse, self.tau, n, method=self.method)


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
    candidate = build_rom(acq.dataset(v, spec.k))
    r = rom_residual(candidate, spec)
    return float(r @ r), r


def fwi_residual(candidate: DataSet, reference: DataSet) -> np.ndarray:
    """Stacked upper triangles of D_j(v) - D_j over the candidate's samples."""
    iu, ju = np.triu_indices(candidate.m)
    diff = candidate.d - reference.d[: candidate.n_samples]
    return diff[:, iu, ju].ravel()


def residual_length(mode: str, m: int, n: int, d: int, k: int) -> int:
    """Entries of the residual over m sensors: of rom_residual at band depth
    d and restriction size k for mode "rom", of fwi_residual over the
    2n - 1 samples for mode "fwi"."""
    if mode == "rom":
        band = d * m
        return band * k * m - band * (band - 1) // 2
    return (2 * n - 1) * m * (m + 1) // 2


def fwi_objective(
    v: VelocityModel, reference: DataSet, acq: Acquisition
) -> tuple[float, np.ndarray]:
    """Conventional FWI data misfit and its residual vector: the squared
    upper-triangle differences summed over the samples j = 0..2n-2."""
    r = fwi_residual(acq.dataset(v), reference)
    return float(r @ r), r
