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


def rom_residual(candidate: OperatorRom, reference_rom: OperatorRom, d: int, k: int) -> np.ndarray:
    """rest_dk at band depth d of the difference of the two ROMs restricted
    to size k; `restrict` refuses a k outside 1..n, `rest_dk` a d outside
    1..k."""
    diff = restrict(candidate, k) - restrict(reference_rom, k)
    return rest_dk(diff, d, candidate.m)


def rom_objective(
    v: VelocityModel, reference_rom: OperatorRom, d: int, k: int, acq: Acquisition
) -> np.ndarray:
    """Residual of the ROM misfit O_{d,k}(v) = r @ r.

    Synthesizes candidate data for v under the acquisition bundle, builds
    its ROM, and measures the banded restricted difference against the
    reference.  By causality the restriction [A_rom(v)]_k only needs the
    first 2k-1 samples, so that is all the candidate synthesis produces.
    MassNotSPD from the candidate propagates to the caller, which signals
    an infeasible trial velocity.
    """
    return rom_residual(build_rom(acq.dataset(v, k)), reference_rom, d, k)


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


def fwi_objective(v: VelocityModel, reference: DataSet, acq: Acquisition) -> np.ndarray:
    """Residual of the conventional FWI data misfit r @ r: the upper-triangle
    differences over the samples j = 0..2n-2."""
    return fwi_residual(acq.dataset(v), reference)
