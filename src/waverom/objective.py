"""ROM-misfit and FWI data-misfit objectives, and their residuals of whole operands."""

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


def rom_residual(candidate: OperatorRom, reference_rom: OperatorRom, d: int) -> np.ndarray:
    """rest_dk at band depth d of the candidate ROM, of some size k, less the
    reference restricted to that k; `restrict` refuses a candidate larger
    than the reference, `rest_dk` a d outside 1..k."""
    return rest_dk(candidate.a_rom - restrict(reference_rom, candidate.n), d, candidate.m)


def rom_objective(
    v: VelocityModel, reference_rom: OperatorRom, d: int, k: int, acq: Acquisition
) -> np.ndarray:
    """Residual of the ROM misfit O_{d,k}(v) = r @ r.

    Synthesizes candidate data for v under the acquisition bundle, builds
    its ROM, and measures the banded difference against the reference
    restricted to k.  By causality the ROM of the first 2k-1 samples is
    [A_rom(v)]_k, so those are all the samples the synthesis produces.
    MassNotSPD from the candidate propagates to the caller, which signals
    an infeasible trial velocity.
    """
    return rom_residual(build_rom(acq.dataset(v, k)), reference_rom, d)


def fwi_residual(candidate: DataSet, reference: DataSet) -> np.ndarray:
    """Stacked upper triangles of D_j(v) - D_j over all samples; ValueError
    unless both stacks have one shape."""
    if candidate.d.shape != reference.d.shape:
        raise ValueError(f"candidate samples {candidate.d.shape} differ from {reference.d.shape}")
    iu, ju = np.triu_indices(candidate.m)
    return (candidate.d - reference.d)[:, iu, ju].ravel()


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
