"""Data-driven wave-operator ROM velocity estimation with an FWI baseline."""

__version__ = "0.1.0"

from .forward import (
    DataSet,
    DiscreteOperator,
    Pulse,
    SensorArray,
    synthesize_dataset,
    synthesize_measurements,
    symmetrize_and_sample,
)
from .inversion import GnConfig, InversionState, LayerSchedule, run_inversion
from .model import (
    Grid2D,
    Parametrization,
    VelocityModel,
    evaluate_velocity,
    make_bump_lattice,
    make_camembert_model,
    make_two_layer_model,
)
from .objective import Acquisition, RomResidualSpec, fwi_objective, rom_objective
from .rom import OperatorRom, build_rom, rest_dk, restrict, triu_vec

__all__ = [
    "Acquisition",
    "DataSet",
    "DiscreteOperator",
    "GnConfig",
    "Grid2D",
    "InversionState",
    "LayerSchedule",
    "OperatorRom",
    "Parametrization",
    "Pulse",
    "RomResidualSpec",
    "SensorArray",
    "VelocityModel",
    "build_rom",
    "evaluate_velocity",
    "fwi_objective",
    "make_bump_lattice",
    "make_camembert_model",
    "make_two_layer_model",
    "rest_dk",
    "restrict",
    "rom_objective",
    "run_inversion",
    "symmetrize_and_sample",
    "synthesize_dataset",
    "synthesize_measurements",
    "triu_vec",
]
