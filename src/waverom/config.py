"""Experiment configuration: JSON in, validated dataclasses out.

A config fully determines an experiment; the CLI stores the config as
given, with its schema, in every run manifest so artifacts can be
reproduced from the manifest alone.  Load builds what the config states
and nothing else; the CLI checks that a job's config states the sections
the job reads.

A section is passed as keyword arguments to the constructor that holds
its defaults, which rejects unknown keys; the sections read field by
field list their keys in SECTION_KEYS.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, NonPositiveVelocity, OperatorOverflow
from .forward import (
    SPECTRAL_CAP,
    Pulse,
    chebyshev_interval,
    line_array,
    record_layout,
    ring_array,
    scaled_entries,
)
from .inversion import GnConfig, LayerSchedule
from .io import load_velocity
from .model import (
    Grid2D,
    Parametrization,
    VelocityModel,
    make_bump_lattice,
    make_camembert_model,
    make_constant_model,
    make_gradient_model,
    make_two_layer_model,
    whole,
)
from .objective import Acquisition

SCHEMA = "waverom-config-v1"

#: Most sweep candidates load checks: at 55-84 us a candidate on a 12 x 15
#: grid, about a minute of operator checks.
MAX_SWEEP_CANDIDATES = 10**6


def _file_model(path, g: Grid2D) -> VelocityModel:
    """A velocity artifact, which must lie on the stated grid `g`."""
    model = load_velocity(path)
    if model.grid != g:
        raise ConfigError(f"{path} holds a model on {model.grid}, not on the stated {g}")
    return model


#: Velocity model constructors under the name a config gives them (the
#: model's `factory`, the search background's `kind`).  Each is called
#: with the grid `g` and the remaining keys of its spec as keyword
#: arguments.
MODEL_FACTORIES = {
    "constant": make_constant_model,
    "two_layer": make_two_layer_model,
    "camembert": make_camembert_model,
    "gradient": make_gradient_model,
    "file": _file_model,
}

#: Sensor layout constructors under `acquisition.layout.kind`.
LAYOUTS = {"line": line_array, "ring": ring_array}

SECTION_KEYS = {
    "grid": {"nx", "nz", "hx", "hz", "bc"},
    "acquisition": {"layout", "pulse"},
    "sampling": {"n", "nyquist_factor"},
    "schedule": {"layers", "q", "k", "d"},
    "sweep": {"p1", "p2"},
    "reference": {"refine"},
}


@dataclass(frozen=True)
class SweepAxis:
    """One sweep axis, `{name, min, max, count}` in a config."""

    name: str
    min: float
    max: float
    count: int

    def __post_init__(self):
        object.__setattr__(self, "count", whole(self.count, f"sweep axis {self.name} count", 1))
        if not np.isfinite([self.min, self.max]).all():
            raise ValueError(f"sweep axis {self.name} needs a finite min and max")

    def values(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.count)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description (see load_config for the JSON shape)."""

    model: dict
    grid: dict
    acquisition: dict
    sampling: dict
    method: str = "chebyshev"
    search: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=dict)
    gn: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    reference: dict = field(default_factory=dict)
    base_dir: Path = Path(".")

    def __post_init__(self):
        for f in fields(self):
            section = getattr(self, f.name)
            if f.type == "dict" and not isinstance(section, dict):
                raise TypeError(f"section {f.name} must be an object, not {type(section).__name__}")

    # -- builders ----------------------------------------------------------

    def build_grid(self) -> Grid2D:
        """The grid; its walls are always Dirichlet, so `bc`, if given, must
        say so."""
        g = self.grid
        if g.get("bc", "dirichlet") != "dirichlet":
            raise ValueError(f"bc must be 'dirichlet', got {g['bc']!r}")
        return Grid2D(whole(g["nx"], "grid.nx"), whole(g["nz"], "grid.nz"),
                      float(g["hx"]), float(g["hz"]))

    def _velocity(self, spec: dict, name_key: str, g: Grid2D, **overrides) -> VelocityModel:
        params = dict(spec, **overrides)
        name = params.pop(name_key, None)
        if name not in MODEL_FACTORIES:
            raise ConfigError(f"unknown model {name_key} {name!r}")
        if name == "file":
            params["path"] = self.base_dir / params["path"]
        return MODEL_FACTORIES[name](g=g, **params)

    def build_model(self) -> VelocityModel:
        """The true model, as load builds it."""
        return self._velocity(self.model, "factory", self.build_grid())

    def build_acquisition(self, grid: Grid2D) -> Acquisition:
        """The sensor array on `grid`, the pulse, its interval tau (`Pulse.default_tau`
        at sampling.nyquist_factor, if given) and the sample count sampling.n,
        whose time-domain record (`record_layout`) must have a finite length
        that fits in memory."""
        if self.method not in ("spectral", "chebyshev"):
            raise ConfigError(f"unknown method {self.method!r}")
        pulse = Pulse.from_hz(**self.acquisition["pulse"])
        layout = dict(self.acquisition["layout"])
        kind = layout.pop("kind", "line")
        if kind not in LAYOUTS:
            raise ConfigError(f"layout 'kind' must be one of {sorted(LAYOUTS)}, got {kind!r}")
        array = LAYOUTS[kind](grid, **layout)
        for x, z in array.positions:
            grid.nearest_node(x, z)  # DomainTooSmall off the node block
        tau = pulse.default_tau(**{k: v for k, v in self.sampling.items() if k != "n"})
        n = whole(self.sampling["n"], "sampling.n")
        if not 1 <= n <= sys.maxsize // 2:  # the 2n - 1 samples must be indexable
            raise ValueError(f"sampling.n must be in [1, {sys.maxsize // 2}], got {n}")
        acq = Acquisition(array, pulse, tau, n, self.method)
        record_layout(pulse, tau, n, array.m)
        return acq

    def sweep_axes(self) -> tuple[SweepAxis, SweepAxis]:
        if not {"p1", "p2"} <= set(self.sweep):
            raise ConfigError("sweep needs exactly two parameters p1 and p2")
        ax1, ax2 = SweepAxis(**self.sweep["p1"]), SweepAxis(**self.sweep["p2"])
        if ax1.name == ax2.name:
            raise ConfigError(f"sweep axes p1 and p2 both vary {ax1.name!r}")
        return ax1, ax2


@dataclass(frozen=True)
class Run:
    """Everything load built and checked from a config.

    `reference` makes the reference data: `truth` itself at reference.refine
    1 (the inverse-crime regime), else the true model rebuilt on a grid
    that many times finer over the same domain.  `search`, `schedule` and
    `sweep` are built when the config states them and are None otherwise.
    `stated` is the config as given, with its schema, which every manifest
    records.
    """

    config: ExperimentConfig
    stated: dict
    truth: VelocityModel
    acquisition: Acquisition
    reference: VelocityModel
    search: Parametrization | None
    schedule: LayerSchedule | None
    gn: GnConfig
    sweep: tuple[SweepAxis, SweepAxis] | None

    def candidates(self):
        """The model at each sweep node, p1 major, as load built and checked it, each
        built when reached: topography_paper's 441 models would take 27.6 MB."""
        cfg, (ax1, ax2) = self.config, self.sweep
        for a in ax1.values():
            for b in ax2.values():
                yield cfg._velocity(cfg.model, "factory", self.truth.grid,
                                    **{ax1.name: a, ax2.name: b})


def _check_operator(v: VelocityModel):
    """OperatorOverflow, as in any synthesis of `v`, for a bound not positive and finite."""
    chebyshev_interval(scaled_entries(v)[1])


def _build_sections(cfg: ExperimentConfig, stated: dict) -> Run:
    """Build every section the `stated` config states once, so that a
    malformed one fails at load time, into its Run.  Every model the config
    states must have a positive, finite operator bound, and with
    `method: spectral` the reference grid must not exceed SPECTRAL_CAP
    nodes.  A search names its background and lattice; a sweep has at most
    MAX_SWEEP_CANDIDATES nodes."""
    try:
        for section, keys in SECTION_KEYS.items():
            unknown = set(getattr(cfg, section)) - keys
            if unknown:
                raise ConfigError(f"{section} section has unknown keys {sorted(unknown)}")
        section = "grid"
        grid = cfg.build_grid()
        section = "model"
        truth = cfg._velocity(cfg.model, "factory", grid)
        _check_operator(truth)
        section = "acquisition"
        acq = cfg.build_acquisition(grid)
        search = schedule = sweep = None
        if cfg.search:
            section = "search"
            params = dict(cfg.search)
            spec, lattice = params.pop("background"), params.pop("lattice")
            try:
                background = cfg._velocity(spec, "kind", grid)
            except ConfigError as exc:
                raise ConfigError(f"search background: {exc}") from exc
            search = make_bump_lattice(background, lattice, **params)
            _check_operator(background)
        section = "gn"
        gn = GnConfig(**cfg.gn)
        if cfg.schedule:
            section = "schedule"
            s = cfg.schedule
            schedule = LayerSchedule(s["k"], s["q"], s["d"])
            if s.get("layers", len(schedule.k)) != len(schedule.k):
                raise ConfigError(f"schedule.layers {s['layers']} disagrees with the "
                                  f"{len(schedule.k)} entries of k")
            if schedule.k[-1] > acq.n:
                raise ConfigError(f"schedule.k {list(schedule.k)} exceeds sampling.n {acq.n}")
        if cfg.sweep:
            section = "sweep"
            sweep = cfg.sweep_axes()
            if sweep[0].count * sweep[1].count > MAX_SWEEP_CANDIDATES:
                raise ConfigError(
                    f"sweep.p1.count x sweep.p2.count = {sweep[0].count} x {sweep[1].count} "
                    f"candidates on the {grid.nx} x {grid.nz} grid, more than the "
                    f"{MAX_SWEEP_CANDIDATES} that load checks"
                )
        section = "reference"
        factor = whole(cfg.reference.get("refine", 1), "reference.refine", 1)
        reference = truth
        if factor > 1:
            if cfg.model.get("factory") == "file":
                raise ConfigError("file-backed models cannot be re-gridded")
            reference = cfg._velocity(cfg.model, "factory", Grid2D(
                (grid.nx + 1) * factor - 1, (grid.nz + 1) * factor - 1,
                grid.hx / factor, grid.hz / factor,
            ))
            _check_operator(reference)
        if cfg.method == "spectral" and reference.grid.n_dof > SPECTRAL_CAP:
            raise ConfigError(
                f"method spectral needs a grid of at most {SPECTRAL_CAP} nodes; "
                f"the reference grid has {reference.grid.n_dof}"
            )
        run = Run(cfg, stated, truth, acq, reference, search, schedule, gn, sweep)
        if sweep:
            section = "sweep"
            for candidate in run.candidates():
                _check_operator(candidate)
    except KeyError as exc:
        raise ConfigError(f"{section} section missing {exc}") from exc
    except (TypeError, ValueError, OverflowError, MemoryError, NonPositiveVelocity,
            OperatorOverflow) as exc:
        raise ConfigError(f"bad {section} section: {exc}") from exc
    return run


def run_from_dict(raw: dict, base_dir) -> Run:
    """The Run of the config `raw`, whose file paths start at `base_dir`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    stated = {"schema": SCHEMA, **raw}
    sections = dict(stated)
    if sections.pop("schema") != SCHEMA:
        raise ConfigError(f"unsupported config schema {stated['schema']!r}")
    try:
        cfg = ExperimentConfig(base_dir=Path(base_dir), **sections)
    except TypeError as exc:
        raise ConfigError(f"bad config sections: {exc}") from exc
    return _build_sections(cfg, stated)


def load_run(path) -> Run:
    """The Run that the config file at `path` describes."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return run_from_dict(raw, path.parent)


def load_config(path) -> ExperimentConfig:
    """The config at `path`, once load has built and checked every section."""
    return load_run(path).config
