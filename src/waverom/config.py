"""Experiment configuration: JSON in, one checked Run out.

A config fully determines an experiment; the CLI stores the config as
given, with its schema, in every run manifest so artifacts can be
reproduced from the manifest alone.  Load builds what the config states
and nothing else; the CLI checks that a job's config states the sections
the job reads.  The Run holds the config as stated and what load built
from it through the Run's own builders.

Load refuses a top-level key outside SECTIONS, then reads the sections in
SECTION_KEYS field by field and refuses a key outside their list; the
`gn` fields then go to GnConfig.  Each spec that names a constructor
(the model, the search background, the sensor layout, the pulse and each
sweep axis) is passed to it as keyword arguments, and the constructor
holds the defaults and rejects unknown keys: `acquisition.pulse` goes to
`Pulse` as it stands.  No config value is a boolean.
"""

from __future__ import annotations

import json
import sys
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, OperatorOverflow
from .forward import (
    SPECTRAL_CAP,
    Pulse,
    SensorArray,
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
    "gn": {"gamma", "alpha_max", "fd_step"},
}

#: The sections every config states.
REQUIRED = ("model", "grid", "acquisition", "sampling")

#: The top-level keys a config may hold.  Each but `schema` and `method`,
#: both strings, is an object.
SECTIONS = {"schema", "method", "search", *REQUIRED, *SECTION_KEYS}


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
class Run:
    """The config `stated`, whose file paths start at `base_dir`, and
    everything load built and checked from it.

    `stated` is the config as given, with its schema, which every manifest
    records.  `reference` makes the reference data: `truth` itself at
    reference.refine 1 (the inverse-crime regime), else the true model
    rebuilt on a grid that many times finer over the same domain.
    `search`, `schedule` and `sweep` are built when the config states them
    and are None otherwise.
    """

    stated: dict
    base_dir: Path
    truth: VelocityModel = field(init=False)
    acquisition: Acquisition = field(init=False)
    reference: VelocityModel = field(init=False)
    search: Parametrization | None = field(init=False)
    schedule: LayerSchedule | None = field(init=False)
    gn: GnConfig = field(init=False)
    sweep: tuple[SweepAxis, SweepAxis] | None = field(init=False)

    def __post_init__(self):
        """Build every section the config states once, so that a malformed
        one fails at load time.  Every model the config states must have a
        positive, finite operator bound, and with `method: spectral` the
        reference grid must not exceed SPECTRAL_CAP nodes.  A search names
        its background and lattice, and gn.fd_step times each of its bumps
        moves its background at some node; a sweep has at most
        MAX_SWEEP_CANDIDATES nodes.

        Before any section is read, `stated` must hold no boolean, then the
        schema SCHEMA, only SECTIONS, each REQUIRED one, and objects where
        SECTIONS says so."""
        cfg = self.stated
        _refuse_booleans(cfg)
        if cfg.get("schema") != SCHEMA:
            raise ConfigError(f"unsupported config schema {cfg.get('schema')!r}")
        unknown = set(cfg) - SECTIONS
        if unknown:
            raise ConfigError(f"config has unknown sections {sorted(unknown)}")
        missing = set(REQUIRED) - set(cfg)
        if missing:
            raise ConfigError(f"config missing sections {sorted(missing)}")
        for name, section in cfg.items():
            if name not in ("schema", "method") and not isinstance(section, dict):
                raise ConfigError(f"section {name} must be an object, "
                                  f"not {type(section).__name__}")
        try:
            for section, keys in SECTION_KEYS.items():
                unknown = set(cfg.get(section, {})) - keys
                if unknown:
                    raise ConfigError(f"{section} section has unknown keys {sorted(unknown)}")
            section = "grid"
            grid = self.build_grid()
            section = "model"
            truth = self.build_model()
            _check_operator(truth)
            section = "acquisition"
            array, pulse = self.build_array_and_pulse(grid)
            section = "sampling"
            acq = self.build_sampling(array, pulse)
            search = schedule = sweep = None
            if cfg.get("search"):
                section = "search"
                params = dict(cfg["search"])
                spec, lattice = params.pop("background"), params.pop("lattice")
                try:
                    background = self._velocity(spec, "kind", grid)
                except ConfigError as exc:
                    raise ConfigError(f"search background: {exc}") from exc
                search = make_bump_lattice(background, lattice, **params)
                _check_operator(background)
            section = "gn"
            gn = GnConfig(**cfg.get("gn", {}))
            if search:
                c = search.background.c.ravel()[:, None]
                if not (c + gn.fd_step * search.basis_matrix != c).any(axis=0).all():
                    raise ValueError(f"fd_step {gn.fd_step:g} moves no node under some search bump")
            if cfg.get("schedule"):
                section = "schedule"
                s = cfg["schedule"]
                schedule = LayerSchedule(s["k"], s["q"], s["d"])
                if s.get("layers", len(schedule.k)) != len(schedule.k):
                    raise ConfigError(f"schedule.layers {s['layers']} disagrees with the "
                                      f"{len(schedule.k)} entries of k")
                if schedule.k[-1] > acq.n:
                    raise ConfigError(f"schedule.k {list(schedule.k)} exceeds sampling.n {acq.n}")
            if cfg.get("sweep"):
                section = "sweep"
                sweep = self.sweep_axes()
                if sweep[0].count * sweep[1].count > MAX_SWEEP_CANDIDATES:
                    raise ConfigError(
                        f"sweep.p1.count x sweep.p2.count = {sweep[0].count} x {sweep[1].count} "
                        f"candidates on the {grid.nx} x {grid.nz} grid, more than the "
                        f"{MAX_SWEEP_CANDIDATES} that load checks"
                    )
            section = "reference"
            factor = whole(cfg.get("reference", {}).get("refine", 1), "reference.refine", 1)
            reference = truth
            if factor > 1:
                if cfg["model"].get("factory") == "file":
                    raise ConfigError("file-backed models cannot be re-gridded")
                reference = self._velocity(cfg["model"], "factory", Grid2D(
                    (grid.nx + 1) * factor - 1, (grid.nz + 1) * factor - 1,
                    grid.hx / factor, grid.hz / factor,
                ))
                _check_operator(reference)
            if acq.method == "spectral" and reference.grid.n_dof > SPECTRAL_CAP:
                raise ConfigError(
                    f"method spectral needs a grid of at most {SPECTRAL_CAP} nodes; "
                    f"the reference grid has {reference.grid.n_dof}"
                )
            built = dict(truth=truth, acquisition=acq, reference=reference, search=search,
                         schedule=schedule, gn=gn, sweep=sweep)
            for name, value in built.items():
                object.__setattr__(self, name, value)
            if sweep:
                section = "sweep"
                for candidate in self.candidates():
                    _check_operator(candidate)
        except KeyError as exc:
            raise ConfigError(f"{section} section missing {exc}") from exc
        except (TypeError, ValueError, OverflowError, MemoryError, OperatorOverflow) as exc:
            raise ConfigError(f"bad {section} section: {exc}") from exc

    # -- builders: each reads the stated sections --------------------------

    def build_grid(self) -> Grid2D:
        """The grid; its walls are always Dirichlet, so `bc`, if given, must
        say so."""
        g = self.stated["grid"]
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
        return self._velocity(self.stated["model"], "factory", self.build_grid())

    def build_acquisition(self, grid: Grid2D) -> Acquisition:
        """The acquisition bundle on `grid`, as load builds it."""
        return self.build_sampling(*self.build_array_and_pulse(grid))

    def build_array_and_pulse(self, grid: Grid2D) -> tuple[SensorArray, Pulse]:
        """The acquisition section's sensor array on `grid`, whose sensors
        must each have their nearest node in the node block and a sensor
        function with support on the grid, and its pulse."""
        acquisition = self.stated["acquisition"]
        pulse = Pulse(**acquisition["pulse"])
        layout = dict(acquisition["layout"])
        kind = layout.pop("kind", "line")
        if kind not in LAYOUTS:
            raise ConfigError(f"layout 'kind' must be one of {sorted(LAYOUTS)}, got {kind!r}")
        array = LAYOUTS[kind](grid, **layout)
        array.theta_matrix(grid)  # places each sensor, for every synthesis on `grid`
        return array, pulse

    def build_sampling(self, array: SensorArray, pulse: Pulse) -> Acquisition:
        """The bundle of `array`, `pulse` and the method, at the sampling section's
        tau (`Pulse.default_tau` at nyquist_factor, if given) and n, whose leapfrog
        record (`record_layout`) must have a finite length that fits in memory."""
        method = self.stated.get("method", "chebyshev")
        if method not in ("spectral", "chebyshev"):
            raise ConfigError(f"unknown method {method!r}")
        sampling = self.stated["sampling"]
        tau = pulse.default_tau(**{k: v for k, v in sampling.items() if k != "n"})
        n = whole(sampling["n"], "sampling.n")
        if not 1 <= n <= sys.maxsize // 2:  # the 2n - 1 samples must be indexable
            raise ValueError(f"sampling.n must be in [1, {sys.maxsize // 2}], got {n}")
        acq = Acquisition(array, pulse, tau, n, method)
        record_layout(pulse, tau, n, array.m)
        return acq

    def sweep_axes(self) -> tuple[SweepAxis, SweepAxis]:
        sweep = self.stated.get("sweep", {})
        if not {"p1", "p2"} <= set(sweep):
            raise ConfigError("sweep needs exactly two parameters p1 and p2")
        ax1, ax2 = SweepAxis(**sweep["p1"]), SweepAxis(**sweep["p2"])
        if ax1.name == ax2.name:
            raise ConfigError(f"sweep axes p1 and p2 both vary {ax1.name!r}")
        return ax1, ax2

    def candidates(self):
        """The model at each sweep node, p1 major, as load built and checked it, each
        built when reached: topography_paper's 441 models would take 27.6 MB."""
        ax1, ax2 = self.sweep
        for a in ax1.values().tolist():
            for b in ax2.values().tolist():
                yield self._velocity(self.stated["model"], "factory", self.truth.grid,
                                     **{ax1.name: a, ax2.name: b})


def _check_operator(v: VelocityModel):
    """OperatorOverflow, as in any synthesis of `v`, for a bound not positive and finite."""
    chebyshev_interval(scaled_entries(v)[1])


def _refuse_booleans(raw: dict):
    """ConfigError naming a boolean leaf of `raw`, the shallowest first,
    through objects and lists: no config value is a boolean, and Python
    would read true as the number 1."""
    pending = deque((str(key), key, value) for key, value in raw.items())
    while pending:
        path, key, value = pending.popleft()
        if isinstance(value, bool):
            raise ConfigError(f"key {key!r} at {path} is {json.dumps(value)}, "
                              f"and no config value is a boolean")
        if isinstance(value, dict):
            pending.extend((f"{path}.{k}", k, v) for k, v in value.items())
        elif isinstance(value, list):
            pending.extend((f"{path}[{i}]", key, v) for i, v in enumerate(value))


def run_from_dict(raw: dict, base_dir) -> Run:
    """The Run of the config `raw`, whose file paths start at `base_dir`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    return Run({"schema": SCHEMA, **raw}, Path(base_dir))


def load_config(path) -> Run:
    """The Run that the config file at `path` describes."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or a huge int
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return run_from_dict(raw, path.parent)
