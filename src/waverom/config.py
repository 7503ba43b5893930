"""Experiment configuration: JSON in, validated dataclasses out.

A config fully determines an experiment; the CLI stores the resolved
config in every run manifest so artifacts can be reproduced from the
manifest alone.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .forward import Pulse, SensorArray, line_array, ring_array
from .inversion import GnConfig, LayerSchedule
from .model import (
    Grid2D,
    Parametrization,
    VelocityModel,
    make_bump_lattice,
    make_camembert_model,
    make_constant_model,
    make_gradient_model,
    make_two_layer_model,
)
from .objective import Acquisition

SCHEMA = "waverom-config-v1"


@dataclass(frozen=True)
class SweepAxis:
    name: str
    lo: float
    hi: float
    count: int

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


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
    record: dict = field(default_factory=dict)
    reference: dict = field(default_factory=dict)
    base_dir: Path = Path(".")

    # -- builders ----------------------------------------------------------

    def build_grid(self) -> Grid2D:
        g = self.grid
        return Grid2D(
            int(g["nx"]), int(g["nz"]), float(g["hx"]), float(g["hz"]),
            float(g.get("x0", 0.0)), float(g.get("z0", 0.0)),
        )

    def _bc(self):
        return self.grid.get("bc", "dirichlet")

    _FACTORY_PARAMS = {
        "file": {"path"},
        "constant": {"c0"},
        "two_layer": {"depth_left", "contrast", "slope_drop", "c_top"},
        "camembert": {"center", "radius", "c_inside", "c_outside"},
        "gradient": {"c_top", "c_bottom"},
    }

    def build_model(self, grid: Grid2D = None) -> VelocityModel:
        spec = dict(self.model)
        factory = spec.pop("factory", None)
        allowed = self._FACTORY_PARAMS.get(factory)
        if allowed is not None and not set(spec) <= allowed:
            raise ConfigError(
                f"model factory {factory!r} got unknown parameters "
                f"{sorted(set(spec) - allowed)}"
            )
        if factory == "file":
            if grid is not None:
                raise ConfigError("file-backed models cannot be re-gridded")
            from .io import load_velocity

            return load_velocity(self.base_dir / spec["path"])
        g = self.build_grid() if grid is None else grid
        if factory == "constant":
            return make_constant_model(spec["c0"], g, bc=self._bc())
        if factory == "two_layer":
            return make_two_layer_model(
                spec["depth_left"], spec["contrast"], g,
                slope_drop=spec.get("slope_drop", 400.0),
                c_top=spec.get("c_top", 1500.0), bc=self._bc(),
            )
        if factory == "camembert":
            return make_camembert_model(
                g,
                center=tuple(spec.get("center", (1000.0, 1000.0))),
                radius=spec.get("radius", 600.0),
                c_inside=spec.get("c_inside", 4000.0),
                c_outside=spec.get("c_outside", 3000.0),
                bc=self._bc(),
            )
        if factory == "gradient":
            return make_gradient_model(spec["c_top"], spec["c_bottom"], g, bc=self._bc())
        raise ConfigError(f"unknown model factory {factory!r}")

    def build_pulse(self) -> Pulse:
        p = self.acquisition.get("pulse", {})
        return Pulse.from_hz(float(p["freq_hz"]), float(p["bandwidth_hz"]))

    def build_array(self, grid: Grid2D) -> SensorArray:
        layout = self.acquisition.get("layout", {})
        kind = layout.get("kind", "line")
        width = self.acquisition.get("theta_width")
        width = grid.hx if width is None else float(width)
        if kind == "line":
            return line_array(
                grid, int(layout["m"]), float(layout["depth"]),
                theta_width=width, margin=layout.get("margin"),
            )
        if kind == "ring":
            return ring_array(grid, int(layout["m"]), float(layout["inset"]), theta_width=width)
        if kind == "explicit":
            return SensorArray(np.asarray(layout["positions"], dtype=float), width)
        raise ConfigError(f"unknown sensor layout {kind!r}")

    def resolve_tau(self, pulse: Pulse) -> float:
        s = self.sampling
        if s.get("tau") is not None:
            return float(s["tau"])
        return pulse.default_tau(float(s.get("nyquist_factor", 0.9)))

    @property
    def n(self) -> int:
        n = int(self.sampling["n"])
        if n < 1:
            raise ValueError(f"sampling.n must be >= 1, got {n}")
        return n

    def build_acquisition(self, grid: Grid2D) -> Acquisition:
        if self.method not in ("spectral", "chebyshev"):
            raise ConfigError(f"unknown method {self.method!r}")
        pulse = self.build_pulse()
        return Acquisition(
            self.build_array(grid), pulse, self.resolve_tau(pulse), self.n, self.method
        )

    def build_search(self, grid: Grid2D) -> Parametrization:
        s = self.search
        bg_spec = dict(s.get("background", {}))
        kind = bg_spec.pop("kind", "constant")
        if kind == "constant":
            background = make_constant_model(bg_spec.get("c0", 3000.0), grid, bc=self._bc())
        elif kind == "gradient":
            background = make_gradient_model(
                bg_spec["c_top"], bg_spec["c_bottom"], grid, bc=self._bc()
            )
        elif kind == "file":
            from .io import load_velocity

            background = load_velocity(self.base_dir / bg_spec["path"])
        else:
            raise ConfigError(f"unknown search background {kind!r}")
        lattice = tuple(s.get("lattice", (10, 10)))
        return make_bump_lattice(
            background, lattice,
            width_factor=float(s.get("width_factor", 1.5)),
            amplitude=float(s.get("amplitude", 1.0)),
        )

    def build_schedule(self) -> LayerSchedule:
        s = self.schedule
        if not s:
            raise ConfigError("config has no schedule section")
        q = int(s["q"])
        d = int(s["d"])
        if s.get("k") is not None:
            return LayerSchedule(tuple(int(v) for v in s["k"]), q, d)
        return LayerSchedule.uniform(self.n, int(s["layers"]), q, d)

    def build_gn(self) -> GnConfig:
        return GnConfig(**self.gn)

    def sweep_axes(self) -> tuple[SweepAxis, SweepAxis]:
        s = self.sweep
        axes = [k for k in ("p1", "p2") if k in s]
        if len(axes) != 2:
            raise ConfigError("sweep needs exactly two parameters p1 and p2")
        return tuple(
            SweepAxis(a["name"], float(a["min"]), float(a["max"]), int(a["count"]))
            for a in (s["p1"], s["p2"])
        )

    @property
    def reference_refine(self) -> int:
        """Grid refinement factor for reference-data synthesis.

        1 (the default) is the inverse-crime regime: reference and
        candidate data share one discretization.  Larger factors rebuild
        the true model on a finer grid (same domain, same sensors) so the
        reference carries discretization error no candidate can match.
        """
        factor = int(self.reference.get("refine", 1))
        if factor < 1:
            raise ConfigError("reference.refine must be >= 1")
        return factor

    def refined_grid(self, factor: int) -> Grid2D:
        g = self.build_grid()
        return Grid2D(
            (g.nx + 1) * factor - 1, (g.nz + 1) * factor - 1,
            g.hx / factor, g.hz / factor, g.x0, g.z0,
        )

    def record_dt(self, tau: float) -> float:
        if self.record.get("dt") is not None:
            return float(self.record["dt"])
        return tau / float(self.record.get("dt_factor", 50))

    def record_t_end(self, tau: float) -> float:
        if self.record.get("t_end") is not None:
            return float(self.record["t_end"])
        return float(self.record.get("t_factor", 1.25)) * (2 * self.n - 2) * tau

    def to_dict(self) -> dict:
        out = asdict(self)
        out.pop("base_dir")
        out["schema"] = SCHEMA
        return out


def _build_sections(cfg: ExperimentConfig):
    """Build every section once, so that a malformed one fails at load time."""
    section = "grid"
    try:
        cfg.build_grid()
        section = "model"
        grid = cfg.build_model().grid
        section = "acquisition"
        tau = cfg.build_acquisition(grid).tau
        section = "search"
        cfg.build_search(grid)
        section = "gn"
        cfg.build_gn()
        if cfg.schedule:
            section = "schedule"
            cfg.build_schedule()
        if cfg.sweep:
            section = "sweep"
            cfg.sweep_axes()
        section = "record"
        cfg.record_dt(tau)
        cfg.record_t_end(tau)
        section = "reference"
        cfg.reference_refine
    except KeyError as exc:
        raise ConfigError(f"{section} section missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {section} section: {exc}") from exc


def config_from_dict(raw: dict, base_dir=".") -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    raw = dict(raw)
    schema = raw.pop("schema", SCHEMA)
    if schema != SCHEMA:
        raise ConfigError(f"unsupported config schema {schema!r}")
    known = {
        "model", "grid", "acquisition", "sampling", "method",
        "search", "schedule", "gn", "sweep", "record", "reference",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    missing = {"model", "grid", "acquisition", "sampling"} - set(raw)
    if missing:
        raise ConfigError(f"config missing sections: {sorted(missing)}")
    cfg = ExperimentConfig(base_dir=Path(base_dir), **raw)
    _build_sections(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw, base_dir=path.parent)
