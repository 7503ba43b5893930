"""On-disk formats.

Every file a run writes or reads goes through this module.  A writer
makes the directories above its file; a reader raises `ArtifactError`
on a file that is not the artifact it expects.

Every binary artifact is a pair: a JSON header at `<stem>.json` and raw
little-endian float64 payload at `<stem>.bin`.  Payload layouts:

- velocity model: c values, row-major with z fastest (shape nx*nz);
  header {schema, nx, nz, hx, hz, x0, z0, bc}, where the origin x0, z0
  is always 0.0 and bc is always DIRICHLET_WALLS.
- dataset: D blocks then Ddot blocks, each (2n-1, m, m) C-order;
  header {schema, m, n, tau}.
- operator ROM: A_rom then R, each (nm, nm) C-order; header {schema, m, n}.

Parametrizations, experiment configs, run manifests and run profiles are
plain JSON; each bump of a parametrization has amplitude 1.0.
CSV exports write floats as repr(float(x)), the shortest decimal that
plain float() parses back to the same double, so round-trips are
bit-exact.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ArtifactError, WaveromError
from .forward import DataSet, TraceRecord
from .model import GaussianBump, Grid2D, Parametrization, VelocityModel, whole
from .rom import OperatorRom


def _write_json(path, header: dict):
    """`header` as strict JSON at `path`: a NaN or infinite value raises
    WaveromError naming the file, and nothing is written."""
    path = Path(path)
    try:
        text = json.dumps(header, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise WaveromError(f"{path}: {exc}") from exc
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def _save(path, header: dict, *arrays: np.ndarray):
    """`header` at `path`, `arrays` one after another as the payload at `<stem>.bin`."""
    path = Path(path)
    _write_json(path, header)
    with open(path.with_suffix(".bin"), "wb") as fh:
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_json(path: Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or a huge int
        raise ArtifactError(f"{path}: not valid JSON: {exc}") from exc


@contextmanager
def _parsing(path):
    """A missing field, a wrong type or a rejected value as ArtifactError."""
    try:
        yield
    except ArtifactError:
        raise
    except (KeyError, TypeError, ValueError, csv.Error) as exc:
        raise ArtifactError(f"{path}: malformed artifact: {exc!r}") from exc


def _load(path, schema: str, build):
    """`build(header, payload)` on the header at `path`, tagged `schema`;
    `payload(*shapes)` reads `<stem>.bin` as arrays of those shapes."""
    path = Path(path)
    header = _read_json(path)
    if not isinstance(header, dict) or header.get("schema") != schema:
        raise ArtifactError(f"{path}: not a {schema} header")

    def payload(*shapes) -> list[np.ndarray]:
        bin_path = path.with_suffix(".bin")
        raw = np.fromfile(bin_path, dtype="<f8")
        sizes = [math.prod(shape) for shape in shapes]
        if raw.size != sum(sizes):
            raise ArtifactError(f"{bin_path}: payload has {raw.size} values, expected {sum(sizes)}")
        parts = np.split(raw, np.cumsum(sizes)[:-1])
        return [part.reshape(shape).astype(float) for part, shape in zip(parts, shapes)]

    with _parsing(path):
        return build(header, payload)


# Velocity models -------------------------------------------------------------

#: The velocity header's `bc`: homogeneous Dirichlet walls on the four sides
#: (x low, x high, z low, z high), the only walls the wave operator has.
DIRICHLET_WALLS = ["dirichlet"] * 4


def save_velocity(path, v: VelocityModel):
    g = v.grid
    _save(path, {
        "schema": "waverom-velocity-v1",
        "nx": g.nx, "nz": g.nz, "hx": g.hx, "hz": g.hz,
        "x0": 0.0, "z0": 0.0, "bc": DIRICHLET_WALLS,
    }, v.c)


def load_velocity(path) -> VelocityModel:
    def build(h, payload):
        if h["bc"] != DIRICHLET_WALLS:
            raise ArtifactError(f"{path}: walls {h['bc']!r} are not {DIRICHLET_WALLS}")
        if (h["x0"], h["z0"]) != (0.0, 0.0):
            raise ValueError(f"origin ({h['x0']!r}, {h['z0']!r}) is not (0.0, 0.0)")
        g = Grid2D(h["nx"], h["nz"], h["hx"], h["hz"])
        (c,) = payload((g.nx, g.nz))
        return VelocityModel(g, c)

    return _load(path, "waverom-velocity-v1", build)


# Parametrizations -------------------------------------------------------------


def save_parametrization(path, p: Parametrization, eta: np.ndarray, background_path: str):
    """Store the basis and the coefficients eta; the background velocity
    lives in its own file referenced by (relative) path."""
    _write_json(path, {
        "schema": "waverom-parametrization-v1",
        "background": background_path,
        "basis": [
            {"center": list(b.center), "width": b.width, "amplitude": 1.0}
            for b in p.basis
        ],
        "eta": list(eta),
    })


def load_parametrization(path) -> tuple[Parametrization, np.ndarray]:
    """The parametrization and its coefficients eta, one per basis function."""
    def build(h, payload):
        background = load_velocity(Path(path).parent / h["background"])
        for b in h["basis"]:
            if b["amplitude"] != 1.0:
                raise ValueError(f"bump amplitude {b['amplitude']!r} is not 1.0")
        basis = tuple(GaussianBump(tuple(b["center"]), b["width"]) for b in h["basis"])
        p = Parametrization(background, basis)
        eta = np.asarray(h["eta"], dtype=float)
        if eta.shape != (p.n_params,):
            raise ValueError(f"eta must have length {p.n_params}, got shape {eta.shape}")
        return p, eta

    return _load(path, "waverom-parametrization-v1", build)


# Datasets ---------------------------------------------------------------------


def save_dataset(path, ds: DataSet):
    header = {"schema": "waverom-dataset-v1", "m": ds.m, "n": ds.n, "tau": ds.tau}
    _save(path, header, ds.d, ds.ddot)


#: Largest sample magnitude a dataset may hold: each block of the ROM's mass
#: and stiffness matrices sums two samples, a sum that is finite up to this.
SAMPLE_LIMIT = sys.float_info.max / 2


def load_dataset(path) -> DataSet:
    def build(h, payload):
        m, n = whole(h["m"], "m", 1), whole(h["n"], "n", 1)
        blocks = payload(*[(2 * n - 1, m, m)] * 2)
        if not all((abs(block) <= SAMPLE_LIMIT).all() for block in blocks):
            raise ValueError(f"a sample is NaN, infinite or above {SAMPLE_LIMIT:.4g} in magnitude")
        return DataSet(*blocks, h["tau"])

    return _load(path, "waverom-dataset-v1", build)


# Operator ROMs -----------------------------------------------------------------


def save_rom(path, rom: OperatorRom):
    _save(path, {"schema": "waverom-rom-v1", "m": rom.m, "n": rom.n}, rom.a_rom, rom.r)


def load_rom(path) -> OperatorRom:
    def build(h, payload):
        m, n = whole(h["m"], "m", 1), whole(h["n"], "n", 1)
        return OperatorRom(*payload((m * n, m * n), (m * n, m * n)), m)

    return _load(path, "waverom-rom-v1", build)


# CSV exports -------------------------------------------------------------------


def _csv_float(x) -> str:
    """Shortest round-trip decimal; repr of a numpy scalar would read
    np.float64(...) under numpy 2."""
    return repr(float(x))


def _write_csv(path, header: list, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_traces_csv(path, rec: TraceRecord):
    times = rec.times()
    _write_csv(path, ["t", "r", "s", "value"], (
        [_csv_float(times[k]), r, s, _csv_float(rec.data[k, r, s])]
        for k, r, s in np.ndindex(rec.data.shape)
    ))


def _finite(text: str) -> float:
    """A state.csv float, which a run writes only finite."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text!r} is not finite")
    return x


#: state.csv columns and the type each is read back as.
_STATE_COLUMNS = dict(iteration=int, k_l=int, objective=_finite, mu=_finite, alpha=_finite)


def save_state_csv(path, updates):
    """One row per Gauss-Newton update (see inversion.GnUpdate), numbered from 1."""
    _write_csv(path, list(_STATE_COLUMNS), (
        [i, u.k, *map(_csv_float, (u.objective, u.mu, u.alpha))]
        for i, u in enumerate(updates, 1)
    ))


def load_state_csv(path) -> list[dict]:
    with open(path, newline="") as fh, _parsing(path):
        return [
            {name: kind(row[name]) for name, kind in _STATE_COLUMNS.items()}
            for row in csv.DictReader(fh)
        ]


def save_sweep_csv(path, p1_name, p2_name, p1_values, p2_values, obj_rom, obj_fwi):
    _write_csv(path, [p1_name, p2_name, "obj_rom", "obj_fwi"], (
        [_csv_float(x) for x in (a, b, obj_rom[i, j], obj_fwi[i, j])]
        for i, a in enumerate(p1_values)
        for j, b in enumerate(p2_values)
    ))


# Manifests and profiles --------------------------------------------------------


def save_manifest(path, manifest: dict):
    _write_json(path, manifest)


def load_manifest(path) -> dict:
    return _read_json(Path(path))
