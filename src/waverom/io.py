"""On-disk formats.

Every binary artifact is a pair: a JSON header at `<stem>.json` and raw
little-endian float64 payload at `<stem>.bin`.  Payload layouts:

- velocity model: c values, row-major with z fastest (shape nx*nz);
  header {schema, nx, nz, hx, hz, x0, z0, bc}.
- dataset: D blocks then Ddot blocks, each (2n-1, m, m) C-order;
  header {schema, m, n, tau}.
- operator ROM: A_rom then R, each (nm, nm) C-order; header {schema, m, n}.

Parametrizations, experiment configs, and run manifests are plain JSON.
CSV exports write floats as repr(float(x)), the shortest decimal that
plain float() parses back to the same double, so round-trips are
bit-exact.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import ArtifactError
from .forward import DataSet, TraceRecord
from .model import GaussianBump, Grid2D, Parametrization, VelocityModel
from .rom import OperatorRom


def _bin_path(json_path: Path) -> Path:
    return json_path.with_suffix(".bin")


def _write_json(path: Path, header: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(header, sort_keys=True, indent=2) + "\n")


def _read_json(path: Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"{path}: not valid JSON: {exc}") from exc


def _read_header(path: Path, schema: str) -> dict:
    """The JSON header at `path`, which must carry the tag `schema`."""
    header = _read_json(path)
    if not isinstance(header, dict) or header.get("schema") != schema:
        raise ArtifactError(f"{path}: not a {schema} header")
    return header


def _write_bin(path: Path, *arrays: np.ndarray):
    with open(path, "wb") as fh:
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_bin(path: Path, shapes) -> list[np.ndarray]:
    raw = np.fromfile(path, dtype="<f8")
    sizes = [int(np.prod(shape)) for shape in shapes]
    if raw.size != sum(sizes):
        raise ArtifactError(f"{path}: payload has {raw.size} values, expected {sum(sizes)}")
    parts = np.split(raw, np.cumsum(sizes)[:-1])
    return [part.reshape(shape).astype(float) for part, shape in zip(parts, shapes)]


# Velocity models -------------------------------------------------------------


def save_velocity(path, v: VelocityModel):
    path = Path(path)
    g = v.grid
    _write_json(path, {
        "schema": "waverom-velocity-v1",
        "nx": g.nx, "nz": g.nz, "hx": g.hx, "hz": g.hz,
        "x0": g.x0, "z0": g.z0, "bc": list(v.bc),
    })
    _write_bin(_bin_path(path), v.c)


def load_velocity(path) -> VelocityModel:
    path = Path(path)
    h = _read_header(path, "waverom-velocity-v1")
    g = Grid2D(h["nx"], h["nz"], h["hx"], h["hz"], h["x0"], h["z0"])
    (c,) = _read_bin(_bin_path(path), [(g.nx, g.nz)])
    return VelocityModel(g, c, tuple(h["bc"]))


# Parametrizations -------------------------------------------------------------


def save_parametrization(path, p: Parametrization, background_path: str):
    """Store the basis and eta; the background velocity lives in its own
    file referenced by (relative) path."""
    _write_json(Path(path), {
        "schema": "waverom-parametrization-v1",
        "background": background_path,
        "basis": [
            {"center": list(b.center), "width": b.width, "amplitude": b.amplitude}
            for b in p.basis
        ],
        "eta": list(p.eta),
    })


def load_parametrization(path) -> Parametrization:
    path = Path(path)
    h = _read_header(path, "waverom-parametrization-v1")
    background = load_velocity(path.parent / h["background"])
    basis = tuple(
        GaussianBump(tuple(b["center"]), b["width"], b["amplitude"]) for b in h["basis"]
    )
    return Parametrization(background, basis, np.asarray(h["eta"], dtype=float))


# Datasets ---------------------------------------------------------------------


def save_dataset(path, ds: DataSet):
    path = Path(path)
    _write_json(path, {"schema": "waverom-dataset-v1", "m": ds.m, "n": ds.n, "tau": ds.tau})
    _write_bin(_bin_path(path), ds.d, ds.ddot)


def load_dataset(path) -> DataSet:
    path = Path(path)
    h = _read_header(path, "waverom-dataset-v1")
    shape = (2 * h["n"] - 1, h["m"], h["m"])
    d, ddot = _read_bin(_bin_path(path), [shape, shape])
    return DataSet(d, ddot, h["tau"], h["m"], h["n"])


# Operator ROMs -----------------------------------------------------------------


def save_rom(path, rom: OperatorRom):
    path = Path(path)
    _write_json(path, {"schema": "waverom-rom-v1", "m": rom.m, "n": rom.n})
    _write_bin(_bin_path(path), rom.a_rom, rom.r)


def load_rom(path) -> OperatorRom:
    path = Path(path)
    h = _read_header(path, "waverom-rom-v1")
    nm = h["m"] * h["n"]
    a, r = _read_bin(_bin_path(path), [(nm, nm), (nm, nm)])
    return OperatorRom(a, r, h["m"], h["n"])


# CSV exports -------------------------------------------------------------------


def _csv_float(x) -> str:
    """Shortest round-trip decimal; repr of a numpy scalar would read
    np.float64(...) under numpy 2."""
    return repr(float(x))


def save_traces_csv(path, rec: TraceRecord):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "r", "s", "value"])
        times = rec.times()
        for k in range(rec.nt):
            for r in range(rec.m):
                for s in range(rec.m):
                    writer.writerow([_csv_float(times[k]), r, s, _csv_float(rec.data[k, r, s])])


def save_state_csv(path, state):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "k_l", "objective", "mu", "alpha"])
        for i in range(state.i):
            writer.writerow([
                i + 1, state.k_trace[i],
                _csv_float(state.objective_trace[i]), _csv_float(state.mu_trace[i]),
                _csv_float(state.alpha_trace[i]),
            ])


def load_state_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return [
            {
                "iteration": int(row["iteration"]),
                "k_l": int(row["k_l"]),
                "objective": float(row["objective"]),
                "mu": float(row["mu"]),
                "alpha": float(row["alpha"]),
            }
            for row in csv.DictReader(fh)
        ]


def save_sweep_csv(path, p1_name, p2_name, p1_values, p2_values, obj_rom, obj_fwi):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([p1_name, p2_name, "obj_rom", "obj_fwi"])
        for i, a in enumerate(p1_values):
            for j, b in enumerate(p2_values):
                row = (a, b, obj_rom[i, j], obj_fwi[i, j])
                writer.writerow([_csv_float(x) for x in row])


# Manifests ---------------------------------------------------------------------


def save_manifest(path, manifest: dict):
    _write_json(Path(path), manifest)


def load_manifest(path) -> dict:
    return _read_json(Path(path))
