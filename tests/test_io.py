import csv
import json
import math

import numpy as np
import pytest

from waverom import io
from waverom.errors import ArtifactError, WaveromError
from waverom.forward import Pulse, TraceRecord, line_array, synthesize_dataset
from waverom.inversion import GnUpdate
from waverom.model import (
    GaussianBump,
    Grid2D,
    Parametrization,
    make_camembert_model,
    make_constant_model,
)
from waverom.rom import build_rom


@pytest.fixture
def grid():
    return Grid2D(12, 15, 100.0, 100.0)


def test_velocity_roundtrip(tmp_path, grid):
    v = make_camembert_model(Grid2D(39, 49, 50.0, 50.0))
    io.save_velocity(tmp_path / "v.json", v)
    back = io.load_velocity(tmp_path / "v.json")
    assert back.grid == v.grid
    assert json.loads((tmp_path / "v.json").read_text())["bc"] == ["dirichlet"] * 4
    np.testing.assert_array_equal(back.c, v.c)


def test_velocity_payload_layout(tmp_path, grid):
    v = make_constant_model(1500.0, grid)
    c = np.array(v.c)
    c[2, 7] = 1800.0
    v = type(v)(grid, c)
    io.save_velocity(tmp_path / "v.json", v)
    raw = np.fromfile(tmp_path / "v.bin", dtype="<f8")
    # row-major with z fastest: node (i, j) at flat index i*nz + j
    assert raw[2 * grid.nz + 7] == 1800.0
    header = json.loads((tmp_path / "v.json").read_text())
    assert header["nx"] == grid.nx and header["nz"] == grid.nz


def test_parametrization_roundtrip(tmp_path, grid):
    bg = make_constant_model(2500.0, grid)
    p = Parametrization(
        bg, (GaussianBump((400.0, 600.0), 120.0), GaussianBump((900.0, 900.0), 150.0))
    )
    eta = np.array([3.0, -4.0])
    io.save_velocity(tmp_path / "bg.json", bg)
    io.save_parametrization(tmp_path / "p.json", p, eta, "bg.json")
    back, back_eta = io.load_parametrization(tmp_path / "p.json")
    assert back.basis == p.basis
    np.testing.assert_array_equal(back_eta, eta)
    np.testing.assert_array_equal(back.background.c, bg.c)


def test_dataset_roundtrip(tmp_path, grid):
    v = make_constant_model(2000.0, grid)
    pulse = Pulse(6.0, 4.0)
    arr = line_array(grid, 3, depth=200.0)
    ds = synthesize_dataset(v, arr, pulse, pulse.default_tau(), 4, method="spectral")
    io.save_dataset(tmp_path / "d.json", ds)
    back = io.load_dataset(tmp_path / "d.json")
    header = json.loads((tmp_path / "d.json").read_text())
    assert (back.m, back.n, back.tau) == (header["m"], header["n"], header["tau"]) == (3, 4, ds.tau)
    np.testing.assert_array_equal(back.d, ds.d)
    np.testing.assert_array_equal(back.ddot, ds.ddot)


def test_rom_roundtrip(tmp_path, grid):
    v = make_constant_model(2000.0, grid)
    pulse = Pulse(6.0, 4.0)
    arr = line_array(grid, 2, depth=200.0)
    ds = synthesize_dataset(v, arr, pulse, pulse.default_tau(), 3, method="spectral")
    rom = build_rom(ds)
    io.save_rom(tmp_path / "r.json", rom)
    back = io.load_rom(tmp_path / "r.json")
    header = json.loads((tmp_path / "r.json").read_text())
    assert (back.m, back.n) == (header["m"], header["n"]) == (rom.m, rom.n) == (2, 3)
    np.testing.assert_array_equal(back.a_rom, rom.a_rom)
    np.testing.assert_array_equal(back.r, rom.r)


def test_wrong_schema_rejected(tmp_path):
    (tmp_path / "x.json").write_text(json.dumps({"schema": "bogus"}))
    with pytest.raises(ValueError):
        io.load_velocity(tmp_path / "x.json")
    with pytest.raises(ValueError):
        io.load_dataset(tmp_path / "x.json")


@pytest.fixture
def artifacts(tmp_path, grid):
    """A velocity, dataset, ROM and parametrization on disk, by kind."""
    v = make_constant_model(2000.0, grid)
    pulse = Pulse(6.0, 4.0)
    arr = line_array(grid, 2, depth=200.0)
    ds = synthesize_dataset(v, arr, pulse, pulse.default_tau(), 3, method="spectral")
    p = Parametrization(v, (GaussianBump((400.0, 600.0), 150.0),))
    io.save_velocity(tmp_path / "velocity.json", v)
    io.save_dataset(tmp_path / "dataset.json", ds)
    io.save_rom(tmp_path / "rom.json", build_rom(ds))
    io.save_parametrization(tmp_path / "parametrization.json", p, np.array([1.0]), "velocity.json")
    return tmp_path


LOADERS = {
    "velocity": io.load_velocity,
    "dataset": io.load_dataset,
    "rom": io.load_rom,
    "parametrization": io.load_parametrization,
}

MALFORMED_HEADERS = [
    pytest.param("velocity", lambda h: h.pop("nx"), id="velocity-missing-field"),
    pytest.param("velocity", lambda h: h.update(hx="100"), id="velocity-wrong-type"),
    pytest.param("velocity", lambda h: h.update(nx=2), id="velocity-rejected-value"),
    pytest.param("velocity", lambda h: h.pop("bc"), id="velocity-missing-walls"),
    pytest.param("velocity", lambda h: h.update(hz=1e-300), id="velocity-spacing-square-underflows"),
    pytest.param("velocity", lambda h: h.update(x0=100.0), id="velocity-nonzero-origin"),
    pytest.param("dataset", lambda h: h.pop("n"), id="dataset-missing-field"),
    pytest.param("dataset", lambda h: h.update(n="3"), id="dataset-wrong-type"),
    pytest.param("dataset", lambda h: h.update(tau=-1), id="dataset-rejected-value"),
    pytest.param("dataset", lambda h: h.update(tau=math.nan), id="dataset-nan-tau"),
    pytest.param("dataset", lambda h: h.update(tau=math.inf), id="dataset-infinite-tau"),
    pytest.param("dataset", lambda h: h.update(n=-1), id="dataset-negative-n"),
    pytest.param("dataset", lambda h: h.update(m=-1), id="dataset-negative-m"),
    pytest.param("rom", lambda h: h.pop("m"), id="rom-missing-field"),
    pytest.param("rom", lambda h: h.update(n="3"), id="rom-wrong-type"),
    # -m keeps the payload size (nm squared) but no array has a negative shape
    pytest.param("rom", lambda h: h.update(m=-h["m"]), id="rom-rejected-value"),
    pytest.param("rom", lambda h: h.update(n=-1), id="rom-negative-n"),
    pytest.param("rom", lambda h: h.update(n=2.5), id="rom-fractional-n"),
    pytest.param("parametrization", lambda h: h.pop("eta"), id="parametrization-missing-field"),
    pytest.param("parametrization", lambda h: h.update(basis=5), id="parametrization-wrong-type"),
    pytest.param("parametrization", lambda h: h.update(basis=[]), id="parametrization-no-basis"),
    pytest.param("parametrization", lambda h: h["basis"][0].update(width=-1.0),
                 id="parametrization-rejected-value"),
    pytest.param("parametrization", lambda h: h["basis"][0].update(amplitude=2.0),
                 id="parametrization-amplitude-two"),
    pytest.param("parametrization", lambda h: h["eta"].append(2.0),
                 id="parametrization-eta-longer-than-basis"),
    pytest.param("parametrization", lambda h: h.update(eta=[]),
                 id="parametrization-eta-shorter-than-basis"),
]


@pytest.mark.parametrize("kind, edit", MALFORMED_HEADERS)
def test_malformed_header_rejected(artifacts, kind, edit):
    path = artifacts / f"{kind}.json"
    header = json.loads(path.read_text())
    edit(header)
    path.write_text(json.dumps(header))
    with pytest.raises(ArtifactError, match="malformed artifact"):
        LOADERS[kind](path)


@pytest.mark.parametrize("kind", LOADERS)
def test_short_payload_rejected(artifacts, kind):
    # a parametrization's payload is its background velocity's
    payload = artifacts / ("velocity.bin" if kind == "parametrization" else f"{kind}.bin")
    payload.write_bytes(payload.read_bytes()[:-8])
    with pytest.raises(ArtifactError, match="payload has"):
        LOADERS[kind](artifacts / f"{kind}.json")


@pytest.mark.parametrize("kind", ["dataset", "rom"])
@pytest.mark.parametrize("key", ["m", "n"])
def test_header_count_past_the_float_range_rejected(artifacts, kind, key):
    # 1e308 is a whole number, so the header states a payload far larger
    # than the file's
    path = artifacts / f"{kind}.json"
    header = json.loads(path.read_text())
    header[key] = 1e308
    path.write_text(json.dumps(header))
    with pytest.raises(ArtifactError, match="payload has"):
        LOADERS[kind](path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e308, -1e308])
@pytest.mark.parametrize("index", [0, -1], ids=["in-D", "in-Ddot"])
def test_dataset_sample_not_finite_or_past_the_limit_rejected(artifacts, value, index):
    payload = np.fromfile(artifacts / "dataset.bin", dtype="<f8")
    payload[index] = value
    payload.tofile(artifacts / "dataset.bin")
    with pytest.raises(ArtifactError, match="malformed artifact.*a sample is NaN, infinite or above"):
        io.load_dataset(artifacts / "dataset.json")


def test_dataset_sample_at_the_limit_loads(artifacts):
    payload = np.fromfile(artifacts / "dataset.bin", dtype="<f8")
    payload[0] = io.SAMPLE_LIMIT
    payload.tofile(artifacts / "dataset.bin")
    assert io.load_dataset(artifacts / "dataset.json").d[0, 0, 0] == io.SAMPLE_LIMIT


@pytest.mark.parametrize("value", [-1.0, float("nan")])
def test_nonpositive_velocity_payload_rejected(artifacts, value):
    payload = np.fromfile(artifacts / "velocity.bin", dtype="<f8")
    payload[3] = value
    payload.tofile(artifacts / "velocity.bin")
    for kind in ("velocity", "parametrization"):
        with pytest.raises(ArtifactError, match="malformed artifact"):
            LOADERS[kind](artifacts / f"{kind}.json")


@pytest.mark.parametrize("walls", [["neumann"] * 4, ["dirichlet"] * 3 + ["neumann"], "dirichlet"],
                         ids=["neumann", "one-neumann-side", "one-string"])
def test_velocity_walls_other_than_four_dirichlet_rejected(artifacts, walls):
    path = artifacts / "velocity.json"
    header = json.loads(path.read_text())
    header["bc"] = walls
    path.write_text(json.dumps(header))
    for kind in ("velocity", "parametrization"):
        with pytest.raises(ArtifactError, match="walls .* are not"):
            LOADERS[kind](artifacts / f"{kind}.json")


def test_state_csv_roundtrip(tmp_path):
    updates = [
        GnUpdate(2, 1.5, 0.25, 1.0, (1.0, 1.5), np.zeros(2)),
        GnUpdate(4, 0.75, 0.125, 0.5, (0.7, 1.0), np.zeros(2)),
    ]
    io.save_state_csv(tmp_path / "s.csv", updates)
    rows = io.load_state_csv(tmp_path / "s.csv")
    assert rows[0] == {"iteration": 1, "k_l": 2, "objective": 1.5, "mu": 0.25, "alpha": 1.0}
    assert rows[1]["objective"] == 0.75


def test_state_csv_missing_column_rejected(tmp_path):
    io.save_state_csv(tmp_path / "s.csv", [GnUpdate(2, 1.5, 0.25, 1.0, (1.0, 1.5), np.zeros(2))])
    lines = (tmp_path / "s.csv").read_text().splitlines()
    (tmp_path / "s.csv").write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
    with pytest.raises(ArtifactError, match="'alpha'"):
        io.load_state_csv(tmp_path / "s.csv")


@pytest.mark.parametrize("column", [2, 3, 4], ids=["objective", "mu", "alpha"])
@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
def test_state_csv_value_not_finite_rejected(tmp_path, column, cell):
    io.save_state_csv(tmp_path / "s.csv", [GnUpdate(2, 1.5, 0.25, 1.0, (1.0, 1.5), np.zeros(2))])
    header, row = (tmp_path / "s.csv").read_text().splitlines()
    cells = row.split(",")
    cells[column] = cell
    (tmp_path / "s.csv").write_text(f"{header}\n{','.join(cells)}\n")
    with pytest.raises(ArtifactError, match="is not finite"):
        io.load_state_csv(tmp_path / "s.csv")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_json_writer_refuses_a_non_finite_value(tmp_path, value):
    path = tmp_path / "manifest.json"
    with pytest.raises(WaveromError) as err:
        io.save_manifest(path, {"metrics": {"final_error": value}})
    assert str(err.value).startswith(f"{path}: ")
    assert not path.exists()


def test_traces_csv_header(tmp_path):
    rec = TraceRecord(0.05, 2, np.arange(8.0).reshape(2, 2, 2))
    io.save_traces_csv(tmp_path / "t.csv", rec)
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "t,r,s,value"
    assert len(lines) == 1 + 2 * 2 * 2


def test_binary_deterministic(tmp_path, grid):
    v = make_constant_model(1234.5, grid)
    io.save_velocity(tmp_path / "a.json", v)
    io.save_velocity(tmp_path / "b.json", v)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()


def _csv_columns(path) -> dict:
    """Every field of a CSV export parsed with plain float(), by column."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {name: np.array([float(row[name]) for row in rows]) for name in rows[0]}


def test_sweep_csv_floats_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(7)
    p1 = np.linspace(0.8, 1.6, 3)
    p2 = np.linspace(1.2, 2.8, 4) / 3.0
    obj_rom = rng.random((3, 4)) * 1e-7
    obj_fwi = rng.random((3, 4)) * 1e5
    io.save_sweep_csv(tmp_path / "sweep.csv", "depth", "contrast", p1, p2, obj_rom, obj_fwi)
    cols = _csv_columns(tmp_path / "sweep.csv")
    np.testing.assert_array_equal(cols["depth"], np.repeat(p1, 4))
    np.testing.assert_array_equal(cols["contrast"], np.tile(p2, 3))
    np.testing.assert_array_equal(cols["obj_rom"], obj_rom.ravel())
    np.testing.assert_array_equal(cols["obj_fwi"], obj_fwi.ravel())


def test_traces_csv_floats_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(8)
    rec = TraceRecord(0.1, 3, rng.standard_normal((5, 2, 2)))
    io.save_traces_csv(tmp_path / "t.csv", rec)
    cols = _csv_columns(tmp_path / "t.csv")
    np.testing.assert_array_equal(cols["t"], np.repeat(rec.times(), 4))
    np.testing.assert_array_equal(cols["r"], np.tile(np.repeat([0.0, 1.0], 2), 5))
    np.testing.assert_array_equal(cols["s"], np.tile([0.0, 1.0], 10))
    np.testing.assert_array_equal(cols["value"], rec.data.ravel())
