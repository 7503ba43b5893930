import csv
import json

import numpy as np
import pytest

from waverom import io
from waverom.forward import Pulse, TraceRecord, line_array, synthesize_dataset
from waverom.inversion import InversionState
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
    assert back.bc == v.bc
    np.testing.assert_array_equal(back.c, v.c)


def test_velocity_payload_layout(tmp_path, grid):
    v = make_constant_model(1500.0, grid)
    c = np.array(v.c)
    c[2, 7] = 1800.0
    v = type(v)(grid, c, v.bc)
    io.save_velocity(tmp_path / "v.json", v)
    raw = np.fromfile(tmp_path / "v.bin", dtype="<f8")
    # row-major with z fastest: node (i, j) at flat index i*nz + j
    assert raw[2 * grid.nz + 7] == 1800.0
    header = json.loads((tmp_path / "v.json").read_text())
    assert header["nx"] == grid.nx and header["nz"] == grid.nz


def test_parametrization_roundtrip(tmp_path, grid):
    bg = make_constant_model(2500.0, grid)
    p = Parametrization(
        bg,
        (GaussianBump((400.0, 600.0), 150.0, 2.0), GaussianBump((900.0, 900.0), 150.0)),
        np.array([3.0, -4.0]),
    )
    io.save_velocity(tmp_path / "bg.json", bg)
    io.save_parametrization(tmp_path / "p.json", p, "bg.json")
    back = io.load_parametrization(tmp_path / "p.json")
    assert back.basis == p.basis
    np.testing.assert_array_equal(back.eta, p.eta)
    np.testing.assert_array_equal(back.background.c, bg.c)


def test_dataset_roundtrip(tmp_path, grid):
    v = make_constant_model(2000.0, grid)
    pulse = Pulse.from_hz(6.0, 4.0)
    ds = synthesize_dataset(v, line_array(grid, 3, depth=200.0), pulse, pulse.default_tau(), 4)
    io.save_dataset(tmp_path / "d.json", ds)
    back = io.load_dataset(tmp_path / "d.json")
    assert (back.m, back.n, back.tau) == (ds.m, ds.n, ds.tau)
    np.testing.assert_array_equal(back.d, ds.d)
    np.testing.assert_array_equal(back.ddot, ds.ddot)


def test_rom_roundtrip(tmp_path, grid):
    v = make_constant_model(2000.0, grid)
    pulse = Pulse.from_hz(6.0, 4.0)
    ds = synthesize_dataset(v, line_array(grid, 2, depth=200.0), pulse, pulse.default_tau(), 3)
    rom = build_rom(ds)
    io.save_rom(tmp_path / "r.json", rom)
    back = io.load_rom(tmp_path / "r.json")
    np.testing.assert_array_equal(back.a_rom, rom.a_rom)
    np.testing.assert_array_equal(back.r, rom.r)


def test_wrong_schema_rejected(tmp_path):
    (tmp_path / "x.json").write_text(json.dumps({"schema": "bogus"}))
    with pytest.raises(ValueError):
        io.load_velocity(tmp_path / "x.json")
    with pytest.raises(ValueError):
        io.load_dataset(tmp_path / "x.json")


def test_state_csv_roundtrip(tmp_path):
    state = InversionState(eta=np.zeros(2))
    state.record(2, 1.5, 0.25, 1.0, (1.0, 1.5))
    state.record(4, 0.75, 0.125, 0.5, (0.7, 1.0))
    io.save_state_csv(tmp_path / "s.csv", state)
    rows = io.load_state_csv(tmp_path / "s.csv")
    assert rows[0] == {"iteration": 1, "k_l": 2, "objective": 1.5, "mu": 0.25, "alpha": 1.0}
    assert rows[1]["objective"] == 0.75


def test_traces_csv_header(tmp_path):
    rec = TraceRecord(-0.1, 0.05, np.arange(8.0).reshape(2, 2, 2))
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
    rec = TraceRecord(-0.1, 0.1 / 3.0, rng.standard_normal((5, 2, 2)))
    io.save_traces_csv(tmp_path / "t.csv", rec)
    cols = _csv_columns(tmp_path / "t.csv")
    np.testing.assert_array_equal(cols["t"], np.repeat(rec.times(), 4))
    np.testing.assert_array_equal(cols["r"], np.tile(np.repeat([0.0, 1.0], 2), 5))
    np.testing.assert_array_equal(cols["s"], np.tile([0.0, 1.0], 10))
    np.testing.assert_array_equal(cols["value"], rec.data.ravel())
