import functools
import importlib.util
import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from waverom import config, forward, io, profile
from waverom.cli import local_minima_census, main
from waverom.config import run_from_dict
from waverom.errors import ConfigError, InsufficientRecordLength
from waverom.forward import DT_FACTOR, TraceRecord, symmetrize_and_sample, synthesize_measurements
from waverom.model import Grid2D, Parametrization, make_constant_model


def base_config(**overrides):
    cfg = {
        "schema": "waverom-config-v1",
        "model": {"factory": "two_layer", "depth_left": 600.0, "contrast": 2.0},
        "grid": {"nx": 12, "nz": 15, "hx": 100.0, "hz": 100.0},
        "acquisition": {
            "layout": {"kind": "line", "m": 3, "depth": 150.0},
            "pulse": {"freq_hz": 6.0, "bandwidth_hz": 4.0},
        },
        "sampling": {"n": 4},
        "method": "chebyshev",
    }
    cfg.update(overrides)
    return cfg


def set_key(cfg, path, value):
    """Set the key at `path`, a tuple of keys, in cfg to `value`."""
    *head, last = path
    section = cfg
    for key in head:
        section = section[key]
    section[last] = value


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def assert_paths_agree(tmp_path, cfg, n):
    """`synthesize` of cfg on both paths writes n samples that agree to 1e-3."""
    cfg_path = write_config(tmp_path, cfg)
    ds = {}
    for path in ("spectral", "timedomain"):
        out = tmp_path / path
        rc = main(["synthesize", "--config", str(cfg_path), "--out", str(out), "--path", path])
        assert rc == 0
        ds[path] = io.load_dataset(out / "dataset.json")
        assert ds[path].n == n
    for field in ("d", "ddot"):
        a, b = getattr(ds["timedomain"], field), getattr(ds["spectral"], field)
        assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-3, field


class TestCensus:
    def test_single_minimum(self):
        x, z = np.meshgrid(np.arange(7), np.arange(7), indexing="ij")
        surface = (x - 3.0) ** 2 + (z - 3.0) ** 2
        minima = local_minima_census(surface)
        assert len(minima) == 1
        assert (minima[0]["i"], minima[0]["j"]) == (3, 3)
        assert minima[0]["interior"]

    def test_two_minima_and_border(self):
        surface = np.array(
            [
                [0.0, 2.0, 3.0, 4.0],
                [2.0, 3.0, 4.0, 3.0],
                [3.0, 4.0, 3.0, 1.0],
                [4.0, 5.0, 4.0, 2.0],
            ]
        )
        minima = local_minima_census(surface)
        assert len(minima) == 2
        assert not any(rec["interior"] for rec in minima)

    def test_plateau_merged(self):
        surface = np.full((5, 5), 7.0)
        surface[2, 2] = surface[2, 3] = 1.0  # connected plateau of two cells
        minima = local_minima_census(surface)
        assert len(minima) == 1
        assert minima[0]["interior"]

    def test_degenerate_single_cell(self):
        assert len(local_minima_census(np.array([[3.0]]))) == 1


class TestSynthesize:
    def test_spectral_and_idempotent(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        for out in ("a", "b"):
            rc = main(["synthesize", "--config", str(cfg_path), "--out", str(tmp_path / out)])
            assert rc == 0
        assert (tmp_path / "a/dataset.bin").read_bytes() == (tmp_path / "b/dataset.bin").read_bytes()
        man_a = json.loads((tmp_path / "a/manifest.json").read_text())
        man_b = json.loads((tmp_path / "b/manifest.json").read_text())
        man_a.pop("timestamp"), man_b.pop("timestamp")
        assert man_a == man_b

    def test_timedomain_path_with_traces(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        rc = main([
            "synthesize", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
            "--path", "timedomain", "--traces",
        ])
        assert rc == 0
        rows = (tmp_path / "out/traces.csv").read_text().splitlines()
        ds = io.load_dataset(tmp_path / "out/dataset.json")
        assert ds.n == 4
        nt = (len(rows) - 1) // 9  # one row per time and (r, s) pair of the 3 sensors
        assert json.loads((tmp_path / "out/profile.json").read_text()) == {
            "forward.timedomain": 1,
            "forward.timedomain.matvecs": nt - 1,
        }

    def test_timedomain_with_one_sample_pair(self, tmp_path):
        # n = 1 samples only t = 0: D_0 and its second derivative there
        assert_paths_agree(tmp_path, base_config(sampling={"n": 1}), n=1)

    def test_step_count_overflow_exits_2(self, tmp_path, capsys):
        # tf = 9.7e152 s of pulse support before t = 0 in steps of tau / 50 =
        # 9e-303 s: the step count tf / dt overflows
        cfg = base_config(sampling={"n": 1})
        cfg["acquisition"]["pulse"] = {"freq_hz": 1e300, "bandwidth_hz": 1e-153}
        out = tmp_path / "out"
        rc = main([
            "synthesize", "--config", str(write_config(tmp_path, cfg)), "--out", str(out),
            "--path", "timedomain",
        ])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_traces_without_timedomain_path_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "synthesize", "--config", str(write_config(tmp_path, base_config())),
            "--out", str(out), "--traces",
        ])
        assert rc == 2
        assert "--traces needs --path timedomain" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_reruns_identically(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        assert main(["synthesize", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
        manifest = json.loads((tmp_path / "a/manifest.json").read_text())
        replay = write_config(tmp_path, manifest["config"], "replay.json")
        assert main(["synthesize", "--config", str(replay), "--out", str(tmp_path / "c")]) == 0
        assert (tmp_path / "a/dataset.bin").read_bytes() == (tmp_path / "c/dataset.bin").read_bytes()


class TestRomCommand:
    def test_builds_and_reports(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        main(["synthesize", "--config", str(cfg_path), "--out", str(tmp_path / "d")])
        rc = main(["rom", "--dataset", str(tmp_path / "d/dataset.json"), "--out", str(tmp_path / "r")])
        assert rc == 0
        rom = io.load_rom(tmp_path / "r/rom.json")
        assert rom.dimension == 3 * 4
        report = json.loads((tmp_path / "r/rom_report.json").read_text())
        assert report["mass_condition_number"] > 1.0

    def test_not_spd_exit_code(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        main(["synthesize", "--config", str(cfg_path), "--out", str(tmp_path / "d")])
        ds = io.load_dataset(tmp_path / "d/dataset.json")
        bad = np.array(ds.d)
        bad[0] = -bad[0]  # negative-definite D_0 cannot be a Gram block
        io.save_dataset(tmp_path / "d/dataset.json", type(ds)(bad, ds.ddot, ds.tau, ds.m, ds.n))
        rc = main(["rom", "--dataset", str(tmp_path / "d/dataset.json"), "--out", str(tmp_path / "r")])
        assert rc == 3
        assert not (tmp_path / "r").exists()

    def test_header_without_n_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        main(["synthesize", "--config", str(cfg_path), "--out", str(tmp_path / "d")])
        header = json.loads((tmp_path / "d/dataset.json").read_text())
        del header["n"]
        (tmp_path / "d/dataset.json").write_text(json.dumps(header))
        rc = main(["rom", "--dataset", str(tmp_path / "d/dataset.json"), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    # each payload holds the 2 (2n - 1) m^2 values its header implies
    @pytest.mark.parametrize("key, value, size", [("m", 0, 0), ("n", True, 18)],
                             ids=["zero-m", "bool-n"])
    def test_header_count_below_one_exits_2(self, tmp_path, capsys, key, value, size):
        cfg_path = write_config(tmp_path, base_config())
        main(["synthesize", "--config", str(cfg_path), "--out", str(tmp_path / "d")])
        header = json.loads((tmp_path / "d/dataset.json").read_text())
        header[key] = value
        (tmp_path / "d/dataset.json").write_text(json.dumps(header))
        payload = tmp_path / "d/dataset.bin"
        payload.write_bytes(payload.read_bytes()[:8 * size])
        rc = main(["rom", "--dataset", str(tmp_path / "d/dataset.json"), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "malformed artifact" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_missing_dataset_io_error(self, tmp_path):
        rc = main(["rom", "--dataset", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r")])
        assert rc == 4


class TestConfigErrors:
    def test_missing_section(self, tmp_path):
        cfg = base_config()
        del cfg["sampling"]
        rc = main(["synthesize", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_unknown_factory(self, tmp_path):
        cfg = base_config(model={"factory": "marmousi9000"})
        rc = main(["synthesize", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_sweep_needs_two_axes(self, tmp_path):
        cfg = base_config(sweep={"p1": {"name": "contrast", "min": 1.0, "max": 2.0, "count": 3}})
        rc = main(["sweep", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        assert rc == 2


SWEEP = {
    "p1": {"name": "depth_left", "min": 500.0, "max": 700.0, "count": 3},
    "p2": {"name": "contrast", "min": 1.8, "max": 2.2, "count": 3},
}

CAMEMBERT = {"factory": "camembert", "center": [550.0, 700.0], "radius": 300.0}

MALFORMED = [
    pytest.param(("search", "background"), {"kind": "gradient", "c_bottom": 2000.0},
                 id="gradient-background-without-c_top"),
    pytest.param(("search", "background"), {"kind": "file"}, id="file-background-without-path"),
    pytest.param(("model",), {"factory": "file"}, id="file-model-without-path"),
    pytest.param(("acquisition", "theta_width"), 0, id="zero-theta-width"),
    pytest.param(("acquisition", "pulse", "bandwidth_hz"), 0, id="zero-bandwidth"),
    pytest.param(("acquisition", "pulse", "freq_hz"), 0, id="zero-freq"),
    pytest.param(("search", "lattice"), [0, 3], id="empty-lattice"),
    pytest.param(("model", "contrast"), -1, id="negative-contrast"),
    # the two-layer slope is retired: it exits 2 naming the key
    pytest.param(("model", "slope_drop"), float("nan"), id="nan-slope-drop"),
    # the explicit layout is retired
    pytest.param(("acquisition", "layout"),
                 {"kind": "explicit", "positions": [[500.0, 500.0], [800.0, 500.0], [500.0, 500.0]]},
                 id="repeated-sensor-position"),
    pytest.param(("sampling", "n"), 0, id="zero-samples"),
    pytest.param(("grid", "bc"), "periodic", id="periodic-bc"),
    pytest.param(("grid", "bc"), "neumann", id="neumann-bc"),
    pytest.param(("grid", "bc"), ["dirichlet"] * 4, id="per-side-bc"),
    pytest.param((), None, id="top-level-list"),
    pytest.param(("search", "background"), {"kind": "constant"},
                 id="constant-background-without-c0"),
    pytest.param(("model",), {"factory": "camembert"}, id="camembert-disk-outside-domain"),
    pytest.param(("acquisition", "layout", "depth"), 20.0, id="sensor-above-first-node-row"),
    pytest.param(("sampling", "nyquist_factr"), 0.8, id="sampling-key-typo"),
    pytest.param(("record",), {"dt_factr": 12}, id="record-key-typo"),
    pytest.param(("reference",), {"refin": 2}, id="reference-key-typo"),
    pytest.param(("acquisition", "layout", "dpth"), 150.0, id="layout-key-typo"),
    pytest.param(("grid", "hxx"), 100.0, id="grid-key-typo"),
    pytest.param(("acquisition", "theta_widht"), 100.0, id="acquisition-key-typo"),
    pytest.param(("acquisition", "pulse", "freq"), 6.0, id="pulse-key-typo"),
    pytest.param(("model", "c_tpo"), 1500.0, id="model-key-typo"),
    pytest.param(("search", "widht_factor"), 1.5, id="search-key-typo"),
    pytest.param(("schedule", "lyers"), 1, id="schedule-key-typo"),
    pytest.param(("schedule", "layers"), 2, id="schedule-layers-disagree-with-k"),
    pytest.param(("schedule", "k"), [9], id="schedule-k-beyond-n"),
    pytest.param(("record",), {"dt": 0.001, "dt_factor": 12}, id="record-dt-and-dt_factor"),
    pytest.param(("record",), {"t_end": 1.0, "t_factor": 1.3}, id="record-t_end-and-t_factor"),
    pytest.param(("sampling",), {"n": 4, "tau": 0.05, "nyquist_factor": 0.9},
                 id="sampling-tau-and-nyquist_factor"),
    pytest.param(("sweep",), dict(SWEEP, d=9), id="sweep-band-beyond-n"),
    pytest.param(("sweep",), dict(SWEEP, d=0), id="sweep-zero-band"),
    pytest.param(("sweep",), dict(SWEEP, p2=dict(SWEEP["p2"], cnt=3)), id="sweep-axis-key-typo"),
    pytest.param(("sweep",), dict(SWEEP, p1=dict(SWEEP["p1"], name="grid")),
                 id="sweep-axis-named-grid"),
    pytest.param(("sweep",), dict(SWEEP, p1=dict(SWEEP["p1"], name="contrast")),
                 id="sweep-axes-share-a-name"),
    pytest.param(("sweep",), dict(SWEEP, p2=dict(SWEEP["p2"], min=-1.0)),
                 id="sweep-candidate-negative-contrast"),
    pytest.param(("model",), dict(CAMEMBERT, c_inside=-1.0), id="negative-c_inside"),
    pytest.param(("model",), dict(CAMEMBERT, c_outside=0.0), id="zero-c_outside"),
    pytest.param(("search", "background", "c0"), -1500.0, id="negative-background-c0"),
    pytest.param(("search", "background", "c0"), float("nan"), id="nan-background-c0"),
    pytest.param(("sampling",), [], id="sampling-list"),
    pytest.param(("sampling",), "x", id="sampling-string"),
    pytest.param(("acquisition", "pulse", "freq_hz"), 1e308, id="huge-freq"),
    pytest.param(("acquisition", "pulse", "bandwidth_hz"), 1e308, id="huge-bandwidth"),
    pytest.param(("sampling", "nyquist_factor"), 0, id="zero-nyquist-factor"),
    # tau = 4.9e-323 s, so the leapfrog step tau / 50 underflows to 0
    pytest.param(("sampling", "nyquist_factor"), 1e-321, id="nyquist-factor-step-underflows"),
    pytest.param(("sampling", "n"), 1e308, id="huge-n"),
    pytest.param(("gn",), {"fd_step": "x"}, id="string-fd-step"),
    pytest.param(("gn",), {"fd_step": 0}, id="zero-fd-step"),
    pytest.param(("gn",), {"fd_step": -0.01}, id="negative-fd-step"),
    pytest.param(("gn",), {"alpha_max": float("nan")}, id="nan-alpha-max"),
    # one finite-difference column moves the velocity by up to fd_step m/s
    pytest.param(("gn",), {"fd_step": 1e300}, id="fd-step-beyond-c-min"),
    pytest.param(("gn",), {"fd_step": 300.0}, id="fd-step-at-c-min"),
    pytest.param(("search", "amplitude"), 1e300, id="amplitude-step-beyond-c-min"),
    # c^2 / h^2 beyond the float range: no synthesis of the model can run
    pytest.param(("model",), dict(CAMEMBERT, c_inside=1e200), id="c_inside-operator-overflows"),
    pytest.param(("search", "background", "c0"), 1e200, id="background-operator-overflows"),
    pytest.param(("sweep",), dict(SWEEP, p2=dict(SWEEP["p2"], max=1e300)),
                 id="sweep-candidate-operator-overflows"),
    pytest.param(("search", "amplitude"), "x", id="string-amplitude"),
    pytest.param(("search", "amplitude"), 0, id="zero-amplitude"),
    # search.width_factor is retired: each exits 2 naming the key
    pytest.param(("search", "width_factor"), float("nan"), id="nan-width-factor"),
    pytest.param(("search", "width_factor"), 1e-300, id="width-factor-square-underflows"),
    pytest.param(("search", "width_factor"), 1e-3, id="bumps-move-no-node"),
    # 100 parameters for the 78 entries of the d = k = 4 ROM residual
    pytest.param(("search", "lattice"), [10, 10], id="search-beyond-rom-residual"),
    pytest.param(("model",), dict(CAMEMBERT, radius=-5.0), id="negative-radius"),
    pytest.param(("model",), dict(CAMEMBERT, center=[float("nan"), 700.0]), id="nan-center"),
    pytest.param(("gn",), {"c_min": "x"}, id="string-c-min"),
    pytest.param(("gn",), {"c_min": float("nan")}, id="nan-c-min"),
    pytest.param(("gn",), {"fwi_truncate": "no"}, id="string-fwi-truncate"),
    pytest.param(("schedule", "q"), 1.5, id="fractional-q"),
    pytest.param(("reference",), {"refine": 1.7}, id="fractional-refine"),
    pytest.param(("search", "lattice"), [2.5, 2], id="fractional-lattice"),
    pytest.param(("sampling", "n"), 4.5, id="fractional-n"),
    pytest.param(("grid", "nx"), 12.5, id="fractional-nx"),
    pytest.param(("sweep",), dict(SWEEP, d=2.5), id="fractional-sweep-band"),
    pytest.param(("sampling",), {"n": 4, "tau": 0.05}, id="sampling-tau"),
    pytest.param(("schedule",), {"layers": 1, "q": 1, "d": 4}, id="schedule-without-k"),
    # the record section is retired: each exits 2 naming it
    pytest.param(("record",), {"dt": 0.001}, id="record-dt"),
    pytest.param(("record",), {"t_end": 1.0}, id="record-t_end"),
    pytest.param(("record",), {"t_factor": float("nan")}, id="nan-t-factor"),
    pytest.param(("record",), {"t_factor": float("inf")}, id="infinite-t-factor"),
    pytest.param(("record",), {"t_factor": 1.05}, id="t-factor-into-the-taper"),
    pytest.param(("record",), {"t_factor": -1.0}, id="negative-t-factor"),
    pytest.param(("record",), {"dt_factor": 0}, id="zero-dt-factor"),
    pytest.param(("record",), {"dt_factor": float("nan")}, id="nan-dt-factor"),
    pytest.param(("record",), {"dt_factor": -50}, id="negative-dt-factor"),
    pytest.param(("record",), {"dt_factor": 12.5}, id="fractional-dt-factor"),
    pytest.param(("record",), {"dt_factor": 10**400}, id="huge-integer-dt-factor"),
    pytest.param(("record",), {"dt_factor": 1e9}, id="dt-factor-record-beyond-memory"),
    pytest.param(("record",), {"dt_factor": 1e12}, id="dt-factor-record-far-beyond-memory"),
    # records whose 3 x 3 traces would take 6.5 TiB and 6.4 PiB
    pytest.param(("sampling", "n"), 10**9, id="record-beyond-memory"),
    pytest.param(("sampling", "n"), 10**12, id="record-far-beyond-memory"),
    # tf = 9.7e305 s; (2 pi B)^2 underflows to 0, so the pulse is refused
    pytest.param(("acquisition", "pulse", "bandwidth_hz"), 1e-306,
                 id="pulse-support-beyond-any-step-count"),
    # (2 pi B)^2 = 3.9e-399 underflows to 0, and f_hat divides by it
    pytest.param(("acquisition", "pulse", "bandwidth_hz"), 1e-200,
                 id="pulse-bandwidth-square-underflows"),
    pytest.param(("acquisition", "layout"), {"kind": "ring", "m": 2.5, "inset": 200.0},
                 id="fractional-ring-m"),
    # 2 x 700 m exceeds the 1300 m width of the domain
    pytest.param(("acquisition", "layout"), {"kind": "ring", "m": 4, "inset": 700.0},
                 id="ring-inset-leaves-no-rectangle"),
    pytest.param(("acquisition", "layout", "m"), 2.5, id="fractional-line-m"),
    pytest.param(("acquisition", "layout", "m"), 0, id="zero-line-m"),
    pytest.param(("sweep",), dict(SWEEP, p1=dict(SWEEP["p1"], count=0)), id="zero-sweep-count"),
    pytest.param(("sweep",), dict(SWEEP, p2=dict(SWEEP["p2"], count=2.5)),
                 id="fractional-sweep-count"),
    # 10**12 entries of 8 bytes: numpy refuses to allocate the 7.28 TiB
    pytest.param(("acquisition", "layout", "m"), 10**12, id="line-m-beyond-memory"),
    pytest.param(("acquisition", "layout"), {"kind": "ring", "m": 10**12, "inset": 200.0},
                 id="ring-m-beyond-memory"),
    pytest.param(("search", "lattice"), [10**12, 1], id="lattice-beyond-memory"),
    pytest.param(("sweep",), dict(SWEEP, p1=dict(SWEEP["p1"], count=10**12)),
                 id="sweep-count-beyond-memory"),
    # 10**8 candidates: load would check operators for hours before a refusal
    pytest.param(("sweep",), dict(SWEEP, p1=dict(SWEEP["p1"], count=10**4),
                                  p2=dict(SWEEP["p2"], count=10**4)),
                 id="sweep-beyond-budget"),
]


@pytest.mark.parametrize("path, value", MALFORMED)
def test_malformed_config_exits_2(tmp_path, capsys, path, value):
    cfg = base_config(
        search={"background": {"kind": "constant", "c0": 1500.0}, "lattice": [2, 2]},
        schedule={"layers": 1, "q": 1, "d": 4, "k": [4]},
    )
    if path:
        set_key(cfg, path, value)
    else:
        cfg = [cfg]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a refused config prints its config error alone
        rc = main(["invert", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, path, message", [
    ("invert", ("search",), "invert needs a search section"),
    ("invert", ("schedule",), "invert needs a schedule section"),
    ("sweep", (), "sweep needs a sweep section"),  # the config states no sweep
    ("invert", ("search", "background"), "search section missing 'background'"),
    ("invert", ("search", "lattice"), "search section missing 'lattice'"),
], ids=["invert-without-search", "invert-without-schedule", "sweep-without-sweep",
        "search-without-background", "search-without-lattice"])
def test_unstated_section_exits_2_naming_it(tmp_path, capsys, command, path, message):
    # load builds only what a config states and invents no default
    cfg = base_config(
        search={"background": {"kind": "constant", "c0": 1500.0}, "lattice": [2, 2]},
        schedule={"layers": 1, "q": 1, "d": 4, "k": [4]},
    )
    if path:
        *head, last = path
        section = cfg
        for key in head:
            section = section[key]
        del section[last]
    rc = main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert "forward.synth" not in profile.counts()
    assert not (tmp_path / "o").exists()


#: Keys that once held a setting every run left at one value, now a constant
#: in the code, each at that value, and the explicit layout, which no run used.
RETIRED = [
    pytest.param(("gn", "c_min"), 300.0, id="gn-c_min"),
    pytest.param(("gn", "fwi_truncate"), False, id="gn-fwi_truncate"),
    pytest.param(("sweep", "d"), 4, id="sweep-d"),
    pytest.param(("sweep", "k"), 4, id="sweep-k"),
    pytest.param(("acquisition", "theta_width"), 100.0, id="acquisition-theta_width"),
    pytest.param(("acquisition", "layout", "theta_width"), 100.0, id="layout-theta_width"),
    pytest.param(("acquisition", "layout", "margin"), 65.0, id="layout-margin"),
    pytest.param(("grid", "x0"), 0.0, id="grid-x0"),
    pytest.param(("grid", "z0"), 0.0, id="grid-z0"),
    pytest.param(("search", "amplitude"), 1.0, id="search-amplitude"),
    pytest.param(("record",), {"dt_factor": 50}, id="record"),
    pytest.param(("acquisition", "layout", "kind"), "explicit", id="layout-explicit"),
    pytest.param(("search", "width_factor"), 1.5, id="search-width_factor"),
    pytest.param(("model", "slope_drop"), 400.0, id="model-slope_drop"),
    pytest.param(("model", "c_top"), 1500.0, id="model-c_top"),
]


@pytest.mark.parametrize("path, value", RETIRED)
def test_retired_key_is_refused_by_name(tmp_path, capsys, path, value):
    cfg = base_config(
        search={"background": {"kind": "constant", "c0": 1500.0}, "lattice": [2, 2]},
        schedule={"layers": 1, "q": 1, "d": 4, "k": [4]},
        gn={},
        sweep=dict(SWEEP),
    )
    set_key(cfg, path, value)
    rc = main(["sweep", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(path[-1]) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, path, value, message", [
    ("sweep", ("sweep",), dict(SWEEP, p1=dict(SWEEP["p1"], min=float("nan"))),
     "bad sweep section: sweep axis depth_left needs a finite min and max"),
    ("sweep", ("sweep",), dict(SWEEP, p2=dict(SWEEP["p2"], max=float("inf"))),
     "bad sweep section: sweep axis contrast needs a finite min and max"),
    ("synthesize", ("model",), dict(CAMEMBERT, c_inside=1e200),
     "bad model section: the operator's spectral bound inf is not positive and finite"),
    ("sweep", ("sweep",), dict(SWEEP, p2=dict(SWEEP["p2"], max=1e300)),
     "bad sweep section: the operator's spectral bound inf is not positive and finite"),
], ids=["nan-sweep-min", "infinite-sweep-max", "c_inside-operator-overflows",
        "sweep-candidate-operator-overflows"])
def test_refused_config_prints_only_its_error(tmp_path, capsys, command, path, value, message):
    cfg = base_config()
    set_key(cfg, path, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--config", str(write_config(tmp_path, cfg)),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, stated", [
    ("synthesize", {k: v for k, v in base_config().items() if k not in ("schema", "method")}),
    ("sweep", base_config(sweep=SWEEP)),
    ("invert", base_config(
        search={"background": {"kind": "constant", "c0": 1500.0}, "lattice": [2, 2]},
        schedule={"layers": 1, "q": 1, "d": 4, "k": [4]},
    )),
], ids=["synthesize", "sweep", "invert"])
def test_manifest_records_the_stated_config(tmp_path, command, stated):
    out = tmp_path / "o"
    assert main([command, "--config", str(write_config(tmp_path, stated)), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == {"schema": config.SCHEMA, **stated}


def save_velocity_with_walls(path, shape, walls):
    """A constant velocity artifact on a `shape` grid, its header's `bc`
    rewritten to four `walls` sides."""
    io.save_velocity(path, make_constant_model(1500.0, Grid2D(*shape, 100.0, 100.0)))
    header = json.loads(path.read_text())
    header["bc"] = [walls] * 4
    path.write_text(json.dumps(header))


@pytest.mark.parametrize("shape, walls, message", [
    ((10, 12), "dirichlet", "v.json holds a model on"),
    ((12, 15), "neumann", "walls ['neumann', 'neumann', 'neumann', 'neumann'] are not"),
], ids=["other-grid", "other-walls"])
def test_file_model_off_its_grid_section_exits_2(tmp_path, capsys, shape, walls, message):
    save_velocity_with_walls(tmp_path / "v.json", shape, walls)
    cfg = base_config(model={"factory": "file", "path": "v.json"})
    rc = main(["synthesize", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_fd_step_below_c_min_runs(tmp_path):
    cfg = base_config(
        search={"background": {"kind": "constant", "c0": 1500.0}, "lattice": [2, 2]},
        schedule={"layers": 1, "q": 1, "d": 4, "k": [4]},
        gn={"fd_step": 299.0},
    )
    rc = main(["invert", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert rc == 0


def test_search_beyond_fwi_residual_exits_2_before_synthesis(tmp_path, capsys):
    # 49 parameters for the 42 entries of the FWI residual over 7 samples
    cfg = base_config(
        search={"background": {"kind": "constant", "c0": 1500.0}, "lattice": [7, 7]},
        schedule={"layers": 1, "q": 1, "d": 4, "k": [4]},
    )
    rc = main(["invert", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o"),
               "--mode", "fwi"])
    assert rc == 2
    assert "49 parameters, more than the 42 entries of the fwi residual" in capsys.readouterr().err
    assert "forward.synth" not in profile.counts()
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section", ["model", "background"])
def test_operator_bound_of_zero_exits_2_saying_so(tmp_path, capsys, section):
    # c^2 underflows to 0, and so does the operator's Gershgorin bound
    cfg = base_config(search={"background": {"kind": "constant", "c0": 1500.0}, "lattice": [2, 2]})
    spec = {"factory": "constant", "c0": 1e-300}
    if section == "model":
        cfg["model"] = spec
    else:
        cfg["search"]["background"] = {"kind": "constant", "c0": 1e-300}
    rc = main(["synthesize", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "spectral bound 0.0 is not positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_reference_operator_overflow_exits_2(tmp_path, capsys):
    # c^2 / h^2 fits the float range on the stated grid, not on the one
    # twice as fine that the reference model is built on
    cfg = base_config(model=dict(CAMEMBERT, c_inside=3e155))
    run_from_dict(cfg, tmp_path)
    cfg["reference"] = {"refine": 2}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["synthesize", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "bad reference section" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [
    ("hx", float("nan")), ("hx", float("inf")), ("hx", 1e308),
    ("hz", float("nan")), ("hx", 1e-300), ("hz", 1e-300),
], ids=["nan-hx", "infinite-hx", "hx-extent-overflows", "nan-hz",
        "hx-square-underflows", "hz-square-underflows"])
def test_non_finite_grid_geometry_names_the_grid_section(tmp_path, capsys, key, value):
    cfg = base_config()
    cfg["grid"][key] = value
    rc = main(["synthesize", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "bad grid section" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_overflowing_line_search_trials_are_rejected(tmp_path):
    # every probe alpha_max * 0.7^j puts c^2 / h^2 beyond the float range:
    # each scores as infeasible and both steps are rejected
    cfg = base_config(
        model={"factory": "camembert", "center": [800.0, 800.0], "radius": 400.0,
               "c_inside": 3600.0, "c_outside": 3000.0},
        grid={"nx": 15, "nz": 15, "hx": 100.0, "hz": 100.0},
        acquisition={
            "layout": {"kind": "ring", "m": 6, "inset": 200.0},
            "pulse": {"freq_hz": 6.0, "bandwidth_hz": 2.0},
        },
        search={"background": {"kind": "constant", "c0": 3000.0}, "lattice": [3, 3]},
        schedule={"k": [4], "q": 2, "d": 4},
        gn={"alpha_max": 1e300},
    )
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["invert", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert rc == 0
    assert [row["alpha"] for row in io.load_state_csv(out / "state.csv")] == [0.0, 0.0]
    assert json.loads((out / "profile.json").read_text())["inversion.infeasible"] > 0


@pytest.mark.parametrize("shape, walls", [((10, 12), "dirichlet"), ((12, 15), "neumann")],
                         ids=["other-grid", "other-walls"])
def test_search_background_off_the_model_exits_2(tmp_path, capsys, shape, walls):
    save_velocity_with_walls(tmp_path / "bg.json", shape, walls)
    cfg = base_config(
        search={"background": {"kind": "file", "path": "bg.json"}, "lattice": [2, 2]},
        schedule={"layers": 1, "q": 1, "d": 4, "k": [4]},
    )
    rc = main(["invert", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "search background" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_search_background_file_on_the_model_grid_loads(tmp_path):
    background = make_constant_model(1500.0, Grid2D(12, 15, 100.0, 100.0))
    io.save_velocity(tmp_path / "bg.json", background)
    run = run_from_dict(base_config(
        search={"background": {"kind": "file", "path": "bg.json"}, "lattice": [2, 2]},
        schedule={"k": [4], "q": 1, "d": 4},
    ), tmp_path)
    assert run.search.background.grid == run.truth.grid


def test_whole_valued_float_counts_load():
    cfg = base_config(sweep=dict(SWEEP, p1=dict(SWEEP["p1"], count=2.0)))
    cfg["acquisition"]["layout"]["m"] = 3.0
    loaded = run_from_dict(cfg, ".")
    assert loaded.acquisition.array.m == 3
    assert [ax.count for ax in loaded.sweep] == [2, 3]
    assert len(list(loaded.candidates())) == 6
    cfg["acquisition"]["layout"] = {"kind": "ring", "m": 5.0, "inset": 200.0}
    assert run_from_dict(cfg, ".").acquisition.array.m == 5


@pytest.mark.parametrize("n", [1, 2, 4], ids="n{}".format)
def test_record_ends_one_step_past_the_last_sample(n):
    run = run_from_dict(base_config(
        model={"factory": "constant", "c0": 1000.0},
        sampling={"n": n},
    ), ".")
    truth, acq = run.truth, run.acquisition
    rec = synthesize_measurements(truth, acq.array, acq.pulse, acq.tau, n)
    assert symmetrize_and_sample(rec, acq.array, truth, n).n == n
    cut = TraceRecord(rec.tau, rec.k0, rec.data[:-1])
    with pytest.raises(InsufficientRecordLength):
        symmetrize_and_sample(cut, acq.array, truth, n)


def test_record_counts_whole_steps():
    # k0 steps before t = 0, t = 0 itself, and (2n - 2) DT_FACTOR + 1 after it
    run = run_from_dict(base_config(
        model={"factory": "constant", "c0": 1000.0},
        sampling={"n": 25, "nyquist_factor": 0.5},
    ), ".")
    truth, acq = run.truth, run.acquisition
    rec = synthesize_measurements(truth, acq.array, acq.pulse, acq.tau, 25)
    assert rec.nt == rec.k0 + (2 * 25 - 2) * DT_FACTOR + 2


@pytest.mark.parametrize("grid, reference", [
    ({"nx": 150, "nz": 150, "hx": 10.0, "hz": 10.0}, {}),
    ({"nx": 12, "nz": 15, "hx": 100.0, "hz": 100.0}, {"refine": 10}),
], ids=["truth-grid", "refined-grid"])
def test_oversized_spectral_grid_exits_2_at_load(tmp_path, capsys, grid, reference):
    cfg = base_config(grid=grid, reference=reference, method="spectral")
    rc = main(["synthesize", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_candidate_out_of_range_exits_2_before_output(tmp_path, capsys):
    cfg = base_config(sweep=dict(SWEEP, p2={"name": "contrast", "min": -1.0, "max": 2.0, "count": 4}))
    rc = main(["sweep", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_threads_accepts_only_one(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "synthesize", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    assert exc.value.code == 2
    rc = main(["--threads", "1", "synthesize", "--config", str(cfg_path), "--out", str(tmp_path / "b")])
    assert rc == 0
    assert "threads" not in json.loads((tmp_path / "b/manifest.json").read_text())


class TestSweepCommand:
    def test_tiny_sweep(self, tmp_path):
        cfg = base_config(
            sweep={
                "p1": {"name": "depth_left", "min": 500.0, "max": 700.0, "count": 3},
                "p2": {"name": "contrast", "min": 1.8, "max": 2.2, "count": 3},
            }
        )
        rc = main(["sweep", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        assert rc == 0
        census = json.loads((tmp_path / "o/census.json").read_text())
        assert census["rom"]["count"] >= 1
        lines = (tmp_path / "o/sweep.csv").read_text().splitlines()
        assert lines[0] == "depth_left,contrast,obj_rom,obj_fwi"
        assert len(lines) == 1 + 9

    def test_degenerate_single_point(self, tmp_path):
        cfg = base_config(
            sweep={
                "p1": {"name": "depth_left", "min": 600.0, "max": 600.0, "count": 1},
                "p2": {"name": "contrast", "min": 2.0, "max": 2.0, "count": 1},
            }
        )
        rc = main(["sweep", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        assert rc == 0
        census = json.loads((tmp_path / "o/census.json").read_text())
        assert census["rom"]["count"] == 1
        assert census["fwi"]["count"] == 1


@pytest.fixture(scope="module")
def invert_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("invert")
    cfg = base_config(
        search={"background": {"kind": "constant", "c0": 1500.0}, "lattice": [2, 2]},
        schedule={"layers": 1, "q": 2, "d": 4, "k": [4]},
        gn={"gamma": 0.3},
    )
    cfg_path = write_config(tmp, cfg)
    for mode in ("rom", "fwi"):
        rc = main([
            "invert", "--config", str(cfg_path), "--out", str(tmp / mode), "--mode", mode,
        ])
        assert rc == 0
    return tmp


class TestInvertCommand:
    def test_artifacts_written(self, invert_runs):
        man = json.loads((invert_runs / "rom/manifest.json").read_text())
        assert man["mode"] == "rom"
        assert man["metrics"]["iterations"] == 2
        est = io.load_velocity(invert_runs / "rom/estimate.json")
        truth = io.load_velocity(invert_runs / "rom/truth.json")
        assert est.grid == truth.grid
        rows = io.load_state_csv(invert_runs / "rom/state.csv")
        assert len(rows) == 2
        assert rows[0]["k_l"] == 4

    def test_compare(self, invert_runs, tmp_path):
        rc = main([
            "compare",
            "--run-a", str(invert_runs / "rom/manifest.json"),
            "--run-b", str(invert_runs / "fwi/manifest.json"),
            "--out", str(tmp_path),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "compare.json").read_text())
        assert report["winner"] in ("a", "b", "tie")
        assert "curves" in report and "a" in report["curves"]

    def test_compare_identical_runs_tie(self, invert_runs, tmp_path):
        rc = main([
            "compare",
            "--run-a", str(invert_runs / "rom/manifest.json"),
            "--run-b", str(invert_runs / "rom/manifest.json"),
            "--out", str(tmp_path),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "compare.json").read_text())
        assert report["winner"] == "tie"
        assert report["error_difference"] == 0.0

    @pytest.mark.parametrize("wrong", ["sweep", "truth"])
    def test_wrong_kind_input_exits_2(self, invert_runs, tmp_path, capsys, wrong):
        # compare takes only invert manifests and rom only datasets
        if wrong == "sweep":
            cfg = base_config(sweep={
                "p1": {"name": "depth_left", "min": 600.0, "max": 600.0, "count": 1},
                "p2": {"name": "contrast", "min": 2.0, "max": 2.0, "count": 1},
            })
            cfg_path = write_config(tmp_path, cfg)
            assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "s")]) == 0
            path = tmp_path / "s/manifest.json"
        else:
            path = invert_runs / "rom/truth.json"
        run = str(invert_runs / "rom/manifest.json")
        out = str(tmp_path / "o")
        assert main(["compare", "--run-a", run, "--run-b", str(path), "--out", out]) == 2
        assert main(["rom", "--dataset", str(path), "--out", out]) == 2
        assert capsys.readouterr().err.count("config error") == 2
        assert not (tmp_path / "o").exists()

    def test_compare_state_without_alpha_exits_2(self, invert_runs, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(invert_runs / "rom", run)
        lines = (run / "state.csv").read_text().splitlines()
        (run / "state.csv").write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
        rc = main([
            "compare", "--run-a", str(run / "manifest.json"),
            "--run-b", str(invert_runs / "fwi/manifest.json"), "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda man: man.update(artifacts=list(man["artifacts"])), id="artifacts-list"),
        pytest.param(lambda man: man["artifacts"].update(state=5), id="state-number"),
    ])
    def test_compare_malformed_manifest_exits_2(self, invert_runs, tmp_path, capsys, edit):
        run = tmp_path / "run"
        shutil.copytree(invert_runs / "rom", run)
        manifest = json.loads((run / "manifest.json").read_text())
        edit(manifest)
        (run / "manifest.json").write_text(json.dumps(manifest))
        rc = main([
            "compare", "--run-a", str(run / "manifest.json"),
            "--run-b", str(invert_runs / "fwi/manifest.json"), "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [-1.0, float("nan")])
    def test_compare_nonpositive_estimate_exits_2(self, invert_runs, tmp_path, capsys, value):
        run = tmp_path / "run"
        shutil.copytree(invert_runs / "rom", run)
        payload = np.fromfile(run / "estimate.bin", dtype="<f8")
        payload[7] = value
        payload.tofile(run / "estimate.bin")
        rc = main([
            "compare", "--run-a", str(run / "manifest.json"),
            "--run-b", str(invert_runs / "fwi/manifest.json"), "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_invert_deterministic(self, invert_runs, tmp_path):
        cfg = base_config(
            search={"background": {"kind": "constant", "c0": 1500.0}, "lattice": [2, 2]},
            schedule={"layers": 1, "q": 2, "d": 4, "k": [4]},
            gn={"gamma": 0.3},
        )
        cfg_path = write_config(tmp_path, cfg)
        rc = main(["invert", "--config", str(cfg_path), "--out", str(tmp_path / "x"), "--mode", "rom"])
        assert rc == 0
        assert (tmp_path / "x/estimate.bin").read_bytes() == (
            invert_runs / "rom/estimate.bin"
        ).read_bytes()
        assert (tmp_path / "x/state.csv").read_text() == (invert_runs / "rom/state.csv").read_text()
        assert (tmp_path / "x/profile.json").read_text() == (
            invert_runs / "rom/profile.json"
        ).read_text()

    def test_profile_counts_the_work(self, invert_runs):
        rom = json.loads((invert_runs / "rom/profile.json").read_text())
        fwi = json.loads((invert_runs / "fwi/profile.json").read_text())
        for counts in (rom, fwi):
            assert counts["forward.synth"] > 0
            assert counts["forward.matvecs"] >= counts["forward.synth"]
        assert rom["rom.build"] > 0
        assert "rom.build" not in fwi


def test_invert_builds_the_run_once(tmp_path, monkeypatch):
    # load builds the truth and the search basis once and bounds every
    # model it checks without forming its operator; the command reads them
    counts = {"basis": 0, "truth": 0, "operators": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    basis = functools.cached_property(counted("basis", Parametrization.basis_matrix.func))
    basis.__set_name__(Parametrization, "basis_matrix")
    monkeypatch.setattr(Parametrization, "basis_matrix", basis)
    monkeypatch.setitem(config.MODEL_FACTORIES, "two_layer",
                        counted("truth", config.MODEL_FACTORIES["two_layer"]))
    monkeypatch.setattr(forward.DiscreteOperator, "__init__",
                        counted("operators", forward.DiscreteOperator.__init__))
    cfg = base_config(
        search={"background": {"kind": "constant", "c0": 1500.0}, "lattice": [2, 2]},
        schedule={"layers": 1, "q": 1, "d": 4, "k": [4]},
    )
    out = tmp_path / "o"
    rc = main(["invert", "--config", str(write_config(tmp_path, cfg)), "--out", str(out),
               "--mode", "rom"])
    assert rc == 0
    synth = json.loads((out / "profile.json").read_text())["forward.synth"]
    assert counts == {"basis": 1, "truth": 1, "operators": synth}


@pytest.mark.parametrize("cfg", [base_config(sweep=SWEEP), base_config()],
                         ids=["sweep", "synthesize"])
def test_load_builds_no_search_that_the_command_drops(tmp_path, monkeypatch, cfg):
    # neither command reads a search, and this config states none
    calls, lattice = [], config.make_bump_lattice

    def counted(*args, **kwargs):
        calls.append(args)
        return lattice(*args, **kwargs)

    monkeypatch.setattr(config, "make_bump_lattice", counted)
    run = run_from_dict(cfg, tmp_path)
    assert calls == []
    assert run.search is None


#: profile.json counter -> the benchmark tracer's metric of the same work
TRACED_COUNTS = {
    "forward.synth": "forward.synth.calls",
    "forward.matvecs": "forward.matvecs",
    "forward.matvec_cols": "forward.matvec_cols",
    "rom.build": "rom.build.calls",
}


@pytest.mark.parametrize("command", [["invert", "--mode", "rom"], ["invert", "--mode", "fwi"],
                                     ["sweep"]], ids=["rom", "fwi", "sweep"])
def test_profile_counts_what_the_tracer_counts(tmp_path, command):
    # perfbench's tracer, loaded from its file and used as it stands
    tracer_file = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", tracer_file)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    if command[0] == "sweep":
        cfg = base_config(sweep=SWEEP)
    else:
        cfg = base_config(
            search={"background": {"kind": "constant", "c0": 1500.0}, "lattice": [2, 2]},
            schedule={"layers": 1, "q": 2, "d": 4, "k": [4]},
        )
    out = tmp_path / "o"
    argv = [command[0], "--config", str(write_config(tmp_path, cfg)), "--out", str(out), *command[1:]]
    with tracer_module.Tracer() as tracer:
        assert main(argv) == 0
    traced = tracer.metrics()
    counts = json.loads((out / "profile.json").read_text())
    assert traced["trace.hooks_missing"] == 0
    assert traced["forward.matvecs"] > 0
    assert {name: counts.get(name, 0) for name in TRACED_COUNTS} == {
        name: traced[metric] for name, metric in TRACED_COUNTS.items()
    }


class TestHonestReference:
    def test_refined_reference_breaks_inverse_crime(self, tmp_path):
        # with refine > 1 the truth no longer zeroes the objective
        cfg = base_config(
            search={"background": {"kind": "constant", "c0": 1500.0}, "lattice": [2, 2]},
            schedule={"layers": 1, "q": 1, "d": 4, "k": [4]},
            gn={"gamma": 0.3},
            reference={"refine": 2},
        )
        cfg_path = write_config(tmp_path, cfg)
        rc = main(["invert", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--mode", "fwi"])
        assert rc == 0
        man = json.loads((tmp_path / "o/manifest.json").read_text())
        assert man["config"]["reference"] == {"refine": 2}

    def test_refined_synthesize_differs_from_base(self, tmp_path):
        base = base_config()
        fine = base_config(reference={"refine": 2})
        p1 = write_config(tmp_path, base, "a.json")
        p2 = write_config(tmp_path, fine, "b.json")
        assert main(["synthesize", "--config", str(p1), "--out", str(tmp_path / "a")]) == 0
        assert main(["synthesize", "--config", str(p2), "--out", str(tmp_path / "b")]) == 0
        da = io.load_dataset(tmp_path / "a/dataset.json")
        db = io.load_dataset(tmp_path / "b/dataset.json")
        assert da.d.shape == db.d.shape
        rel = np.max(np.abs(da.d - db.d)) / np.max(np.abs(da.d))
        assert 1e-6 < rel < 1.0  # discretization error visible but bounded

    def test_timedomain_synthesizes_the_refined_reference(self, tmp_path):
        # both paths synthesize the refined model, so they differ only by
        # the leapfrog's time discretization
        assert_paths_agree(tmp_path, base_config(reference={"refine": 2}), n=4)


def test_sweep_axis_typo_rejected(tmp_path):
    cfg = base_config(
        sweep={
            "p1": {"name": "depht_left", "min": 500.0, "max": 700.0, "count": 2},
            "p2": {"name": "contrast", "min": 1.8, "max": 2.2, "count": 2},
        }
    )
    rc = main(["sweep", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert rc == 2
