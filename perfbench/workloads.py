"""The four benchmark workloads: inputs from a seed, commands, output checks.

Each workload writes one generated config into the run's work directory;
the program sees only that file.  Seed 0 keeps the shipped model
parameters; other seeds jitter the true model.  Every workload is sized so
that one execution takes 0.5-20 s on one core (see README.md for how each
relates to the shipped experiment).

The output checks run after the timed executions and are not timed.
Every workload compares the reference data D_j, Ddot_j with a dense
spectral oracle computed here with numpy's eigh, independent of the
package's synthesis code.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from waverom import io
from waverom.config import load_config
from waverom.forward import DiscreteOperator

ORACLE_TOL = 1e-12
CROSS_PATH_TOL = 1e-3

# desk_*: the first DESK_LAYERS layers of the shipped schedule (q = 3 each).
DESK_LAYERS = 2
# topo_sweep: an 11 x 11 window of the shipped 21 x 21 sweep nodes, centred
# on the shipped truth node (10, 10).
SWEEP_WINDOW = (5, 16)
# spectral_ref: the criterion-1/5 fixture on a 32 x 32 grid of the same
# 2000 m square (the 60 x 60 dense eigh alone takes over 30 s), so that a
# run holds about ten executions and reports their median.
SPECTRAL_NX = 32


@dataclass
class Outcome:
    """What the checks found in one execution's outputs."""

    errors: list = field(default_factory=list)
    figures: dict = field(default_factory=dict)  # quality figures to print
    accept_ratio: float = None
    fingerprint: str = ""

    def require(self, ok, message):
        if not ok:
            self.errors.append(message)


def rel_error(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.linalg.norm((a - b).ravel()) / np.linalg.norm(b.ravel()))


def read_float(text: str) -> float:
    """Parse a CSV float, also in the `np.float64(x)` repr form."""
    return float(re.sub(r"^np\.float64\((.*)\)$", r"\1", text))


def digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def oracle_dataset(cfg):
    """D_j = w P^T diag(f_hat(s) cos(j tau s)) P and Ddot_j = -w P^T diag(s^2 ...) P
    with A = Q diag(s^2) Q^T from numpy's dense eigh and P = Q^T theta / c_s."""
    truth = cfg.build_model()
    acq = cfg.build_acquisition(truth.grid)
    lam, q = np.linalg.eigh(DiscreteOperator(truth).matrix.toarray())
    lam = np.maximum(lam, 0.0)
    s = np.sqrt(lam)
    p = q.T @ (acq.array.theta_matrix(truth.grid) / acq.array.local_velocities(truth))
    weight = truth.grid.quad_weight * acq.pulse.f_hat(s)
    d, ddot = [], []
    for j in range(2 * acq.n - 1):
        spectrum = weight * np.cos(j * acq.tau * s)
        d.append((p.T * spectrum) @ p)
        ddot.append(-(p.T * (lam * spectrum)) @ p)
    return np.array(d), np.array(ddot)


def check_oracle(out: Outcome, ds, oracle):
    err = max(rel_error(ds.d, oracle[0]), rel_error(ds.ddot, oracle[1]))
    out.require(err <= ORACLE_TOL, f"reference data vs dense oracle {err:.2e} > {ORACLE_TOL:g}")


def _load_shipped(root: Path, name: str) -> dict:
    return json.loads((root / "configs" / name).read_text())


def _jitter_inclusion(model: dict, grid: dict, rng):
    """Move the inclusion centre by up to one cell per axis; c_inside in 3800-4200."""
    cx, cz = model["center"]
    dx, dz = rng.uniform(-1.0, 1.0, 2)
    model["center"] = [cx + dx * grid["hx"], cz + dz * grid["hz"]]
    model["c_inside"] = float(rng.uniform(3800.0, 4200.0))


def _offset_inclusion(model: dict, grid: dict, rng):
    """Move the inclusion centre by 0.5-1 cell per axis, each way at random;
    c_inside in 3800-4200.  The shift always breaks the mirror symmetries of
    the centred disk, whose degenerate eigenvalues make a dense eigh about
    twice as slow, so the eigh cost does not hinge on the draw."""
    cx, cz = model["center"]
    dx, dz = rng.uniform(0.5, 1.0, 2) * rng.choice([-1.0, 1.0], 2)
    model["center"] = [cx + dx * grid["hx"], cz + dz * grid["hz"]]
    model["c_inside"] = float(rng.uniform(3800.0, 4200.0))


class Workload:
    name = ""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.seed = root, seed
        self.config = self.make_config()
        self.config_path = work / f"{self.name}.json"
        self.config_path.write_text(json.dumps(self.config, indent=2, sort_keys=True))
        self._reference = None

    def make_config(self) -> dict:
        raise NotImplementedError

    def commands(self, out: Path) -> list:
        raise NotImplementedError

    def cli(self, *argv) -> list:
        return ["--threads", "1", "--seed", str(self.seed), *map(str, argv)]

    def reference(self):
        """Untimed reference results shared by the checks of every execution."""
        if self._reference is None:
            self._reference = self.compute_reference()
        return self._reference

    def compute_reference(self):
        return oracle_dataset(load_config(self.config_path))

    def check(self, out: Path) -> Outcome:
        raise NotImplementedError


class DeskInversion(Workload):
    mode = ""

    def make_config(self) -> dict:
        raw = _load_shipped(self.root, "camembert_desk.json")
        sched = raw["schedule"]
        sched["layers"] = DESK_LAYERS
        sched["k"] = sched["k"][:DESK_LAYERS]
        if self.seed:
            _jitter_inclusion(raw["model"], raw["grid"], np.random.default_rng(self.seed))
        return raw

    @property
    def iterations(self) -> int:
        return self.config["schedule"]["layers"] * self.config["schedule"]["q"]

    def commands(self, out: Path) -> list:
        return [self.cli("invert", "--config", self.config_path, "--out", out, "--mode", self.mode)]

    def check(self, out: Path) -> Outcome:
        res = Outcome()
        manifest = io.load_manifest(out / "manifest.json")
        metrics = manifest["metrics"]
        check_oracle(res, io.load_dataset(out / "dataset.json"), self.reference())
        res.require(
            metrics["iterations"] == self.iterations,
            f"{metrics['iterations']} iterations, expected {self.iterations}",
        )
        rows = io.load_state_csv(out / "state.csv")
        res.require(len(rows) == self.iterations, f"state.csv has {len(rows)} rows")
        final, initial = metrics["final_error"], metrics["initial_error"]
        res.require(math.isfinite(final), f"final error {final} not finite")
        self.check_quality(res, rows, final, initial)
        res.figures["final_rel_error"] = final
        res.accept_ratio = sum(r["alpha"] > 0 for r in rows) / max(len(rows), 1)
        res.fingerprint = digest(out / "dataset.bin", out / "state.csv", out / "estimate.bin") + (
            json.dumps(metrics, sort_keys=True)
        )
        return res

    def check_quality(self, res, rows, final, initial):
        pass


class DeskRom(DeskInversion):
    name = "desk_rom"
    mode = "rom"

    def check_quality(self, res, rows, final, initial):
        for prev, cur in zip(rows, rows[1:]):
            if cur["k_l"] == prev["k_l"]:
                res.require(
                    cur["objective"] <= prev["objective"] * (1 + 1e-12),
                    f"objective rose at iteration {cur['iteration']}",
                )
        res.require(final < initial, f"final error {final:.4f} not below initial {initial:.4f}")
        if self.seed == 0:
            res.require(final <= 0.6 * initial, f"final error {final:.4f} > 0.6 x {initial:.4f}")


class DeskFwi(DeskInversion):
    name = "desk_fwi"
    mode = "fwi"


class TopoSweep(Workload):
    name = "topo_sweep"

    def make_config(self) -> dict:
        raw = _load_shipped(self.root, "topography_sweep.json")
        lo, hi = SWEEP_WINDOW
        axes = []
        for key in ("p1", "p2"):
            axis = raw["sweep"][key]
            full = np.linspace(axis["min"], axis["max"], axis["count"])
            axis.update(min=float(full[lo]), max=float(full[hi - 1]), count=hi - lo)
            axes.append(axis)
        if self.seed:
            # move the truth to an interior node within two cells of the centre
            rng = np.random.default_rng(self.seed)
            centre = (hi - lo) // 2
            for axis, step in zip(axes, rng.integers(-2, 3, 2)):
                nodes = np.linspace(axis["min"], axis["max"], axis["count"])
                raw["model"][axis["name"]] = float(nodes[centre + step])
        return raw

    def commands(self, out: Path) -> list:
        return [self.cli("sweep", "--config", self.config_path, "--out", out)]

    def compute_reference(self):
        """The oracle and the sweep's reference data, which it does not write:
        re-synthesized through `Acquisition.dataset`, the route it uses."""
        cfg = load_config(self.config_path)
        truth = cfg.build_model()
        return oracle_dataset(cfg), cfg.build_acquisition(truth.grid).dataset(truth), cfg

    def check(self, out: Path) -> Outcome:
        res = Outcome()
        oracle, ref, cfg = self.reference()
        check_oracle(res, ref, oracle)
        ax1, ax2 = cfg.sweep_axes()
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = ax1.count * ax2.count
        res.require(len(rows) == expected, f"sweep.csv has {len(rows)} rows, expected {expected}")
        values = np.array([[read_float(r["obj_rom"]), read_float(r["obj_fwi"])] for r in rows])
        res.require(bool(np.all(np.isfinite(values))), "non-finite objective in sweep.csv")
        census = json.loads((out / "census.json").read_text())
        if self.seed == 0:
            # criterion 6 on the window: one interior ROM minimum within one
            # cell of the truth, at least two FWI minima
            interior = [m for m in census["rom"]["minima"] if m["interior"]]
            centre = (SWEEP_WINDOW[1] - SWEEP_WINDOW[0]) // 2
            res.require(
                len(interior) == 1
                and abs(interior[0]["i"] - centre) <= 1
                and abs(interior[0]["j"] - centre) <= 1,
                f"ROM census interior minima {interior}",
            )
            res.require(census["fwi"]["count"] >= 2, f"FWI census {census['fwi']['count']} < 2")
        res.fingerprint = digest(out / "census.json", out / "sweep.csv")
        return res


class SpectralRef(Workload):
    name = "spectral_ref"

    def make_config(self) -> dict:
        h = 2000.0 / (SPECTRAL_NX + 1)
        raw = {
            "schema": "waverom-config-v1",
            "model": {
                "factory": "camembert", "center": [1000.0, 1000.0], "radius": 600.0,
                "c_inside": 4000.0, "c_outside": 3000.0,
            },
            "grid": {"nx": SPECTRAL_NX, "nz": SPECTRAL_NX, "hx": h, "hz": h, "bc": "dirichlet"},
            "acquisition": {
                "layout": {"kind": "line", "m": 4, "depth": 150.0},
                "pulse": {"freq_hz": 6.0, "bandwidth_hz": 4.0},
            },
            "sampling": {"n": 8, "nyquist_factor": 0.9},
            "method": "spectral",
        }
        if self.seed:
            _offset_inclusion(raw["model"], raw["grid"], np.random.default_rng(self.seed))
        return raw

    def commands(self, out: Path) -> list:
        return [
            self.cli("synthesize", "--config", self.config_path, "--out", out / "spectral"),
            self.cli(
                "synthesize", "--config", self.config_path, "--out", out / "timedomain",
                "--path", "timedomain",
            ),
        ]

    def check(self, out: Path) -> Outcome:
        res = Outcome()
        spectral = io.load_dataset(out / "spectral" / "dataset.json")
        timedomain = io.load_dataset(out / "timedomain" / "dataset.json")
        check_oracle(res, spectral, self.reference())
        err = max(rel_error(timedomain.d, spectral.d), rel_error(timedomain.ddot, spectral.ddot))
        res.require(err <= CROSS_PATH_TOL, f"time-domain vs spectral data {err:.2e}")
        res.figures["timedomain_rel_error"] = err
        res.fingerprint = digest(
            out / "spectral" / "dataset.bin", out / "timedomain" / "dataset.bin"
        )
        return res


WORKLOADS = {w.name: w for w in (DeskRom, DeskFwi, TopoSweep, SpectralRef)}
