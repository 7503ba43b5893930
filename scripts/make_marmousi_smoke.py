#!/usr/bin/env python3
"""Generate the Marmousi-style smoke section and its inversion config.

Full-scale Marmousi is out of reach at desk scale, so this writes a
deterministic 1 km x 0.6 km stand-in section (folded dipping layers over
a depth gradient, velocities 1800-3200 m/s) as a velocity file plus a
small end-to-end config that exercises the file-backed model path, a
gradient search background, and a genuine layer-stripping schedule.
There is no accuracy target; the run just has to finish cleanly.
"""

import argparse
import json
import math
from pathlib import Path

import numpy as np

from waverom.io import save_velocity
from waverom.model import Grid2D, VelocityModel


def make_section(g: Grid2D) -> VelocityModel:
    xx, zz = g.mesh()
    lx, lz = g.extent
    depth = zz / lz
    fold = 0.08 * np.sin(2 * math.pi * xx / lx) + 0.05 * np.sin(5.0 * math.pi * xx / lx + 1.0)
    horizon = depth + fold
    layers = np.floor(horizon * 6.0)
    c = 1800.0 + 1400.0 * depth + 180.0 * np.sin(2.1 * layers)
    return VelocityModel(g, np.clip(c, 1500.0, 3400.0))


def write_smoke_case(out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    g = Grid2D(19, 11, 50.0, 50.0)  # 1 km x 0.6 km section
    save_velocity(out / "marmousi_smoke_velocity.json", make_section(g))
    config = {
        "schema": "waverom-config-v1",
        "model": {"factory": "file", "path": "marmousi_smoke_velocity.json"},
        "grid": {"nx": 19, "nz": 11, "hx": 50.0, "hz": 50.0, "bc": "dirichlet"},
        "acquisition": {
            "layout": {"kind": "line", "m": 6, "depth": 100.0},
            "pulse": {"freq_hz": 6.0, "bandwidth_hz": 4.0},
        },
        "sampling": {"n": 6, "nyquist_factor": 0.9},
        "method": "chebyshev",
        "search": {
            "background": {"kind": "gradient", "c_top": 1800.0, "c_bottom": 3200.0},
            "lattice": [5, 3],
        },
        "schedule": {"layers": 3, "q": 2, "k": [2, 4, 6], "d": 2},
        "gn": {"gamma": 0.3},
    }
    cfg_path = out / "marmousi_smoke.json"
    cfg_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return cfg_path


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/marmousi_smoke", help="output directory")
    args = ap.parse_args()
    path = write_smoke_case(Path(args.out))
    print(f"wrote {path}")
    print(f"run it with: waverom invert --config {path} --out {Path(args.out) / 'run'}")
