#!/usr/bin/env python3
"""Objective-topography study: sweep interface depth and contrast for the
two-layer model and census the local minima of both objectives.

The ROM misfit surface should show a single interior minimum at the true
(depth, contrast); the FWI surface develops extra minima from cycle
skipping.  Results land in <out>/sweep.csv and <out>/census.json.
"""

import argparse
import sys
from pathlib import Path

from waverom.cli import main as waverom_main

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "topography_sweep.json"

if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/topography", help="output directory")
    ap.add_argument("--config", default=str(CONFIG))
    args = ap.parse_args()
    sys.exit(waverom_main(["sweep", "--config", args.config, "--out", args.out]))
