#!/usr/bin/env python3
"""Camembert inclusion benchmark: ROM inversion vs conventional FWI from
the same constant initial guess, followed by a side-by-side comparison.

Artifacts: <out>/rom/, <out>/fwi/ (estimates, traces, manifests) and
<out>/compare.json with final relative L2 errors and the winner.
"""

import argparse
import sys
from pathlib import Path

from waverom.cli import main as waverom_main

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "camembert_desk.json"

if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/camembert", help="output directory")
    ap.add_argument("--config", default=str(CONFIG))
    args = ap.parse_args()
    out = Path(args.out)
    for mode in ("rom", "fwi"):
        rc = waverom_main([
            "invert", "--config", args.config, "--out", str(out / mode), "--mode", mode,
        ])
        if rc:
            sys.exit(rc)
    sys.exit(
        waverom_main([
            "compare",
            "--run-a", str(out / "rom" / "manifest.json"),
            "--run-b", str(out / "fwi" / "manifest.json"),
            "--out", str(out),
        ])
    )
