"""Digest the seed-0 outputs of the four benchmark workloads of one source tree.

Usage: python3 scripts/artifact_digests.py TREE OUT

Runs desk_rom, desk_fwi, topo_sweep and spectral_ref at seed 0, as
`perfbench/workloads.py` in TREE defines them, through `waverom.cli.main`
of TREE's `src` (in this process, on one BLAS thread), with their outputs
under OUT.  It then writes `OUT/digests.json`, the sha256 of every file
under OUT by relative path; a manifest is hashed without its `timestamp`,
the one field that differs between identical runs.  Two trees produce the
same outputs when their `digests.json` files are identical:

    python3 scripts/artifact_digests.py . out/new
    python3 scripts/artifact_digests.py ../parent out/old
    cmp out/old/digests.json out/new/digests.json
"""

import hashlib
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def file_digest(path: Path) -> str:
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text())
        manifest.pop("timestamp", None)
        data = json.dumps(manifest, sort_keys=True).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def main(tree: Path, out: Path) -> int:
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from waverom.cli import main as waverom_main
    from workloads import WORKLOADS

    work = out / "configs"
    work.mkdir(parents=True, exist_ok=True)
    for name, workload in WORKLOADS.items():
        for argv in workload(tree, work, 0).commands(out / name):
            rc = waverom_main(argv)
            if rc != 0:
                print(f"{name}: waverom {' '.join(argv)} exited {rc}", file=sys.stderr)
                return rc
    digests = {
        str(path.relative_to(out)): file_digest(path)
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "digests.json"
    }
    (out / "digests.json").write_text(json.dumps(digests, indent=2) + "\n")
    print(f"{len(digests)} files digested into {out / 'digests.json'}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve()))
