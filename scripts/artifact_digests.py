"""Digest the outputs of every CLI writer of one source tree.

Usage: python3 scripts/artifact_digests.py TREE OUT

Runs desk_rom, desk_fwi, topo_sweep and spectral_ref at seed 0, as
`perfbench/workloads.py` in TREE defines them, through `waverom.cli.main`
of TREE's `src` (in this process, on one BLAS thread), with their outputs
under OUT.  Then, so that every writer is covered, it runs `rom` on
desk_rom's dataset, `compare` of desk_rom against desk_fwi,
`synthesize --path timedomain --traces` on the spectral_ref config and a
`synthesize` of the desk config with `reference.refine` 2.  It also
writes the Marmousi smoke case with TREE's `scripts/make_marmousi_smoke.py`
and runs `invert` on it in both modes, whose schedule k = 2, 4, 6 rebuilds
the residual map for each larger k.  It writes
`OUT/digests.json`, the sha256 of every file under OUT by relative path.
A manifest is hashed without its `timestamp` and `compare.json` without
the two run paths, the fields that differ between identical runs in
different directories.  Every `.json` file must be strict JSON: a `NaN`,
`Infinity` or `-Infinity` token makes the script name the file and exit 1.
Two trees produce the same outputs when their
`digests.json` files are identical:

    python3 scripts/artifact_digests.py . out/new
    python3 scripts/artifact_digests.py ../parent out/old
    cmp out/old/digests.json out/new/digests.json
"""

import hashlib
import importlib.util
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def strict_json(path: Path):
    """The JSON at `path`, or ValueError naming the file on a NaN or an
    infinity, which no JSON parser outside Python reads."""
    def refuse(token):
        raise ValueError(f"{path}: {token} is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


def file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        parsed = strict_json(path)
        if path.name == "manifest.json":
            parsed.pop("timestamp", None)
            data = json.dumps(parsed, sort_keys=True).encode()
        elif path.name == "compare.json":
            for run in ("run_a", "run_b"):
                parsed[run].pop("path")
            data = json.dumps(parsed, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main(tree: Path, out: Path) -> int:
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from waverom.cli import main as waverom_main
    from workloads import WORKLOADS

    work = out / "configs"
    work.mkdir(parents=True, exist_ok=True)
    runs = []
    for name, workload in WORKLOADS.items():
        runs += [(name, argv) for argv in workload(tree, work, 0).commands(out / name)]
    spec = importlib.util.spec_from_file_location("smoke", tree / "scripts/make_marmousi_smoke.py")
    smoke = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(smoke)
    smoke_config = smoke.write_smoke_case(work / "marmousi")
    runs += [
        (f"marmousi_{mode}", ["invert", "--config", smoke_config, "--out", out / f"marmousi_{mode}",
                              "--mode", mode])
        for mode in ("rom", "fwi")
    ]
    refine = json.loads((work / "desk_rom.json").read_text())
    refine["reference"] = {"refine": 2}
    (work / "desk_refine.json").write_text(json.dumps(refine, indent=2, sort_keys=True))
    runs += [
        ("rom", ["rom", "--dataset", out / "desk_rom/dataset.json", "--out", out / "rom"]),
        ("compare", [
            "compare", "--run-a", out / "desk_rom/manifest.json",
            "--run-b", out / "desk_fwi/manifest.json", "--out", out / "compare",
        ]),
        ("traces", [
            "synthesize", "--config", work / "spectral_ref.json", "--out", out / "traces",
            "--path", "timedomain", "--traces",
        ]),
        ("refine", ["synthesize", "--config", work / "desk_refine.json", "--out", out / "refine"]),
    ]
    for name, argv in runs:
        argv = [str(arg) for arg in argv]
        rc = waverom_main(argv)
        if rc != 0:
            print(f"{name}: waverom {' '.join(argv)} exited {rc}", file=sys.stderr)
            return rc
    try:
        digests = {
            str(path.relative_to(out)): file_digest(path)
            for path in sorted(out.rglob("*"))
            if path.is_file() and path.name != "digests.json"
        }
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    (out / "digests.json").write_text(json.dumps(digests, indent=2) + "\n")
    print(f"{len(digests)} files digested into {out / 'digests.json'}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve()))
