"""Command-line surface: synthesize | rom | sweep | invert | compare.

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 IO error.
All commands are deterministic given identical configs and inputs; the
only non-reproducible bytes live in the manifest timestamp field.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, io, profile
from .config import Run, load_config
from .errors import ConfigError, WaveromError
from .forward import synthesize_measurements, symmetrize_and_sample
from .inversion import run_inversion
from .objective import fwi_residual, residual_length, rom_residual
from .rom import assemble_mass, build_rom


def _manifest_base(command: str, run: Run, args) -> dict:
    import scipy

    return {
        "schema": "waverom-manifest-v1",
        "command": command,
        "config": run.stated,
        "seed": args.seed,
        "versions": {
            "waverom": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _save_manifest(out: Path, manifest: dict):
    """`manifest.json`, and beside it `profile.json` with the run's work counters."""
    io.save_manifest(out / "manifest.json", manifest)
    io.save_manifest(out / "profile.json", profile.counts())


# synthesize -------------------------------------------------------------------


def cmd_synthesize(run: Run, out: Path, args) -> int:
    if args.traces and args.path != "timedomain":
        raise ConfigError("--traces needs --path timedomain, the route that records traces")
    acq, ref = run.acquisition, run.reference
    if args.path is None:
        ds = acq.dataset(ref)
    else:
        rec = synthesize_measurements(ref, acq.array, acq.pulse, acq.tau, acq.n)
        if args.traces:
            io.save_traces_csv(out / "traces.csv", rec)
        ds = symmetrize_and_sample(rec, acq.array, ref, acq.n)
    io.save_dataset(out / "dataset.json", ds)
    io.save_velocity(out / "truth.json", run.truth)
    manifest = _manifest_base("synthesize", run, args)
    manifest["artifacts"] = {"dataset": "dataset.json", "truth": "truth.json"}
    # the default route runs the config's method
    manifest["path"] = args.path or acq.method
    _save_manifest(out, manifest)
    print(f"wrote dataset (m={ds.m}, n={ds.n}, tau={ds.tau:g}) to {out}")
    return 0


# rom --------------------------------------------------------------------------


def cmd_rom(dataset_path: Path, out: Path) -> int:
    ds = io.load_dataset(dataset_path)
    mass = assemble_mass(ds)
    rom = build_rom(ds)
    io.save_rom(out / "rom.json", rom)
    cond = float(np.linalg.cond(mass))  # inf when the singular values' ratio overflows
    report = {"m": ds.m, "n": ds.n, "mass_condition_number": cond if np.isfinite(cond) else None}
    io.save_manifest(out / "rom_report.json", report)
    print(f"wrote ROM (nm={rom.dimension}) to {out}; cond(M) = {cond:.3e}")
    return 0


# sweep ------------------------------------------------------------------------


def local_minima_census(surface: np.ndarray) -> list[dict]:
    """Strict 8-neighbor local minima with plateau merging.

    Cells of equal value are merged into plateaus (8-connected); a
    plateau is a minimum when every neighboring cell outside it has a
    strictly larger value.  Each minimum reports its lowest-index cell
    and whether the plateau touches the grid border.
    """
    ni, nj = surface.shape
    seen = np.zeros(surface.shape, dtype=bool)
    neighbors = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]
    minima = []
    for i0 in range(ni):
        for j0 in range(nj):
            if seen[i0, j0]:
                continue
            value = surface[i0, j0]
            plateau = [(i0, j0)]
            seen[i0, j0] = True
            is_min, on_border = True, False
            for ci, cj in plateau:  # visits the cells appended below too
                if ci in (0, ni - 1) or cj in (0, nj - 1):
                    on_border = True
                for di, dj in neighbors:
                    xi, xj = ci + di, cj + dj
                    if not (0 <= xi < ni and 0 <= xj < nj):
                        continue
                    other = surface[xi, xj]
                    if other == value:
                        if not seen[xi, xj]:
                            seen[xi, xj] = True
                            plateau.append((xi, xj))
                    elif other < value:
                        is_min = False
            if is_min:
                cell = min(plateau)
                minima.append(
                    {"i": cell[0], "j": cell[1], "value": float(value), "interior": not on_border}
                )
    return sorted(minima, key=lambda rec: (rec["i"], rec["j"]))


def cmd_sweep(run: Run, out: Path, args) -> int:
    if run.sweep is None:
        raise ConfigError("sweep needs a sweep section")
    (ax1, ax2), acq = run.sweep, run.acquisition
    ref_ds = acq.dataset(run.reference)
    ref_rom = build_rom(ref_ds)

    def evaluate(candidate) -> tuple[float, float]:
        ds = acq.dataset(candidate)  # one synthesis shared by both objectives
        r_rom = rom_residual(build_rom(ds), ref_rom, acq.n, acq.n)
        r_fwi = fwi_residual(ds, ref_ds)
        return float(r_rom @ r_rom), float(r_fwi @ r_fwi)

    results = np.array([evaluate(candidate) for candidate in run.candidates()])
    obj_rom, obj_fwi = results.T.reshape(2, ax1.count, ax2.count)
    v1, v2 = ax1.values(), ax2.values()

    io.save_sweep_csv(out / "sweep.csv", ax1.name, ax2.name, v1, v2, obj_rom, obj_fwi)
    census = {}
    for tag, surface in (("rom", obj_rom), ("fwi", obj_fwi)):
        minima = local_minima_census(surface)
        for rec in minima:
            rec[ax1.name] = float(v1[rec["i"]])
            rec[ax2.name] = float(v2[rec["j"]])
        census[tag] = {
            "count": len(minima),
            "count_interior": sum(rec["interior"] for rec in minima),
            "minima": minima,
        }
    io.save_manifest(out / "census.json", census)
    manifest = _manifest_base("sweep", run, args)
    manifest["artifacts"] = {"sweep": "sweep.csv", "census": "census.json"}
    _save_manifest(out, manifest)
    print(
        "sweep done: ROM census %d interior / %d total, FWI census %d interior / %d total"
        % (
            census["rom"]["count_interior"], census["rom"]["count"],
            census["fwi"]["count_interior"], census["fwi"]["count"],
        )
    )
    return 0


# invert -----------------------------------------------------------------------


def cmd_invert(run: Run, out: Path, args) -> int:
    for section in ("search", "schedule"):
        if getattr(run, section) is None:
            raise ConfigError(f"invert needs a {section} section")
    truth, acq, param, schedule = run.truth, run.acquisition, run.search, run.schedule
    # N may not exceed any layer's residual length; the first layer's is the shortest
    length = residual_length(args.mode, acq.array.m, acq.n, schedule.d, schedule.k[0])
    if param.n_params > length:
        raise ConfigError(
            f"search has {param.n_params} parameters, more than the {length} entries "
            f"of the {args.mode} residual"
        )

    ref_ds = acq.dataset(run.reference)
    reference = build_rom(ref_ds) if args.mode == "rom" else ref_ds
    estimate, updates = run_inversion(reference, param, schedule, run.gn, acq)

    io.save_velocity(out / "truth.json", truth)
    io.save_velocity(out / "initial.json", param.background)
    io.save_velocity(out / "estimate.json", estimate)
    io.save_dataset(out / "dataset.json", ref_ds)
    io.save_state_csv(out / "state.csv", updates)
    io.save_parametrization(out / "parametrization.json", param, updates[-1].eta, "initial.json")

    initial_error = param.background.rel_l2_error(truth)
    final_error = estimate.rel_l2_error(truth)
    manifest = _manifest_base("invert", run, args)
    manifest["mode"] = args.mode
    manifest["artifacts"] = {
        "truth": "truth.json",
        "initial": "initial.json",
        "estimate": "estimate.json",
        "dataset": "dataset.json",
        "state": "state.csv",
        "parametrization": "parametrization.json",
    }
    manifest["metrics"] = {
        "initial_error": initial_error,
        "final_error": final_error,
        "final_objective": updates[-1].objective,
        "iterations": len(updates),
    }
    _save_manifest(out, manifest)
    print(
        f"{args.mode} inversion: initial error {initial_error:.4f} -> "
        f"final error {final_error:.4f} after {len(updates)} iterations"
    )
    return 0


# compare ----------------------------------------------------------------------


def _invert_outputs(manifest_path: Path):
    """(mode, truth, estimate, state rows) of an invert run, else a config error."""
    manifest = io.load_manifest(manifest_path)
    artifacts = manifest.get("artifacts") if isinstance(manifest, dict) else None
    if not isinstance(artifacts, dict):
        artifacts = {}
    names = [artifacts.get(key) for key in ("truth", "estimate", "state")]
    if not all(isinstance(name, str) for name in names):
        raise ConfigError(f"compare: {manifest_path} is not the manifest of an invert run")
    base = manifest_path.parent
    truth, estimate = (io.load_velocity(base / name) for name in names[:2])
    if estimate.grid != truth.grid:
        raise ConfigError(f"compare: {manifest_path} has estimate and truth on different grids")
    return manifest.get("mode"), truth, estimate, io.load_state_csv(base / names[2])


def cmd_compare(path_a: Path, path_b: Path, out: Path) -> int:
    mode_a, ta, est_a, curve_a = _invert_outputs(path_a)
    mode_b, tb, est_b, curve_b = _invert_outputs(path_b)
    if ta.grid != tb.grid:
        raise ConfigError("compare: runs use different grids")
    if not np.array_equal(ta.c, tb.c):
        raise ConfigError("compare: runs use different true models")
    err_a, err_b = est_a.rel_l2_error(ta), est_b.rel_l2_error(tb)
    report = {
        "run_a": {"path": str(path_a), "mode": mode_a, "final_error": err_a},
        "run_b": {"path": str(path_b), "mode": mode_b, "final_error": err_b},
        "winner": "a" if err_a < err_b else ("b" if err_b < err_a else "tie"),
        "error_difference": err_a - err_b,
        "curves": {"a": curve_a, "b": curve_b},
    }
    io.save_manifest(out / "compare.json", report)
    print(
        f"compare: run_a error {err_a:.4f} vs run_b error {err_b:.4f} "
        f"-> winner {report['winner']}"
    )
    return 0


# entry point --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waverom",
        description="Data-driven wave-operator ROM velocity estimation and FWI baseline",
    )
    parser.add_argument(
        "--threads", type=int, choices=(1,), default=1,
        help="accepts only 1; kept for existing callers and will be removed",
    )
    parser.add_argument("--seed", type=int, default=0, help="recorded in manifests")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="synthesize array data for a config")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument(
        "--path", choices=("timedomain",),
        help="run the leapfrog route instead of the config's method",
    )
    p.add_argument("--traces", action="store_true", help="also export raw traces CSV (timedomain)")

    p = sub.add_parser("rom", help="build the operator ROM from a dataset file")
    p.add_argument("--dataset", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("sweep", help="two-parameter objective landscape sweep")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("invert", help="run the inversion")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--mode", choices=("rom", "fwi"), default="rom")

    p = sub.add_parser("compare", help="compare two inversion runs")
    p.add_argument("--run-a", required=True, type=Path)
    p.add_argument("--run-b", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    profile.reset()
    try:
        if args.command == "compare":
            return cmd_compare(args.run_a, args.run_b, args.out)
        if args.command == "rom":
            return cmd_rom(args.dataset, args.out)
        command = {"synthesize": cmd_synthesize, "sweep": cmd_sweep, "invert": cmd_invert}
        return command[args.command](load_config(args.config), args.out, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except WaveromError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
