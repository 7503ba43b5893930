"""Tests of the benchmark itself: tracing is transparent and reversible.

    python3 -m pytest perfbench -q

Runs tiny configs in-process (a few seconds in all).
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from tracer import HOOKS, METRICS, Tracer, _resolve  # noqa: E402
from waverom.cli import main as cli_main  # noqa: E402

TINY_DESK = {
    "model": {
        "factory": "camembert", "center": [800.0, 800.0], "radius": 400.0,
        "c_inside": 3600.0, "c_outside": 3000.0,
    },
    "grid": {"nx": 15, "nz": 15, "hx": 100.0, "hz": 100.0, "bc": "dirichlet"},
    "acquisition": {
        "layout": {"kind": "ring", "m": 6, "inset": 200.0},
        "pulse": {"freq_hz": 6.0, "bandwidth_hz": 2.0},
    },
    "sampling": {"n": 4, "nyquist_factor": 0.9},
    "method": "chebyshev",
    "search": {"background": {"kind": "constant", "c0": 3000.0}, "lattice": [3, 3]},
    "schedule": {"k": [4], "q": 2, "d": 4},
    "gn": {"gamma": 0.3, "alpha_max": 3.0, "fd_step": 0.01},
}

TINY_SWEEP = {
    "model": {"factory": "two_layer", "depth_left": 600.0, "contrast": 2.0},
    "grid": {"nx": 15, "nz": 19, "hx": 80.0, "hz": 80.0, "bc": "dirichlet"},
    "acquisition": {
        "layout": {"kind": "line", "m": 4, "depth": 160.0},
        "pulse": {"freq_hz": 3.0, "bandwidth_hz": 2.0},
    },
    "sampling": {"n": 4, "nyquist_factor": 0.9},
    "method": "chebyshev",
    "sweep": {
        "p1": {"name": "depth_left", "min": 500.0, "max": 700.0, "count": 3},
        "p2": {"name": "contrast", "min": 1.8, "max": 2.2, "count": 3},
    },
}

COUNTS = ("forward.synth.calls", "forward.matvecs", "forward.matvec_cols",
          "rom.build.calls", "inversion.jacobian.evals", "objective.evals")


def run_cli(tmp_path, tag, config, *command, tracer=None):
    cfg = tmp_path / f"{tag}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / tag
    argv = ["--threads", "1", command[0], "--config", str(cfg), "--out", str(out), *command[1:]]
    if tracer is None:
        assert cli_main(argv) == 0
    else:
        with tracer:
            assert cli_main(argv) == 0
    return out


def outputs(out: Path) -> dict:
    """What tracing must not change: manifest metrics, census, data bytes."""
    found = {}
    manifest = json.loads((out / "manifest.json").read_text())
    found["metrics"] = manifest.get("metrics")
    for name in ("census.json", "dataset.bin", "sweep.csv", "state.csv", "estimate.bin"):
        if (out / name).exists():
            found[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    return found


@pytest.mark.parametrize("mode", ["rom", "fwi"])
def test_tracing_changes_no_inversion_output(tmp_path, mode):
    plain = run_cli(tmp_path, "plain", TINY_DESK, "invert", "--mode", mode)
    tracer = Tracer()
    traced = run_cli(tmp_path, "traced", TINY_DESK, "invert", "--mode", mode, tracer=tracer)
    assert outputs(traced) == outputs(plain)
    assert "dataset.bin" in outputs(plain)
    layers = tracer.metrics()
    assert layers["inversion.jacobian.calls"] == 2
    assert layers["inversion.jacobian.evals"] == 2 * 9
    assert layers["forward.matvecs"] > 0
    assert layers["rom.build.calls"] == (layers["forward.synth.calls"] if mode == "rom" else 0)


def test_tracing_changes_no_sweep_output(tmp_path):
    plain = run_cli(tmp_path, "plain", TINY_SWEEP, "sweep")
    tracer = Tracer()
    traced = run_cli(tmp_path, "traced", TINY_SWEEP, "sweep", tracer=tracer)
    assert outputs(traced) == outputs(plain)
    assert "census.json" in outputs(plain)
    assert tracer.metrics()["forward.synth.calls"] == 1 + 9


def test_counts_repeat_exactly(tmp_path):
    runs = []
    for tag in ("a", "b"):
        tracer = Tracer()
        run_cli(tmp_path, tag, TINY_DESK, "invert", "--mode", "rom", tracer=tracer)
        runs.append({name: tracer.metrics()[name] for name in COUNTS})
    assert runs[0] == runs[1]


def test_every_wrapper_is_restored(tmp_path):
    before = [_resolve(module, path)[2] for _, module, path in HOOKS]
    tracer = Tracer()
    run_cli(tmp_path, "traced", TINY_DESK, "invert", "--mode", "rom", tracer=tracer)
    after = [_resolve(module, path)[2] for _, module, path in HOOKS]
    assert all(a is b for a, b in zip(after, before))
    assert tracer.spans


def test_missing_hook_target_reads_as_missing(tmp_path):
    hooks = [
        (name, module, "block_cholesky_removed" if name == "rom.cholesky" else path)
        for name, module, path in HOOKS
    ]
    tracer = Tracer(hooks)
    run_cli(tmp_path, "traced", TINY_DESK, "invert", "--mode", "rom", tracer=tracer)
    layers = tracer.metrics()
    assert tracer.missing == ["waverom.rom:block_cholesky_removed"]
    assert layers["rom.cholesky.self_s"] is None
    assert layers["trace.hooks_missing"] == 1
    assert layers["rom.build.calls"] > 0
    assert set(layers) == {name for name, _, _ in METRICS}


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "desk_rom", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
