"""Benchmark entry point: run one workload for one seed and report metrics.

    python3 perfbench/run.py --workload desk_rom --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  Each execution of the workload is a
fresh Python process (perfbench/child.py) that imports waverom from
./src and calls `waverom.cli.main` with `--threads 1`; BLAS runs on one
thread.  The run first spawns SETUP_PROBES import-only processes, then
executes the workload until --seconds have passed (at least once), then
checks every execution's outputs.

--trace 0 prints the end-to-end metrics: median set-up time, median run
time and median peak RSS, plus the quality of the result.  --trace 1 executes
the workload once untraced and once traced (perfbench/tracer.py) and
prints the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object {correct, attempted, failed, metrics};
`failed / attempted` is the error rate.  Generated inputs and outputs live
in .perfbench_work/ and are removed after a run whose checks all pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread in the workload processes (they inherit this) and in the
# checks; set before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
# Processes still running this long after the start are killed, and no
# execution starts that would end later, so a run ends within 180 s.
DEADLINE_S = 165

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Execution:
    """One workload process: its timings, exit status and checked outputs."""

    def __init__(self, tag, out, result=None, error=None):
        self.tag, self.out, self.result, self.errors = tag, out, result, [error] if error else []
        self.outcome = None

    @property
    def ok(self) -> bool:
        return not self.errors


def spawn(work, tag, src, commands, trace, deadline, out=None) -> Execution:
    """Run child.py once, killing it at `deadline`, and collect its result file."""
    spec = work / f"{tag}.spec.json"
    result = work / f"{tag}.result.json"
    spec.write_text(json.dumps(
        {"src": str(src), "commands": commands, "trace": trace, "result": str(result)}
    ))
    with open(work / f"{tag}.log", "w") as log:
        started = time.monotonic()
        timeout = max(deadline - started, 1.0)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec)],
                stdout=log, stderr=subprocess.STDOUT, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return Execution(tag, out, error=f"{tag}: killed after {timeout:.0f} s")
    if proc.returncode != 0 or not result.exists():
        return Execution(tag, out, error=f"{tag}: exit code {proc.returncode}, see {log.name}")
    data = json.loads(result.read_text())
    data["setup_s"] = data["entry"] - started
    execution = Execution(tag, out, data)
    bad = [code for code in data["codes"] if code != 0]
    if bad:
        execution.errors.append(f"{tag}: CLI exit codes {data['codes']}")
    return execution


def execute(workload, work: Path, src: Path, index: int, trace: bool, deadline) -> Execution:
    tag = f"exec{index}" + ("_traced" if trace else "")
    out = work / tag
    return spawn(work, tag, src, workload.commands(out), trace, deadline, out)


def check(workload, executions):
    """Run the output checks; every execution must also reproduce the first."""
    first = None
    for ex in executions:
        if not ex.ok:
            continue
        try:
            ex.outcome = workload.check(ex.out)
        except Exception:  # a missing or malformed output fails this execution
            ex.errors.append(f"{ex.tag}: check raised\n{traceback.format_exc()}")
            continue
        ex.errors.extend(f"{ex.tag}: {msg}" for msg in ex.outcome.errors)
        if first is None:
            first = ex.outcome.fingerprint
        elif ex.outcome.fingerprint != first:
            ex.errors.append(f"{ex.tag}: outputs differ from the first execution")


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "waverom").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def provenance(root: Path, src: Path, seed: int, executions) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {ex.result["blas_threads"] for ex in executions if ex.result}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": sorted(threads, key=str),
        "cli_threads": 1,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "waverom" / "cli.py").is_file():
        print(f"error: no waverom source under {src}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](root, work, args.seed)

    began = time.monotonic()
    deadline = began + DEADLINE_S
    probes = [spawn(work, f"probe{i}", src, [], False, deadline) for i in range(SETUP_PROBES)]
    executions = []
    if args.trace:
        executions = [
            execute(workload, work, src, 0, False, deadline),
            execute(workload, work, src, 0, True, deadline),
        ]
    else:
        measure_start = time.monotonic()
        while True:
            t0 = time.monotonic()
            executions.append(execute(workload, work, src, len(executions), False, deadline))
            now = time.monotonic()
            if now - measure_start >= args.seconds or now + (now - t0) > deadline:
                break
    check(workload, executions)

    failures = [msg for ex in probes + executions for msg in ex.errors]
    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)
    failed = sum(not ex.ok for ex in executions)
    attempted = len(executions)
    untraced = [ex for ex in executions if ex.ok and not ex.tag.endswith("_traced")]

    prov = provenance(root, src, args.seed, probes + executions)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} execution(s), {SETUP_PROBES} set-up probes, "
          f"{time.monotonic() - began:.1f} s")
    print("provenance " + json.dumps(prov, sort_keys=True))

    metrics = {}
    if args.trace == 0 and untraced:
        values = {
            "setup_s": statistics.median(
                [ex.result["setup_s"] for ex in probes + untraced if ex.ok]
            ),
            "run_s": statistics.median([ex.result["run_s"] for ex in untraced]),
            "peak_rss_mb": statistics.median([ex.result["peak_rss_mb"] for ex in untraced]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        # Printed, not BENCHMARK.json metrics: the final model error depends
        # on the seed far more than any bound allows (see README.md).
        for name, value in untraced[0].outcome.figures.items():
            print(f"{name} {value:.6g} ratio")
    elif args.trace == 1 and executions[-1].ok and untraced:
        from tracer import METRICS

        traced = executions[-1]
        layers = traced.result["layers"]
        for hook in traced.result["hooks_missing"]:
            print(f"missing hook target {hook}")
        for name, unit, _ in METRICS:
            value = layers[name]
            if value is None:
                print(f"{name}: missing")
            metrics[name] = {"value": 0 if value is None else value, "unit": unit}
        accept = traced.outcome.accept_ratio
        metrics["inversion.accept_ratio"] = {"value": accept or 0.0, "unit": "ratio"}
        metrics["trace.overhead_s"] = {
            "value": traced.result["run_s"] - untraced[0].result["run_s"], "unit": "s"
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {failed}/{attempted} = {failed / max(attempted, 1):g}")
    if not failures:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    correct = not failures and bool(metrics)
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
