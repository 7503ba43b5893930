"""One workload process: import waverom, run CLI commands, report timings.

Usage: python3 perfbench/child.py SPEC.json

SPEC holds {"src": path to the package source, "commands": [argv, ...],
"trace": bool, "result": path}.  With no commands the process only
imports the package, which gives one sample of the set-up time.  The
result file receives the monotonic time at entry of `cli.main` (the
parent subtracts its own spawn time), the wall time of the commands, the
exit codes, the peak RSS, the BLAS thread count in effect and, when
traced, the per-layer metrics.
"""

import json
import resource
import sys
import time


def blas_threads():
    """Thread count of the OpenBLAS library numpy loaded, or None."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from waverom import cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()
    entry = time.monotonic()
    codes = []
    start = time.perf_counter()
    try:
        for argv in spec["commands"]:
            codes.append(cli.main(argv))
    finally:
        run_s = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    result = {
        "entry": entry,
        "run_s": run_s,
        "codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["hooks_missing"] = tracer.missing
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
