#!/usr/bin/env python3
"""Single-synthesis microbenchmark.

First times loading each config under `configs/`, `topography_paper`
included: the minimum ms of LOAD_REPEATS in-process `load_config` calls,
which build and check every section.

Then times one Chebyshev data synthesis (`Acquisition.dataset`) of each
config's reference model, which repeats one model and so always finds
its table in the cache, and, apart, its two largest stages: an uncached
build of the Chebyshev table (`sample_coeffs`) and the block moments
(`chebyshev_moments`) on the rounded interval that synthesis uses.
Prints the median of the repeats in ms, with one BLAS thread; next to
the table length K, the ratio of the rounded interval to the Gershgorin
bound; and the moment time per step of the recurrence, moments / (K // 2)
in us.

Then splits one step of the moment recurrence on the same operator and
sensor block four ways: the sparse product `a @ block`; scipy's CSR
kernel `_sparsetools.csr_matvecs` alone on the same arrays, into a block
allocated once (the share of the product a direct kernel call would
keep); the in-place update, one `dscal` and two `daxpy`; and the two
grams of the step.  Prints the minimum us of STEP_REPEATS timeit repeats
of STEP_NUMBER calls each, beside the whole step, moments / (K // 2).

Then times one ROM build on the reference model's dataset: `build_rom`
(assembly, Cholesky and projection) and, apart, `block_cholesky` alone
on the assembled mass matrix.  Prints the median us of the repeats.

Then times the dense route on the same reference operator: the
eigenvalues with the sensor coordinates `DiscreteOperator.eig(th)`,
which the spectral synthesis calls.  Prints the median ms of
DENSE_REPEATS warmed calls and the `tracemalloc` peak in MB of one more
call.

Then times the time-domain route on the same reference, DT_FACTOR
leapfrog steps per sample interval: one record is
`synthesize_measurements` followed by `symmetrize_and_sample`.  Prints
the record's length nt in leapfrog steps and the median ms of
DENSE_REPEATS warmed records.

Then times one Gauss-Newton step's linear algebra (`qr_svd`, `tikhonov_mu`
and `gn_step`) on a random Jacobian of the desk (3240 x 100) and the
camembert_paper (12 880 x 400) shape: the median ms of the repeats, and
the `tracemalloc` peak in MB of one step that starts by copying J, so the
peak counts J itself.

Then prints the start-up cost of a run: the median wall time of 9 fresh
`python -c "import waverom.cli"` processes with one BLAS thread (what the
benchmark's `setup_s` measures, less its own spawn bookkeeping) and the
number of modules that import loads.

    PYTHONPATH=src python scripts/bench_synthesis.py [--repeats N] [config.json ...]
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import statistics
import subprocess
import sys
import time
import timeit
import tracemalloc
from pathlib import Path

import numpy as np
from scipy.linalg.blas import daxpy, dscal
from scipy.sparse import _sparsetools

from waverom.config import load_config
from waverom.forward import (
    DT_FACTOR,
    DiscreteOperator,
    chebyshev_interval,
    chebyshev_moments,
    record_layout,
    sample_coeffs,
    symmetrize_and_sample,
    synthesize_measurements,
)
from waverom.inversion import gn_step, qr_svd, tikhonov_mu
from waverom.rom import assemble_mass, block_cholesky, build_rom

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DEFAULT = ("camembert_desk.json", "topography_sweep.json", "camembert_paper.json")
#: Warmed calls of the dense route and of the time-domain record.
DENSE_REPEATS = 3
#: In-process loads of each config, of which the fastest is printed.
LOAD_REPEATS = 7
#: timeit repeats, and calls in each, of each part of one moment step.
STEP_REPEATS, STEP_NUMBER = 5, 200
# (name, residual length M, parameters N) of the Jacobians the configs'
# inversions build
GN_SHAPES = (("camembert_desk", 3240, 100), ("camembert_paper", 12880, 400))


def median_ms(fn, repeats: int) -> float:
    fn()  # warm-up: caches, allocator, BLAS
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def load_ms(path: Path) -> float:
    """Minimum ms of LOAD_REPEATS in-process `load_config(path)` calls."""
    times = []
    for _ in range(LOAD_REPEATS):
        start = time.perf_counter()
        load_config(path)
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def traced_peak_mb(fn) -> float:
    """tracemalloc peak in MB of one call of fn."""
    tracemalloc.start()
    fn()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 1e6


def step_us(fn) -> float:
    """Minimum us per call of fn over STEP_REPEATS timeit repeats."""
    return 1e6 * min(timeit.repeat(fn, number=STEP_NUMBER, repeat=STEP_REPEATS)) / STEP_NUMBER


def bench_moment_step(a, th: np.ndarray, lam_max: float) -> dict:
    """The parts of one step k > 2 of `chebyshev_moments` on the operator
    matrix `a` and the sensor block `th`, in us (see step_us).  Each runs
    in place on C-ordered blocks of th's shape, as the recurrence does; the
    kernel adds into its output, so repeats leave the timing unchanged."""
    n, m = th.shape
    prev = np.ascontiguousarray(th)
    cur = a @ prev
    nxt = a @ cur
    gram = np.empty((m, m))
    scale = 2.0 / lam_max

    def update():
        flat = dscal(2.0 * scale, nxt.reshape(-1))
        flat = daxpy(cur.reshape(-1), flat, a=-2.0)
        daxpy(prev.reshape(-1), flat, a=-1.0)

    def grams():
        np.matmul(nxt.T, cur, out=gram)
        np.matmul(nxt.T, prev, out=gram)

    def kernel():
        _sparsetools.csr_matvecs(n, n, m, a.indptr, a.indices, a.data,
                                 cur.reshape(-1), nxt.reshape(-1))

    return {
        "product": step_us(lambda: a @ cur),
        "kernel": step_us(kernel),
        "update": step_us(update),
        "grams": step_us(grams),
    }


def bench(path: Path, repeats: int) -> dict:
    run = load_config(path)
    v, acq = run.truth, run.acquisition
    op = DiscreteOperator(v)
    lam_upper = op.lambda_upper()
    lam_max = chebyshev_interval(lam_upper)
    count = 2 * acq.n - 1
    th = acq.array.theta_matrix(v.grid) / acq.array.local_velocities(v)
    build_table = sample_coeffs.__wrapped__  # the build, not a cache hit
    k = build_table(acq.pulse, acq.tau, count, lam_max).shape[0]
    data = acq.dataset(v)
    mass = assemble_mass(data)

    def coordinates():
        return op.eig(th)

    def record():
        rec = synthesize_measurements(v, acq.array, acq.pulse, acq.tau, acq.n)
        return symmetrize_and_sample(rec, acq.array, v)

    return {
        "config": path.stem,
        "dof": v.grid.n_dof,
        "m": acq.array.m,
        "K": k,
        "nm": data.n * data.m,
        "ratio": lam_max / lam_upper,
        "dataset": median_ms(lambda: acq.dataset(v), repeats),
        "table": median_ms(lambda: build_table(acq.pulse, acq.tau, count, lam_max), repeats),
        "moments": median_ms(lambda: chebyshev_moments(op.matrix, th, k, lam_max), repeats),
        "step": bench_moment_step(op.matrix, th, lam_max),
        "rom_us": 1e3 * median_ms(lambda: build_rom(data), repeats),
        "cholesky_us": 1e3 * median_ms(lambda: block_cholesky(mass, data.m), repeats),
        "coords_ms": median_ms(coordinates, DENSE_REPEATS),
        "coords_mb": traced_peak_mb(coordinates),
        "nt": record_layout(acq.pulse, acq.tau, acq.n, acq.array.m)[1],
        "record": median_ms(record, DENSE_REPEATS),
    }


def bench_gn_step(m: int, n: int, repeats: int) -> dict:
    """Median ms and tracemalloc peak MB of one Gauss-Newton step's linear
    algebra on a random F-ordered m x n Jacobian.  qr_svd overwrites J, so
    each repeat factors a fresh copy, made outside the timed region."""
    rng = np.random.default_rng(0)
    jac = np.asfortranarray(rng.standard_normal((m, n)))
    r = rng.standard_normal(m)

    def step(work):
        svd, qtr = qr_svd(work, r)
        return gn_step(svd, qtr, tikhonov_mu(svd[1], 0.3))

    times = []
    for _ in range(repeats + 1):  # the first is a warm-up
        work = jac.copy(order="F")
        start = time.perf_counter()
        step(work)
        times.append(time.perf_counter() - start)
    del work
    peak_mb = traced_peak_mb(lambda: step(jac.copy(order="F")))
    return {"ms": 1e3 * statistics.median(times[1:]), "peak_mb": peak_mb, "jac_mb": jac.nbytes / 1e6}


def cold_import(runs: int = 9) -> tuple[float, int]:
    """Median wall time in s of `runs` fresh processes that import
    waverom.cli, and the number of modules loaded after that import.  The
    processes inherit this one's environment, so they import the same
    package as the timings above."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import waverom.cli"], check=True)
        times.append(time.perf_counter() - start)
    count = subprocess.run(
        [sys.executable, "-c", "import sys, waverom.cli; print(len(sys.modules))"],
        check=True, capture_output=True, text=True,
    )
    return statistics.median(times), int(count.stdout)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("configs", nargs="*", type=Path, default=[CONFIGS / name for name in DEFAULT])
    ap.add_argument("--repeats", type=int, default=50)
    args = ap.parse_args()
    print(f"{'load':<18}{'min ms':>8}")
    for path in sorted(CONFIGS.glob("*.json")):
        print(f"{path.stem:<18}{load_ms(path):>8.1f}")
    print(
        f"{'config':<18}{'dof':>6}{'m':>4}{'K':>5}{'lam/bound':>11}"
        f"{'dataset ms':>12}{'table ms':>10}{'moments ms':>12}{'us/step':>9}"
    )
    results = [bench(path, args.repeats) for path in args.configs]
    for r in results:
        print(
            f"{r['config']:<18}{r['dof']:>6}{r['m']:>4}{r['K']:>5}{r['ratio']:>11.6f}"
            f"{r['dataset']:>12.2f}{r['table']:>10.2f}{r['moments']:>12.2f}"
            f"{1e3 * r['moments'] / (r['K'] // 2):>9.1f}"
        )
    print(
        f"{'moment step us':<18}{'dof':>6}{'m':>4}{'a @ block':>11}{'csr_matvecs':>13}"
        f"{'scal+axpy':>11}{'grams':>8}{'step':>8}"
    )
    for r in results:
        p = r["step"]
        print(
            f"{r['config']:<18}{r['dof']:>6}{r['m']:>4}{p['product']:>11.1f}{p['kernel']:>13.1f}"
            f"{p['update']:>11.1f}{p['grams']:>8.1f}{1e3 * r['moments'] / (r['K'] // 2):>8.1f}"
        )
    print(f"{'ROM build':<18}{'nm':>6}{'build_rom us':>14}{'cholesky us':>13}")
    for r in results:
        print(f"{r['config']:<18}{r['nm']:>6}{r['rom_us']:>14.1f}{r['cholesky_us']:>13.1f}")
    print(f"{'dense route':<18}{'dof':>6}{'coords ms':>11}{'coords MB':>11}")
    for r in results:
        print(f"{r['config']:<18}{r['dof']:>6}{r['coords_ms']:>11.1f}{r['coords_mb']:>11.1f}")
    print(f"{'time domain':<18}{'dof':>6}{'nt':>8}{'record ms':>11}   DT_FACTOR = {DT_FACTOR}")
    for r in results:
        print(f"{r['config']:<18}{r['dof']:>6}{r['nt']:>8}{r['record']:>11.1f}")
    print(f"{'GN step':<18}{'M':>7}{'N':>5}{'J MB':>8}{'ms':>9}{'peak MB':>9}")
    for name, m, n in GN_SHAPES:
        g = bench_gn_step(m, n, args.repeats)
        print(f"{name:<18}{m:>7}{n:>5}{g['jac_mb']:>8.1f}{g['ms']:>9.2f}{g['peak_mb']:>9.1f}")
    seconds, modules = cold_import()
    print(f"cold import of waverom.cli: {seconds:.3f} s (median of 9), {modules} modules")
