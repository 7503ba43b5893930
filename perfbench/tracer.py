"""Outside-in tracing of the waverom layers.

The tracer patches public functions of the package from outside, records
one span (name, start, end, parent) per wrapped call in memory, and
derives per-layer counts and self times from the spans when the run ends.

Each function is patched where its caller looks the name up.  For example
`Acquisition.dataset` calls `waverom.objective.synthesize_dataset`, so
patching `waverom.forward.synthesize_dataset` would record nothing during
an inversion.  A hook whose target no longer exists is recorded as
missing, and the metrics of a span none of whose hooks is installed read
as missing (None), not as zero.

Sparse products with `DiscreteOperator.matrix` are counted by swapping the
matrix of every new operator for a csr subclass that counts its products.
Bytes moved are computed, not measured: each product is charged
12 * nnz (value and column index) + 16 * n_dof * columns (read x, write y).

Spans nest through a single stack, so the traced program must run on one
thread (`--threads 1`).
"""

from __future__ import annotations

import functools
import importlib
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

# (span name, module, attribute path).  The module is the one whose code
# resolves the name at call time.
HOOKS = (
    ("forward.synth", "waverom.objective", "synthesize_dataset"),
    ("forward.operator", "waverom.forward", "DiscreteOperator.__init__"),
    ("forward.initial_states", "waverom.forward", "initial_states"),
    ("forward.propagate", "waverom.forward", "propagate_snapshots"),
    ("forward.eig", "waverom.forward", "DiscreteOperator.eig"),
    ("forward.timedomain", "waverom.cli", "synthesize_measurements"),
    ("forward.timedomain", "waverom.cli", "symmetrize_and_sample"),
    ("rom.build", "waverom.objective", "build_rom"),
    ("rom.build", "waverom.cli", "build_rom"),
    ("rom.assemble", "waverom.rom", "assemble_mass"),
    ("rom.assemble", "waverom.rom", "assemble_stiffness"),
    ("rom.cholesky", "waverom.rom", "block_cholesky"),
    ("objective.eval", "waverom.inversion", "rom_objective"),
    ("objective.eval", "waverom.inversion", "fwi_objective"),
    ("objective.residual", "waverom.objective", "rom_residual"),
    ("objective.residual", "waverom.objective", "fwi_residual"),
    ("objective.residual", "waverom.cli", "rom_residual"),
    ("objective.residual", "waverom.cli", "fwi_residual"),
    ("model.velocity", "waverom.inversion", "evaluate_velocity"),
    ("inversion.run", "waverom.cli", "run_inversion"),
    ("inversion.jacobian", "waverom.inversion", "jacobian"),
    ("inversion.mu", "waverom.inversion", "tikhonov_mu"),
    ("inversion.step", "waverom.inversion", "gn_step"),
    ("inversion.line_search", "waverom.inversion", "line_search"),
    ("io.write", "waverom.io", "save_velocity"),
    ("io.write", "waverom.io", "save_parametrization"),
    ("io.write", "waverom.io", "save_dataset"),
    ("io.write", "waverom.io", "save_rom"),
    ("io.write", "waverom.io", "save_traces_csv"),
    ("io.write", "waverom.io", "save_state_csv"),
    ("io.write", "waverom.io", "save_sweep_csv"),
    ("io.write", "waverom.io", "save_manifest"),
)

# (metric, unit, span it derives from) for every metric `Tracer.metrics`
# returns.  The benchmark adds inversion.accept_ratio, read from state.csv,
# and trace.overhead_s.
METRICS = (
    ("forward.synth.calls", "count", "forward.synth"),
    ("forward.synth.p50_ms", "ms", "forward.synth"),
    ("forward.synth.p95_ms", "ms", "forward.synth"),
    ("forward.synth.self_s", "s", "forward.synth"),
    ("forward.initial_states.self_s", "s", "forward.initial_states"),
    ("forward.propagate.self_s", "s", "forward.propagate"),
    ("forward.operator.calls", "count", "forward.operator"),
    ("forward.operator.self_s", "s", "forward.operator"),
    ("forward.matvecs", "count", "forward.operator"),
    ("forward.matvec_cols", "count", "forward.operator"),
    ("forward.matvecs_per_synth", "count", "forward.operator"),
    ("forward.bytes_computed", "bytes", "forward.operator"),
    ("forward.eig.self_s", "s", "forward.eig"),
    ("forward.timedomain.self_s", "s", "forward.timedomain"),
    ("rom.build.calls", "count", "rom.build"),
    ("rom.build.p50_ms", "ms", "rom.build"),
    ("rom.build.self_s", "s", "rom.build"),
    ("rom.assemble.self_s", "s", "rom.assemble"),
    ("rom.cholesky.self_s", "s", "rom.cholesky"),
    ("rom.not_spd", "count", "rom.build"),
    ("rom.spd_ratio", "ratio", "rom.build"),
    ("objective.evals", "count", "objective.eval"),
    ("objective.residual.self_s", "s", "objective.residual"),
    ("model.velocity.calls", "count", "model.velocity"),
    ("model.velocity.self_s", "s", "model.velocity"),
    ("inversion.jacobian.calls", "count", "inversion.jacobian"),
    ("inversion.jacobian.evals", "count", "inversion.jacobian"),
    ("inversion.jacobian.self_s", "s", "inversion.jacobian"),
    ("inversion.mu.self_s", "s", "inversion.mu"),
    ("inversion.step.self_s", "s", "inversion.step"),
    ("inversion.line_search.evals", "count", "inversion.line_search"),
    ("inversion.line_search.self_s", "s", "inversion.line_search"),
    ("io.write.calls", "count", "io.write"),
    ("io.write.self_s", "s", "io.write"),
    ("io.write.bytes", "bytes", "io.write"),
    ("trace.hooks_missing", "count", None),
)


class CountingMatrix(sp.csr_matrix):
    """csr_matrix that reports each product with a dense block to a tracer."""

    tracer = None

    def __matmul__(self, other):
        if self.tracer is not None:
            self.tracer.count_product(self, other)
        return super().__matmul__(other)


def _resolve(module_name: str, path: str):
    """(owner, attribute name, current value) for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Span recorder that patches the hooks on `install` and undoes every
    patch on `restore`.  Use as a context manager."""

    def __init__(self, hooks=HOOKS):
        self.hooks = tuple(hooks)
        self.spans = []  # [name, start, end, parent index, exception class name]
        self.missing = []  # "module:attribute" of hooks whose target is gone
        self.matvecs = 0
        self.matvec_cols = 0
        self.bytes_computed = 0
        self.io_bytes = 0
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def install(self):
        for name, module_name, path in self.hooks:
            try:
                owner, attr, original = _resolve(module_name, path)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}:{path}")
                continue
            setattr(owner, attr, self._wrap(name, attr, original))
            self._patched.append((owner, attr, original))
        return self

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, name, attr, fn):
        if attr == "__init__":
            after = self._count_operator
        elif name == "io.write":
            after = self._count_written
        else:
            after = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args)
            return result

        return wrapper

    def _count_operator(self, args):
        op = args[0]
        op.matrix = CountingMatrix(op.matrix)
        op.matrix.tracer = self

    def _count_written(self, args):
        """Bytes of the file a save_* call wrote, plus its .bin payload."""
        path = Path(args[0])
        payload = path.with_suffix(".bin")
        for p in {path, payload}:
            if p.exists():
                self.io_bytes += p.stat().st_size

    def count_product(self, matrix, other):
        cols = other.shape[1] if getattr(other, "ndim", 1) == 2 else 1
        self.matvecs += 1
        self.matvec_cols += cols
        self.bytes_computed += 12 * matrix.nnz + 16 * matrix.shape[0] * cols

    def metrics(self) -> dict:
        """Per-layer metrics by name; None marks a metric whose span has no
        installed hook."""
        count, self_s, durations, child_count = {}, {}, {}, {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                key = (self.spans[parent][0], name)
                child_count[key] = child_count.get(key, 0) + 1
        for i, (name, start, end, _, _) in enumerate(self.spans):
            count[name] = count.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            durations.setdefault(name, []).append(end - start)

        def pct_ms(name, q):
            d = durations.get(name)
            return 1e3 * float(np.percentile(d, q)) if d else 0.0

        synths = count.get("forward.synth", 0)
        builds = count.get("rom.build", 0)
        not_spd = sum(1 for s in self.spans if s[0] == "rom.build" and s[4] == "MassNotSPD")
        out = {
            "forward.synth.calls": synths,
            "forward.synth.p50_ms": pct_ms("forward.synth", 50),
            "forward.synth.p95_ms": pct_ms("forward.synth", 95),
            "forward.operator.calls": count.get("forward.operator", 0),
            "forward.matvecs": self.matvecs,
            "forward.matvec_cols": self.matvec_cols,
            "forward.matvecs_per_synth": self.matvecs / synths if synths else 0.0,
            "forward.bytes_computed": self.bytes_computed,
            "rom.build.calls": builds,
            "rom.build.p50_ms": pct_ms("rom.build", 50),
            "rom.not_spd": not_spd,
            "rom.spd_ratio": (builds - not_spd) / builds if builds else 0.0,
            "objective.evals": count.get("objective.eval", 0),
            "model.velocity.calls": count.get("model.velocity", 0),
            "inversion.jacobian.calls": count.get("inversion.jacobian", 0),
            "inversion.jacobian.evals": child_count.get(
                ("inversion.jacobian", "objective.eval"), 0
            ),
            "inversion.line_search.evals": child_count.get(
                ("inversion.line_search", "objective.eval"), 0
            ),
            "io.write.calls": count.get("io.write", 0),
            "io.write.bytes": self.io_bytes,
            "trace.hooks_missing": len(self.missing),
        }
        installed = {
            name for name, module_name, path in self.hooks
            if f"{module_name}:{path}" not in self.missing
        }
        for metric, _, span in METRICS:
            if metric.endswith(".self_s"):
                out[metric] = self_s.get(span, 0.0)
            if span is not None and span not in installed:
                out[metric] = None
        return out
