"""Outside-in span tracing of the ``padic_calc`` layers.

:func:`install` replaces every public function and method of the package
modules, in every module namespace that holds a reference to it, with a
wrapper that records a span while a :class:`Tracer` is active.  Private
helpers (leading underscore) and properties are left alone, so a span
always marks a call across a public boundary.  The package source is not
modified; the wrappers live only in the benchmark process.

A span is ``(id, parent, job, name, layer, start, end, self_s)``; its self
time is its duration minus the time covered by its direct children.
Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "core",
    "fourier",
    "vladimirov",
    "operator_matrix",
    "symbols",
    "calculus",
    "matrix_algebra",
    "spectral",
    "cli",
)

#: fourier entry points that transform an array; everything else in the
#: layer (norms, refinement, JSON) is not counted as a transform
TRANSFORMS = frozenset({"fourier.dft", "fourier.dft_axis", "fourier.forward", "fourier.inverse"})

#: functions whose inclusive time is reported on its own
TIMED = (
    "matrix_algebra.wiener_experiment",
    "matrix_algebra.equivalence_check",
    "spectral.op_norm_sobolev",
    "spectral.eigen",
    "spectral.heat_evolve",
    "calculus.compose_symbols",
    "calculus.quantize",
    "calculus.symbol_of",
    "calculus.adjoint_symbol",
    "calculus.parametrix",
    "symbols.seminorm",
    "operator_matrix.OperatorMatrix.to_basis",
    "operator_matrix.schur_sums",
    "vladimirov.multiplier_table",
)


def _array_and_ctx(name, args):
    """(samples transformed, p, n) of a fourier transform call."""
    first = args[0]
    if name in ("fourier.forward", "fourier.inverse"):
        data = first.values if name == "fourier.forward" else first.coeffs
        ctx = first.ctx
    else:
        data, ctx = first, args[1]
    return int(getattr(data, "size", 0)), ctx.p, ctx.n


def _transform_counts(name, args, kwargs, result):
    size, p, n = _array_and_ctx(name, args)
    # radix-p decimation: n stages, each output a p-term complex multiply-add
    return {
        "fourier.calls": 1,
        "fourier.points": size,
        "fourier.flop_est": 8 * p * n * size,
        "fourier.bytes_est": 32 * n * size,
    }


def _dense_counts(name, args, kwargs, result):
    N = args[0].ctx.N
    return {"spectral.dense_flop_est": N**3}


def _wiener_counts(name, args, kwargs, result):
    return {
        "matrix_algebra.series_terms": sum(c.terms for c in result.columns),
        "matrix_algebra.columns": len(result.columns),
    }


def _seminorm_counts(name, args, kwargs, result):
    N = args[0].ctx.N
    return {"symbols.seminorm_cells": (result.alpha_max + 1) * (result.beta_max + 1) * N * N}


def _schur_counts(name, args, kwargs, result):
    return {"operator_matrix.schur_sums_calls": 1}


def _binary_counts(name, args, kwargs, result):
    path = args[1] if name.endswith("save_binary") else args[0]
    return {"operator_matrix.binary_bytes": Path(path).stat().st_size}


def _artifact_counts(name, args, kwargs, result):
    manifest = json.loads(Path(result).read_text(encoding="utf-8"))
    return {"cli.artifact_bytes": sum(a["bytes"] for a in manifest["artifacts"])}


#: count hooks, keyed by span name; they run after the span has closed
COUNTERS = {
    **{k: _transform_counts for k in TRANSFORMS},
    "spectral.op_norm_sobolev": _dense_counts,
    "spectral.eigen": _dense_counts,
    "matrix_algebra.wiener_experiment": _wiener_counts,
    "symbols.seminorm": _seminorm_counts,
    "operator_matrix.schur_sums": _schur_counts,
    "operator_matrix.OperatorMatrix.save_binary": _binary_counts,
    "operator_matrix.OperatorMatrix.load_binary": _binary_counts,
    "cli.run": _artifact_counts,
}


class Tracer:
    """Span recorder; records only between :meth:`begin_job` and :meth:`end_job`."""

    def __init__(self):
        self.active = False
        self.job = None
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))  # job -> metric -> count
        self._stack = []  # open spans: [id, layer, time covered by direct children]
        self._next_id = 0

    def begin_job(self, job) -> None:
        self.job = job
        self._stack.clear()
        self.active = True

    def end_job(self) -> None:
        self.active = False

    def call(self, fn, layer, name, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        caller = self._stack[-1] if self._stack else None
        frame = [sid, layer, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            if caller is not None:
                caller[2] += dur
            parent = -1 if caller is None else caller[0]
            self.spans.append((sid, parent, self.job, name, layer, start, end, dur - frame[2]))
        counter = COUNTERS.get(name)
        # a transform reached from inside the fourier layer is part of the
        # outer transform call, not a new one
        if counter is not None and not (name in TRANSFORMS and caller is not None and caller[1] == "fourier"):
            for key, val in counter(name, args, kwargs, result).items():
                self.counts[self.job][key] += val
        return result

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,job,name,layer,start,end,self_s\n")
            for row in self.spans:
                fh.write(",".join(str(v) for v in row) + "\n")


def _wrap(fn, layer, name, tracer):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        return tracer.call(fn, layer, name, args, kwargs)

    return traced


def install(package, tracer: Tracer) -> int:
    """Wrap every public function and method of the package's layer modules.

    Each module namespace that holds a public function of any layer gets
    the wrapped version, so ``calculus.dft_axis`` is traced as well as
    ``fourier.dft_axis``.  Returns the number of wrapped callables.
    """
    modules = {layer: getattr(package, layer) for layer in LAYERS}
    owners = {mod.__name__: layer for layer, mod in modules.items()}
    wrapped = {}  # id(original) -> wrapper

    def layer_of(obj):
        return owners.get(getattr(obj, "__module__", None))

    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if inspect.isclass(obj) and layer_of(obj) == layer and not attr.startswith("_"):
                for meth, raw in list(vars(obj).items()):
                    if meth.startswith("_"):
                        continue
                    kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
                    fn = raw.__func__ if kind else raw
                    if not inspect.isfunction(fn):
                        continue
                    w = _wrap(fn, layer, f"{layer}.{obj.__name__}.{meth}", tracer)
                    wrapped[id(fn)] = w
                    setattr(obj, meth, kind(w) if kind else w)

    for target in [package, *modules.values()]:
        for attr, obj in list(vars(target).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            layer = layer_of(obj)
            if layer is None:
                continue
            if id(obj) not in wrapped:
                wrapped[id(obj)] = _wrap(obj, layer, f"{layer}.{obj.__name__}", tracer)
            setattr(target, attr, wrapped[id(obj)])
    return len(wrapped)


def summarize(tracer: Tracer, job_wall: dict, count_jobs) -> dict:
    """Per-job means of layer self times and of named inclusive times.

    ``job_wall`` maps each traced job id to its wall time; ``count_jobs``
    is the fixed prefix of jobs whose exact counts are averaged, so the
    same seed always yields the same counts.
    """
    names = {}
    parents = {}
    for sid, parent, job, name, *_ in tracer.spans:
        names[sid] = name
        parents[sid] = parent
    self_s = defaultdict(float)
    named = defaultdict(float)
    covered = defaultdict(float)
    for sid, parent, job, name, layer, start, end, own in tracer.spans:
        if job not in job_wall:
            continue
        self_s[layer] += own
        if parent == -1:
            covered[job] += end - start
        if name in TIMED and not _nested_in_same(sid, names, parents):
            named[name] += end - start
    k = max(len(job_wall), 1)
    out = {f"{layer}.self_s": self_s[layer] / k for layer in LAYERS}
    for name in TIMED:
        parts = name.split(".")
        out[f"{parts[0]}.{parts[-1]}_s"] = named[name] / k
    out["untraced_s"] = sum(wall - covered[j] for j, wall in job_wall.items()) / k
    count_jobs = list(count_jobs)
    for key in COUNT_METRICS:
        out[key] = sum(tracer.counts[j][key] for j in count_jobs) / max(len(count_jobs), 1)
    calls = out["fourier.calls"]
    out["fourier.points_per_call"] = out["fourier.points"] / calls if calls else 0.0
    return out


def _nested_in_same(sid, names, parents):
    """True if an enclosing span has the same name (avoids double counting)."""
    p = parents[sid]
    while p != -1:
        if names[p] == names[sid]:
            return True
        p = parents[p]
    return False


COUNT_METRICS = (
    "fourier.calls",
    "fourier.points",
    "fourier.flop_est",
    "fourier.bytes_est",
    "matrix_algebra.series_terms",
    "matrix_algebra.columns",
    "spectral.dense_flop_est",
    "symbols.seminorm_cells",
    "operator_matrix.schur_sums_calls",
    "operator_matrix.binary_bytes",
    "cli.artifact_bytes",
)
