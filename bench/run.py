#!/usr/bin/env python3
"""padic-calc benchmark: one closed-loop client per workload process.

Run from the root of a source checkout::

    python3 bench/run.py --workload wiener --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``.  After set-up and one warm-up
job, the process runs jobs back to back (each starts when the previous
one has finished) until ``--seconds`` of wall time have passed, checking
every job's outputs against independent routes outside the timed region.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced jobs and reports per-layer metrics from the spans
(see ``tracing.py``), written to ``.bench_work/traces/``.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Set-up time is the median of ``SETUP_REPEATS`` fresh processes, each
timed from launch until its first job could run (imports, context
tables and the seeded input pool).
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 5
#: traced jobs whose exact counts are reported (a fixed prefix of the seed's jobs)
COUNT_JOBS = 3
#: a percentile is reported for the job tail only with this many jobs beyond it
TAIL_BEYOND = 10
#: stop starting jobs after this long even if too few have finished
HARD_STOP_S = 140.0
#: calibration drift beyond this factor flags the run as noisy (metrics are not rescaled)
NOISE_RATIO = 1.25
#: rounding errors vary by orders of magnitude between inputs, so the
#: oracle error is reported as correct digits; an exact match counts as 17
ERR_FLOOR = 1e-17

EXIT_NO_PROGRAM = 3


def pin_threads() -> None:
    """One client, one BLAS thread: load comes from this process alone."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def load_program():
    """Import the package from this checkout's ``src``; exit if it is absent."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(BENCH)]
    try:
        import padic_calc
    except ImportError as exc:
        print(f"cannot import padic_calc from {src}: {exc}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    if Path(padic_calc.__file__).resolve().parent.parent != src.resolve():
        print(f"padic_calc was imported from {padic_calc.__file__}, not from {src}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    import workloads

    return padic_calc, workloads


def probe_setup(workload: str, seed: int) -> float:
    """Launch a fresh process and time it until its workload is set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        print(err, file=sys.stderr)
        sys.exit(proc.returncode or EXIT_NO_PROGRAM)
    return elapsed


def calibrate() -> float:
    """Best of three runs of a fixed pure-Python loop (noise flag only)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for k in range(400_000):
            acc += k * k % 7
        best = min(best, time.perf_counter() - t0)
    return best


def blas_info() -> dict:
    import ctypes
    import glob

    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                info["threads"] = int(fn())
                break
    return info


def tail(times: list) -> tuple[float, float]:
    """Highest percentile with ``TAIL_BEYOND`` jobs beyond it, and that percentile.

    With too few jobs for any such percentile, the maximum (100) is used.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n > TAIL_BEYOND:
        return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return ordered[-1], 100.0


def run_checks(workload, i, out):
    """(attempted, failed, worst relative error, failure names) of one job's checks."""
    try:
        checks = workload.check(i, out)
    except Exception as exc:  # a check that cannot run counts as failed
        return 1, 1, None, [f"check raised {type(exc).__name__}: {exc}"]
    errs = [c.err for c in checks if c.err is not None]
    bad = [c.name for c in checks if not c.ok]
    return len(checks), len(bad), (max(errs) if errs else None), bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_threads()

    if args.probe_setup:
        pkg, wl = load_program()
        workdir = WORK / f"probe-{os.getpid()}"
        wl.WORKLOADS[args.workload](args.seed, workdir).setup()
        print("ready", flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    pkg, wl = load_program()
    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    setup_samples = [] if args.trace else [probe_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workload = wl.WORKLOADS[args.workload](args.seed, workdir)
    t0 = time.perf_counter()
    workload.setup()
    own_setup = time.perf_counter() - t0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(pkg, tracer)

    try:
        return measure(args, workload, tracer, setup_samples, own_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, tracer, setup_samples, own_setup) -> int:
    import numpy
    import scipy

    attempted = failed = 0
    failures = []
    calib_before = calibrate()

    def attempt(i, trace_this=False):
        """Run job i and check it; returns its wall time, or None if it raised."""
        nonlocal attempted, failed
        workload.inputs(i)  # build the inputs before the clock starts
        if trace_this:
            tracer.begin_job(i)
        t0 = time.perf_counter()
        try:
            out = workload.job(i)
            dt = time.perf_counter() - t0
        except Exception as exc:  # a job that raises is a failed attempt
            attempted += 1
            failed += 1
            failures.append(f"job {i} raised {type(exc).__name__}: {exc}")
            return None
        finally:
            if trace_this:
                tracer.end_job()
        a, f, err, bad = run_checks(workload, i, out)
        attempted += a
        failed += f
        failures.extend(bad)
        if err is not None:
            job_errs.append(err)
        return dt

    plain, traced, job_errs = {}, {}, []
    attempt(0)  # warm-up (untimed): lazy library set-up, first-touch pages
    job_errs.clear()
    loop_start = time.perf_counter()
    i = 0
    while True:
        trace_this = tracer is not None and i % 2 == 1
        dt = attempt(i, trace_this)
        if dt is not None:
            (traced if trace_this else plain)[i] = dt
        i += 1
        elapsed = time.perf_counter() - loop_start
        enough = len(traced) >= COUNT_JOBS if tracer is not None else len(plain) > TAIL_BEYOND
        if (elapsed >= args.seconds and enough) or elapsed >= HARD_STOP_S:
            break
    calib_after = calibrate()

    times = list(plain.values())
    if not times:
        print("no job completed", file=sys.stderr)
        return 1
    tail_s, tail_pct = tail(times)
    err_p50 = statistics.median(job_errs) if job_errs else 0.0
    fail_frac = failed / max(attempted, 1)
    noisy = not (1 / NOISE_RATIO <= calib_after / calib_before <= NOISE_RATIO)
    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "grid": [list(g) for g in workload.grid],
        "jobs": len(times),
        "traced_jobs": len(traced),
        "warmup_jobs": 1,
        "run_seconds": args.seconds,
        "job_tail_percentile": tail_pct,
        "job_times_s": times,
        "fail_frac": fail_frac,
        "failures": failures[:20],
        "oracle_err_max": err_p50,
        "oracle_err_worst": max(job_errs) if job_errs else None,
        "setup_samples_s": setup_samples,
        "main_process_setup_s": own_setup,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "calibration_before_s": calib_before,
        "calibration_after_s": calib_after,
        "noisy_neighbour_flag": noisy,
    }

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "job_p50_s": (statistics.median(times), "s"),
            "job_tail_s": (tail_s, "s"),
            "jobs_per_min": (60.0 * len(times) / sum(times), "jobs/min"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "oracle_digits": (-math.log10(max(err_p50, ERR_FLOOR)), "digits"),
            "pass_frac": (1.0 - fail_frac, "ratio"),
        }
        shown = dict(metrics)
        shown["oracle_err_max"] = (err_p50, "relative")
        shown["fail_frac"] = (fail_frac, "ratio")
    else:
        counted = sorted(traced)[:COUNT_JOBS]
        layer = tracing.summarize(tracer, traced, counted)
        layer["trace_overhead_frac"] = statistics.median(traced.values()) / statistics.median(times) - 1.0
        metrics = {k: (v, UNITS.get(k, "s" if k.endswith("_s") else "count")) for k, v in layer.items()}
        shown = metrics
        provenance["traced_job_p50_s"] = statistics.median(traced.values())
        provenance["traced_job_mean_s"] = statistics.fmean(traced.values())
        provenance["untraced_job_p50_s"] = statistics.median(times)
        provenance["counted_jobs"] = counted
        trace_path = WORK / "traces" / f"{workload.name}-seed{args.seed}.csv"
        tracer.write(trace_path)
        provenance["trace_file"] = str(trace_path.relative_to(ROOT))

    for name, (value, unit) in shown.items():
        print(f"{workload.name:>15} {name:<40} {value:.6g} {unit}")
    if tracer is None:
        print(f"{workload.name:>15} job_tail_s is p{tail_pct:.1f} of {len(times)} jobs")
    print(json.dumps({"provenance": provenance}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


UNITS = {
    "fourier.flop_est": "flop",
    "spectral.dense_flop_est": "flop",
    "fourier.bytes_est": "B",
    "operator_matrix.binary_bytes": "B",
    "cli.artifact_bytes": "B",
    "symbols.seminorm_cells": "cells",
    "fourier.points": "samples",
    "fourier.points_per_call": "samples/call",
    "trace_overhead_frac": "ratio",
}


if __name__ == "__main__":
    sys.exit(main())
