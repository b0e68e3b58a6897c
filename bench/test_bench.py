"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SMALL = {
    "wiener": ((2, 4), (3, 2)),
    "dense-calculus": ((2, 4), (3, 2)),
    "multiplier": (
        ("sobolev-bound", 2, 5),
        ("schur-sweep", 2, 6),
        ("seminorm-sweep", 2, 6),
        ("vladimirov-eigen", 2, 6),
        ("weyl-count", 2, 10),
    ),
}


def _traced_run(workload, seed):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_and_spans_account_for_job_time(workload):
    first_prov, first = _traced_run(workload, 11)
    _, second = _traced_run(workload, 11)
    assert first["correct"] and second["correct"]
    metrics = first["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = {k for k, v in metrics.items() if v["unit"] not in ("s", "ratio")}
    assert counts, "no count metrics reported"
    for key in counts:
        assert metrics[key]["value"] == second["metrics"][key]["value"], key
    assert metrics["fourier.calls"]["value"] > 0
    layered = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s")) + metrics["untraced_s"]["value"]
    assert layered == pytest.approx(first_prov["traced_job_mean_s"], rel=1e-9)


def _corrupt_wiener(out):
    out[0].jr_constants[1] *= 1.0 + 1e-3


def _corrupt_dense(out):
    table = out[0]["compose"].table
    table[3, 5] += 1e-3 * np.max(np.abs(table))


def _corrupt_multiplier(out):
    artifact = Path(out[0]).parent / "sobolev_bound.csv"
    raw = bytearray(artifact.read_bytes())
    pos = raw.rindex(b"1")
    raw[pos] = ord("2")
    artifact.write_bytes(bytes(raw))


CORRUPT = {"wiener": _corrupt_wiener, "dense-calculus": _corrupt_dense, "multiplier": _corrupt_multiplier}


def _measure(workload, corrupt, tmp_path):
    wl = workloads.WORKLOADS[workload](3, tmp_path, grid=SMALL[workload])
    wl.setup()
    if corrupt:
        job = wl.job

        def wrong_job(i):
            out = job(i)
            CORRUPT[workload](out)
            return out

        wl.job = wrong_job
    args = SimpleNamespace(seconds=0.0, seed=3)
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run.measure(args, wl, None, [0.5], 0.0) == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_checks_pass_on_correct_outputs(workload, tmp_path):
    result = _measure(workload, False, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert result["metrics"]["pass_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_wrong_output_is_counted_as_failed(workload, tmp_path):
    result = _measure(workload, True, tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 12  # the warm-up job and every timed job
    assert result["metrics"]["pass_frac"]["value"] < 1.0


def test_tail_percentile_keeps_ten_jobs_beyond():
    times = [float(k) for k in range(40)]
    value, pct = run.tail(times)
    assert sum(t > value for t in times) == run.TAIL_BEYOND
    assert pct == pytest.approx(75.0)


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    cmd = [sys.executable, "bench/run.py", "--workload", "wiener", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
