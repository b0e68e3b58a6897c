"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion even on success.
"""

import json
import time

import numpy as np

from padic_calc.core import Frequency, TruncationContext
from padic_calc.calculus import compose_symbols, parametrix, quantize
from padic_calc.cli import main as cli_main
from padic_calc.fourier import LevelFunction, dft
from padic_calc.matrix_algebra import equivalence_check, wiener_experiment
from padic_calc.operator_matrix import OperatorMatrix
from padic_calc.spectral import (
    SobolevScale,
    counting_function,
    embedding_check,
    heat_evolve,
    op_norm_sobolev,
    variable_coefficient_generator,
    weyl_slope_fit,
)
from padic_calc.symbols import Symbol, vladimirov_symbol
from padic_calc.vladimirov import VladimirovSpec, eigenvalue_oracle, multiplier_table


def _verdict(name: str, checks: dict, elapsed: float, budget: float):
    checks = dict(checks)
    checks[f"runtime {elapsed:.2f}s < {budget:.0f}s"] = elapsed < budget
    failed = [k for k, ok in checks.items() if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"[acceptance] {name}: {status}" + (f" -- failed: {failed}" if failed else ""))
    assert not failed, f"{name}: {failed}"


def _shaped_bump(ctx, decay):
    """Deterministic real bump with shell spectrum p^(-decay * j)."""
    coeffs = np.zeros(ctx.N, dtype=complex)
    for u in range(1, ctx.N):
        j = ctx.n - int(ctx.valuations[u])
        coeffs[u] = float(ctx.p) ** (-decay * j)
    return dft(coeffs, ctx, +1).real


def test_criterion_1_plancherel_inversion():
    t0 = time.perf_counter()
    checks = {}
    gen = np.random.default_rng(1001)
    for p, n in [(2, 10), (3, 7), (5, 5)]:
        ctx = TruncationContext(p, n)
        batch = gen.normal(size=(100, ctx.N)) + 1j * gen.normal(size=(100, ctx.N))
        coeffs = dft(batch, ctx, -1) / ctx.N
        back = dft(coeffs, ctx, +1)
        rt = float(np.max(np.abs(back - batch)))
        pl = float(
            np.max(np.abs(np.sqrt(np.sum(np.abs(coeffs) ** 2, axis=1)) - np.sqrt(np.mean(np.abs(batch) ** 2, axis=1))))
        )
        checks[f"roundtrip ({p},{n}) {rt:.2e} < 1e-12"] = rt < 1e-12
        checks[f"plancherel ({p},{n}) {pl:.2e} < 1e-12"] = pl < 1e-12
    worst = 0.0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        n = 0
        while p**n <= 3**6:
            ctx = TruncationContext(p, n)
            a = gen.normal(size=ctx.N) + 1j * gen.normal(size=ctx.N)
            for sign in (-1, +1):
                worst = max(worst, float(np.max(np.abs(dft(a, ctx, sign) - dft(a, ctx, sign, naive=True)))))
            n += 1
    checks[f"fast vs naive all p^n<=3^6: {worst:.2e} < 1e-11"] = worst < 1e-11
    _verdict("1 plancherel/inversion", checks, time.perf_counter() - t0, 10.0)


def test_criterion_2_vladimirov_diagonalization(tmp_path, capsys):
    t0 = time.perf_counter()
    checks = {}
    p, n = 2, 8
    ctx = TruncationContext(p, n)
    x = np.arange(ctx.N)
    val = ctx.valuations
    for s in (0.5, 1.0, 2.0):
        spec = VladimirovSpec(s, p)
        # literal singular-sum matrix, assembled entrywise from the kernel
        K = np.zeros(ctx.N)
        K[1:] = np.power(float(p), val[1:] * (s + 1.0)) / ctx.N
        A = (K.sum() * np.eye(ctx.N) - K[(x[:, None] - x[None, :]) % ctx.N]) / spec.norm_scale
        M = OperatorMatrix(ctx, A).to_basis("frequency").entries
        total = float(np.sum(np.abs(M) ** 2))
        off = total - float(np.sum(np.abs(np.diag(M)) ** 2))
        checks[f"s={s} off-diag energy {off / total:.2e} < 1e-10"] = off / total < 1e-10
        # oracle eigenvalues stable across n -> n+1
        fine = TruncationContext(p, n + 1)
        shift = max(
            abs(
                eigenvalue_oracle(spec, Frequency(ctx, p ** (n - m)))
                - eigenvalue_oracle(spec, Frequency(fine, p ** (n + 1 - m)))
            )
            for m in range(1, n + 1)
        )
        checks[f"s={s} level stability {shift:.2e} < 1e-10"] = shift < 1e-10
        # report records which printed convention the oracle matches
        out = tmp_path / f"s{s}"
        cfg = tmp_path / f"cfg{s}.json"
        cfg.write_text(
            json.dumps(
                {"experiment": "vladimirov-eigen", "p": p, "n": n, "output_dir": str(out), "params": {"s": s}}
            )
        )
        assert cli_main(["run", "--config", str(cfg)]) == 0
        summary = json.loads((out / "vladimirov_eigen.json").read_text())
        c = spec.additive_constant
        checks[f"s={s} verdict recorded"] = summary["matched_convention"] == "neither"
        checks[f"s={s} diffs tabulated"] = (
            abs(summary["max_abs_diff"]["plus_constant"] - 2 * c) < 1e-9
            and abs(summary["max_abs_diff"]["scaled_constant"] - c * (1 + p**-s)) < 1e-9
        )
        checks[f"s={s} empirical offset = -c"] = abs(summary["empirical_offset"]["fitted"] + c) < 1e-9
    capsys.readouterr()
    _verdict("2 vladimirov diagonalization", checks, time.perf_counter() - t0, 30.0)


def test_criterion_3_composition_exactness():
    t0 = time.perf_counter()
    checks = {}
    gen = np.random.default_rng(1003)
    for p, n in [(2, 5), (3, 3)]:
        ctx = TruncationContext(p, n)
        worst = 0.0
        for _ in range(100):
            s1 = Symbol(ctx, gen.normal(size=(ctx.N, ctx.N)) + 1j * gen.normal(size=(ctx.N, ctx.N)))
            s2 = Symbol(ctx, gen.normal(size=(ctx.N, ctx.N)) + 1j * gen.normal(size=(ctx.N, ctx.N)))
            err = np.max(np.abs(quantize(compose_symbols(s1, s2)).entries - quantize(s1).entries @ quantize(s2).entries))
            worst = max(worst, float(err))
        checks[f"({p},{n}) max error {worst:.2e} < 1e-10"] = worst < 1e-10
    _verdict("3 composition exactness", checks, time.perf_counter() - t0, 60.0)


def test_criterion_4_sobolev_embedding():
    t0 = time.perf_counter()
    checks = {}
    ctx = TruncationContext(2, 8)
    constant, level, tail = SobolevScale(1.0).embedding_constant(ctx)
    checks[f"constant {constant:.12f} = sqrt(3/2) +- 1e-10"] = abs(constant - np.sqrt(1.5)) < 1e-10
    checks["tail reported"] = tail > 0
    gen = np.random.default_rng(1004)
    violations = 0
    for _ in range(1000):
        f = LevelFunction(ctx, gen.normal(size=ctx.N) + 1j * gen.normal(size=ctx.N))
        if not embedding_check(f, 1.0).passed:
            violations += 1
    checks["0 violations in 1000 draws"] = violations == 0
    _verdict("4 sobolev embedding", checks, time.perf_counter() - t0, 10.0)


def test_criterion_5_hormander_schur_equivalence():
    t0 = time.perf_counter()
    checks = {}
    spec = VladimirovSpec(1.0, 2)
    reps = {}
    for n in (6, 7):
        ctx = TruncationContext(2, n)
        reps[n] = equivalence_check(vladimirov_symbol(spec, ctx), m=1.0, r_max=4, alpha_max=3, beta_max=2)
    for n, rep in reps.items():
        finite_sem = np.all(np.isfinite(rep.seminorms.constants))
        finite_schur = all(np.isfinite(sr.norm) for sr in rep.schur)
        checks[f"n={n} constants finite"] = bool(finite_sem and finite_schur)
        ratios = [sr.growth_ratio for sr in rep.schur] + list(
            rep.seminorms.growth_ratio[np.isfinite(rep.seminorms.growth_ratio)].ravel()
        )
        checks[f"n={n} growth ratios in [0.8, 1.25]"] = all(0.8 <= g <= 1.25 for g in ratios)
    cross = max(
        max(a.norm, 1e-300) / max(b.norm, 1e-300) for a, b in zip(reps[7].schur, reps[6].schur)
    )
    checks[f"cross-level schur ratio {cross:.3f} in [0.8, 1.25]"] = 0.8 <= cross <= 1.25

    # deliberately mis-classified order m = 0: matching blow-up exponents
    norms0, sems0 = {}, {}
    for n in (6, 7):
        ctx = TruncationContext(2, n)
        rep = equivalence_check(vladimirov_symbol(spec, ctx), m=0.0, r_max=2, alpha_max=1, beta_max=1)
        norms0[n] = rep.schur[0].norm
        sems0[n] = float(np.max(rep.seminorms.constants))
    e_schur = np.log2(norms0[7] / norms0[6])
    e_sem = np.log2(sems0[7] / sems0[6])
    checks[f"m=0 blow-up exponents {e_schur:.3f}/{e_sem:.3f} match +-10%"] = (
        e_schur > 0.5 and e_sem > 0.5 and abs(e_schur - e_sem) <= 0.1 * max(abs(e_schur), abs(e_sem))
    )
    _verdict("5 hormander/schur equivalence", checks, time.perf_counter() - t0, 60.0)


def test_criterion_6_parametrix_residual_decay():
    t0 = time.perf_counter()
    checks = {}
    r_values = (0, 1, 2, 3)
    top_shell = {side: {r: [] for r in r_values} for side in ("left", "right")}
    levels = (4, 5, 6)
    for n in levels:
        ctx = TruncationContext(2, n)
        spec = VladimirovSpec(1.0, 2)
        lam = multiplier_table(spec, ctx, "integral")
        margin = float(np.min(lam[ctx.norms >= 2.0]))
        V = _shaped_bump(ctx, decay=8.0)
        V = 0.1 * margin * V / np.max(np.abs(V))
        rep = parametrix(Symbol(ctx, lam[None, :] + V[:, None]), order=1.0, threshold=1, r_values=r_values)
        for side in ("left", "right"):
            orders = [rep.fitted_orders[side][r] for r in r_values]
            checks[f"n={n} {side} cutoff-sweep orders >= r"] = all(o >= r for o, r in zip(orders, r_values))
            for ri, r in enumerate(r_values):
                top_shell[side][r].append(rep.tail_norms[side][ri, -1])
    for side in ("left", "right"):
        for r in r_values:
            vals = np.maximum(np.array(top_shell[side][r]), 1e-300)
            slope = np.polyfit(np.array(levels, dtype=float), np.log2(vals), 1)[0]
            checks[f"{side} r={r} cross-level order {-slope:.2f} >= {r}"] = -slope >= r
    _verdict("6 parametrix residual decay", checks, time.perf_counter() - t0, 120.0)


def test_criterion_7_wiener_contraction():
    t0 = time.perf_counter()
    checks = {}
    jr = {}
    for n in (5, 6):
        ctx = TruncationContext(2, n)
        lam = multiplier_table(VladimirovSpec(1.0, 2), ctx, "integral")
        margin = float(np.min(lam[ctx.norms >= 2.0]))
        V = _shaped_bump(ctx, decay=6.0)
        V = 0.1 * margin * V / np.max(np.abs(V))
        rep = wiener_experiment(Symbol(ctx, lam[None, :] + V[:, None]), order=1.0, threshold=1)
        excess = max((c.measured_ratio - c.ratio_bound) / max(c.ratio_bound, 1e-12) for c in rep.columns)
        checks[f"n={n} measured ratio within 5% of bound ({excess:+.3%})"] = excess <= 0.05
        recon = max(c.recon_error for c in rep.columns)
        checks[f"n={n} series reciprocal matches direct ({recon:.2e})"] = recon < 1e-11
        jr[n] = rep.jr_constants
    for r in (0, 1, 2, 3):
        shift = abs(jr[5][r] - jr[6][r]) / jr[6][r]
        checks[f"J_{r} constant level-stable ({shift:.3%} <= 25%)"] = shift <= 0.25
    _verdict("7 wiener contraction", checks, time.perf_counter() - t0, 60.0)


def test_criterion_8_weyl_counting():
    t0 = time.perf_counter()
    checks = {}
    ctx = TruncationContext(2, 10)
    for s in (0.5, 1.0, 2.0):
        lam = multiplier_table(VladimirovSpec(s, 2), ctx, "integral")
        ts = np.unique(np.abs(lam))
        fit = weyl_slope_fit(ts, counting_function(lam, ts), t_min=2.0**s, t_max=2.0 ** ((ctx.n - 1) * s))
        checks[f"s={s} slope {fit.slope:.4f} = {1 / s} +- 0.05"] = abs(fit.slope - 1.0 / s) <= 0.05
    _verdict("8 weyl counting", checks, time.perf_counter() - t0, 30.0)


def test_criterion_9_heat_smoothing():
    t0 = time.perf_counter()
    checks = {}
    ctx = TruncationContext(2, 7)
    gen = np.random.default_rng(1009)
    a1 = 1.0 + gen.uniform(0.0, 1.0, size=ctx.N)
    a2 = 1.5 + gen.uniform(0.0, 0.5, size=ctx.N)
    generator = variable_coefficient_generator(ctx, [(a1, 1.0), (a2, 0.5)])
    f0 = LevelFunction(ctx, gen.normal(size=ctx.N) + 1j * gen.normal(size=ctx.N))
    times = [0.0, 0.1, 0.5, 1.0]
    orders = [float(k) for k in range(7)]
    traj = heat_evolve(generator, f0, times, orders)
    checks["H^k norms finite for k <= 6 at t in {0.1, 1}"] = bool(
        np.all(np.isfinite(traj.norms[[1, 3], :]))
    )
    nz = np.abs(traj.eigenvalues) > 1e-9
    mags = traj.mode_magnitudes
    checks["nonzero eigen-modes decay monotonically"] = bool(np.all(mags[1:][:, nz] < mags[:-1][:, nz]))

    # pure multiplier: exact spectral path vs dense eigensolve path
    sym = vladimirov_symbol(VladimirovSpec(1.0, 2), ctx)
    fast = heat_evolve(sym, f0, [0.1, 1.0], orders)
    dense = heat_evolve(quantize(sym), f0, [0.1, 1.0], orders)
    gap = float(np.max(np.abs(fast.norms - dense.norms)) / max(1.0, float(np.max(fast.norms))))
    checks[f"multiplier path = eigen path ({gap:.2e} < 1e-8)"] = gap < 1e-8
    _verdict("9 heat smoothing", checks, time.perf_counter() - t0, 120.0)


def test_criterion_10_sobolev_boundedness():
    t0 = time.perf_counter()
    checks = {}
    for s in (0.5, 1.0, 2.0):
        spec = VladimirovSpec(s, 2)
        mats = {n: quantize(vladimirov_symbol(spec, TruncationContext(2, n))) for n in (7, 8)}
        for t in (-1.0, 0.0, 2.0):
            v7 = op_norm_sobolev(mats[7], t, s)
            v8 = op_norm_sobolev(mats[8], t, s)
            rel = abs(v7 - v8) / v8
            checks[f"s={s} t={t} level shift {rel:.3%} < 5%"] = rel < 0.05
    _verdict("10 sobolev boundedness", checks, time.perf_counter() - t0, 60.0)
