"""Associated matrices, Schur norms, equivalence identity, inversion series."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_calc import matrix_algebra
from padic_calc.cli import _smooth_bump
from padic_calc.core import TruncationContext
from padic_calc.calculus import ellipticity_report, quantize
from padic_calc.fourier import dft_axis
from padic_calc.matrix_algebra import (
    EllipticityMarginError,
    WienerColumn,
    WienerReport,
    associated_matrix,
    equivalence_check,
    multiplier_equivalence,
    schur_norm,
    wiener_experiment,
    wiener_profile,
)
from padic_calc.operator_matrix import OperatorMatrix
from padic_calc.symbols import Symbol, vladimirov_symbol
from padic_calc.vladimirov import VladimirovSpec, multiplier_table


def rng():
    return np.random.default_rng(31)


def random_symbol(ctx, gen):
    return Symbol(ctx, gen.normal(size=(ctx.N, ctx.N)) + 1j * gen.normal(size=(ctx.N, ctx.N)))


def test_associated_matrix_of_multiplier_is_diagonal():
    ctx = TruncationContext(2, 4)
    gen = rng()
    vals = gen.normal(size=ctx.N)
    M = associated_matrix(Symbol.multiplier(ctx, vals))
    assert M.basis == "frequency"
    assert np.max(np.abs(M.entries - np.diag(vals))) < 1e-11


def test_associated_matrix_single_mode_stripe():
    ctx = TruncationContext(3, 2)
    u0 = 4
    table = np.tile(ctx.character_column(u0)[:, None], (1, ctx.N))
    M = associated_matrix(Symbol(ctx, table)).entries
    hits = np.abs(M) > 1e-12
    rows, cols = np.nonzero(hits)
    assert np.all((rows - cols) % ctx.N == u0)


def test_associated_matrix_matches_basis_converted_quantization():
    ctx = TruncationContext(2, 4)
    gen = rng()
    sym = random_symbol(ctx, gen)
    M1 = associated_matrix(sym).entries
    M2 = quantize(sym).to_basis("frequency").entries
    assert np.max(np.abs(M1 - M2)) < 1e-10


def test_schur_norm_identity_and_diagonal():
    ctx = TruncationContext(2, 5)
    eye = OperatorMatrix.identity(ctx, "frequency")
    for r in (0.0, 2.0, 4.0):
        rep = schur_norm(eye, r)
        assert rep.norm == pytest.approx(1.0)
        assert rep.growth_ratio == pytest.approx(1.0)
    lam = multiplier_table(VladimirovSpec(1.0, 2), ctx, "integral")
    rep = schur_norm(OperatorMatrix(ctx, np.diag(lam), "frequency"), r=3.0, m=1.0)
    expected = np.max(np.abs(lam) * ctx.weights**-1.0)
    assert rep.norm == pytest.approx(float(expected))
    with pytest.raises(ValueError):
        schur_norm(OperatorMatrix.identity(ctx, "frequency"), r=-1.0)


def test_schur_adjoint_symmetry_and_submultiplicativity():
    ctx = TruncationContext(2, 4)
    gen = rng()
    A = gen.normal(size=(ctx.N, ctx.N)) + 1j * gen.normal(size=(ctx.N, ctx.N))
    B = gen.normal(size=(ctx.N, ctx.N)) + 1j * gen.normal(size=(ctx.N, ctx.N))
    for r in (0.0, 1.0, 2.0):
        na = schur_norm(A, r, ctx=ctx).norm
        nastar = schur_norm(A.conj().T, r, ctx=ctx).norm
        assert na == pytest.approx(nastar, rel=1e-12)  # exact row/col swap
        # ultrametric Peetre constant 1 makes the algebra submultiplicative
        nprod = schur_norm(A @ B, r, ctx=ctx).norm
        assert nprod <= na * schur_norm(B, r, ctx=ctx).norm * (1 + 1e-12)


def test_schur_dominates_spectral_norm():
    ctx = TruncationContext(2, 5)
    gen = rng()
    for _ in range(5):
        A = gen.normal(size=(ctx.N, ctx.N)) + 1j * gen.normal(size=(ctx.N, ctx.N))
        assert np.linalg.norm(A, 2) <= schur_norm(A, 0.0, ctx=ctx).norm * (1 + 1e-12)


def test_equivalence_check_trivial_and_vladimirov():
    ctx = TruncationContext(2, 5)
    one = Symbol.multiplier(ctx, np.ones(ctx.N))
    rep = equivalence_check(one, m=0.0, r_max=2, alpha_max=1, beta_max=1)
    assert rep.schur[0].norm == pytest.approx(1.0)
    assert all(gap < 1e-10 for gap in rep.identity_gaps.values())

    sym = vladimirov_symbol(VladimirovSpec(1.0, 2), ctx)
    rep = equivalence_check(sym, m=1.0, r_max=4, alpha_max=2, beta_max=1)
    assert all(np.isfinite(r.norm) for r in rep.schur)
    for r in rep.schur:
        assert 0.8 <= r.growth_ratio <= 1.25
    assert all(gap < 1e-10 for gap in rep.identity_gaps.values())


def test_equivalence_identity_for_generic_symbol():
    ctx = TruncationContext(2, 4)
    sym = random_symbol(ctx, rng())
    rep = equivalence_check(sym, m=0.0, r_max=3, alpha_max=1, beta_max=1)
    assert all(gap < 1e-10 for gap in rep.identity_gaps.values())


@pytest.mark.parametrize(
    "p,n", [(2, 0), (2, 1), (2, 5), (2, 8), (3, 0), (3, 3), (3, 5), (5, 2), (5, 3), (7, 1), (7, 2)]
)
def test_multiplier_equivalence_matches_dense_route(p, n):
    ctx = TruncationContext(p, n)
    for s in (0.7, 1.0, 2.3):
        lam = multiplier_table(VladimirovSpec(s, p), ctx)
        for m in (s, 0.0, -0.5):
            fast = multiplier_equivalence(lam[ctx.shell_index], ctx, m=m, r_max=4)
            dense = equivalence_check(vladimirov_symbol(VladimirovSpec(s, p), ctx), m=m, r_max=4)
            assert np.array_equal(fast.seminorms.constants, dense.seminorms.constants)
            assert np.array_equal(fast.seminorms.growth_ratio, dense.seminorms.growth_ratio)
            assert fast.identity_gaps == {r: 0.0 for r in range(5)}
            assert len(fast.schur) == len(dense.schur) == 5
            diagonal = OperatorMatrix(ctx, np.diag(lam.astype(np.complex128)), "frequency")
            for r, (got, want) in enumerate(zip(fast.schur, dense.schur)):
                # the exact diagonal through the dense Schur sums gives the same floats
                assert got == schur_norm(diagonal, r=float(r), m=m)
                # the FFT route of equivalence_check is exact at p = 2; at p >= 3 its
                # quenched matrix keeps only the diagonal, which rounds below 1e-12
                if p == 2:
                    assert got == want
                else:
                    for key in ("row_sup", "col_sup", "norm", "growth_ratio"):
                        assert getattr(got, key) == pytest.approx(getattr(want, key), rel=1e-12, abs=0.0), (s, m, r, key)


def test_multiplier_equivalence_is_r_independent_and_closed_form():
    ctx = TruncationContext(3, 4)
    s, m = 1.5, 0.5
    lam = multiplier_table(VladimirovSpec(s, 3), ctx)
    rep = multiplier_equivalence(lam[ctx.shell_index], ctx, m=m, r_max=3)
    sums = np.abs(lam) * ctx.weights ** (-m)
    sub = np.arange(ctx.N) % 3 == 0
    for r, sr in enumerate(rep.schur):
        assert (sr.r, sr.m) == (float(r), m)
        assert sr.row_sup == sr.col_sup == sr.norm == pytest.approx(np.max(sums), rel=1e-15)
        assert sr.growth_ratio == pytest.approx(np.max(sums) / np.max(sums[sub]), rel=1e-15)
    assert json.loads(rep.to_json())["identity_gaps"] == {str(r): 0.0 for r in range(4)}


def test_misclassified_order_blows_up_on_both_sides():
    spec = VladimirovSpec(1.0, 2)
    norms = {}
    sems = {}
    for n in (5, 6):
        ctx = TruncationContext(2, n)
        sym = vladimirov_symbol(spec, ctx)
        rep = equivalence_check(sym, m=0.0, r_max=0, alpha_max=0, beta_max=0)
        norms[n] = rep.schur[0].norm
        sems[n] = rep.seminorms.constants[0, 0]
    schur_exponent = np.log2(norms[6] / norms[5])
    sem_exponent = np.log2(sems[6] / sems[5])
    assert schur_exponent == pytest.approx(1.0, abs=0.1)  # order misfit s - m = 1
    assert sem_exponent == pytest.approx(1.0, abs=0.1)
    assert abs(schur_exponent - sem_exponent) <= 0.1 * max(abs(schur_exponent), abs(sem_exponent))


def test_wiener_multiplier_converges_immediately():
    ctx = TruncationContext(2, 4)
    sym = Symbol.multiplier(ctx, ctx.weights)
    rep = wiener_experiment(sym, order=1.0, threshold=1)
    for col in rep.columns:
        assert col.delta == pytest.approx(1.0)
        assert col.terms <= 2
        assert col.recon_error < 1e-12
    # 1/sigma spectrum is a single delta: the constant is exactly 1
    assert rep.jr_constants[0] == pytest.approx(1.0, rel=1e-10)
    # constant columns: max |f| = 0, so the bound log(SERIES_TOL) / log(0) is 0
    assert dataclasses.asdict(rep) == dataclasses.asdict(wiener_loop(sym, 1.0, 1))


def test_wiener_perturbed_contraction_respects_bound():
    ctx = TruncationContext(2, 5)
    gen = rng()
    spec = VladimirovSpec(1.0, 2)
    lam = multiplier_table(spec, ctx, "integral")
    margin = lam[ctx.norms == 2.0].min()
    bump = gen.normal(size=ctx.N)
    V = 0.1 * margin * bump / np.max(np.abs(bump))
    sym = Symbol(ctx, lam[None, :] + V[:, None])
    rep = wiener_experiment(sym, order=1.0, threshold=1)
    for col in rep.columns:
        assert col.measured_ratio <= col.ratio_bound * 1.05 + 1e-12
        assert col.recon_error < 1e-11
    for r, c in rep.jr_constants.items():
        assert np.isfinite(c) and c > 0


def test_wiener_rejects_vanishing_symbol():
    ctx = TruncationContext(2, 4)
    spec = VladimirovSpec(1.0, 2)
    lam = multiplier_table(spec, ctx, "integral")
    table = np.tile(lam, (ctx.N, 1)).astype(complex)
    table[0, ctx.N // 2] = 0.0  # kill one entry on the norm-2 shell
    with pytest.raises(EllipticityMarginError):
        wiener_experiment(Symbol(ctx, table), order=1.0, threshold=1)


def wiener_loop(sym, order, threshold, r_values=(0, 1, 2, 3)):
    """The column-by-column series, one transform per column per term: the oracle."""
    ctx = sym.ctx
    ell = ellipticity_report(sym, order, n_max=threshold)
    if ell is None or ell.threshold > threshold:
        raise EllipticityMarginError(f"symbol not elliptic of order {order} at threshold {threshold}")
    high = np.flatnonzero(ctx.norms >= float(ctx.p) ** threshold)
    us, norms, columns = [], [], []
    jr_sup = {r: 0.0 for r in r_values}
    for u in high:
        col = sym.table[:, u]
        sup = float(np.max(np.abs(col)))
        inf = float(np.min(np.abs(col)))
        if sup == 0.0:
            raise EllipticityMarginError(f"column u={u} vanishes identically")
        delta = inf / sup
        f = 1.0 - col / sup
        contraction = float(np.max(np.abs(f)))
        if contraction >= 1.0:
            raise EllipticityMarginError(f"column u={u}: pointwise contraction factor {contraction:.6f} >= 1")
        acc = np.ones(ctx.N, dtype=np.complex128)
        term = f.astype(np.complex128)
        l1_history = []
        k = 0
        while k < matrix_algebra.SERIES_MAX_TERMS:
            spec_l1 = float(np.sum(np.abs(dft_axis(term, ctx, -1, axis=0) / ctx.N)))
            l1_history.append(spec_l1)
            if spec_l1 < matrix_algebra.SERIES_TOL:
                break
            acc += term
            term = term * f
            k += 1
        else:
            raise EllipticityMarginError(
                f"column u={u}: series did not reach {matrix_algebra.SERIES_TOL} "
                f"in {matrix_algebra.SERIES_MAX_TERMS} terms"
            )
        if len(l1_history) > 3:
            warm = l1_history[2:]
            measured = (warm[-1] / warm[0]) ** (1.0 / (len(warm) - 1)) if warm[0] > 0 else 0.0
        else:
            measured = 0.0
        recip_series = acc / sup
        recip_direct = 1.0 / col
        recon = float(np.max(np.abs(recip_series - recip_direct)) / np.max(np.abs(recip_direct)))
        us.append(int(u))
        norms.append(float(ctx.norms[u]))
        columns.append(
            WienerColumn(
                delta=delta,
                ratio_bound=1.0 - delta,
                measured_ratio=measured,
                terms=len(l1_history),
                recon_error=recon,
            )
        )
        spec = np.abs(dft_axis(recip_direct.astype(np.complex128), ctx, -1, axis=0) / ctx.N)
        for r in r_values:
            val = float(np.sum(np.power(ctx.weights, float(r)) * spec)) * ctx.weights[u] ** order
            jr_sup[r] = max(jr_sup[r], val)
    return WienerReport(threshold=threshold, order=order, us=us, norms=norms, columns=columns, jr_constants=jr_sup)


def perturbed_d1(ctx, seed=7):
    """D^1 plus a smooth real bump of 0.1 times the margin on shell 1: the wiener experiment's input."""
    lam = multiplier_table(VladimirovSpec(1.0, ctx.p), ctx)
    margin = float(np.min(lam[ctx.norms >= float(ctx.p)]))
    V = _smooth_bump(ctx, np.random.default_rng(seed), decay=6.0, scale=0.1 * margin)
    return Symbol(ctx, lam[None, :] + V[:, None])


def block_bytes(ctx):
    """One row per block, seven rows per block, and every column in one block."""
    return (16 * ctx.N, 16 * ctx.N * 7, 1 << 30)


@pytest.mark.parametrize("p, n", [(2, 7), (3, 5), (5, 3), (2, 9), (7, 2)])
def test_wiener_blocks_bit_identical_to_column_loop(monkeypatch, p, n):
    ctx = TruncationContext(p, n)
    sym = perturbed_d1(ctx)
    for threshold in range(n + 1):
        want = dataclasses.asdict(wiener_loop(sym, 1.0, threshold))
        assert dataclasses.asdict(wiener_experiment(sym, 1.0, threshold)) == want
        for nbytes in block_bytes(ctx):
            monkeypatch.setattr(matrix_algebra, "SERIES_BLOCK_BYTES", nbytes)
            assert dataclasses.asdict(wiener_experiment(sym, 1.0, threshold)) == want
        monkeypatch.undo()


def outcome(fn, *args):
    """The report as a dict, or the type and message of the error it raises."""
    try:
        return dataclasses.asdict(fn(*args))
    except EllipticityMarginError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("p, n", [(2, 7), (3, 4), (5, 3), (7, 2)])
@pytest.mark.parametrize("factor", [1.0 + 1e-3, -1.0])
def test_wiener_non_radial_blocks_bit_identical_to_column_loop(monkeypatch, p, n, factor):
    # one entry off its shell value sends the table down the block route; -1 makes its column fail;
    # the second pass adds a slow column, whose series runs over several chunks of terms
    ctx = TruncationContext(p, n)
    table = perturbed_d1(ctx).table.copy()
    table[1, ctx.N - 1] *= factor
    for slow in (False, True):
        if slow:
            slow_column(table, ctx, 1)
        sym = Symbol(ctx, table)
        assert sym.shell_profile() is None
        for threshold in range(n + 1):
            want = outcome(wiener_loop, sym, 1.0, threshold)
            assert outcome(wiener_experiment, sym, 1.0, threshold) == want
            for nbytes in block_bytes(ctx):
                monkeypatch.setattr(matrix_algebra, "SERIES_BLOCK_BYTES", nbytes)
                assert outcome(wiener_experiment, sym, 1.0, threshold) == want
            monkeypatch.undo()
    assert factor > 0 or "pointwise contraction factor" in outcome(wiener_loop, sym, 1.0, 1)[1]
    assert factor < 0 or outcome(wiener_loop, sym, 1.0, 1)["columns"][0]["terms"] > 250


@pytest.mark.parametrize("radial", [True, False])
def test_wiener_runs_one_series_per_shell_of_a_radial_table(monkeypatch, radial):
    ctx = TruncationContext(3, 5)
    table = perturbed_d1(ctx).table.copy()
    if not radial:
        table[1, ctx.N - 1] *= 1.0 + 1e-3
    rows = []

    def counting_dft_axis(a, *args, **kwargs):
        rows.append(a.shape[-2])  # a stack of terms is (terms, columns, N)
        return dft_axis(a, *args, **kwargs)

    monkeypatch.setattr(matrix_algebra, "dft_axis", counting_dft_axis)
    rep = wiener_experiment(Symbol(ctx, table), 1.0, 1)
    assert rep.us == list(range(1, ctx.N)) and len(rep.columns) == ctx.N - 1
    # one row per shell 1..n, or full blocks of the N - 1 columns above xi = 0
    assert max(rows) == (ctx.n if radial else matrix_algebra.SERIES_BLOCK_BYTES // (16 * ctx.N))


@pytest.mark.parametrize("p, n", [(2, 7), (3, 5), (5, 3), (7, 2), (2, 1)])
def test_wiener_report_is_the_same_across_layouts_and_routes(p, n):
    # a C-ordered table, its Fortran-ordered copy and the profile entry give one report; the columns of a
    # shell hold one shared, frozen record
    ctx = TruncationContext(p, n)
    sym = perturbed_d1(ctx)
    assert sym.table.flags.c_contiguous
    profile = sym.shell_profile()
    for threshold in range(n + 2):
        rep = wiener_experiment(sym, 1.0, threshold)
        want = dataclasses.asdict(rep)
        assert dataclasses.asdict(wiener_experiment(Symbol(ctx, np.asfortranarray(sym.table)), 1.0, threshold)) == want
        assert dataclasses.asdict(wiener_profile(ctx, profile, 1.0, threshold)) == want
        high = np.flatnonzero(ctx.norms >= float(p) ** threshold)
        assert rep.us == high.tolist() and rep.norms == ctx.norms[high].tolist() and len(rep.columns) == high.size
        records = {id(c) for c in rep.columns}
        assert len(records) == len(set(ctx.shells[high].tolist()))
        for u, c in zip(rep.us, rep.columns):
            assert c is rep.columns[rep.us.index(int(ctx.shell_index[ctx.shells[u]]))]
        if rep.columns:
            with pytest.raises(dataclasses.FrozenInstanceError):
                rep.columns[-1].terms = 0
    with pytest.raises(ValueError, match="radial profile must have shape"):
        wiener_profile(ctx, profile[:, 1:], 1.0, 1)


def raised(fn, *args):
    with pytest.raises(EllipticityMarginError) as info:
        fn(*args)
    return str(info.value)


def sign_change(table, ctx, u):
    """Flip the sign of column u on half the points: |sigma| is kept, the contraction is 2."""
    table[ctx.N // 2 :, u] *= -1.0


def slow_column(table, ctx, u):
    """Scale column u into [0.1, 1] of its size: the series needs about 260 terms."""
    table[:, u] *= 0.55 + 0.45 * np.cos(2 * np.pi * np.arange(ctx.N) / ctx.N)


def test_wiener_sign_change_fails_like_the_loop():
    ctx = TruncationContext(3, 3)
    table = perturbed_d1(ctx).table.copy()
    sign_change(table, ctx, 5)
    sym = Symbol(ctx, table)
    assert ellipticity_report(sym, 1.0, n_max=1) is not None
    msg = raised(wiener_loop, sym, 1.0, 1)
    assert msg == raised(wiener_experiment, sym, 1.0, 1)
    assert msg.startswith("column u=5: pointwise contraction factor 2.000000")


def test_wiener_term_limit_fails_like_the_loop(monkeypatch):
    # the bounds log(SERIES_TOL) / log(max |f|) run from 5.03 (u=1, whose series stops at term 6) to 15.97;
    # with 3 terms every column fails at once, unrun; with 5, u=1 fails inside its first chunk of terms
    ctx = TruncationContext(2, 6)
    sym = perturbed_d1(ctx)
    for max_terms in (3, 5):
        monkeypatch.setattr(matrix_algebra, "SERIES_MAX_TERMS", max_terms)
        msg = raised(wiener_loop, sym, 1.0, 1)
        assert msg == raised(wiener_experiment, sym, 1.0, 1)
        assert msg.startswith("column u=1: series did not reach")
        for nbytes in block_bytes(ctx):
            monkeypatch.setattr(matrix_algebra, "SERIES_BLOCK_BYTES", nbytes)
            assert raised(wiener_experiment, sym, 1.0, 1) == msg
        monkeypatch.undo()
    calls = []
    monkeypatch.setattr(matrix_algebra, "SERIES_MAX_TERMS", 3)
    monkeypatch.setattr(matrix_algebra, "dft_axis", lambda a, *args, **kwargs: calls.append(a.shape))
    raised(wiener_experiment, sym, 1.0, 1)
    assert calls == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_wiener_inf_entry_fails_like_the_loop(monkeypatch):
    # inf / inf makes the contraction NaN, which is not >= 1: the loop runs the column's series, every
    # term NaN, and fails; the NaN bound fails it at once
    ctx = TruncationContext(2, 4)
    table = perturbed_d1(ctx).table.copy()
    table[3, 5] = np.inf
    sym = Symbol(ctx, table)
    for max_terms in (50, matrix_algebra.SERIES_MAX_TERMS):
        monkeypatch.setattr(matrix_algebra, "SERIES_MAX_TERMS", max_terms)
        msg = raised(wiener_loop, sym, 1.0, 1)
        assert msg == raised(wiener_experiment, sym, 1.0, 1)
        assert msg.startswith("column u=5: series did not reach")
        for nbytes in block_bytes(ctx):
            monkeypatch.setattr(matrix_algebra, "SERIES_BLOCK_BYTES", nbytes)
            assert raised(wiener_experiment, sym, 1.0, 1) == msg
        monkeypatch.undo()


@pytest.mark.parametrize("low_fault, high_fault", [(slow_column, sign_change), (sign_change, slow_column)])
@pytest.mark.parametrize("u_high", [3, 29])
def test_wiener_lowest_failing_column_wins(monkeypatch, low_fault, high_fault, u_high):
    # at (2,5) with 4 rows per block, columns 1 and 3 share a block and 29 is in another; the sign
    # change is seen before any series runs; the slow column's bound is 262.3, so with 100 terms it
    # fails at once and with 260 it fails in the series, at term 260
    ctx = TruncationContext(2, 5)
    table = perturbed_d1(ctx).table.copy()
    low_fault(table, ctx, 1)
    high_fault(table, ctx, u_high)
    sym = Symbol(ctx, table)
    assert ellipticity_report(sym, 1.0, n_max=1) is not None
    monkeypatch.setattr(matrix_algebra, "SERIES_BLOCK_BYTES", 16 * ctx.N * 4)
    for max_terms in (100, 260):
        monkeypatch.setattr(matrix_algebra, "SERIES_MAX_TERMS", max_terms)
        msg = raised(wiener_loop, sym, 1.0, 1)
        assert msg.startswith("column u=1:") and ("did not reach" in msg) == (low_fault is slow_column)
        assert raised(wiener_experiment, sym, 1.0, 1) == msg


@settings(max_examples=40, deadline=None)
@given(
    pn=st.sampled_from([(p, n) for p in (2, 3, 5, 7) for n in range(1, 5) if p**n <= 125]),
    fraction=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
def test_wiener_chunks_bit_identical_to_column_loop(pn, fraction, seed):
    # D^1 plus a smooth bump of `fraction` times the margin: near 0.95 the shell-1 series runs up to about
    # 1,060 terms; p^n <= 125 keeps the oracle, which runs every column, to well under a second per example
    ctx = TruncationContext(*pn)
    lam = multiplier_table(VladimirovSpec(1.0, ctx.p), ctx)
    margin = float(np.min(lam[ctx.norms >= float(ctx.p)]))
    V = _smooth_bump(ctx, np.random.default_rng(seed), decay=6.0, scale=fraction * margin)
    sym = Symbol(ctx, lam[None, :] + V[:, None])
    for threshold in range(ctx.n + 1):
        assert outcome(wiener_experiment, sym, 1.0, threshold) == outcome(wiener_loop, sym, 1.0, threshold)
