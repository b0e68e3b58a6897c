"""Associated matrices, Schur norms, equivalence identity, inversion series."""

import dataclasses

import numpy as np
import pytest

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
    schur_norm,
    wiener_experiment,
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
    columns = []
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
        columns.append(
            WienerColumn(
                u=int(u),
                norm=float(ctx.norms[u]),
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
    return WienerReport(threshold=threshold, order=order, columns=columns, jr_constants=jr_sup)


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
    ctx = TruncationContext(2, 6)
    sym = perturbed_d1(ctx)
    monkeypatch.setattr(matrix_algebra, "SERIES_MAX_TERMS", 3)
    msg = raised(wiener_loop, sym, 1.0, 1)
    assert msg == raised(wiener_experiment, sym, 1.0, 1)
    assert "did not reach" in msg
    for nbytes in block_bytes(ctx):
        monkeypatch.setattr(matrix_algebra, "SERIES_BLOCK_BYTES", nbytes)
        assert raised(wiener_experiment, sym, 1.0, 1) == msg


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_wiener_inf_entry_fails_like_the_loop(monkeypatch):
    # inf / inf makes the contraction NaN, which is not >= 1: the column runs its series and fails
    ctx = TruncationContext(2, 4)
    table = perturbed_d1(ctx).table.copy()
    table[3, 5] = np.inf
    sym = Symbol(ctx, table)
    monkeypatch.setattr(matrix_algebra, "SERIES_MAX_TERMS", 50)
    msg = raised(wiener_loop, sym, 1.0, 1)
    assert msg == raised(wiener_experiment, sym, 1.0, 1)
    assert msg.startswith("column u=5: series did not reach")


@pytest.mark.parametrize("low_fault, high_fault", [(slow_column, sign_change), (sign_change, slow_column)])
@pytest.mark.parametrize("u_high", [3, 29])
def test_wiener_lowest_failing_column_wins(monkeypatch, low_fault, high_fault, u_high):
    # at (2,5) with 4 rows per block, columns 1 and 3 share a block and 29 is in another;
    # the slow column fails in the series, after the sign change was already seen
    ctx = TruncationContext(2, 5)
    table = perturbed_d1(ctx).table.copy()
    low_fault(table, ctx, 1)
    high_fault(table, ctx, u_high)
    sym = Symbol(ctx, table)
    assert ellipticity_report(sym, 1.0, n_max=1) is not None
    monkeypatch.setattr(matrix_algebra, "SERIES_MAX_TERMS", 100)
    monkeypatch.setattr(matrix_algebra, "SERIES_BLOCK_BYTES", 16 * ctx.N * 4)
    msg = raised(wiener_loop, sym, 1.0, 1)
    assert msg.startswith("column u=1:") and ("did not reach" in msg) == (low_fault is slow_column)
    assert raised(wiener_experiment, sym, 1.0, 1) == msg
