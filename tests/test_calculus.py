"""Quantization round trips, exact composition, adjoints, parametrices."""

import struct
import warnings

import numpy as np
import pytest

from padic_calc.core import TruncationContext, offset_view
from padic_calc.calculus import (
    NotEllipticError,
    _decay_order,
    adjoint_symbol,
    analytic_calculus,
    compose_symbols,
    ellipticity_report,
    parametrix,
    profile_ellipticity,
    quantize,
    symbol_of,
    transpose_symbol,
)
from padic_calc.fourier import LevelFunction, dft_axis, forward, inner_product
from padic_calc.operator_matrix import (
    OperatorMatrix,
    matrix_to_symbol_table,
    radial_profile_to_matrix,
    schur_sums,
    symbol_table_to_matrix,
)
from padic_calc.spectral import variable_coefficient_generator
from padic_calc.symbols import Symbol, vladimirov_symbol
from padic_calc.vladimirov import VladimirovSpec, multiplier_table


def rng():
    return np.random.default_rng(23)


def random_symbol(ctx, gen):
    return Symbol(ctx, gen.normal(size=(ctx.N, ctx.N)) + 1j * gen.normal(size=(ctx.N, ctx.N)))


def random_function(ctx, gen):
    return LevelFunction(ctx, gen.normal(size=ctx.N) + 1j * gen.normal(size=ctx.N))


def character_matrix(ctx):
    """Full ``chi(u x)`` table, rows x, columns u, from the exact root-of-unity table; O(N^2) memory."""
    x = np.arange(ctx.N, dtype=np.int64)
    return ctx.roots[np.outer(x, x) % ctx.N]


def kernel_table(sym):
    """Integral kernel ``K(x, y) = sum_xi sigma(x, xi) chi(xi (x-y))`` by the character table, with no transform.

    The operator acts as ``T f(x) = p^-n sum_y K(x, y) f(y)``.
    """
    chars = character_matrix(sym.ctx)
    return (sym.table * chars) @ chars.conj().T


def test_quantize_trivial_cases():
    ctx = TruncationContext(2, 3)
    gen = rng()
    one = Symbol.multiplier(ctx, np.ones(ctx.N))
    assert np.max(np.abs(quantize(one).entries - np.eye(ctx.N))) < 1e-12
    # multiplier quantization is diagonal in the frequency basis
    vals = gen.normal(size=ctx.N)
    M = quantize(Symbol.multiplier(ctx, vals)).to_basis("frequency").entries
    assert np.max(np.abs(M - np.diag(vals))) < 1e-11
    # x-only symbols act by pointwise multiplication in the sample basis
    g = gen.normal(size=ctx.N)
    sym = Symbol(ctx, np.tile(g[:, None], (1, ctx.N)))
    assert np.max(np.abs(quantize(sym).entries - np.diag(g))) < 1e-11


def test_quantize_agrees_with_spectral_formula():
    ctx = TruncationContext(3, 3)
    gen = rng()
    sym = random_symbol(ctx, gen)
    f = random_function(ctx, gen)
    spectral = np.sum(sym.table * forward(f).coeffs[None, :] * character_matrix(ctx), axis=1)
    applied = quantize(sym).apply(f).values
    assert np.max(np.abs(applied - spectral)) < 1e-11 * max(1.0, np.max(np.abs(spectral)))


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (5, 3), (7, 2), (5, 4), (2, 1), (3, 0)])
def test_quantize_of_a_radial_table_matches_the_transform_route(p, n):
    ctx = TruncationContext(p, n)
    gen = np.random.default_rng(p * 10 + n)
    real = gen.normal(size=(ctx.N, n + 1))
    for profile in (real, real + 1j * gen.normal(size=real.shape)):
        sym = Symbol.radial(ctx, profile)
        got = quantize(sym).entries
        want = symbol_table_to_matrix(sym.table, ctx)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    # the closed form has no transform rounding: a real profile gives an exactly real matrix
    assert not quantize(Symbol.radial(ctx, real)).entries.imag.any()


def test_quantize_of_the_heat_generator_is_exactly_real_at_p_5():
    ctx = TruncationContext(5, 3)
    gen = rng()
    terms = [(1.0 + gen.uniform(0.0, 1.0, ctx.N), 1.0), (1.5 + gen.uniform(0.0, 0.5, ctx.N), 0.5)]
    sym = variable_coefficient_generator(ctx, terms)
    assert not quantize(sym).entries.imag.any()
    # the transform route leaves imaginary rounding on the same kernel
    assert symbol_table_to_matrix(sym.table, ctx).imag.any()


def test_quantize_of_a_non_radial_table_keeps_the_transform_route():
    ctx = TruncationContext(3, 3)
    gen = rng()
    radial = Symbol.radial(ctx, gen.normal(size=(ctx.N, ctx.n + 1)))
    table = radial.table.copy()
    table[4, ctx.shell_index[2] + 3] *= 1.0 + 2.0**-52  # one entry off its shell value
    for sym in (random_symbol(ctx, gen), Symbol(ctx, table)):
        assert sym.shell_profile() is None
        assert np.array_equal(quantize(sym).entries, symbol_table_to_matrix(sym.table, ctx))
    with pytest.raises(ValueError, match="radial profile must have shape"):
        radial_profile_to_matrix(np.zeros((ctx.N, ctx.n)), ctx)


@pytest.mark.parametrize("p,n", [(2, 8), (3, 5)])
def test_matmul_of_exactly_real_matrices_runs_in_real_blas(p, n):
    ctx = TruncationContext(p, n)
    gen = rng()
    A, B = (OperatorMatrix(ctx, gen.normal(size=(ctx.N, ctx.N))) for _ in range(2))
    got = A.matmul(B).entries
    want = A.entries @ B.entries  # complex128 operands: zgemm
    assert got.dtype == np.complex128 and not got.imag.any()
    # within the rounding bound of each dot product
    bound = np.abs(A.entries) @ np.abs(B.entries)
    assert np.all(np.abs(got - want) <= 1e-15 * bound)
    # a complex factor keeps the complex product, bit for bit
    C = OperatorMatrix(ctx, B.entries + 1j * gen.normal(size=(ctx.N, ctx.N)))
    assert np.array_equal(A.matmul(C).entries, A.entries @ C.entries)


def test_symbol_matrix_round_trips():
    ctx = TruncationContext(2, 4)
    gen = rng()
    sym = random_symbol(ctx, gen)
    back = symbol_of(quantize(sym))
    assert np.max(np.abs(back.table - sym.table)) < 1e-11
    A = OperatorMatrix(ctx, gen.normal(size=(ctx.N, ctx.N)) + 1j * gen.normal(size=(ctx.N, ctx.N)))
    again = quantize(symbol_of(A))
    assert np.max(np.abs(again.entries - A.entries)) < 1e-10
    ident = symbol_of(OperatorMatrix.identity(ctx))
    assert np.max(np.abs(ident.table - 1.0)) < 1e-11


def character_symbol_table(entries, ctx):
    """``conj(chi(u x)) (A chi_u)(x)`` by a character table: ``matrix_to_symbol_table``'s old route, kept as its oracle."""
    applied = dft_axis(np.asarray(entries, dtype=np.complex128), ctx, +1, axis=1)
    x = np.arange(ctx.N)
    return applied * ctx.roots[(-np.outer(x, x)) % ctx.N]


@pytest.mark.parametrize("p,n", [(2, 1), (2, 6), (3, 4), (5, 3), (7, 2), (3, 0)])
def test_matrix_to_symbol_table_matches_the_character_route(p, n):
    ctx = TruncationContext(p, n)
    gen = np.random.default_rng(p * 10 + n)
    shape = (ctx.N, ctx.N)
    radial = quantize(Symbol.radial(ctx, gen.normal(size=(ctx.N, n + 1)))).entries
    assert not radial.imag.any()
    for entries in (gen.normal(size=shape) + 1j * gen.normal(size=shape), radial.real):
        want = character_symbol_table(entries, ctx)
        assert np.max(np.abs(matrix_to_symbol_table(entries, ctx) - want)) <= 2e-15 * np.max(np.abs(want))
    with pytest.raises(ValueError, match="matrix"):
        matrix_to_symbol_table(radial[:-1], ctx)
    # quantize -> symbol_of round trip of a random complex table
    table = gen.normal(size=shape) + 1j * gen.normal(size=shape)
    back = symbol_of(quantize(Symbol(ctx, table))).table
    assert np.max(np.abs(back - table)) <= 2e-15 * np.max(np.abs(table))


def test_basis_conversion_round_trip():
    ctx = TruncationContext(3, 3)
    gen = rng()
    A = OperatorMatrix(ctx, gen.normal(size=(ctx.N, ctx.N)) + 1j * gen.normal(size=(ctx.N, ctx.N)))
    back = A.to_basis("frequency").to_basis("sample")
    assert np.max(np.abs(back.entries - A.entries)) < 1e-11
    # frequency-basis application matches sample-basis application
    f = random_function(ctx, gen)
    via_sample = A.apply(f).values
    via_freq = A.to_basis("frequency").apply(forward(f)).coeffs
    assert np.max(np.abs(forward(LevelFunction(ctx, via_sample)).coeffs - via_freq)) < 1e-11


def test_binary_round_trip(tmp_path):
    ctx = TruncationContext(2, 3)
    gen = rng()
    A = OperatorMatrix(ctx, gen.normal(size=(ctx.N, ctx.N)) + 1j * gen.normal(size=(ctx.N, ctx.N)), "frequency")
    path = tmp_path / "op.bin"
    A.save_binary(path)
    B = OperatorMatrix.load_binary(path)
    assert B.basis == "frequency" and B.ctx == ctx
    assert np.max(np.abs(B.entries - A.entries)) == 0.0


@pytest.mark.parametrize("p,n", [(2, 2), (3, 1)])
@pytest.mark.parametrize("basis", ["sample", "frequency"])
def test_binary_layout_is_header_then_interleaved_little_endian_pairs(tmp_path, p, n, basis):
    ctx = TruncationContext(p, n)
    gen = np.random.default_rng(p + n)
    entries = gen.normal(size=(ctx.N, ctx.N)) + 1j * gen.normal(size=(ctx.N, ctx.N))
    expected = b"PADICOP1" + struct.pack("<IIB", p, n, {"sample": 0, "frequency": 1}[basis])
    for z in entries.ravel().tolist():
        expected += struct.pack("<dd", z.real, z.imag)
    path = tmp_path / "op.bin"
    OperatorMatrix(ctx, entries, basis).save_binary(path)
    assert path.read_bytes() == expected
    # a transposed (non-C-contiguous) matrix is still written row by row
    OperatorMatrix(ctx, entries.T, basis).save_binary(path)
    assert path.read_bytes()[17:] == b"".join(struct.pack("<dd", z.real, z.imag) for z in entries.T.ravel().tolist())


def test_binary_round_trip_keeps_signed_zeros_infinities_and_nan(tmp_path):
    ctx = TruncationContext(2, 2)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.5]
    entries = np.array([complex(a, b) for a in specials for b in specials][:16]).reshape(4, 4)
    entries[3] = [complex(-0.0, 1.0), complex(1.0, np.inf), complex(-0.0, -0.0), complex(np.nan, -np.inf)]
    first, second = tmp_path / "first.bin", tmp_path / "second.bin"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        OperatorMatrix(ctx, entries, "frequency").save_binary(first)
        loaded = OperatorMatrix.load_binary(first)
        loaded.save_binary(second)
    assert second.read_bytes() == first.read_bytes()
    assert loaded.basis == "frequency" and loaded.entries.flags.writeable
    got, want = loaded.entries.view(np.float64), entries.view(np.float64)
    assert np.array_equal(np.signbit(got), np.signbit(want)) and np.array_equal(got, want, equal_nan=True)


def test_binary_save_over_a_longer_file_cuts_its_tail(tmp_path):
    path = tmp_path / "op.bin"
    OperatorMatrix.identity(TruncationContext(2, 3)).save_binary(path)
    OperatorMatrix.identity(TruncationContext(2, 1)).save_binary(path)
    assert len(path.read_bytes()) == 17 + 16 * 4
    assert np.array_equal(OperatorMatrix.load_binary(path).entries, np.eye(2))


@pytest.mark.parametrize("p,n", [(2, 1), (2, 6), (3, 4), (5, 3), (7, 2), (3, 0)])
def test_offset_view_is_a_read_only_view_equal_to_the_index_table(p, n):
    ctx = TruncationContext(p, n)
    x = np.arange(ctx.N)
    diff = (x[:, None] - x[None, :]) % ctx.N
    gen = np.random.default_rng(p * 10 + n)
    v = gen.normal(size=ctx.N) + 1j * gen.normal(size=ctx.N)
    # v(-k) != v(k) once N > 2, so a view that reads v[(y - x) mod N] fails
    assert ctx.N <= 2 or not np.array_equal(v, v[(-x) % ctx.N])
    view = offset_view(v)
    assert np.array_equal(view, v[diff])
    assert np.array_equal(offset_view(x), diff)
    assert not view.flags.writeable and view.base is not None
    # a sub-block on the sub-dual, as schur_sums weighs one, equals the index form on that block
    sub = np.flatnonzero(ctx.shells <= max(n - 1, 0))
    block = (sub[:, None] - sub[None, :]) % ctx.N
    assert np.array_equal(view[np.ix_(sub, sub)], v[block])
    assert np.array_equal(offset_view(ctx.shells)[np.ix_(sub, sub)], ctx.shells[block])


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda raw: raw[:12], "header truncated"),
        (lambda raw: raw[:16] + bytes([7]) + raw[17:], "unknown basis tag 7"),
        (lambda raw: raw[:-8], "does not hold"),
        # a huge level is rejected before p^n is ever formed
        (lambda raw: raw[:12] + (2**32 - 1).to_bytes(4, "little") + raw[16:], "does not hold"),
    ],
    ids=["short-header", "unknown-tag", "truncated-payload", "huge-level"],
)
def test_binary_load_rejects_malformed_files(tmp_path, corrupt, message):
    path = tmp_path / "op.bin"
    OperatorMatrix.identity(TruncationContext(2, 2)).save_binary(path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ValueError, match=message):
        OperatorMatrix.load_binary(path)


def test_compose_identity_and_multipliers():
    ctx = TruncationContext(2, 4)
    gen = rng()
    sym = random_symbol(ctx, gen)
    one = Symbol.multiplier(ctx, np.ones(ctx.N))
    out = compose_symbols(one, sym)
    assert np.max(np.abs(out.table - sym.table)) < 1e-11
    a, b = gen.normal(size=ctx.N), gen.normal(size=ctx.N)
    out = compose_symbols(Symbol.multiplier(ctx, a), Symbol.multiplier(ctx, b))
    assert np.max(np.abs(out.table - (a * b)[None, :])) < 1e-11


def eta_sum_composition(s1, s2):
    """``sum_eta sigma1(x, xi+eta) sighat2(eta, xi) chi(eta x)``, term by term.

    The x-spectrum of sigma2 comes from the character table, not from the
    library transform, so this route shares no code with compose_symbols.
    """
    ctx = s1.ctx
    N = ctx.N
    chars = character_matrix(ctx)  # [x, eta]
    sighat2 = np.conj(chars).T @ s2.table / N  # [eta, xi]
    cols = np.arange(N)
    out = np.zeros((N, N), dtype=complex)
    for eta in range(N):
        out += s1.table[:, (cols + eta) % N] * sighat2[eta][None, :] * chars[:, eta][:, None]
    return out


@pytest.mark.parametrize("p,n,trials", [(2, 5, 10), (3, 3, 10), (5, 2, 10)])
def test_compose_matches_matrix_product(p, n, trials):
    ctx = TruncationContext(p, n)
    gen = rng()
    for _ in range(trials):
        s1, s2 = random_symbol(ctx, gen), random_symbol(ctx, gen)
        composed = compose_symbols(s1, s2)
        left = quantize(composed).entries
        right = quantize(s1).entries @ quantize(s2).entries
        assert np.max(np.abs(left - right)) < 1e-10
        assert np.max(np.abs(composed.table - eta_sum_composition(s1, s2))) < 1e-10


def test_adjoint_symbol():
    ctx = TruncationContext(2, 4)
    gen = rng()
    # real multipliers are self-adjoint
    vals = gen.normal(size=ctx.N)
    sym = Symbol.multiplier(ctx, vals)
    adj = adjoint_symbol(sym)
    assert np.max(np.abs(adj.table - sym.table)) < 1e-10
    # <T f, g> = <f, T* g> on random data
    sym = random_symbol(ctx, gen)
    adj = adjoint_symbol(sym)
    f, g = random_function(ctx, gen), random_function(ctx, gen)
    lhs = inner_product(quantize(sym).apply(f), g)
    rhs = inner_product(f, quantize(adj).apply(g))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
    # matrix-level consistency
    assert np.max(np.abs(quantize(adj).entries - quantize(sym).adjoint().entries)) < 1e-10


def test_transpose_symbol():
    ctx = TruncationContext(2, 4)
    gen = rng()
    one = Symbol.multiplier(ctx, np.ones(ctx.N))
    assert np.max(np.abs(transpose_symbol(one).table - 1.0)) < 1e-10
    # bilinear pairing sum(v * T^t u) = sum(u * T v), Haar-weighted
    sym = random_symbol(ctx, gen)
    tr = transpose_symbol(sym)
    u, v = random_function(ctx, gen), random_function(ctx, gen)
    lhs = np.mean(v.values * quantize(tr).apply(u).values)
    rhs = np.mean(u.values * quantize(sym).apply(v).values)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
    # radial multipliers transpose to themselves (|-xi| = |xi|)
    rad = vladimirov_symbol(VladimirovSpec(1.0, 2), ctx)
    tr = transpose_symbol(rad)
    assert np.max(np.abs(quantize(tr).entries - quantize(rad).entries)) < 1e-10


def test_kernel_reproduces_operator_for_band_limited_symbols():
    # finite-rank smoothing check: symbol supported on norm(xi) <= p
    ctx = TruncationContext(2, 4)
    gen = rng()
    table = np.zeros((ctx.N, ctx.N), dtype=complex)
    low = ctx.norms <= ctx.p
    table[:, low] = gen.normal(size=(ctx.N, int(low.sum())))
    sym = Symbol(ctx, table)
    K = kernel_table(sym)
    f = random_function(ctx, gen)
    via_kernel = (K @ f.values) / ctx.N  # direct kernel integration
    via_op = quantize(sym).apply(f).values
    assert np.max(np.abs(via_kernel - via_op)) < 1e-11 * max(1.0, np.max(np.abs(via_op)))


def test_ellipticity_report_cases():
    ctx = TruncationContext(2, 5)
    spec = VladimirovSpec(1.0, 2)
    sym = vladimirov_symbol(spec, ctx)
    rep = ellipticity_report(sym, order=1.0)
    assert rep is not None
    assert rep.threshold == 1
    assert rep.constant == pytest.approx(1.0 - spec.additive_constant / 2.0, rel=1e-12)
    assert ellipticity_report(Symbol.multiplier(ctx, np.zeros(ctx.N)), 0.0) is None
    # weight multiplier is elliptic from the zero mode on
    jm = Symbol.multiplier(ctx, ctx.weights)
    rep = ellipticity_report(jm, 1.0)
    assert rep.threshold == 0 and rep.constant == pytest.approx(1.0)


@pytest.mark.parametrize("p,n", [(2, 0), (2, 7), (3, 4), (5, 3), (7, 2)])
def test_ellipticity_shell_mins_equal_the_masked_scans(p, n):
    ctx = TruncationContext(p, n)
    gen = np.random.default_rng(10 * p + n)
    lam = multiplier_table(VladimirovSpec(1.0, p), ctx)
    tables = [
        gen.normal(size=(ctx.N, ctx.N)) + 1j * gen.normal(size=(ctx.N, ctx.N)),
        lam[None, :] + 0.1 * gen.normal(size=ctx.N)[:, None],
        np.tile(lam + 1j, (ctx.N, 1)),
    ]
    for table in tables:
        for order in (0.0, 1.0, -0.5):
            rep = ellipticity_report(Symbol(ctx, table), order)
            ratios = np.abs(table) / np.power(ctx.weights, order)[None, :]
            want = np.array([float(ratios[:, ctx.shells == j].min()) for j in range(n + 1)])
            assert rep is not None and np.array_equal(rep.shell_mins, want)
            # a radial table's minima read off its n+1 profile columns are the same floats
            profile = Symbol(ctx, table).shell_profile()
            assert profile is not None or table is tables[0]
            if profile is not None:
                radial = profile_ellipticity(profile, ctx, order)
                assert (radial.threshold, radial.constant) == (rep.threshold, rep.constant)
                assert np.array_equal(radial.shell_mins, want)


def test_parametrix_multiplier_cut_modes_only():
    ctx = TruncationContext(2, 5)
    sym = Symbol.multiplier(ctx, ctx.weights**1.5)
    rep = parametrix(sym, order=1.5, threshold=1)
    # residual is exactly the negated projector on the cut modes
    for side in ("left", "right"):
        assert rep.cut_block_norms[side] == pytest.approx(1.0, abs=1e-9)
        for r in rep.r_values:
            assert max(rep.residual_norms[side][r]) == pytest.approx(1.0, abs=1e-9)
        # high-mode block is pure rounding; the r-weights amplify it by
        # up to <offset>^r ~ p^(n r), hence the graded tolerance
        assert rep.tail_norms[side][0, 0] < 1e-11
        assert np.max(rep.tail_norms[side]) < 1e-6
    # tau inverts the symbol above the cut
    high = ctx.norms >= 2.0
    assert np.max(np.abs(rep.tau.table[:, high] * sym.table[:, high] - 1.0)) < 1e-12
    assert np.max(np.abs(rep.tau.table[:, ~high])) == 0.0


def test_parametrix_requires_ellipticity():
    ctx = TruncationContext(2, 4)
    with pytest.raises(NotEllipticError):
        parametrix(Symbol.multiplier(ctx, np.zeros(ctx.N)), order=0.0, threshold=1)


def test_parametrix_perturbed_vladimirov_residual_small():
    # sigma = D^1 + eps g(x) with g band-limited to norm <= 2: above that
    # band the cutoff reciprocal inverts exactly (ultrametric rigidity),
    # so the residual tail collapses once the cutoff clears the band.
    ctx = TruncationContext(2, 5)
    spec = VladimirovSpec(1.0, 2)
    lam = multiplier_table(spec, ctx, "integral")
    eps = 0.05
    g = eps * ctx.character_column(ctx.N // 2).real  # spectrum at norm 2
    sym = Symbol(ctx, lam[None, :] + g[:, None])
    rep = parametrix(sym, order=1.0, threshold=1)
    for side in ("left", "right"):
        assert rep.cut_block_norms[side] > 0.5  # the cut projector dominates
        assert rep.tail_norms[side][0, 0] < 3 * eps  # norm-2 shell feels g
        assert rep.tail_norms[side][0, 1] < 1e-10  # exact beyond the band


def test_analytic_calculus_exact_cases():
    ctx = TruncationContext(2, 4)
    gen = rng()
    sym = random_symbol(ctx, gen)
    out, rep = analytic_calculus(sym, "power", exponent=1)
    assert np.max(np.abs(out.table - sym.table)) == 0.0
    assert rep.max_defect() < 1e-10
    # diagonal calculus is exact for multipliers
    mult = Symbol.multiplier(ctx, gen.normal(size=ctx.N))
    out, rep = analytic_calculus(mult, "power", exponent=2)
    assert rep.max_defect() < 1e-9
    out, rep = analytic_calculus(mult, "exponential", scale=-0.5)
    assert rep.max_defect() < 1e-9


def test_analytic_calculus_square_matches_matrix_square():
    ctx = TruncationContext(2, 3)
    gen = rng()
    spec = VladimirovSpec(1.0, 2)
    lam = multiplier_table(spec, ctx, "integral")
    g = gen.normal(size=ctx.N)
    sym = Symbol(ctx, lam[None, :] + g[:, None])
    fsym, rep = analytic_calculus(sym, "power", exponent=2, r_values=(0,))
    A = quantize(sym).entries
    defect = quantize(fsym).entries - A @ A
    Dfreq = OperatorMatrix(ctx, defect, "sample").to_basis("frequency").entries
    from padic_calc.operator_matrix import schur_sums

    expect = schur_sums(Dfreq, ctx, 0.0)
    assert rep.defect_norms[0] == pytest.approx(expect, rel=1e-9, abs=1e-12)


def test_analytic_calculus_reciprocal_guard():
    ctx = TruncationContext(2, 3)
    sym = Symbol.multiplier(ctx, np.linspace(0.0, 1.0, ctx.N))
    with pytest.raises(ValueError):
        analytic_calculus(sym, "reciprocal_shift", shift=0.0)
    shifted, rep = analytic_calculus(sym, "reciprocal_shift", shift=-3.0)
    assert np.max(np.abs(shifted.table * (sym.table + 3.0) - 1.0)) < 1e-12
    with pytest.raises(ValueError):
        analytic_calculus(sym, "mystery")


def test_parametrix_near_identity_quadratic_residual():
    # sigma = 1 + eps g(x): the right residual vanishes above the cut and
    # the left one scales like eps^2 (second-order Neumann comparison)
    ctx = TruncationContext(2, 5)
    coeffs = np.zeros(ctx.N, dtype=complex)
    for u in range(1, ctx.N):
        j = ctx.n - int(ctx.valuations[u])
        coeffs[u] = 2.0 ** (-3.0 * j)
    from padic_calc.fourier import dft

    g = dft(coeffs, ctx, +1).real
    g = g / np.max(np.abs(g))
    tails = {}
    for eps in (0.1, 0.05):
        sym = Symbol(ctx, np.ones((ctx.N, ctx.N)) + eps * g[:, None])
        rep = parametrix(sym, order=0.0, threshold=1)
        assert rep.tail_norms["right"][0, 0] < 1e-12
        assert rep.cut_block_norms["left"] == pytest.approx(1.0, abs=3 * eps)
        tails[eps] = rep.tail_norms["left"][0, 0]
    ratio = tails[0.1] / tails[0.05]
    assert ratio == pytest.approx(4.0, rel=0.2)


def schur_sums_direct(entries, ctx, r, m=0.0, row_idx=None, col_idx=None):
    """The N-entry weight expression ``schur_sums`` used before its shell powers, kept as its oracle."""
    rows = np.arange(ctx.N) if row_idx is None else np.asarray(row_idx)
    cols = np.arange(ctx.N) if col_idx is None else np.asarray(col_idx)
    if rows.size == 0 or cols.size == 0:
        return 0.0, 0.0
    block = np.abs(entries[np.ix_(rows, cols)])
    offs = (rows[:, None] - cols[None, :]) % ctx.N
    weighted = block * np.power(ctx.weights[offs], r)
    row_sup = float(np.max(weighted.sum(axis=0) * np.power(ctx.weights[cols], -m)))
    col_sup = float(np.max(weighted.sum(axis=1) * np.power(ctx.weights[rows], -m)))
    return row_sup, col_sup


def parametrix_schur_loop(sym, rep):
    """The per-call Schur loop ``parametrix`` ran before it shared |R| across blocks, kept as its oracle."""
    ctx = sym.ctx
    A = quantize(sym).to_basis("frequency").entries
    B = quantize(rep.tau).to_basis("frequency").entries
    eye = np.eye(ctx.N)
    high = ctx.norms >= float(ctx.p) ** rep.threshold
    low_idx = np.flatnonzero(~high)
    residual_norms, tail_norms, cut_block = {}, {}, {}
    for side, R in {"left": B @ A - eye, "right": A @ B - eye}.items():
        residual_norms[side] = {r: schur_sums_direct(R, ctx, r) for r in rep.r_values}
        grid = np.zeros((len(rep.r_values), len(rep.tail_cutoffs)))
        for ci, ell_cut in enumerate(rep.tail_cutoffs):
            sel = np.flatnonzero(ctx.norms >= float(ctx.p) ** ell_cut)
            for ri, r in enumerate(rep.r_values):
                grid[ri, ci] = max(schur_sums_direct(R, ctx, r, row_idx=sel, col_idx=sel))
        tail_norms[side] = grid
        cut_block[side] = max(schur_sums_direct(R, ctx, 0.0, row_idx=low_idx, col_idx=low_idx))
    return residual_norms, tail_norms, cut_block


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (5, 3), (7, 2), (2, 8)])
def test_parametrix_schur_norms_bit_identical_to_per_call_loop(p, n):
    ctx = TruncationContext(p, n)
    gen = np.random.default_rng(p * 10 + n)
    lam = multiplier_table(VladimirovSpec(1.1, p), ctx)
    sym = Symbol(ctx, lam[None, :] + 1.0 + 0.2 * gen.normal(size=ctx.N)[:, None])
    cases = [(1, (0, 1, 2, 3, 4)), (1, (0, 0.5, 3.7)), (n, (0, 1, 2, 3, 4))]
    if (p, n) == (2, 8):  # the dense-calculus benchmark's own parametrix call
        cases = [(1, (0, 1, 2))]
    for threshold, r_values in cases:
        rep = parametrix(sym, order=1.1, threshold=threshold, r_values=r_values)
        if threshold == n:
            assert rep.tail_cutoffs == ()
        residual_norms, tail_norms, cut_block = parametrix_schur_loop(sym, rep)
        assert rep.cut_block_norms == cut_block
        for side in ("left", "right"):
            assert list(rep.residual_norms[side]) == list(r_values)
            for r in r_values:
                assert np.array_equal(rep.residual_norms[side][r], residual_norms[side][r])
            assert rep.tail_norms[side].shape == tail_norms[side].shape
            assert np.array_equal(rep.tail_norms[side], tail_norms[side])
            fitted = [
                _decay_order(rep.tail_cutoffs, tail_norms[side][ri], p) if len(rep.tail_cutoffs) >= 2 else np.nan
                for ri in range(len(r_values))
            ]
            assert np.array_equal(list(rep.fitted_orders[side].values()), fitted, equal_nan=True)


@pytest.mark.parametrize("p,n", [(2, 5), (3, 3), (5, 2), (7, 2)])
def test_schur_sums_shell_powers_equal_the_n_entry_weights(p, n):
    ctx = TruncationContext(p, n)
    gen = np.random.default_rng(p + n)
    M = gen.normal(size=(ctx.N, ctx.N)) + 1j * gen.normal(size=(ctx.N, ctx.N))
    high = np.flatnonzero(ctx.norms >= p)
    top = np.flatnonzero(ctx.norms >= float(p) ** n)
    blocks = [(None, None), (high, high), (high, top), (top, np.arange(ctx.N)), (high[:0], high)]
    for r in (0, 0.5, 1, 2, 3.7):
        for m in (0, 1, -0.5):
            for rows, cols in blocks:
                got = schur_sums(M, ctx, r, m, row_idx=rows, col_idx=cols)
                assert got == schur_sums_direct(M, ctx, r, m, row_idx=rows, col_idx=cols)


@pytest.mark.parametrize("p,n", [(2, 6), (3, 3), (5, 2)])
def test_schur_sums_full_range_equals_the_index_form_in_any_memory_order(p, n):
    ctx = TruncationContext(p, n)
    gen = np.random.default_rng(p * n)
    M = gen.normal(size=(ctx.N, ctx.N)) + 1j * gen.normal(size=(ctx.N, ctx.N))
    every = np.arange(ctx.N)
    wide = np.concatenate((M, M), axis=1)
    for entries in (M, M.T, np.asfortranarray(M), wide[:, ::2], M.real):
        for r, m in ((0, 0), (1.5, 1), (3, -0.5)):
            got = schur_sums(entries, ctx, r, m)
            assert got == schur_sums(entries, ctx, r, m, row_idx=every, col_idx=every)
