"""Sobolev machinery, eigenvalue counting, heat evolution."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_calc.core import ConsistencyError, ResourceCapError, TruncationContext
from padic_calc.calculus import NotEllipticError, quantize
from padic_calc.fourier import LevelFunction, forward, l2_norm
from padic_calc.operator_matrix import OperatorMatrix
from padic_calc.spectral import (
    EIGEN_RESIDUAL_TOL,
    SobolevScale,
    counting_function,
    eigen,
    embedding_check,
    heat_evolve,
    norm_equivalence_check,
    op_norm_sobolev,
    op_norm_sobolev_multiplier,
    shell_counts,
    sobolev_norm,
    variable_coefficient_generator,
    weyl_slope_fit,
)
from padic_calc.symbols import Symbol, seminorm, vladimirov_symbol
from padic_calc.vladimirov import FORMULA_TAGS, VladimirovSpec, multiplier_table, shell_eigenvalues


def rng():
    return np.random.default_rng(41)


def random_function(ctx, gen):
    return LevelFunction(ctx, gen.normal(size=ctx.N) + 1j * gen.normal(size=ctx.N))


def test_sobolev_norm_basics():
    ctx = TruncationContext(2, 5)
    ones = LevelFunction(ctx, np.ones(ctx.N))
    for s in (-2.0, 0.0, 1.0, 3.5):
        assert sobolev_norm(ones, s) == pytest.approx(1.0)
    # single character of norm p^m has H^s norm p^(m s)
    u = 4  # norm 8 at (2,5)
    ch = LevelFunction(ctx, ctx.character_column(u))
    assert sobolev_norm(ch, 2.0) == pytest.approx(64.0, rel=1e-12)
    gen = rng()
    f = random_function(ctx, gen)
    assert sobolev_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-12)
    # monotone in s on every input
    assert sobolev_norm(f, 0.5) <= sobolev_norm(f, 1.5)


def test_embedding_constant_closed_form():
    ctx = TruncationContext(2, 8)
    c, level, tail = SobolevScale(1.0).embedding_constant(ctx)
    assert c == pytest.approx(np.sqrt(1.5), abs=1e-10)
    # at level 8 the documented split: level part + geometric tail
    assert level + tail == pytest.approx(1.5, abs=1e-12)
    assert tail > 0
    with pytest.raises(ValueError):
        SobolevScale(0.5).embedding_constant(ctx)
    # monotone decreasing in s
    c2, _, _ = SobolevScale(2.0).embedding_constant(ctx)
    assert c2 < c


def test_embedding_check_never_violated():
    ctx = TruncationContext(2, 8)
    gen = rng()
    for _ in range(200):
        f = random_function(ctx, gen)
        rep = embedding_check(f, 1.0)
        assert rep.passed and rep.ratio <= 1.0 + 1e-12
    ch = embedding_check(LevelFunction(ctx, ctx.character_column(3)), 1.0)
    assert ch.ratio <= 1.0


def test_op_norm_sobolev_identities():
    ctx = TruncationContext(2, 5)
    eye = OperatorMatrix.identity(ctx)
    for s in (-1.0, 0.0, 2.0):
        assert op_norm_sobolev(eye, s, 0.0) == pytest.approx(1.0, rel=1e-10)
    # J_m has norm exactly 1 from H^(s+m) to H^s
    jm = quantize(Symbol.multiplier(ctx, ctx.weights**1.5))
    for s in (-1.0, 0.0, 2.0):
        assert op_norm_sobolev(jm, s, 1.5) == pytest.approx(1.0, rel=1e-9)


def op_norm_frequency_route(A, s, m):
    """The frequency-basis expression of ``op_norm_sobolev``, kept as its oracle."""
    M = A.entries if A.basis == "frequency" else A.to_basis("frequency").entries
    w = A.ctx.weights
    return float(np.linalg.norm(np.power(w, s)[:, None] * M * np.power(w, -(s + m))[None, :], 2))


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (5, 3), (7, 2), (2, 1)])
def test_op_norm_sobolev_of_a_real_sample_matrix_is_a_real_svd(p, n, monkeypatch):
    ctx = TruncationContext(p, n)
    gen = np.random.default_rng(p * 10 + n)
    A = OperatorMatrix(ctx, gen.normal(size=(ctx.N, ctx.N)))
    C = OperatorMatrix(ctx, A.entries + 1j * gen.normal(size=(ctx.N, ctx.N)))
    inputs = (C, A.to_basis("frequency"), C.to_basis("frequency"))
    norm = np.linalg.norm
    seen = []
    monkeypatch.setattr(np.linalg, "norm", lambda a, *args: seen.append(a.dtype) or norm(a, *args))
    for s, m in [(0.0, 0.0), (1.0, 0.5), (-1.0, 2.0), (2.5, -1.0)]:
        seen.clear()
        assert op_norm_sobolev(A, s, m) == pytest.approx(op_norm_frequency_route(A, s, m), rel=1e-13, abs=0.0)
        assert seen[0] == np.float64
        # complex and frequency-basis inputs keep the frequency-basis route, bit for bit
        for B in inputs:
            seen.clear()
            assert op_norm_sobolev(B, s, m) == op_norm_frequency_route(B, s, m)
            assert seen[0] == np.complex128


def test_op_norm_level_stability_for_vladimirov():
    vals = {}
    for n in (5, 6):
        ctx = TruncationContext(2, n)
        A = quantize(vladimirov_symbol(VladimirovSpec(1.0, 2), ctx))
        vals[n] = op_norm_sobolev(A, 0.0, 1.0)
    assert abs(vals[5] - vals[6]) / vals[6] < 0.05


@pytest.mark.parametrize("p,n", [(2, 6), (2, 8), (3, 4), (5, 3)])
def test_op_norm_multiplier_closed_form_matches_dense_svd(p, n):
    ctx = TruncationContext(p, n)
    for s in (0.5, 1.0, 2.0):
        spec = VladimirovSpec(s, p)
        lam = shell_eigenvalues(spec, ctx)
        A = quantize(vladimirov_symbol(spec, ctx))
        for t in (-1.0, 0.0, 2.0):
            assert op_norm_sobolev_multiplier(lam, ctx, t, s) == pytest.approx(op_norm_sobolev(A, t, s), rel=1e-10)


def test_op_norm_multiplier_complex_eigenvalues_and_length_check():
    ctx = TruncationContext(3, 3)
    gen = rng()
    lam = (gen.normal(size=ctx.n + 1) + 1j * gen.normal(size=ctx.n + 1)) * ctx.shell_weights**1.5
    A = quantize(Symbol.multiplier(ctx, lam[ctx.shells]))
    for t in (-1.0, 0.0, 2.0):
        assert op_norm_sobolev_multiplier(lam, ctx, t, 1.5) == pytest.approx(op_norm_sobolev(A, t, 1.5), rel=1e-10)
    with pytest.raises(ValueError):
        op_norm_sobolev_multiplier(np.ones(7), TruncationContext(2, 3), 0.0, 1.0)


def n_entry_op_norm(lam, ctx, t, m):
    """The N-entry route: the largest modulus of ``<xi>^t lam <xi>^-(t+m)`` over every dual index."""
    w = ctx.shell_weights
    return float(np.max(np.power(w, t)[ctx.shells] * np.abs(lam) * np.power(w, -(t + m))[ctx.shells]))


def test_op_norm_multiplier_shell_powers_equal_full_powers():
    # the norm is taken on the n+1 shells; the result must be the very float the
    # N-entry expression gave, at both levels sobolev-bound uses, and also for
    # complex shell eigenvalues
    gen = rng()
    for p, n in ((2, 7), (3, 4), (2, 20), (5, 3), (7, 0)):
        for ctx in (TruncationContext(p, n), TruncationContext(p, n + 1)):
            noise = gen.normal(size=ctx.n + 1) + 1j * gen.normal(size=ctx.n + 1)
            for prof in (shell_eigenvalues(VladimirovSpec(1.0, p), ctx), noise * ctx.shell_weights**1.5):
                for t, m in ((-1.0, 1.0), (0.0, 1.0), (2.0, 1.0), (0.3, -0.7)):
                    full = n_entry_op_norm(prof[ctx.shells], ctx, t, m)
                    assert op_norm_sobolev_multiplier(prof, ctx, t, m) == full


def array_jumps(lam):
    """``(ts, counts)`` of an eigenvalue array: its distinct moduli and the counting function there."""
    ts = np.unique(np.abs(lam))
    return ts, counting_function(lam, ts)


@st.composite
def shell_levels(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    n = draw(st.integers(0, min(12, int(np.log(4096) / np.log(p)))))
    return TruncationContext(p, n)


@settings(max_examples=80, deadline=None)
@given(
    ctx=shell_levels(),
    s=st.floats(0.05, 3.0),
    tag=st.sampled_from(FORMULA_TAGS),
    t=st.floats(-2.0, 2.0),
)
def test_shell_route_equals_the_n_entry_route_bit_for_bit(ctx, s, tag, t):
    spec = VladimirovSpec(s, ctx.p)
    prof = shell_eigenvalues(spec, ctx, tag)
    lam = multiplier_table(spec, ctx, tag)
    ts, counts = shell_counts(prof, ctx)
    want_ts, want_counts = array_jumps(lam)
    assert ts.tobytes() == want_ts.tobytes()
    assert counts.tolist() == want_counts.tolist()
    for level in (ctx, TruncationContext(ctx.p, ctx.n + 1)):
        fine = shell_eigenvalues(spec, level, tag)
        assert op_norm_sobolev_multiplier(fine, level, t, s) == n_entry_op_norm(fine[level.shells], level, t, s)
    t_min, t_max = float(ctx.p) ** s, float(ctx.p) ** ((ctx.n - 1) * s)
    if np.count_nonzero((ts >= t_min) & (ts <= t_max) & (ts > 0)) >= 3:
        assert weyl_slope_fit(ts, counts, t_min, t_max) == weyl_slope_fit(want_ts, want_counts, t_min, t_max)


@settings(max_examples=80, deadline=None)
@given(ctx=shell_levels(), data=st.data())
def test_shell_counts_merge_shells_of_equal_modulus(ctx, data):
    # moduli drawn from a few values, so shells tie, and out of order
    vals = st.sampled_from([0.0, 1.0, -1.0, 2.5, 1j, -2.5j, 7.0])
    prof = np.array(data.draw(st.lists(vals, min_size=ctx.n + 1, max_size=ctx.n + 1)), dtype=np.complex128)
    ts, counts = shell_counts(prof, ctx)
    want_ts, want_counts = array_jumps(prof[ctx.shells])
    assert ts.tobytes() == want_ts.tobytes()
    assert counts.tolist() == want_counts.tolist()
    assert counts.dtype == np.int64 and counts[-1] == ctx.N
    with pytest.raises(ValueError, match="shell eigenvalues"):
        shell_counts(np.append(prof, 0.0), ctx)


def test_norm_equivalence_for_multiplier():
    ctx = TruncationContext(2, 5)
    sym = Symbol.multiplier(ctx, ctx.weights**1.0)
    rep = norm_equivalence_check(sym, s=0.0, order_upper=1.0, order_lower=1.0, threshold=0, trials=32, rng=rng())
    # J_1: ||J_1 f|| + ||f|| sits between ||f||_{H^1} and 2 ||f||_{H^1}
    assert rep.best_c >= 1.0 - 1e-9
    assert rep.best_d <= 2.0 + 1e-9
    with pytest.raises(NotEllipticError):
        norm_equivalence_check(Symbol.multiplier(ctx, np.zeros(ctx.N)), 0.0, 1.0, 1.0)


def test_norm_equivalence_vladimirov_level_stable():
    reps = {}
    for n in (5, 6):
        ctx = TruncationContext(2, n)
        sym = vladimirov_symbol(VladimirovSpec(1.0, 2), ctx)
        reps[n] = norm_equivalence_check(sym, s=0.0, order_upper=1.0, order_lower=1.0, threshold=1, trials=48, rng=rng())
    for rep in reps.values():
        assert 0 < rep.best_c <= rep.best_d < np.inf
    assert reps[5].best_d == pytest.approx(reps[6].best_d, rel=0.25)


def test_eigen_of_multiplier_and_sample_diagonal():
    ctx = TruncationContext(2, 4)
    gen = rng()
    vals = np.abs(gen.normal(size=ctx.N)) + 0.5
    dec = eigen(quantize(Symbol.multiplier(ctx, vals)))
    assert np.max(np.abs(np.sort(np.abs(dec.values)) - np.sort(vals))) < 1e-9
    g = gen.normal(size=ctx.N)
    dec = eigen(OperatorMatrix(ctx, np.diag(g).astype(complex)))
    assert np.max(np.abs(np.sort(np.abs(dec.values)) - np.sort(np.abs(g)))) < 1e-12
    with pytest.raises(ResourceCapError):
        eigen(OperatorMatrix.identity(ctx), cap=8)


def test_eigen_of_an_exactly_real_matrix_takes_the_real_solve(monkeypatch):
    ctx = TruncationContext(2, 6)
    gen = rng()
    terms = [(1.0 + gen.uniform(0.0, 1.0, ctx.N), 1.0), (1.5 + gen.uniform(0.0, 0.5, ctx.N), 0.5)]
    A = quantize(variable_coefficient_generator(ctx, terms))
    assert not A.entries.imag.any()
    solve = np.linalg.eig
    seen = []
    monkeypatch.setattr(np.linalg, "eig", lambda a: seen.append(a.dtype) or solve(a))
    dec = eigen(A)
    assert seen == [np.float64]
    assert dec.values.dtype == np.complex128 and dec.vectors.dtype == np.complex128
    assert dec.max_residual <= EIGEN_RESIDUAL_TOL * dec.operator_norm
    want = np.sort(np.abs(solve(A.entries)[0]))
    assert np.max(np.abs(np.abs(dec.values) - want)) <= 1e-12 * want[-1]
    assert dec.operator_norm == pytest.approx(np.linalg.norm(A.entries, 2), rel=1e-12)
    # one nonzero imaginary entry, however small, keeps the complex solve
    entries = A.entries.copy()
    entries[0, 1] += 1e-300j
    eigen(OperatorMatrix(ctx, entries))
    assert seen == [np.float64, np.complex128]


def test_eigen_certifies_against_the_spectral_radius_without_an_svd():
    ctx = TruncationContext(2, 6)
    gen = rng()
    terms = [(1.0 + gen.uniform(0.0, 1.0, ctx.N), 1.0), (1.5 + gen.uniform(0.0, 0.5, ctx.N), 0.5)]
    A = quantize(variable_coefficient_generator(ctx, terms))
    dec = eigen(A)
    assert "operator_norm" not in vars(dec)
    assert dec.max_residual <= EIGEN_RESIDUAL_TOL * np.max(np.abs(dec.values))
    assert dec.operator_norm == pytest.approx(np.linalg.norm(A.entries, 2), rel=1e-12)
    assert "operator_norm" in vars(dec)


def old_eigen_certificate(entries, eig):
    """Whether the residual test ``eigen`` ran before it read the spectral radius passes, kept as its oracle."""
    w, V = eig(entries)
    resid = np.linalg.norm(entries @ V - V * w[None, :], axis=0) / np.linalg.norm(V, axis=0)
    return np.max(resid) <= EIGEN_RESIDUAL_TOL * np.linalg.norm(entries, 2)


@pytest.mark.parametrize("d,passes", [(1e-12, True), (1e-6, False)])
def test_eigen_falls_back_to_the_operator_norm_when_the_radius_cannot_decide(monkeypatch, d, passes):
    # strongly non-normal: spectral radius 2e-6, ||A||_2 about 1; plain eig returns
    # eigenpairs of this triangular matrix with residual exactly 0, so perturb them
    entries = np.array([[1e-6, 1.0], [0.0, 2e-6]])
    solve = np.linalg.eig

    def perturbed(a):
        w, V = solve(a)
        return w, V + d * np.array([[0.0, 1.0], [1.0, 0.0]])

    monkeypatch.setattr(np.linalg, "eig", perturbed)
    assert old_eigen_certificate(entries, perturbed) == passes
    A = OperatorMatrix(TruncationContext(2, 1), entries)
    if not passes:
        with pytest.raises(ConsistencyError, match="eigen residual"):
            eigen(A)
        return
    dec = eigen(A)
    radius = np.max(np.abs(dec.values))
    assert EIGEN_RESIDUAL_TOL * radius < dec.max_residual <= EIGEN_RESIDUAL_TOL * dec.operator_norm
    assert "operator_norm" in vars(dec)  # the radius could not decide, so the SVD ran


def test_counting_function_examples():
    spec = VladimirovSpec(1.0, 2)
    ctx = TruncationContext(2, 6)
    lam_plus = multiplier_table(spec, ctx, "plus_constant")
    # modes with eigenvalue <= 3 under the affine convention: xi = 0 and
    # the single norm-2 mode (8/3); the norm-4 shell sits at 14/3
    assert counting_function(lam_plus, 3.0) == 2
    assert counting_function(lam_plus, 0.0) == 1
    lam = multiplier_table(spec, ctx, "integral")
    counts = [counting_function(lam, t) for t in (0.0, 1.4, 3.4, 7.4)]
    assert counts == [1, 2, 4, 8]  # exact shell cardinalities
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_counting_function_array_form_equals_the_scalar_loop():
    gen = rng()
    lam = multiplier_table(VladimirovSpec(1.3, 3), TruncationContext(3, 5), "plus_constant")
    eig = np.concatenate([lam, gen.normal(size=50) + 1j * gen.normal(size=50)])
    ts = np.concatenate([np.unique(np.abs(eig)), [-1.0, 0.0, 1e-300, np.inf], gen.uniform(0.0, 300.0, size=40)])
    counts = counting_function(eig, ts)
    assert counts.shape == ts.shape
    assert counts.tolist() == [int(np.sum(np.abs(eig) <= t)) for t in ts]
    assert all(type(counting_function(eig, t)) is int for t in (3.0, np.float64(3.0)))


def scipy_weyl_fit(eigenvalues, t_min, t_max):
    """The bounded scalar minimization the fit used before its grid refinement: ``(slope, rss)``."""
    import scipy.optimize

    mods = np.abs(eigenvalues)
    ts = np.unique(mods)
    ts = ts[(ts >= t_min) & (ts <= t_max) & (ts > 0)]
    y = np.log([float(np.sum(mods <= t)) for t in ts])

    def line(b):
        A = np.vstack([np.log(ts + b), np.ones_like(ts)]).T
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        r = y - A @ coef
        return coef[0], float(r @ r)  # the RSS from the residuals

    res = scipy.optimize.minimize_scalar(lambda b: line(b)[1], bounds=(-0.9 * t_min, t_min), method="bounded")
    return line(res.x)


@pytest.mark.parametrize("p,n", [(2, 6), (2, 10), (2, 14), (3, 5), (3, 8), (5, 5), (5, 6), (7, 5)])
def test_weyl_slope_fit_matches_the_scipy_minimization(p, n):
    ctx = TruncationContext(p, n)
    cases = 0
    for s in np.linspace(0.3, 3.0, 10):
        for tag in FORMULA_TAGS:
            lam = multiplier_table(VladimirovSpec(float(s), p), ctx, tag)
            t_min, t_max = float(p) ** s, float(p) ** ((n - 1) * s)
            if np.unique(np.abs(lam[(np.abs(lam) >= t_min) & (np.abs(lam) <= t_max)])).size < 3:
                with pytest.raises(ValueError, match="at least 3 jump points"):
                    weyl_slope_fit(*array_jumps(lam), t_min, t_max)
                continue
            fit = weyl_slope_fit(*array_jumps(lam), t_min, t_max)
            slope, rss = scipy_weyl_fit(lam, t_min, t_max)
            # scipy stops within 1e-5 of its minimizer; the grid refinement goes on to 1e-12 t_min
            assert fit.slope == pytest.approx(slope, rel=1e-6), (s, tag)
            assert fit.rss <= rss * (1.0 + 1e-9) + 1e-28, (s, tag)
            cases += 1
    assert cases >= 25  # at most a few (s, tag) per level have too few jump points


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_weyl_slope_fit_recovers_inverse_order(s):
    ctx = TruncationContext(2, 10)
    spec = VladimirovSpec(s, 2)
    lam = multiplier_table(spec, ctx, "integral")
    fit = weyl_slope_fit(*array_jumps(lam), t_min=2.0**s, t_max=2.0 ** ((ctx.n - 1) * s))
    assert fit.slope == pytest.approx(1.0 / s, abs=0.05)
    # the fitted shift recovers the spectral offset
    assert fit.shift == pytest.approx(spec.additive_constant, abs=0.05)
    with pytest.raises(ValueError):
        weyl_slope_fit(*array_jumps(lam[:2]), 1.0, 2.0)


def test_heat_multiplier_path_exact_single_mode():
    ctx = TruncationContext(2, 5)
    spec = VladimirovSpec(1.0, 2)
    gen_sym = vladimirov_symbol(spec, ctx)
    u = 8  # norm 4, eigenvalue 10/3
    f0 = LevelFunction(ctx, ctx.character_column(u))
    traj = heat_evolve(gen_sym, f0, times=[0.0, 0.5, 1.0], orders=[0.0, 2.0])
    lam = 10.0 / 3.0
    for i, t in enumerate([0.0, 0.5, 1.0]):
        assert traj.norms[i, 0] == pytest.approx(np.exp(-t * lam), rel=1e-10)
        assert traj.norms[i, 1] == pytest.approx(16.0 * np.exp(-t * lam), rel=1e-10)
    assert traj.path == "multiplier"


def test_heat_zero_generator_and_negative_time():
    ctx = TruncationContext(2, 4)
    gen = rng()
    f0 = random_function(ctx, gen)
    zero = Symbol.multiplier(ctx, np.zeros(ctx.N))
    traj = heat_evolve(zero, f0, times=[0.0, 1.0, 5.0], orders=[0.0])
    assert np.max(np.abs(traj.norms - traj.norms[0])) < 1e-12
    with pytest.raises(ValueError):
        heat_evolve(zero, f0, times=[-1.0], orders=[0.0])


def test_heat_semigroup_property():
    ctx = TruncationContext(2, 6)
    gen = rng()
    spec = VladimirovSpec(0.7, 2)
    sym = vladimirov_symbol(spec, ctx)
    f0 = random_function(ctx, gen)
    lam = sym.table[0].real
    F0 = forward(f0).coeffs
    one_step = np.exp(-0.8 * lam) * F0
    two_step = np.exp(-0.3 * lam) * (np.exp(-0.5 * lam) * F0)
    assert np.max(np.abs(one_step - two_step)) < 1e-10 * max(1.0, np.max(np.abs(F0)))


def test_heat_mode_monotonicity_and_zero_mode_conservation():
    ctx = TruncationContext(2, 6)
    gen = rng()
    sym = vladimirov_symbol(VladimirovSpec(1.5, 2), ctx)
    f0 = random_function(ctx, gen)
    times = [0.0, 0.1, 0.5, 1.0, 2.0]
    traj = heat_evolve(sym, f0, times, orders=[0.0])
    # zero mode conserved exactly, nonzero modes strictly decreasing
    assert np.max(np.abs(traj.mode_magnitudes[:, 0] - traj.mode_magnitudes[0, 0])) < 1e-12
    nz = traj.mode_magnitudes[:, 1:]
    assert np.all(nz[1:] < nz[:-1] + 1e-15)


def test_heat_eigen_path_agrees_with_multiplier_path():
    ctx = TruncationContext(2, 6)
    gen = rng()
    sym = vladimirov_symbol(VladimirovSpec(1.0, 2), ctx)
    f0 = random_function(ctx, gen)
    times = [0.1, 1.0]
    orders = [0.0, 1.0, 2.0]
    fast = heat_evolve(sym, f0, times, orders)
    dense = heat_evolve(quantize(sym), f0, times, orders)
    assert dense.path == "eigen"
    assert np.max(np.abs(fast.norms - dense.norms)) < 1e-8 * max(1.0, np.max(fast.norms))


def test_heat_multiplier_path_is_read_off_the_table():
    ctx = TruncationContext(2, 5)
    lam = multiplier_table(VladimirovSpec(1.0, 2), ctx, "integral")
    f0 = random_function(ctx, rng())
    traj = heat_evolve(Symbol(ctx, np.tile(lam, (ctx.N, 1))), f0, [0.0, 0.5], [0.0, 1.0])
    assert traj.path == "multiplier"


def test_stale_form_tag_in_json_is_ignored():
    # an x-dependent table carrying the "multiplier" tag of an older file
    ctx = TruncationContext(2, 4)
    gen = rng()
    lam = multiplier_table(VladimirovSpec(1.0, 2), ctx, "integral")
    table = lam[None, :] * (1.0 + gen.uniform(0.0, 0.5, size=ctx.N))[:, None]
    doc = json.loads(Symbol(ctx, table).to_json())
    doc["form"] = "multiplier"
    sym = Symbol.from_json(json.dumps(doc))
    f0 = random_function(ctx, gen)
    times, orders = [0.1, 1.0], [0.0, 1.0, 2.0]
    traj = heat_evolve(sym, f0, times, orders)
    dense = heat_evolve(quantize(sym), f0, times, orders)
    assert traj.path == "eigen"
    assert np.max(np.abs(traj.norms - dense.norms)) < 1e-8 * max(1.0, np.max(dense.norms))
    tagged = seminorm(sym, "S_tilde", m=1.0, alpha_max=1, beta_max=1)
    plain = seminorm(Symbol(ctx, sym.table.copy()), "S_tilde", m=1.0, alpha_max=1, beta_max=1)
    assert np.array_equal(tagged.constants, plain.constants)
    assert np.all(tagged.constants[:, 1] > 0.0)


def test_variable_coefficient_generator_positive_spectrum():
    ctx = TruncationContext(2, 6)
    gen = rng()
    a1 = 1.0 + 0.3 * np.abs(np.sin(np.arange(ctx.N)))
    a2 = 2.0 + gen.uniform(0.0, 0.5, size=ctx.N)
    sym = variable_coefficient_generator(ctx, [(a1, 1.0), (a2, 0.5)])
    dec = eigen(quantize(sym))
    assert np.min(dec.values.real) > -1e-9  # similar to a positive operator
    # constants stay in the kernel
    ones = LevelFunction(ctx, np.ones(ctx.N))
    assert np.max(np.abs(quantize(sym).apply(ones).values)) < 1e-9


def n_by_n_generator_table(ctx, terms):
    """The generator's table accumulated over the full N x N grid, term by term."""
    table = np.zeros((ctx.N, ctx.N), dtype=np.complex128)
    for a_vals, s in terms:
        lam = multiplier_table(VladimirovSpec(float(s), ctx.p), ctx)
        table += np.asarray(a_vals, dtype=np.complex128)[:, None] * lam[None, :]
    return table


@pytest.mark.parametrize("p,n", [(2, 0), (2, 8), (3, 4), (5, 3), (7, 2)])
@pytest.mark.parametrize("complex_coefficients", [False, True])
def test_variable_coefficient_generator_is_bit_identical_to_the_n_by_n_table(p, n, complex_coefficients):
    ctx = TruncationContext(p, n)
    gen = np.random.default_rng(p * 10 + n)
    terms = []
    for s in (1.0, 0.5, 1.7):
        a = 1.0 + gen.uniform(0.0, 1.0, ctx.N)
        terms.append((a + 1j * gen.normal(size=ctx.N) if complex_coefficients else a, s))
    sym = variable_coefficient_generator(ctx, terms)
    assert np.array_equal(sym.table, n_by_n_generator_table(ctx, terms))
    profile = np.zeros((ctx.N, n + 1), dtype=np.complex128)
    for a, s in terms:
        profile += np.asarray(a, dtype=np.complex128)[:, None] * shell_eigenvalues(VladimirovSpec(s, p), ctx)[None, :]
    assert np.array_equal(sym.shell_profile(), profile)


def test_pointwise_product_sobolev_bound():
    # ||f g||_{H^s} <= 2^s ||f||_{H^s} * sum <xi>^s |ghat|; the ultrametric
    # actually achieves constant 1, which the sharp observed value records
    ctx = TruncationContext(2, 6)
    gen = rng()
    s = 1.0
    sharpest = 0.0
    for _ in range(25):
        f = random_function(ctx, gen)
        g = random_function(ctx, gen)
        fg = LevelFunction(ctx, f.values * g.values)
        js_g_l1 = float(np.sum(np.power(ctx.weights, s) * np.abs(forward(g).coeffs)))
        bound_unit = sobolev_norm(f, s) * js_g_l1
        observed = sobolev_norm(fg, s) / bound_unit
        sharpest = max(sharpest, observed)
        assert sobolev_norm(fg, s) <= 2.0**s * bound_unit * (1 + 1e-12)
    assert sharpest <= 1.0 + 1e-10


def test_compactness_diagnostic_tail_block():
    # decaying column sups push the top-shell block norm down with them,
    # Schur-test style: ||block||_2 <= sqrt(max row sum * max col sum)
    ctx = TruncationContext(2, 6)
    gen = rng()
    bump = gen.normal(size=ctx.N)
    bump = 0.1 * bump / np.max(np.abs(bump))
    decay = np.power(ctx.weights, -1.0)
    sym = Symbol(ctx, decay[None, :] * (1.0 + bump)[:, None])
    M = quantize(sym).to_basis("frequency").entries
    shell = ctx.norms >= float(ctx.p) ** (ctx.n - 1)
    block = M[:, shell]
    smax = float(np.linalg.norm(block, 2))
    row_max = float(np.max(np.sum(np.abs(block), axis=1)))
    col_max = float(np.max(np.sum(np.abs(block), axis=0)))
    assert smax <= np.sqrt(row_max * col_max) * (1 + 1e-12)
    shell_sup = float(np.max(np.abs(sym.table[:, shell])))
    ghat_l1 = float(np.sum(np.abs(forward(LevelFunction(ctx, 1.0 + bump)).coeffs)))
    assert col_max <= shell_sup * ghat_l1 / np.min(np.abs(1.0 + bump)) * (1 + 1e-12)
    assert smax <= 2.0 * shell_sup * ghat_l1
