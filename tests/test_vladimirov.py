"""Vladimirov operator: integral form, eigenvalue oracle, multiplier tags.

Frozen regression constants below were produced by the singular-sum
oracle itself (ratio of apply_integral on characters) and then checked
against the closed form |xi|^s - c with c = (1-1/p)/(1-p^-(s+1)), which
the oracle reproduces to machine precision once n >= log_p|xi|.

``apply_integral`` regroups the singular sum by coset sums; the direct
O(N^2) sum over all pairs, ``direct_integral`` below, is its oracle.

The ``integral`` table is the closed form.  Two routes that share no
code with it check it: the defining kernel sum summed shell by shell in
60-digit ``mpmath``, and the kernel transform ``(sum K - N Khat) / |gamma|``
that the package once used, which is accurate only at small levels
because its two terms cancel.
"""

import math

import numpy as np
import pytest

from padic_calc.core import ConsistencyError, Frequency, TruncationContext, offset_view
from padic_calc.fourier import LevelFunction, SpectralFunction, forward, inverse
from padic_calc.vladimirov import (
    FORMULA_TAGS,
    VladimirovSpec,
    apply_integral,
    bessel_js,
    eigenvalue_oracle,
    kernel_vector,
    multiplier_table,
    shell_eigenvalues,
)


def rng():
    return np.random.default_rng(7)


def direct_integral(spec, f):
    """``(1/|gamma|) sum_y K(x - y) (f[x] - f[y])`` summed directly over all N^2 pairs."""
    # difference before summing: a constant f gives exactly 0
    terms = f.values[:, None] - f.values[None, :]
    terms *= offset_view(kernel_vector(spec, f.ctx))
    return terms.sum(axis=1) / spec.norm_scale


def test_spec_validation():
    with pytest.raises(ValueError):
        VladimirovSpec(0.0, 2)
    with pytest.raises(ValueError):
        VladimirovSpec(1.0, 4)
    spec = VladimirovSpec(1.0, 2)
    assert spec.gamma_p == pytest.approx(-0.75)
    assert spec.norm_scale == pytest.approx(0.75)
    assert spec.additive_constant == pytest.approx(2.0 / 3.0)


def test_constants_in_kernel():
    ctx = TruncationContext(2, 5)
    spec = VladimirovSpec(1.5, 2)
    out = apply_integral(spec, LevelFunction(ctx, np.full(ctx.N, 3.7 - 1.2j)))
    assert np.max(np.abs(out.values)) < 1e-11


@pytest.mark.parametrize("p,n", [(2, 1), (2, 6), (3, 4), (5, 3), (7, 2), (3, 0), (2, 9), (2, 10)])
@pytest.mark.parametrize("s", [0.5, 1.0, 1.6, 2.9])
def test_coset_sums_match_the_direct_sum(p, n, s):
    ctx = TruncationContext(p, n)
    spec = VladimirovSpec(s, p)
    gen = np.random.default_rng(100 * p + n)
    f = LevelFunction(ctx, gen.normal(size=ctx.N) + 1j * gen.normal(size=ctx.N))
    got = apply_integral(spec, f).values
    want = direct_integral(spec, f)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # a constant gives exactly 0 on both routes
    const = LevelFunction(ctx, np.full(ctx.N, 3.7 - 1.2j))
    assert not np.any(apply_integral(spec, const).values) and not np.any(direct_integral(spec, const))


def test_integral_rejects_a_context_over_another_prime():
    f = LevelFunction(TruncationContext(3, 2), np.ones(9))
    with pytest.raises(ValueError, match="context prime 3 does not match spec prime 2"):
        apply_integral(VladimirovSpec(1.0, 2), f)


def test_linearity():
    ctx = TruncationContext(3, 3)
    spec = VladimirovSpec(0.8, 3)
    gen = rng()
    f = gen.normal(size=ctx.N) + 1j * gen.normal(size=ctx.N)
    g = gen.normal(size=ctx.N) + 1j * gen.normal(size=ctx.N)
    lhs = apply_integral(spec, LevelFunction(ctx, f + g)).values
    rhs = apply_integral(spec, LevelFunction(ctx, f)).values + apply_integral(spec, LevelFunction(ctx, g)).values
    assert np.max(np.abs(lhs - rhs)) < 1e-11 * max(1.0, np.max(np.abs(rhs)))


# (p, s, norm, frozen oracle eigenvalue)
FROZEN_EIGENVALUES = [
    (2, 1.0, 2.0, 4.0 / 3.0),
    (2, 1.0, 4.0, 10.0 / 3.0),
    (2, 1.0, 8.0, 22.0 / 3.0),
    (2, 0.5, 2.0, 2.0**0.5 - 0.5 / (1.0 - 2.0**-1.5)),
    (3, 2.0, 9.0, 81.0 - (2.0 / 3.0) / (1.0 - 3.0**-3.0)),
]


@pytest.mark.parametrize("p,s,norm,expected", FROZEN_EIGENVALUES)
def test_oracle_frozen_values(p, s, norm, expected):
    n = 5
    ctx = TruncationContext(p, n)
    spec = VladimirovSpec(s, p)
    m = round(np.log(norm) / np.log(p))
    u = p ** (n - m)  # reduced numerator 1, norm p^m
    lam = eigenvalue_oracle(spec, Frequency(ctx, u))
    assert lam == pytest.approx(expected, abs=1e-10)


def test_oracle_zero_frequency():
    ctx = TruncationContext(2, 4)
    assert eigenvalue_oracle(VladimirovSpec(1.0, 2), Frequency(ctx, 0)) == pytest.approx(0.0, abs=1e-13)


ZERO_SHELL_ORDERS = [1.6, 1.7, 1.8, 1.9, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9]


def test_oracle_zero_frequency_at_large_kernel_sums():
    # the kernel sum at (2, 10) is 1.6e4 to 4e7 for these orders; forming
    # sum_y K f[x] - sum_y K f[y] separately cancelled far above rtol
    ctx = TruncationContext(2, 10)
    for s in ZERO_SHELL_ORDERS:
        assert eigenvalue_oracle(VladimirovSpec(s, 2), Frequency(ctx, 0)) == 0.0, s


@pytest.mark.parametrize("s", [1.6, 2.5, 2.9])
def test_oracle_nonzero_shells_at_large_kernel_sums(s):
    ctx = TruncationContext(2, 10)
    spec = VladimirovSpec(s, 2)
    for m in range(1, ctx.n + 1):
        lam = eigenvalue_oracle(spec, Frequency(ctx, 2 ** (ctx.n - m)), rtol=1e-10)
        assert lam == pytest.approx(2.0 ** (m * s) - spec.additive_constant, rel=1e-10)


def test_oracle_level_stability():
    # stable across n -> n+1 within 1e-10 once n >= log_p(norm) + 2
    spec = VladimirovSpec(1.0, 2)
    for m in (1, 2):
        vals = []
        for n in (m + 2, m + 3):
            ctx = TruncationContext(2, n)
            vals.append(eigenvalue_oracle(spec, Frequency(ctx, 2 ** (n - m))))
        assert abs(vals[0] - vals[1]) < 1e-10


def test_oracle_consistency_guard():
    # with a zero tolerance even the trig rounding of the ratio trips the check
    ctx = TruncationContext(2, 5)
    spec = VladimirovSpec(1.0, 2)
    out = apply_integral(spec, LevelFunction(ctx, ctx.character_column(1)))
    ratio = out.values / ctx.character_column(1)
    if np.max(np.abs(ratio - ratio.mean())) > 0.0:
        with pytest.raises(ConsistencyError):
            eigenvalue_oracle(spec, Frequency(ctx, 1), rtol=0.0)


def test_multiplier_integral_matches_oracle_everywhere():
    for p, n, s in [(2, 6, 0.5), (2, 6, 1.0), (3, 4, 2.0)]:
        ctx = TruncationContext(p, n)
        spec = VladimirovSpec(s, p)
        lam = multiplier_table(spec, ctx, "integral")
        for u in range(0, ctx.N, max(1, ctx.N // 17)):
            assert lam[u] == pytest.approx(eigenvalue_oracle(spec, Frequency(ctx, u)), abs=1e-10)


def test_multiplier_tags_differ_by_documented_constants():
    ctx = TruncationContext(2, 6)
    spec = VladimirovSpec(1.0, 2)
    lam_int = multiplier_table(spec, ctx, "integral")
    lam_plus = multiplier_table(spec, ctx, "plus_constant")
    lam_scaled = multiplier_table(spec, ctx, "scaled_constant")
    c = spec.additive_constant
    nz = np.arange(1, ctx.N)
    assert np.max(np.abs((lam_plus - lam_int)[nz] - 2.0 * c)) < 1e-10
    assert np.max(np.abs((lam_plus - lam_scaled)[nz] - c * (1 - 2.0**-1.0))) < 1e-10
    assert lam_int[0] == lam_plus[0] == lam_scaled[0] == 0.0
    with pytest.raises(ValueError):
        multiplier_table(spec, ctx, "mystery")


def test_multiplier_route_agrees_with_integral_route():
    for p, n in [(2, 6), (3, 4), (5, 3), (7, 2), (2, 16)]:
        ctx = TruncationContext(p, n)
        for s in (0.5, 1.3, 2.9):
            spec = VladimirovSpec(s, p)
            gen = rng()
            f = LevelFunction(ctx, gen.normal(size=ctx.N) + 1j * gen.normal(size=ctx.N))
            via_integral = apply_integral(spec, f).values
            via_multiplier = inverse(SpectralFunction(ctx, forward(f).coeffs * multiplier_table(spec, ctx))).values
            assert np.max(np.abs(via_integral - via_multiplier)) <= 1e-14 * np.max(np.abs(via_multiplier)), (p, n, s)


def test_eigenvalue_monotonicity_and_ellipticity():
    ctx = TruncationContext(2, 8)
    for s in (0.5, 1.0, 2.0):
        spec = VladimirovSpec(s, 2)
        lam = multiplier_table(spec, ctx, "integral")
        shell_values = [lam[2 ** (ctx.n - m)] for m in range(1, ctx.n + 1)]
        assert all(b > a for a, b in zip(shell_values, shell_values[1:]))
        nz = ctx.norms >= 2.0
        ratios = lam[nz] / ctx.weights[nz] ** s
        c_ell = ratios.min()
        assert c_ell > 0
        # the margin is 1 - c * p^-s at the lowest shell
        expected = 1.0 - spec.additive_constant * 2.0 ** (-s)
        assert c_ell == pytest.approx(expected, rel=1e-12)


def test_bessel_js_identities():
    ctx = TruncationContext(2, 5)
    gen = rng()
    F = SpectralFunction(ctx, gen.normal(size=ctx.N) + 1j * gen.normal(size=ctx.N))
    assert np.max(np.abs(bessel_js(0.0, F).coeffs - F.coeffs)) == 0.0
    back = bessel_js(-1.0, bessel_js(1.0, F))
    assert np.max(np.abs(back.coeffs - F.coeffs)) < 1e-12 * max(1.0, np.max(np.abs(F.coeffs)))
    delta = np.zeros(ctx.N)
    u = 8  # norm 4 at (2,5): v=3, m=2
    delta[u] = 1.0
    out = bessel_js(2.0, SpectralFunction(ctx, delta))
    assert out.coeffs[u] == pytest.approx(16.0)


def kernel_fft_table(spec, ctx):
    """``(sum_z K[z] - N Khat[u]) / |gamma|`` with one FFT: the kernel-transform route."""
    K = kernel_vector(spec, ctx)
    lam = (K.sum() - np.fft.fft(K)) / spec.norm_scale  # N Khat = fft(K); K is even, so the sign is moot
    assert np.max(np.abs(lam.imag)) <= 1e-12 * np.max(np.abs(lam.real))
    lam = lam.real.copy()
    lam[0] = 0.0
    return lam


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (5, 3)])
@pytest.mark.parametrize("s", [1e-3, 0.5, 1.0, 2.9, 4.0])
def test_closed_form_matches_kernel_transform_at_small_levels(p, n, s):
    ctx = TruncationContext(p, n)
    spec = VladimirovSpec(s, p)
    lam = multiplier_table(spec, ctx)
    oracle = kernel_fft_table(spec, ctx)
    assert lam[0] == 0.0
    # the transform route subtracts two terms of size sum K / |gamma|: judge it on that scale
    scale = kernel_vector(spec, ctx).sum() / spec.norm_scale
    assert np.max(np.abs(lam - oracle)) <= 1e-12 * scale


def shell_character_sum(p, n, m, v):
    """``sum chi(xi z)`` over the z of valuation v in Z / p^n, for |xi| = p^m, m >= 1.

    ``xi z = a b / p^(m - v)`` with a, b units: the sum over b is a
    Ramanujan sum, ``count`` when m <= v, ``-count / (p - 1)`` when
    m = v + 1, and 0 when m >= v + 2.
    """
    count = (p - 1) * p ** (n - 1 - v)
    if m <= v:
        return count
    return -(p ** (n - 1 - v)) if m == v + 1 else 0


@pytest.mark.parametrize("p,n,m", [(2, 5, 1), (2, 5, 3), (3, 4, 2), (3, 4, 4), (5, 3, 2)])
def test_shell_character_sums_match_direct_sums(p, n, m):
    ctx = TruncationContext(p, n)
    chi = ctx.character_column(p ** (n - m))  # a frequency of norm p^m
    for v in range(n):
        direct = chi[1:][ctx.valuations[1:] == v].sum()
        assert direct == pytest.approx(shell_character_sum(p, n, m, v), abs=1e-9)


@pytest.mark.parametrize("p,n", [(2, 20), (3, 12), (5, 8)])
@pytest.mark.parametrize("s", [1e-3, 0.5, 1.0, 2.9, 4.0])
def test_integral_table_matches_mpmath_kernel_sum_on_every_shell(p, n, s):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 60
    ctx = TruncationContext(p, n)
    lam = multiplier_table(VladimirovSpec(s, p), ctx)
    P, S = mp.mpf(p), mp.mpf(s)
    norm_scale = (1 - P ** (-S - 1)) / (P**S - 1)  # |gamma_p|
    exact = [0.0]
    for m in range(1, n + 1):
        # sum_z K[z] (1 - chi(xi z)) / |gamma|, grouped by the valuation v of z; v >= m adds 0
        total = mp.mpf(0)
        for v in range(m):
            count = (p - 1) * p ** (n - 1 - v)
            kernel = P ** (v * (S + 1)) / P**n
            total += kernel * (count - shell_character_sum(p, n, m, v))
        exact.append(float(total / norm_scale))
    exact = np.array(exact)
    assert lam[0] == 0.0
    rel = np.abs(lam[1:] - exact[ctx.shells[1:]]) / np.abs(exact[ctx.shells[1:]])
    assert np.max(rel) <= 1e-12
    # and the reference is the closed form, computed independently
    for m in (1, n):
        assert exact[m] == pytest.approx(math.pow(p, m * s) - VladimirovSpec(s, p).additive_constant, rel=1e-12)


def n_entry_table(spec, ctx, formula):
    """Oracle: the closed form evaluated on all N dual indices, from the valuations with no shell table."""
    norms = np.power(float(ctx.p), ctx.n - ctx.valuations.astype(np.float64))
    norms[0] = 0.0
    c = spec.additive_constant
    offsets = {"integral": -c, "plus_constant": c, "scaled_constant": c * float(spec.p) ** (-spec.s)}
    lam = np.power(norms, spec.s) + offsets[formula]
    lam[0] = 0.0
    return lam


@pytest.mark.parametrize("p,n", [(2, 1), (2, 9), (2, 20), (3, 7), (3, 12), (5, 5), (7, 3), (101, 2)])
def test_multiplier_table_is_bit_identical_to_the_n_entry_closed_form(p, n):
    gen = np.random.default_rng(p * 100 + n)
    ctx = TruncationContext(p, n)
    orders = [1.0, 2.0, 1e-3, *gen.uniform(0.01, 4.0, size=4)]
    for s in orders:
        spec = VladimirovSpec(float(s), p)
        for tag in FORMULA_TAGS:
            table = multiplier_table(spec, ctx, tag)
            assert np.array_equal(table, n_entry_table(spec, ctx, tag)), (s, tag)
            shells = shell_eigenvalues(spec, ctx, tag)
            assert shells.shape == (n + 1,) and np.array_equal(shells, table[ctx.shell_index]), (s, tag)
