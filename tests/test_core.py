"""Unit and property tests for the exact p-adic arithmetic kernel."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from padic_calc.core import INFINITE_ORDER, Frequency, TruncationContext, coset_sums, is_prime, valuation
from padic_calc.vladimirov import VladimirovSpec


def test_prime_validation():
    assert is_prime(2) and is_prime(3) and is_prime(97)
    assert not is_prime(1) and not is_prime(9) and not is_prime(91)
    with pytest.raises(ValueError):
        TruncationContext(4, 2)
    with pytest.raises(ValueError):
        TruncationContext(2, -1)


def test_context_is_immutable_and_hashable():
    ctx = TruncationContext(3, 2)
    with pytest.raises(AttributeError):
        ctx.p = 5
    assert ctx == TruncationContext(3, 2)
    assert hash(ctx) == hash(TruncationContext(3, 2))
    assert ctx != TruncationContext(3, 3)


def test_valuation_examples():
    assert valuation(12, TruncationContext(3, 4)) == 1
    assert valuation(8, TruncationContext(2, 5)) == 3
    assert valuation(0, TruncationContext(5, 3)) == INFINITE_ORDER
    assert math.isinf(valuation(0, TruncationContext(2, 1)))
    with pytest.raises(ValueError):
        valuation(81, TruncationContext(3, 4))


def test_frequency_norm_weight_examples():
    for (p, n, u), expected in [((2, 3, 0), (0.0, 1.0)), ((2, 3, 4), (2.0, 2.0)), ((3, 2, 5), (9.0, 9.0))]:
        f = Frequency(TruncationContext(p, n), u)
        assert (f.norm, f.weight) == expected
    with pytest.raises(ValueError):
        Frequency(TruncationContext(2, 2), 4)


def test_frequency_reduced_fraction():
    ctx = TruncationContext(2, 5)
    f = Frequency(ctx, 12)  # 12/32 = 3/8
    assert f.order_exponent == 3
    assert f.numerator == 3
    assert f.norm == 8.0
    assert math.gcd(f.numerator, ctx.p) == 1


def test_norm_tables_match_scalar_definition():
    for p, n in [(2, 6), (3, 4), (5, 3)]:
        ctx = TruncationContext(p, n)
        for u in range(ctx.N):
            f = Frequency(ctx, u)
            assert ctx.norms[u] == f.norm
            assert ctx.weights[u] == f.weight
    for p, n in [(2, 10), (3, 6), (5, 4), (7, 3), (2, 0), (5, 0)]:
        ctx = TruncationContext(p, n)
        assert ctx.valuations[0] == n  # the zero residue is capped at n
        for k in range(1, ctx.N):
            assert ctx.valuations[k] == valuation(k, ctx)


def test_character_values_trivial_and_roots():
    ctx2 = TruncationContext(2, 1)
    assert ctx2.character_column(0)[1] == pytest.approx(1.0)
    assert ctx2.character_column(1)[1] == pytest.approx(-1.0)
    ctx3 = TruncationContext(3, 1)
    assert ctx3.character_column(1)[1] == pytest.approx(np.exp(2j * np.pi / 3))
    # unit modulus to machine precision
    ctx = TruncationContext(5, 3)
    for u in [1, 7, 50]:
        assert abs(abs(ctx.character_column(u)[13]) - 1.0) < 1e-14


def test_character_table_reduction():
    # chi(u, x) = chi(1, u*x mod p^n) whenever the index-1 frequency exists
    ctx = TruncationContext(3, 3)
    for u in [2, 5, 13]:
        for x in [1, 4, 20]:
            assert ctx.character_column(u)[x] == ctx.character_column(1)[(u * x) % ctx.N]
            assert ctx.character_column(u)[x] == ctx.roots[(u * x) % ctx.N]


def test_dual_add_examples():
    # dual addition is index addition mod p^n: 1/2 + 1/2 = 0 at p=2, n=2
    ctx = TruncationContext(2, 2)
    half = Frequency(ctx, 2)
    assert half.norm == 2.0 and (half.u + half.u) % ctx.N == 0
    # it is the addition under which characters multiply: chi_(u1+u2) = chi_u1 chi_u2
    for u1, u2 in [(1, 3), (2, 3), (3, 3)]:
        prod = ctx.character_column(u1) * ctx.character_column(u2)
        assert np.max(np.abs(ctx.character_column((u1 + u2) % ctx.N) - prod)) < 1e-15
    ctx32 = TruncationContext(3, 2)
    # the order-3 subgroup {0, 3, 6} is the ball |xi|_3 <= 3: 3 + 6 = 9 = 0 mod 9
    sub = [0, 3, 6]
    assert sub == [u for u in range(ctx32.N) if ctx32.norms[u] <= 3.0]
    assert all((a + b) % ctx32.N in sub for a in sub for b in sub)
    assert (3 + 6) % ctx32.N == 0


@settings(max_examples=200, deadline=None)
@given(
    pn=st.sampled_from([(2, 5), (3, 4), (5, 2), (7, 2)]),
    data=st.data(),
)
def test_ultrametric_and_peetre(pn, data):
    p, n = pn
    ctx = TruncationContext(p, n)
    u1 = data.draw(st.integers(0, ctx.N - 1))
    u2 = data.draw(st.integers(0, ctx.N - 1))
    f1, f2 = Frequency(ctx, u1), Frequency(ctx, u2)
    fsum = Frequency(ctx, (u1 + u2) % ctx.N)
    assert fsum.norm <= max(f1.norm, f2.norm) + 1e-12
    # Peetre with constant 1 for s >= 0 (ultrametric sharpening)
    s = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    assert fsum.weight**s <= f1.weight**s * f2.weight**s * (1 + 1e-12)


def test_ultrametric_exhaustive_small():
    for p, n in [(2, 4), (3, 3)]:
        ctx = TruncationContext(p, n)
        norms = ctx.norms
        idx = np.arange(ctx.N)
        sums = (idx[:, None] + idx[None, :]) % ctx.N
        assert np.all(norms[sums] <= np.maximum(norms[:, None], norms[None, :]) + 1e-12)


@settings(max_examples=100, deadline=None)
@given(
    u=st.integers(0, 80),
    x1=st.integers(0, 80),
    x2=st.integers(0, 80),
)
def test_character_homomorphism(u, x1, x2):
    ctx = TruncationContext(3, 4)
    chi = ctx.character_column(u)
    lhs = chi[(x1 + x2) % ctx.N]
    rhs = chi[x1] * chi[x2]
    assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("p,n", [(2, 0), (2, 10), (3, 6), (5, 4), (7, 3)])
def test_shell_index_is_the_first_index_of_each_shell(p, n):
    ctx = TruncationContext(p, n)
    _, first = np.unique(ctx.shells, return_index=True)
    assert np.array_equal(ctx.shell_index, first)
    assert np.array_equal(ctx.shells[ctx.shell_index], np.arange(n + 1))


@pytest.mark.parametrize("p,n", [(2, 0), (2, 20), (3, 12), (5, 4), (7, 3), (101, 2)])
def test_norm_tables_are_the_shell_tables_gathered_by_shell(p, n):
    ctx = TruncationContext(p, n)
    # oracle: the N-entry expression, computed from the valuations with no shell table
    norms = np.power(float(p), n - ctx.valuations.astype(np.float64))
    norms[0] = 0.0
    assert np.array_equal(ctx.norms, norms)
    assert np.array_equal(ctx.weights, np.maximum(1.0, norms))
    assert ctx.shell_norms.shape == ctx.shell_weights.shape == (n + 1,)
    assert np.array_equal(ctx.shell_norms, norms[ctx.shell_index])
    assert np.array_equal(ctx.shell_weights, np.maximum(1.0, norms)[ctx.shell_index])


@pytest.mark.parametrize("p,n", [(3, 0), (2, 1), (2, 6), (3, 4), (5, 3), (7, 2)])
def test_coset_sums_match_naive_index_sums(p, n):
    ctx = TruncationContext(p, n)
    # integer entries: every summation order gives the same sums, so == is the test
    v = np.random.default_rng(10 * p + n).integers(-1000, 1000, size=ctx.N)
    sums = coset_sums(v, ctx)
    assert len(sums) == n + 1
    y = np.arange(ctx.N)
    for k, level in enumerate(sums):
        naive = np.array([v[y % p**k == r].sum() for r in range(p**k)])
        assert level.shape == (p**k,) and np.array_equal(level, naive), k


def test_constructors_bound_p_before_the_trial_division():
    # trial division up to sqrt(p) would not end on a p near 10^18
    huge = 1000000000000000003
    start = time.perf_counter()
    with pytest.raises(ValueError, match="2\\^32"):
        TruncationContext(huge, 0)
    with pytest.raises(ValueError, match="2\\^32"):
        VladimirovSpec(1.0, huge)
    assert time.perf_counter() - start < 0.1
    assert TruncationContext(4294967291, 0).N == 1  # 2^32 - 5, the largest prime below the bound
    assert VladimirovSpec(1.0, 4294967291).p == 4294967291
