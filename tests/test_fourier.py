"""Transform tests: the FFT path and the naive table-lookup sum against independent oracles."""

import json

import numpy as np
import pytest

from padic_calc.core import TruncationContext
from padic_calc.fourier import (
    LevelFunction,
    SpectralFunction,
    dft,
    dft_axis,
    forward,
    inner_product,
    inverse,
    l2_norm,
    refine,
    spectral_l2_norm,
)
from padic_calc.symbols import Symbol


def slow_dft(values, p, n, sign):
    """Per-element double loop, written independently of the library kernel."""
    N = p**n
    out = np.zeros(N, dtype=complex)
    for u in range(N):
        acc = 0.0 + 0.0j
        for x in range(N):
            acc += values[x] * np.exp(sign * 2j * np.pi * ((u * x) % N) / N)
        out[u] = acc
    return out


def rng():
    return np.random.default_rng(20260808)


def random_function(ctx, gen):
    return LevelFunction(ctx, gen.normal(size=ctx.N) + 1j * gen.normal(size=ctx.N))


@pytest.mark.parametrize("p,n", [(2, 0), (2, 1), (2, 4), (3, 3), (5, 2), (7, 1)])
def test_fast_matches_slow_reference(p, n):
    ctx = TruncationContext(p, n)
    gen = rng()
    f = random_function(ctx, gen)
    for sign in (-1, +1):
        fast = dft(f.values, ctx, sign)
        ref = slow_dft(f.values, p, n, sign)
        assert np.max(np.abs(fast - ref)) < 1e-11 * max(1.0, np.max(np.abs(ref)))


def test_fast_matches_naive_all_small_sizes():
    # every size p^n up to 3^6
    gen = rng()
    cap = 3**6
    for p in (2, 3, 5, 7, 11, 13):
        n = 0
        while p**n <= cap:
            ctx = TruncationContext(p, n)
            a = gen.normal(size=ctx.N) + 1j * gen.normal(size=ctx.N)
            for sign in (-1, +1):
                fast = dft(a, ctx, sign)
                naive = dft(a, ctx, sign, naive=True)
                assert np.max(np.abs(fast - naive)) < 1e-11 * max(1.0, np.max(np.abs(naive)))
            n += 1


def mp_dft(values, N, sign):
    """50-digit transform: roots and sums in mpmath, inputs taken exactly."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        roots = [mpmath.expjpi(mpmath.mpf(2 * k) / N) for k in range(N)]
        vals = [mpmath.mpc(v.real, v.imag) for v in values]
        return np.array([complex(mpmath.fsum(vals[x] * roots[(sign * u * x) % N] for x in range(N))) for u in range(N)])


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (5, 3), (7, 2)])
def test_both_routes_match_50_digit_reference(p, n):
    ctx = TruncationContext(p, n)
    a = random_function(ctx, rng()).values
    for sign in (-1, +1):
        ref = mp_dft(a, ctx.N, sign)
        scale = np.max(np.abs(ref))
        for naive in (False, True):
            assert np.max(np.abs(dft(a, ctx, sign, naive=naive) - ref)) < 1e-14 * scale, (sign, naive)


def test_dft_axis_matches_last_axis_and_checks_arguments():
    ctx = TruncationContext(3, 2)
    a = rng().normal(size=(ctx.N, 4)) + 0j
    for sign in (-1, +1):
        assert np.max(np.abs(dft_axis(a, ctx, sign, axis=0) - dft(a.T, ctx, sign).T)) < 1e-12
    with pytest.raises(ValueError, match="sign"):
        dft_axis(a, ctx, 2, axis=0)
    with pytest.raises(ValueError, match="length 4"):
        dft_axis(a, ctx, -1, axis=1)
    with pytest.raises(ValueError, match="length 4"):
        dft(a, ctx, +1, naive=True)


def test_forward_of_constant_and_characters():
    ctx = TruncationContext(3, 3)
    F = forward(LevelFunction(ctx, np.ones(ctx.N)))
    expected = np.zeros(ctx.N)
    expected[0] = 1.0
    assert np.max(np.abs(F.coeffs - expected)) < 1e-13
    for u0 in (1, 5, 9):
        F = forward(LevelFunction(ctx, ctx.character_column(u0)))
        expected = np.zeros(ctx.N)
        expected[u0] = 1.0
        assert np.max(np.abs(F.coeffs - expected)) < 1e-13


def test_inverse_of_deltas():
    ctx = TruncationContext(2, 4)
    coeffs = np.zeros(ctx.N)
    coeffs[0] = 1.0
    f = inverse(SpectralFunction(ctx, coeffs))
    assert np.max(np.abs(f.values - 1.0)) < 1e-13
    coeffs = np.zeros(ctx.N)
    coeffs[5] = 1.0
    f = inverse(SpectralFunction(ctx, coeffs))
    assert np.max(np.abs(f.values - ctx.character_column(5))) < 1e-13


@pytest.mark.parametrize("p,n", [(2, 10), (3, 7), (5, 5)])
def test_roundtrip_and_plancherel(p, n):
    ctx = TruncationContext(p, n)
    gen = rng()
    for _ in range(5):
        f = random_function(ctx, gen)
        F = forward(f)
        back = inverse(F)
        assert np.max(np.abs(back.values - f.values)) < 1e-12 * max(1.0, np.max(np.abs(f.values)))
        assert abs(spectral_l2_norm(F) - l2_norm(f)) < 1e-12 * max(1.0, l2_norm(f))


def test_linearity_and_conjugate_symmetry():
    ctx = TruncationContext(3, 4)
    gen = rng()
    f, g = random_function(ctx, gen), random_function(ctx, gen)
    a, b = 2.0 - 1.0j, -0.5 + 3.0j
    lhs = forward(LevelFunction(ctx, a * f.values + b * g.values)).coeffs
    rhs = a * forward(f).coeffs + b * forward(g).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    # forward(conj(f))[u] = conj(forward(f)[-u])
    Fc = forward(LevelFunction(ctx, np.conj(f.values))).coeffs
    F = forward(f).coeffs
    neg = (-np.arange(ctx.N)) % ctx.N
    assert np.max(np.abs(Fc - np.conj(F[neg]))) < 1e-12


def test_parseval_inner_product():
    ctx = TruncationContext(2, 8)
    gen = rng()
    f, g = random_function(ctx, gen), random_function(ctx, gen)
    lhs = inner_product(f, g)
    Fc, Gc = forward(f).coeffs, forward(g).coeffs
    rhs = np.sum(Fc * np.conj(Gc))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_refine_constant_and_character():
    ctx = TruncationContext(2, 3)
    const = refine(LevelFunction(ctx, np.full(ctx.N, 2.5)), 5)
    assert np.all(const.values == 2.5)
    u0 = 6
    ch = refine(LevelFunction(ctx, ctx.character_column(u0)), 5)
    spec = forward(ch).coeffs
    hits = np.flatnonzero(np.abs(spec) > 1e-12)
    assert list(hits) == [u0 * 2 ** (5 - 3)]


def test_refine_spectrum_zero_padded():
    ctx = TruncationContext(2, 3)
    gen = rng()
    f = random_function(ctx, gen)
    coarse = forward(f).coeffs
    fine = refine(f, 5)
    spec = forward(fine).coeffs
    lift = np.zeros(fine.ctx.N, dtype=complex)
    lift[np.arange(ctx.N) * 2 ** (5 - 3)] = coarse
    assert np.max(np.abs(spec - lift)) < 1e-12
    with pytest.raises(ValueError):
        refine(f, 3)


def test_json_round_trip():
    ctx = TruncationContext(3, 2)
    gen = rng()
    f = random_function(ctx, gen)
    f2 = LevelFunction.from_json(f.to_json())
    assert f2.ctx == ctx
    assert np.max(np.abs(f2.values - f.values)) == 0.0
    F = forward(f)
    F2 = SpectralFunction.from_json(F.to_json())
    assert np.max(np.abs(F2.coeffs - F.coeffs)) == 0.0
    with pytest.raises(ValueError):
        LevelFunction.from_json(F.to_json())


@pytest.mark.parametrize(
    "cls,kind,shape",
    [(LevelFunction, "point", (2,)), (SpectralFunction, "spectral", (2,)), (Symbol, None, (2, 2))],
)
def test_json_loaders_reject_malformed_documents_naming_the_field(cls, kind, shape):
    tag = {} if kind is None else {"kind": kind}
    good = {**tag, "p": 2, "n": 1, "re": np.ones(shape).tolist(), "im": np.zeros(shape).tolist()}
    assert cls.from_json(json.dumps(good)).ctx == TruncationContext(2, 1)
    bad = [(json.dumps([1, 2]), "JSON object"), (json.dumps("text"), "JSON object")]
    for key in ("p", "n", "re", "im"):
        bad.append((json.dumps({k: v for k, v in good.items() if k != key}), f"missing field '{key}'"))
    for key in ("re", "im"):
        entries = np.ones(shape).tolist()
        entries[-1] = "a" if len(shape) == 1 else ["a", 1]
        bad.append((json.dumps({**good, key: entries}), f"field '{key}'"))
        bad.append((json.dumps({**good, key: [None] * shape[0]}), f"field '{key}'"))
        bad.append((json.dumps({**good, key: [[1.0], [1.0, 2.0]]}), f"field '{key}'"))
    # a shorter im used to broadcast against re
    bad.append((json.dumps({**good, "im": np.zeros(shape)[:1].tolist()}), "'re' and 'im' differ in shape"))
    bad.append((json.dumps({**good, "im": 0.0}), "'re' and 'im' differ in shape"))
    for text, match in bad:
        with pytest.raises(ValueError, match=match):
            cls.from_json(text)
