"""Exact Fourier analysis on the truncated p-adic integers.

Conventions: the forward transform is the analysis integral against the
normalized Haar measure, ``F[u] = p^-n sum_x f[x] conj(chi(u x))``, and the
inverse is the bare synthesis sum ``f[x] = sum_u F[u] chi(u x)``.  With
this pairing Plancherel reads ``sum_u |F[u]|^2 = p^-n sum_x |f[x]|^2``
with no stray constants.

A level-n function is genuinely locally constant, so its coefficients on
frequencies of norm > p^n vanish identically and the finite transform is
exact, not an approximation.

The fast path is numpy's FFT: these characters are exactly the
length-``p^n`` DFT characters, so ``np.fft.fft`` computes the analysis
sum and ``np.fft.ifft(..., norm="forward")`` the unscaled synthesis sum.
The naive O(N^2) sum is kept behind a flag of :func:`dft` as an
always-available oracle; it reduces each phase ``u x`` as an integer mod
``p^n`` and looks it up in the context's root-of-unity table, so its
phases never drift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import TruncationContext


def _dft_naive(a: np.ndarray, ctx: TruncationContext, sign: int) -> np.ndarray:
    x = np.arange(ctx.N, dtype=np.int64)
    W = ctx.roots[(sign * np.outer(x, x)) % ctx.N]
    return a @ W  # W symmetric, so rows/columns interchangeable


def _checked(a, ctx: TruncationContext, sign: int, axis: int) -> np.ndarray:
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign}")
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[axis] != ctx.N:
        raise ValueError(f"axis {axis} has length {a.shape[axis]}, context wants {ctx.N}")
    return a


def _fft(a: np.ndarray, sign: int, axis: int) -> np.ndarray:
    if sign < 0:
        return np.fft.fft(a, axis=axis)
    return np.fft.ifft(a, axis=axis, norm="forward")


def dft(a: np.ndarray, ctx: TruncationContext, sign: int, naive: bool = False) -> np.ndarray:
    """Unnormalized transform ``sum_x a[..., x] e(sign * u x / p^n)`` on the last axis.

    ``sign=-1`` is the analysis orientation, ``sign=+1`` the synthesis one.
    ``naive=True`` takes the O(N^2) table-lookup sum instead of the FFT.
    """
    a = _checked(a, ctx, sign, -1)
    if naive:
        return _dft_naive(a, ctx, sign)
    return _fft(a, sign, -1)


def dft_axis(a: np.ndarray, ctx: TruncationContext, sign: int, axis: int) -> np.ndarray:
    """Same transform applied along an arbitrary axis."""
    return _fft(_checked(a, ctx, sign, axis), sign, axis)


def _to_json(ctx: TruncationContext, arr: np.ndarray, **tag) -> str:
    """``{p, n, <tag>, re, im}``: the JSON layout of functions and symbols."""
    return json.dumps({"p": ctx.p, "n": ctx.n, **tag, "re": arr.real.tolist(), "im": arr.imag.tolist()})


def _from_json(text: str, kind: str | None = None):
    """``(doc, ctx, complex array)`` of a ``{p, n, re, im}`` document of the given kind.

    A malformed document raises ``ValueError`` naming the field.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    if kind is not None and doc.get("kind") != kind:
        raise ValueError(f"expected kind {kind!r}, got {doc.get('kind')!r}")
    missing = [key for key in ("p", "n", "re", "im") if key not in doc]
    if missing:
        raise ValueError(f"missing field {missing[0]!r}")
    re, im = _numbers(doc, "re"), _numbers(doc, "im")
    if re.shape != im.shape:
        raise ValueError(f"fields 're' and 'im' differ in shape: {re.shape} vs {im.shape}")
    return doc, TruncationContext(doc["p"], doc["n"]), re + 1j * im


def _numbers(doc: dict, key: str) -> np.ndarray:
    """``doc[key]`` as an array of numbers; ``ValueError`` naming the field otherwise."""
    try:
        arr = np.asarray(doc[key])
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"field {key!r} must be a rectangular array of numbers")
    return arr


@dataclass
class LevelFunction:
    """Complex function on Z_p, locally constant at level n (p^n samples)."""

    ctx: TruncationContext
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.ctx.N,):
            raise ValueError(f"expected {self.ctx.N} samples, got shape {self.values.shape}")

    def to_json(self) -> str:
        return _to_json(self.ctx, self.values, kind="point")

    @staticmethod
    def from_json(text: str) -> "LevelFunction":
        _, ctx, values = _from_json(text, "point")
        return LevelFunction(ctx, values)


@dataclass
class SpectralFunction:
    """Fourier coefficients indexed by the truncated dual group."""

    ctx: TruncationContext
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (self.ctx.N,):
            raise ValueError(f"expected {self.ctx.N} coefficients, got shape {self.coeffs.shape}")

    def to_json(self) -> str:
        return _to_json(self.ctx, self.coeffs, kind="spectral")

    @staticmethod
    def from_json(text: str) -> "SpectralFunction":
        _, ctx, coeffs = _from_json(text, "spectral")
        return SpectralFunction(ctx, coeffs)


def forward(f: LevelFunction) -> SpectralFunction:
    """Analysis transform with the Haar normalization p^-n."""
    return SpectralFunction(f.ctx, dft(f.values, f.ctx, -1) / f.ctx.N)


def inverse(F: SpectralFunction) -> LevelFunction:
    """Synthesis sum; exact inverse of :func:`forward`."""
    return LevelFunction(F.ctx, dft(F.coeffs, F.ctx, +1))


def l2_norm(f: LevelFunction) -> float:
    """Haar-normalized L2 norm sqrt(p^-n sum |f|^2)."""
    return float(np.sqrt(np.mean(np.abs(f.values) ** 2)))


def spectral_l2_norm(F: SpectralFunction) -> float:
    """l2 norm of the coefficient sequence (the Plancherel partner)."""
    return float(np.sqrt(np.sum(np.abs(F.coeffs) ** 2)))


def inner_product(f: LevelFunction, g: LevelFunction) -> complex:
    """Haar inner product ``p^-n sum f conj(g)``."""
    if f.ctx != g.ctx:
        raise ValueError("inner product across different contexts")
    return complex(np.mean(f.values * np.conj(g.values)))


def refine(f: LevelFunction, n2: int) -> LevelFunction:
    """Re-sample a level-n function at a finer level n2 > n.

    The function does not change: new sample y takes the value of the
    coset y mod p^n.  Its spectrum is the old one re-indexed (u -> u *
    p^(n2-n)) and padded with zeros on the new frequencies.
    """
    if n2 <= f.ctx.n:
        raise ValueError(f"refinement level {n2} must exceed current level {f.ctx.n}")
    fine = TruncationContext(f.ctx.p, n2)
    return LevelFunction(fine, f.values[np.arange(fine.N) % f.ctx.N])
