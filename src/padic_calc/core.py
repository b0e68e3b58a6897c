"""Exact integer-based p-adic arithmetic at a finite truncation level.

A :class:`TruncationContext` fixes a prime ``p`` and a level ``n``; the
group of p-adic integers is then modelled by the ``N = p^n`` cosets of
``p^n Z_p`` and its dual by the ``N`` fractions ``u / p^n mod 1``.  All
norms and valuations are computed with integer arithmetic first and
converted to floats only at the very end.  Character values are looked
up in a single precomputed root-of-unity table after reducing the phase
``u x`` as an integer mod ``p^n``, so the characters, the character
tables, the naive transform oracle and the shifted-diagonal gathers
carry no phase drift.  The fast transform is numpy's FFT (see
:mod:`padic_calc.fourier`), which uses its own twiddle factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Marker returned by :func:`valuation` for the zero residue.
INFINITE_ORDER = math.inf


class ConsistencyError(RuntimeError):
    """An internal cross-check failed beyond its stated tolerance."""


class ResourceCapError(RuntimeError):
    """A requested computation exceeds a configured resource cap."""


def is_prime(p: int) -> bool:
    """Trial-division primality test; contexts are desk-scale."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class TruncationContext:
    """Prime ``p`` and level ``n`` fixing the ``p^n``-point model of Z_p.

    Instances are immutable and cache the derived lookup tables (roots of
    unity, valuations, norms) on first use.  Two contexts compare equal
    iff they share ``(p, n)``.
    """

    __slots__ = ("p", "n", "N", "_roots", "_valuations", "_norms", "_weights", "_shells")

    def __init__(self, p: int, n: int):
        if not isinstance(p, (int, np.integer)) or not is_prime(int(p)):
            raise ValueError(f"p must be prime, got {p!r}")
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError(f"level n must be a non-negative integer, got {n!r}")
        object.__setattr__(self, "p", int(p))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "N", int(p) ** int(n))
        object.__setattr__(self, "_roots", None)
        object.__setattr__(self, "_valuations", None)
        object.__setattr__(self, "_norms", None)
        object.__setattr__(self, "_weights", None)
        object.__setattr__(self, "_shells", None)

    def __setattr__(self, name, value):
        raise AttributeError("TruncationContext is immutable")

    def __eq__(self, other):
        return isinstance(other, TruncationContext) and (self.p, self.n) == (other.p, other.n)

    def __hash__(self):
        return hash((self.p, self.n))

    def __repr__(self):
        return f"TruncationContext(p={self.p}, n={self.n})"

    @property
    def roots(self) -> np.ndarray:
        """Table of all N-th roots of unity, ``roots[r] = exp(2 pi i r / N)``."""
        if self._roots is None:
            table = np.exp((2j * np.pi / self.N) * np.arange(self.N))
            object.__setattr__(self, "_roots", table)
        return self._roots

    @property
    def valuations(self) -> np.ndarray:
        """``v_p(u)`` for every residue ``u``; the 0 entry holds ``n`` (capped)."""
        if self._valuations is None:
            v = np.zeros(self.N, dtype=np.int64)
            for k in range(1, self.n + 1):
                v[:: self.p**k] += 1  # the multiples of p^k; residue 0 collects n
            object.__setattr__(self, "_valuations", v)
        return self._valuations

    @property
    def norms(self) -> np.ndarray:
        """p-adic norm of the dual element with index ``u`` (0.0 at ``u = 0``)."""
        if self._norms is None:
            nr = np.power(float(self.p), self.n - self.valuations.astype(np.float64))
            if self.N > 0:
                nr[0] = 0.0
            object.__setattr__(self, "_norms", nr)
        return self._norms

    @property
    def weights(self) -> np.ndarray:
        """``max(1, |xi|_p)`` for every dual index."""
        if self._weights is None:
            object.__setattr__(self, "_weights", np.maximum(1.0, self.norms))
        return self._weights

    @property
    def shells(self) -> np.ndarray:
        """Shell index per dual element: 0 for xi = 0, j for norm p^j."""
        if self._shells is None:
            object.__setattr__(self, "_shells", self.n - self.valuations)  # valuations[0] = n
        return self._shells

    def character_column(self, u: int) -> np.ndarray:
        """Vector ``chi(u x)`` over all sample points x (exact roots of unity)."""
        idx = (int(u) * np.arange(self.N, dtype=np.int64)) % self.N
        return self.roots[idx]

    def character_matrix(self) -> np.ndarray:
        """Full ``chi(u x)`` table, rows x, columns u; O(N^2) memory."""
        x = np.arange(self.N, dtype=np.int64)
        return self.roots[np.outer(x, x) % self.N]


@dataclass(frozen=True)
class Frequency:
    """Element of the truncated dual group, indexed by ``u`` in ``[0, p^n)``.

    The canonical fraction is ``xi = a / p^m`` with ``m = n - v_p(u)`` and
    ``a = u / p^(n-m)`` coprime to p; ``u = 0`` encodes ``xi = 0``.
    """

    ctx: TruncationContext
    u: int

    def __post_init__(self):
        if not 0 <= self.u < self.ctx.N:
            raise ValueError(f"frequency index {self.u} outside [0, {self.ctx.N})")

    @property
    def order_exponent(self) -> int:
        """Exponent m with ``|xi|_p = p^m`` (0 for the zero frequency)."""
        if self.u == 0:
            return 0
        return self.ctx.n - int(self.ctx.valuations[self.u])

    @property
    def numerator(self) -> int:
        """Reduced numerator a of ``xi = a / p^m``; gcd(a, p) = 1 for u != 0."""
        if self.u == 0:
            return 0
        return self.u // self.ctx.p ** (self.ctx.n - self.order_exponent)

    @property
    def norm(self) -> float:
        return 0.0 if self.u == 0 else float(self.ctx.p) ** self.order_exponent

    @property
    def weight(self) -> float:
        return max(1.0, self.norm)

    def __neg__(self) -> "Frequency":
        return Frequency(self.ctx, (-self.u) % self.ctx.N)


def valuation(k: int, ctx: TruncationContext):
    """p-adic order of the residue ``k``; ``INFINITE_ORDER`` for k = 0.

    Examples
    --------
    >>> valuation(12, TruncationContext(3, 4))
    1
    >>> valuation(8, TruncationContext(2, 5))
    3
    """
    if not 0 <= k < ctx.N:
        raise ValueError(f"residue {k} outside [0, {ctx.N})")
    if k == 0:
        return INFINITE_ORDER
    v = 0
    while k % ctx.p == 0:
        k //= ctx.p
        v += 1
    return v
