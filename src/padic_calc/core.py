"""Exact integer-based p-adic arithmetic at a finite truncation level.

A :class:`TruncationContext` fixes a prime ``p`` below ``MAX_P = 2^32``
and a level ``n``; the group of p-adic integers is then modelled by the
``N = p^n`` cosets of ``p^n Z_p`` and its dual by the ``N`` fractions
``u / p^n mod 1``.  All norms and valuations are computed with integer
arithmetic first and converted to floats only at the very end.  The norm
and the weight ``max(1, |xi|_p)`` are constant on each of the n+1
valuation shells, so each is computed once per shell (``shell_norms``,
``shell_weights``, O(n)) and the N-entry ``norms`` and ``weights`` are
gathers of those by ``shells``.  Character values are looked up in a
single precomputed root-of-unity table after reducing the phase ``u x``
as an integer mod ``p^n``, so the characters and the naive transform
oracle carry no phase drift.

Every table indexed by a group difference ``(x - y) mod p^n`` (the
kernel of D^s, a symbol's matrix ``A[x, y] = B[x, x - y]``, the
associated matrix ``sighat(eta - xi, xi)``, the weights
``<eta - xi>^r``) is read through :func:`offset_view`, a read-only
strided view of two copies of an N-vector, with no N x N index table.
Every sum over the cosets ``x + p^k Z_p`` (the rings of the kernel of
D^s, one per valuation) is read from :func:`coset_sums`, one O(N)
reshape-sum per level, fine to coarse.

The fast transform is numpy's FFT (see
:mod:`padic_calc.fourier`), which uses its own twiddle factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: Marker returned by :func:`valuation` for the zero residue.
INFINITE_ORDER = math.inf


class ConsistencyError(RuntimeError):
    """An internal cross-check failed beyond its stated tolerance."""


class ResourceCapError(RuntimeError):
    """A requested computation exceeds a configured resource cap."""


#: bound on the prime: p is a uint32 in the binary operator format, and trial
#: division below it takes milliseconds (it would not end on a p near 10^18)
MAX_P = 2**32


def is_admissible_prime(p: int) -> bool:
    """Whether ``p`` is a prime below ``MAX_P``; the bound is tested before the trial division."""
    return p < MAX_P and is_prime(p)


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


@dataclass(frozen=True)
class TruncationContext:
    """Prime ``p`` and level ``n`` fixing the ``p^n``-point model of Z_p.

    Instances are immutable and cache the derived lookup tables (roots of
    unity, valuations, norms) on first use.  Two contexts compare equal
    iff they share ``(p, n)``.
    """

    p: int
    n: int

    def __post_init__(self):
        if not isinstance(self.p, (int, np.integer)) or not is_admissible_prime(int(self.p)):
            raise ValueError(f"p must be a prime below 2^32, got {self.p!r}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 0:
            raise ValueError(f"level n must be a non-negative integer, got {self.n!r}")
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "n", int(self.n))

    @cached_property
    def N(self) -> int:
        return self.p**self.n

    @cached_property
    def roots(self) -> np.ndarray:
        """Table of all N-th roots of unity, ``roots[r] = exp(2 pi i r / N)``."""
        return np.exp((2j * np.pi / self.N) * np.arange(self.N))

    @cached_property
    def valuations(self) -> np.ndarray:
        """``v_p(u)`` for every residue ``u``; the 0 entry holds ``n`` (capped)."""
        v = np.zeros(self.N, dtype=np.int64)
        for k in range(1, self.n + 1):
            v[:: self.p**k] += 1  # the multiples of p^k; residue 0 collects n
        return v

    @cached_property
    def shell_norms(self) -> np.ndarray:
        """p-adic norm on shells 0..n: 0.0 for xi = 0, then p, ..., p^n; O(n)."""
        nr = np.power(float(self.p), np.arange(self.n + 1, dtype=np.float64))
        nr[0] = 0.0
        return nr

    @cached_property
    def shell_weights(self) -> np.ndarray:
        """``max(1, |xi|_p)`` on shells 0..n; O(n)."""
        return np.maximum(1.0, self.shell_norms)

    @cached_property
    def norms(self) -> np.ndarray:
        """p-adic norm of the dual element with index ``u`` (0.0 at ``u = 0``)."""
        return self.shell_norms[self.shells]

    @cached_property
    def weights(self) -> np.ndarray:
        """``max(1, |xi|_p)`` for every dual index."""
        return self.shell_weights[self.shells]

    @cached_property
    def shells(self) -> np.ndarray:
        """Shell index per dual element: 0 for xi = 0, j for norm p^j."""
        return self.n - self.valuations  # valuations[0] = n

    @cached_property
    def shell_index(self) -> np.ndarray:
        """One dual index per shell, ``p^(n-j) mod N`` for shell j: the first index of each shell, in O(n)."""
        return self.p ** (self.n - np.arange(self.n + 1)) % self.N

    def character_column(self, u: int) -> np.ndarray:
        """Vector ``chi(u x)`` over all sample points x (exact roots of unity)."""
        idx = (int(u) * np.arange(self.N, dtype=np.int64)) % self.N
        return self.roots[idx]


def offset_view(v: np.ndarray) -> np.ndarray:
    """Read-only N x N view ``V[x, y] = v[(x - y) mod N]`` of an N-vector ``v``.

    Row x is ``v`` rolled by x, read from two copies of ``v`` side by side,
    so the view costs 2N entries and no index table.  Gathering through
    ``offset_view(np.arange(N))`` reads any table along ``x - y``.

    Examples
    --------
    >>> offset_view(np.arange(3))
    array([[0, 2, 1],
           [1, 0, 2],
           [2, 1, 0]])
    """
    N = len(v)
    return sliding_window_view(np.concatenate((v, v)), N)[1 : N + 1, ::-1]


def coset_sums(v: np.ndarray, ctx: TruncationContext) -> list[np.ndarray]:
    """Sums of an N-vector over the cosets of ``p^k Z_p``, for k = 0..n.

    Level k is a p^k-vector whose entry r is the sum of ``v[y]`` over
    ``y = r mod p^k``; level n is ``v`` itself.  Each level is one
    ``reshape(p, p^k).sum(axis=0)`` of the level above, so all n+1 levels
    cost O(N) together.

    Examples
    --------
    >>> [s.tolist() for s in coset_sums(np.arange(4), TruncationContext(2, 2))]
    [[6], [2, 4], [0, 1, 2, 3]]
    """
    sums = [np.asarray(v)]
    for k in range(ctx.n - 1, -1, -1):
        sums.append(sums[-1].reshape(ctx.p, ctx.p**k).sum(axis=0))
    return sums[::-1]


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
