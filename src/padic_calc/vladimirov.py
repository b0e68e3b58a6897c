"""The Vladimirov operator D^s on the truncated p-adic integers.

Two routes are implemented and cross-validated:

* :func:`apply_integral` realizes the hypersingular integral as an exact
  finite sum over cosets (the y-in-same-coset term vanishes identically
  for locally constant functions, so the singularity never evaluates).
  The kernel is constant on each ring ``|x - y|_p = p^-k``, so the sum
  regroups into :func:`core.coset_sums`: O(N n) time, O(N) memory and
  no transform.  The normalization is fixed so that the quadratic form
  is non-negative: characters are eigenfunctions with eigenvalue
  ``|xi|^s - c(p, s)``, ``c(p, s) = (1 - 1/p) / (1 - p^-(s+1))``, and
  eigenvalue 0 at xi = 0.

* :func:`shell_eigenvalues` gives that spectrum in closed form on the
  n+1 shells, in O(n) and with no transform, and also the two affine
  eigenvalue conventions in circulation for this operator (``|xi|^s + c``
  and ``|xi|^s + c * p^-s`` on nonzero frequencies).  The tags are
  ``integral``, ``plus_constant`` and ``scaled_constant``; ``integral``
  is the canonical one, and reports tabulate the disagreement.  The
  closed form is exact at every level because the truncated kernel sum
  is the continuum integral: y in x's own coset contributes nothing,
  and |x - y| is constant on every other coset.
  :func:`multiplier_table` is the same spectrum gathered over all N dual
  indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConsistencyError, Frequency, TruncationContext, coset_sums, is_admissible_prime
from .fourier import LevelFunction, SpectralFunction

FORMULA_TAGS = ("integral", "plus_constant", "scaled_constant")


@dataclass(frozen=True)
class VladimirovSpec:
    """Order s > 0 of D^s together with the prime it lives over."""

    s: float
    p: int

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError(f"order s must be positive, got {self.s}")
        if not is_admissible_prime(self.p):
            raise ValueError(f"p must be a prime below 2^32, got {self.p}")
        # p^s must be a float strictly between 1 and inf, or gamma_p divides by 0 or overflows
        with np.errstate(over="ignore"):
            p_to_s = np.power(float(self.p), float(self.s))
        if not 1.0 < p_to_s < math.inf:
            raise ValueError(f"order s={self.s} puts p^s = {self.p}^{self.s} outside (1, inf) in floating point")

    @property
    def gamma_p(self) -> float:
        """The gamma normalizer (1 - p^-(s+1)) / (1 - p^s); negative for s > 0."""
        return (1.0 - float(self.p) ** (-self.s - 1.0)) / (1.0 - float(self.p) ** self.s)

    @property
    def norm_scale(self) -> float:
        """|gamma_p|: the positive scale that makes D^s non-negative definite."""
        return -self.gamma_p

    @property
    def additive_constant(self) -> float:
        """c(p, s) = (1 - 1/p) / (1 - p^-(s+1)), the spectral offset at play."""
        return (1.0 - 1.0 / self.p) / (1.0 - float(self.p) ** (-(self.s + 1.0)))


def shell_kernel(spec: VladimirovSpec, ctx: TruncationContext) -> np.ndarray:
    """Haar-weighted kernel on the rings k = 0..n-1: ``p^-n / |z|_p^(s+1)`` at ``v_p(z) = k``; O(n)."""
    if ctx.p != spec.p:
        raise ValueError(f"context prime {ctx.p} does not match spec prime {spec.p}")
    # |z|_p = p^-v_p(z) for the residue z, so 1/|z|^(s+1) = p^(v*(s+1))
    return np.power(float(ctx.p), np.arange(ctx.n, dtype=np.float64) * (spec.s + 1.0)) / ctx.N


def kernel_vector(spec: VladimirovSpec, ctx: TruncationContext) -> np.ndarray:
    """Haar-weighted kernel ``K[z] = p^-n / |z|_p^(s+1)`` with ``K[0] = 0``: :func:`shell_kernel` by valuation."""
    return np.append(shell_kernel(spec, ctx), 0.0)[ctx.valuations]


def apply_integral(spec: VladimirovSpec, f: LevelFunction) -> LevelFunction:
    """Exact singular-sum realization of D^s f.

    ``out[x] = (1/|gamma|) * p^-n * sum_{y != x} (f[x] - f[y]) / |x-y|^(s+1)``
    where |x-y|_p is read off the integer residue difference.  The y with
    ``v_p(x - y) = k`` are the ``count_k = p^(n-k) - p^(n-k-1)`` points of
    the ring ``x + p^k Z_p`` minus ``x + p^(k+1) Z_p``, so with ``S_k`` the
    coset sums of :func:`core.coset_sums`,
    ``out = (1/|gamma|) sum_{k<n} K_k (count_k f - (S_k - S_(k+1)))``:
    O(N n) time and O(N) memory, and independent of the transform stack
    by design, so it can serve as the eigenvalue oracle.
    """
    ctx = f.ctx
    p, n = ctx.p, ctx.n
    K = shell_kernel(spec, ctx)
    # D^s kills constants: subtracting f[0] first makes a constant f give
    # exactly 0, with no cancellation between count_k f and the ring sums
    v = f.values - f.values[0]
    S = coset_sums(v, ctx)
    out = np.zeros_like(v, dtype=np.result_type(v, np.float64))
    for k in range(n):
        # sum of v over the ring at valuation k, indexed by x mod p^(k+1)
        ring = (S[k] - S[k + 1].reshape(p, p**k)).ravel()
        count = p ** (n - k) - p ** (n - k - 1)
        out += K[k] * (count * v.reshape(-1, p ** (k + 1)) - ring).ravel()
    return LevelFunction(ctx, out / spec.norm_scale)


def shell_eigenvalues(spec: VladimirovSpec, ctx: TruncationContext, formula: str = "integral") -> np.ndarray:
    """Eigenvalue on shells j = 0..n: ``|xi|^s = p^(js)`` plus the tag's offset, 0 on shell 0 (xi = 0)."""
    if ctx.p != spec.p:
        raise ValueError(f"context prime {ctx.p} does not match spec prime {spec.p}")
    c = spec.additive_constant
    offsets = {"integral": -c, "plus_constant": c, "scaled_constant": c * float(spec.p) ** (-spec.s)}
    if formula not in offsets:
        raise ValueError(f"unknown formula tag {formula!r}; expected one of {FORMULA_TAGS}")
    lam = np.power(ctx.shell_norms, spec.s) + offsets[formula]
    lam[0] = 0.0
    return lam


def multiplier_table(spec: VladimirovSpec, ctx: TruncationContext, formula: str = "integral") -> np.ndarray:
    """Eigenvalue table lambda[u] over the truncated dual: :func:`shell_eigenvalues` gathered by shell."""
    return shell_eigenvalues(spec, ctx, formula)[ctx.shells]


def eigenvalue_oracle(spec: VladimirovSpec, freq: Frequency, rtol: float = 1e-10) -> float:
    """Rayleigh value of the singular-sum operator on one character.

    Applies :func:`apply_integral` to the character and reads the ratio,
    which must be constant across sample points within ``rtol``.  The
    returned value re-sums the defining expression
    ``sum_z K[z] (1 - chi(xi z)) / |gamma|`` with compensated summation,
    so eigenvalues stay level-stable to ~1 ulp even at large magnitude.
    """
    ctx = freq.ctx
    chi = ctx.character_column(freq.u)
    out = apply_integral(spec, LevelFunction(ctx, chi))
    ratio = out.values / chi
    lam = complex(np.mean(ratio))
    scale = max(1.0, abs(lam))
    if np.max(np.abs(ratio - lam)) > rtol * scale:
        raise ConsistencyError(
            f"character u={freq.u} is not an eigenvector: ratio spread "
            f"{np.max(np.abs(ratio - lam)):.3e} exceeds {rtol:.1e} * {scale:.3e}"
        )
    if abs(lam.imag) > rtol * scale:
        raise ConsistencyError(f"eigenvalue has non-real part {lam.imag:.3e}")
    K = kernel_vector(spec, ctx)
    refined = math.fsum(K * (1.0 - chi.real)) / spec.norm_scale
    if abs(refined - lam.real) > rtol * scale:
        raise ConsistencyError(
            f"compensated eigenvalue {refined!r} drifts from the ratio estimate {lam.real!r}"
        )
    return float(refined)


def bessel_js(s: float, F: SpectralFunction) -> SpectralFunction:
    """Sobolev multiplier J_s: scale each coefficient by ``<xi>^s``."""
    return SpectralFunction(F.ctx, F.coeffs * np.power(F.ctx.weights, s))
