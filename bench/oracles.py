"""Independent reference routes for the benchmark's correctness checks.

Nothing here calls into ``padic_calc``: characters are evaluated with
``numpy.exp`` on integer-reduced phases, p-adic norms come from Python
integer valuations, and every operator identity is checked through plain
dense matrix products.  A defect in the package's transform, symbol or
spectral code therefore cannot cancel out of a check.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def characters(N: int) -> np.ndarray:
    """``E[x, u] = exp(2 pi i x u / N)``, phases reduced mod N as integers."""
    x = np.arange(N, dtype=np.int64)
    return np.exp((2j * np.pi / N) * (np.outer(x, x) % N))


def norms(p: int, n: int) -> np.ndarray:
    """p-adic norm of the dual element ``u / p^n`` (0 at u = 0)."""
    N = p**n
    out = np.zeros(N)
    for u in range(1, N):
        v, k = 0, u
        while k % p == 0:
            k //= p
            v += 1
        out[u] = float(p) ** (n - v)
    return out


def weights(p: int, n: int) -> np.ndarray:
    """``max(1, |xi|_p)`` over the truncated dual."""
    return np.maximum(1.0, norms(p, n))


def vladimirov_eigenvalues(p: int, n: int, s: float) -> np.ndarray:
    """Closed form of the canonical D^s spectrum: ``|xi|^s - c(p, s)``, 0 at xi = 0."""
    c = (1.0 - 1.0 / p) / (1.0 - float(p) ** (-(s + 1.0)))
    nr = norms(p, n)
    lam = np.where(nr > 0, np.power(nr, s, where=nr > 0, out=np.ones_like(nr)) - c, 0.0)
    return lam


def quantize(table: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Sample-basis matrix ``A[x, y] = N^-1 sum_u sigma(x, u) chi(u (x - y))``."""
    return (table * E) @ E.conj().T / E.shape[0]


def frequency_basis(A: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Frequency-basis matrix ``N^-1 E^H A E`` of a sample-basis operator."""
    return E.conj().T @ A @ E / E.shape[0]


def analysis(values: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Haar-normalized Fourier coefficients of the rows of ``values``."""
    return values @ E.conj() / E.shape[0]


def sobolev_norm(values: np.ndarray, w: np.ndarray, k: float, E: np.ndarray) -> float:
    return float(np.sqrt(np.sum(w ** (2.0 * k) * np.abs(analysis(values, E)) ** 2)))


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value via the Hermitian eigenproblem of ``M^H M``."""
    return float(np.sqrt(max(np.linalg.eigvalsh(M.conj().T @ M)[-1], 0.0)))


def schur0(M: np.ndarray) -> tuple[float, float]:
    """Unweighted Schur sums ``(max column l1, max row l1)``."""
    a = np.abs(M)
    return float(a.sum(axis=0).max()), float(a.sum(axis=1).max())


def heat_norms(A: np.ndarray, f0: np.ndarray, times, orders, w: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Sobolev ladders of ``expm(-t A) f0`` by the matrix exponential."""
    out = np.zeros((len(times), len(orders)))
    for i, t in enumerate(times):
        ft = scipy.linalg.expm(-t * A) @ f0
        for j, k in enumerate(orders):
            out[i, j] = sobolev_norm(ft, w, k, E)
    return out


def rel_err(got, want) -> float:
    """Max absolute difference over the max magnitude of the reference (floor 1)."""
    got = np.asarray(got)
    want = np.asarray(want)
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))
