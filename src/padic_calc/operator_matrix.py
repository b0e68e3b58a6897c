"""Dense p^n x p^n realizations of operators, in either basis.

Sample basis: the matrix acts on sample vectors by plain matmul and
already contains the Haar weight, i.e. ``(T f)[x] = sum_y A[x, y] f[y]``.
Frequency basis: the matrix acts on coefficient vectors of the dual
group.  Conversion is conjugation by the transform pair and is exact up
to rounding.

Binary layout (documented interface): 8-byte magic ``PADICOP1``, uint32
p, uint32 n, uint8 basis tag (0 = sample, 1 = frequency), all
little-endian, followed by the row-major entries as interleaved
(re, im) float64 little-endian pairs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import TruncationContext
from .fourier import LevelFunction, SpectralFunction, dft_axis

_MAGIC = b"PADICOP1"
_HEADER = len(_MAGIC) + struct.calcsize("<IIB")
_BASIS_TAGS = {"sample": 0, "frequency": 1}
_TAG_BASIS = {v: k for k, v in _BASIS_TAGS.items()}


@dataclass
class OperatorMatrix:
    ctx: TruncationContext
    entries: np.ndarray
    basis: str = "sample"

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.complex128)
        N = self.ctx.N
        if self.entries.shape != (N, N):
            raise ValueError(f"expected a {N}x{N} matrix, got {self.entries.shape}")
        if self.basis not in _BASIS_TAGS:
            raise ValueError(f"basis must be 'sample' or 'frequency', got {self.basis!r}")

    def to_basis(self, basis: str) -> "OperatorMatrix":
        if basis not in _BASIS_TAGS:
            raise ValueError(f"unknown basis {basis!r}")
        if basis == self.basis:
            return OperatorMatrix(self.ctx, self.entries.copy(), self.basis)
        if self.basis == "sample":
            # M = F A F^{-1}: synthesis along columns, analysis along rows
            tmp = dft_axis(self.entries, self.ctx, +1, axis=1)
            M = dft_axis(tmp, self.ctx, -1, axis=0) / self.ctx.N
            return OperatorMatrix(self.ctx, M, "frequency")
        tmp = dft_axis(self.entries, self.ctx, -1, axis=1)
        A = dft_axis(tmp, self.ctx, +1, axis=0) / self.ctx.N
        return OperatorMatrix(self.ctx, A, "sample")

    def apply(self, f):
        """Apply to a LevelFunction / SpectralFunction / bare vector."""
        if isinstance(f, LevelFunction):
            if self.basis != "sample":
                raise ValueError("frequency-basis matrix applied to sample data")
            return LevelFunction(self.ctx, self.entries @ f.values)
        if isinstance(f, SpectralFunction):
            if self.basis != "frequency":
                raise ValueError("sample-basis matrix applied to spectral data")
            return SpectralFunction(self.ctx, self.entries @ f.coeffs)
        return self.entries @ np.asarray(f, dtype=np.complex128)

    def matmul(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.ctx != other.ctx:
            raise ValueError("operator product across different contexts")
        if self.basis != other.basis:
            raise ValueError("operator product across different bases")
        # two exactly real factors multiply in real BLAS; the entries stay complex128
        return OperatorMatrix(self.ctx, real_if_exact(self.entries) @ real_if_exact(other.entries), self.basis)

    def adjoint(self) -> "OperatorMatrix":
        """Conjugate transpose (the Haar weights are uniform, so no rescale)."""
        return OperatorMatrix(self.ctx, self.entries.conj().T.copy(), self.basis)

    def transpose(self) -> "OperatorMatrix":
        """Plain transpose: the adjoint of the bilinear (unconjugated) pairing."""
        return OperatorMatrix(self.ctx, self.entries.T.copy(), self.basis)

    @staticmethod
    def identity(ctx: TruncationContext, basis: str = "sample") -> "OperatorMatrix":
        return OperatorMatrix(ctx, np.eye(ctx.N, dtype=np.complex128), basis)

    def save_binary(self, path) -> None:
        path = Path(path)
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<IIB", self.ctx.p, self.ctx.n, _BASIS_TAGS[self.basis]))
            inter = np.empty((self.ctx.N, self.ctx.N, 2), dtype="<f8")
            inter[..., 0] = self.entries.real
            inter[..., 1] = self.entries.imag
            fh.write(inter.tobytes())

    @staticmethod
    def load_binary(path) -> "OperatorMatrix":
        raw = Path(path).read_bytes()
        if raw[:8] != _MAGIC:
            raise ValueError("not an operator-matrix file (bad magic)")
        if len(raw) < _HEADER:
            raise ValueError(f"operator-matrix header truncated: {len(raw)} bytes, need {_HEADER}")
        p, n, tag = struct.unpack("<IIB", raw[8:_HEADER])
        if tag not in _TAG_BASIS:
            raise ValueError(f"unknown basis tag {tag} (0 = sample, 1 = frequency)")
        payload = len(raw) - _HEADER
        # a prime power p^n exceeds the payload once n reaches its bit length,
        # so a huge n in a corrupt header never forms the power
        if n >= payload.bit_length() or 16 * (p**n) ** 2 != payload:
            raise ValueError(f"payload of {payload} bytes does not hold a complex {p}^{n} x {p}^{n} matrix")
        ctx = TruncationContext(p, n)
        data = np.frombuffer(raw, dtype="<f8", offset=_HEADER).reshape(ctx.N, ctx.N, 2)
        return OperatorMatrix(ctx, data[..., 0] + 1j * data[..., 1], _TAG_BASIS[tag])


def real_if_exact(entries: np.ndarray) -> np.ndarray:
    """``entries.real`` when no imaginary part is nonzero, else ``entries``.

    The test is exact, not a tolerance, so a real view never drops a
    nonzero imaginary entry.
    """
    return entries if entries.imag.any() else entries.real


def symbol_table_to_matrix(table: np.ndarray, ctx: TruncationContext) -> np.ndarray:
    """Sample-basis entries of the operator with symbol table sigma[x, u].

    ``A[x, y] = p^-n sum_u sigma(x, u) chi(u (x - y))``: synthesize each
    row and gather it along the shifted diagonal.
    """
    B = dft_axis(np.asarray(table, dtype=np.complex128), ctx, +1, axis=1)
    x = np.arange(ctx.N)
    idx = (x[:, None] - x[None, :]) % ctx.N
    return np.take_along_axis(B, idx, axis=1) / ctx.N


def radial_profile_to_matrix(profile: np.ndarray, ctx: TruncationContext) -> np.ndarray:
    """Sample-basis entries of the operator of a symbol radial in xi, from its shell profile.

    ``profile[x, j]`` is sigma(x, xi) on the shell ``|xi| = p^j`` (j = 0 is
    xi = 0, whose character sums to 1).  The characters of a shell j >= 1
    sum to ``p^j - p^(j-1)`` at offsets ``x - y`` of valuation at least j,
    to ``-p^(j-1)`` at valuation j - 1 and to 0 below, so
    ``A[x, y] = G[x, v(x - y)]`` with
    ``G[x, k] = p^-n (sum_(j<=k) P[x, j] |shell j| - P[x, k+1] p^k)``; the
    last term is absent at k = n.  One cumsum over the n+1 shells and one
    gather, with no transform: a real profile gives an exactly real matrix.
    """
    P = np.asarray(profile)
    p, n, N = ctx.p, ctx.n, ctx.N
    if P.shape != (N, n + 1):
        raise ValueError(f"radial profile must have shape ({N}, {n + 1}), got {P.shape}")
    powers = np.power(float(p), np.arange(n + 1))
    sizes = np.diff(powers, prepend=0.0)  # characters per shell: 1, p - 1, p^2 - p, ...
    G = np.cumsum(P * sizes, axis=1)
    G[:, :n] -= P[:, 1:] * powers[:n]
    G /= N
    # v(x - y) = v(y - x), so row x of the offset valuations is ``valuations``
    # rolled by x: a strided view of two copies, with no N^2 index arithmetic
    ring = np.concatenate((ctx.valuations, ctx.valuations))
    rolled = sliding_window_view(ring, N)[N:0:-1]
    return G.ravel()[rolled + (n + 1) * np.arange(N)[:, None]]


def matrix_to_symbol_table(entries: np.ndarray, ctx: TruncationContext) -> np.ndarray:
    """Symbol table of a sample-basis matrix: test against every character.

    ``sigma(x, u) = conj(chi(u x)) (A chi_u)(x)``, evaluated for all
    columns at once through one batched synthesis transform.
    """
    applied = dft_axis(np.asarray(entries, dtype=np.complex128), ctx, +1, axis=1)
    x = np.arange(ctx.N)
    conj_char = ctx.roots[(-np.outer(x, x)) % ctx.N]
    return applied * conj_char


def offset_shells(ctx: TruncationContext, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Shell of the dual offset ``eta - xi`` for every row ``eta`` and column ``xi``."""
    return ctx.shells[(rows[:, None] - cols[None, :]) % ctx.N]


def schur_weighted(magnitudes: np.ndarray, shells: np.ndarray, ctx: TruncationContext, r: float) -> np.ndarray:
    """``|M| <eta-xi>^r`` from ``|M|`` and its ``offset_shells``.

    The weight takes one value per shell, so its n+1 powers are taken on
    ``ctx.shell_weights`` and gathered by the shell of the offset.
    """
    return magnitudes * np.power(ctx.shell_weights, r)[shells]


def schur_sups(
    weighted: np.ndarray, ctx: TruncationContext, rows: np.ndarray, cols: np.ndarray, m: float = 0.0
) -> tuple[float, float]:
    """``(sup_xi <xi>^-m sum_eta W, sup_eta <eta>^-m sum_xi W)`` of a weighted block W on rows x cols."""
    if rows.size == 0 or cols.size == 0:
        return 0.0, 0.0
    decay = np.power(ctx.shell_weights, -m)
    row_sup = float(np.max(weighted.sum(axis=0) * decay[ctx.shells[cols]]))
    col_sup = float(np.max(weighted.sum(axis=1) * decay[ctx.shells[rows]]))
    return row_sup, col_sup


def schur_sums(
    entries: np.ndarray,
    ctx: TruncationContext,
    r: float,
    m: float = 0.0,
    row_idx: np.ndarray | None = None,
    col_idx: np.ndarray | None = None,
) -> tuple[float, float]:
    """Weighted row/column sums of a frequency-basis matrix M[eta, xi].

    Returns ``(sup_xi <xi>^-m sum_eta |M| <eta-xi>^r,
              sup_eta <eta>^-m sum_xi |M| <eta-xi>^r)`` where the offset
    eta - xi is taken in the dual group.  ``row_idx`` / ``col_idx``
    restrict both the matrix and the index bookkeeping to a sub-block.
    A caller that sums many blocks or exponents of one matrix forms
    ``schur_weighted`` once per r and reads its blocks with ``schur_sups``.
    """
    entries = np.asarray(entries)
    rows = np.arange(ctx.N) if row_idx is None else np.asarray(row_idx)
    cols = np.arange(ctx.N) if col_idx is None else np.asarray(col_idx)
    weighted = schur_weighted(np.abs(entries[np.ix_(rows, cols)]), offset_shells(ctx, rows, cols), ctx, r)
    return schur_sups(weighted, ctx, rows, cols, m)
