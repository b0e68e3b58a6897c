"""Dense p^n x p^n realizations of operators, in either basis.

Sample basis: the matrix acts on sample vectors by plain matmul and
already contains the Haar weight, i.e. ``(T f)[x] = sum_y A[x, y] f[y]``.
Frequency basis: the matrix acts on coefficient vectors of the dual
group.  Conversion is conjugation by the transform pair and is exact up
to rounding.

A symbol and its sample-basis matrix meet on the shifted diagonals
``A[x, x+k]``: row x of the symbol table is the synthesis transform in
k of ``A[x, x+k]``.  ``symbol_table_to_matrix`` gathers the transformed
rows back along ``x - y`` through ``core.offset_view``, with no index
table; ``matrix_to_symbol_table`` reads the diagonals as a strided view
and transforms them, with no gather and no character table.  A symbol
radial in xi needs no transform at all (``radial_profile_to_matrix``).

Binary layout (documented interface): 8-byte magic ``PADICOP1``, uint32
p, uint32 n, uint8 basis tag (0 = sample, 1 = frequency), all
little-endian, followed by the row-major entries as interleaved
(re, im) float64 little-endian pairs, which is ``<c16`` itself: the
entries are written from, and read back as, that dtype with no
per-part copy, so every float (signed zeros, infinities, NaN) round
trips bit for bit.  ``_write_in_place`` writes the file over any older
one without truncating it first (see its docstring).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import TruncationContext, offset_view
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
        header = _MAGIC + struct.pack("<IIB", self.ctx.p, self.ctx.n, _BASIS_TAGS[self.basis])
        _write_in_place(path, header, np.ascontiguousarray(self.entries, dtype="<c16"))

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
        entries = np.frombuffer(raw, dtype="<c16", offset=_HEADER).astype(np.complex128).reshape(ctx.N, ctx.N)
        return OperatorMatrix(ctx, entries, _TAG_BASIS[tag])


def _write_in_place(path, *chunks) -> None:
    """Write ``chunks`` (bytes-like) over the file at ``path`` from offset 0, then cut any older tail.

    The file is opened without ``O_TRUNC`` and truncated once, at the end.
    On ext4 (``auto_da_alloc``, on by default) truncating a file that held
    data to zero starts its writeback when it is closed, and so does a
    rename over it: on a 2-vCPU host, rewriting a 2 KB file took about
    100 us that way, 80 us through a rename and 15 us in place.  Writing
    in place keeps the inode, so a symlinked or hard-linked output stays
    linked.  Nothing is fsynced; a torn write shows up as a digest
    mismatch against the manifest that lists it.
    """
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
        fh.truncate()


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
    return np.take_along_axis(B, offset_view(np.arange(ctx.N)), axis=1) / ctx.N


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
    # one flat gather of G[x, v(x - y)]; take_along_axis on G is slower
    return G.ravel()[offset_view(ctx.valuations) + (n + 1) * np.arange(N)[:, None]]


def matrix_to_symbol_table(entries: np.ndarray, ctx: TruncationContext) -> np.ndarray:
    """Symbol table of a sample-basis matrix, read off its shifted diagonals.

    ``sigma(x, u) = conj(chi(u x)) (A chi_u)(x) = sum_k A[x, x+k] chi(u k)``:
    row x of ``D[x, k] = A[x, x+k]`` is a strided view of two copies of A
    side by side (row stride one row plus one entry), and one batched
    synthesis transform along k gives the table, with no character
    lookup or product.
    """
    if np.shape(entries) != (ctx.N, ctx.N):
        raise ValueError(f"expected a {ctx.N}x{ctx.N} matrix, got {np.shape(entries)}")
    twice = np.concatenate((entries, entries), axis=1, dtype=np.complex128)
    D = as_strided(twice, shape=(ctx.N, ctx.N), strides=(sum(twice.strides), twice.strides[1]), writeable=False)
    return dft_axis(D, ctx, +1, axis=1)


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
    The weight ``<eta-xi>^r`` is ``core.offset_view`` of ``<.>^r``, read as
    is on the full range and gathered on a sub-block.  On the full range a
    C-contiguous matrix is read in place; any other is copied to C order,
    the layout a sub-block gather makes, so the sums do not depend on the
    input's memory order.  A caller that sums
    many blocks or exponents of one matrix forms ``|M| <eta-xi>^r`` once
    per r and reads its blocks with ``schur_sups``.
    """
    entries = np.asarray(entries)
    rows = np.arange(ctx.N) if row_idx is None else np.asarray(row_idx)
    cols = np.arange(ctx.N) if col_idx is None else np.asarray(col_idx)
    weights = offset_view(np.power(ctx.weights, r))
    if row_idx is None and col_idx is None:
        block = np.ascontiguousarray(entries)
    else:
        block = entries[np.ix_(rows, cols)]
        weights = weights[np.ix_(rows, cols)]
    weighted = np.abs(block) * weights
    return schur_sups(weighted, ctx, rows, cols, m)
