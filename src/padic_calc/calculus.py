"""Quantization, symbol extraction, composition, adjoints, parametrices.

Everything here is exact at truncation: the ultrametric keeps xi + eta
inside the truncated dual, so the composition formula incurs no
truncation error and quantize/symbol_of invert each other on the nose
(up to rounding).  Composition, adjoint and transpose symbols are
*defined* through the matrix realization (BLAS does the cubic work); the
eta-sum composition formula and the series formulas of the calculus are
checked against them as theorems in the test-suite, not used as
definitions.  The transforms behind quantize/symbol_of are numpy's FFT;
``quantize`` gathers its shifted diagonals by integer index arithmetic
mod p^n, and ``symbol_of`` reads them as a strided view of the matrix,
with no character table.
A symbol radial in xi skips the transform: ``quantize`` gathers its
matrix from the (N, n+1) shell profile by the valuation of ``x - y``,
exactly real for a real profile, and the product of two exactly real
matrices runs in real BLAS.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .operator_matrix import (
    OperatorMatrix,
    matrix_to_symbol_table,
    offset_shells,
    radial_profile_to_matrix,
    schur_sums,
    schur_sups,
    schur_weighted,
    symbol_table_to_matrix,
)
from .symbols import Symbol

#: smallest accepted min |sigma - shift| for the reciprocal_shift resolvent
RECIPROCAL_GUARD = 1e-8
#: tail norms at or below this floor count as 0 in the decay fit
DECAY_FLOOR = 1e-13


class NotEllipticError(ValueError):
    """The symbol fails the lower bound needed for a parametrix."""


def quantize(sym: Symbol) -> OperatorMatrix:
    """Sample-basis matrix of the pseudo-differential operator of a symbol.

    A table that is exactly radial in xi is built from its shell profile
    in closed form (``radial_profile_to_matrix``), so a real radial
    symbol gives an exactly real matrix; any other table goes through
    the transform (``symbol_table_to_matrix``).
    """
    profile = sym.shell_profile()
    if profile is not None:
        return OperatorMatrix(sym.ctx, radial_profile_to_matrix(profile, sym.ctx), "sample")
    return OperatorMatrix(sym.ctx, symbol_table_to_matrix(sym.table, sym.ctx), "sample")


def symbol_of(A: OperatorMatrix) -> Symbol:
    """Associated symbol of an operator matrix (exact round trip with quantize)."""
    entries = A.entries if A.basis == "sample" else A.to_basis("sample").entries
    return Symbol(A.ctx, matrix_to_symbol_table(entries, A.ctx))


def compose_symbols(sym1: Symbol, sym2: Symbol) -> Symbol:
    """Symbol of T_{sigma1} T_{sigma2}; exact at truncation.

    Equals ``sum_eta sigma1(x, xi+eta) sighat2(eta, xi) chi(eta x)`` with
    sighat2 the x-spectrum of sigma2 per column; computed as the symbol
    of the product of the two quantized matrices.
    """
    if sym1.ctx != sym2.ctx:
        raise ValueError("composition across different contexts")
    return symbol_of(quantize(sym1).matmul(quantize(sym2)))


def adjoint_symbol(sym: Symbol) -> Symbol:
    """Symbol of the L2 adjoint, through the matrix realization."""
    return symbol_of(quantize(sym).adjoint())


def transpose_symbol(sym: Symbol) -> Symbol:
    """Symbol of the bilinear transpose (no conjugation), via the matrix."""
    return symbol_of(quantize(sym).transpose())


def kernel_table(sym: Symbol) -> np.ndarray:
    """Integral kernel ``K(x, y) = sum_xi sigma(x, xi) chi(xi (x-y))``.

    The operator acts as ``T f(x) = p^-n sum_y K(x, y) f(y)``.
    """
    return symbol_table_to_matrix(sym.table, sym.ctx) * sym.ctx.N


@dataclass
class EllipticityReport:
    """Lower-bound scan |sigma(x, xi)| >= c <xi>^order on norm(xi) >= p^N."""

    order: float
    threshold: int
    constant: float
    shell_mins: np.ndarray  # min of |sigma| / <xi>^order per shell 0..n


def ellipticity_report(sym: Symbol, order: float, n_max: int | None = None) -> EllipticityReport | None:
    """Smallest threshold exponent N <= n_max with a positive shell bound.

    Shell 0 is the zero frequency (weight p^0 = 1), so N = 0 demands the
    bound on every mode.  Returns None if no threshold up to ``n_max``
    gives a strictly positive constant.
    """
    ctx = sym.ctx
    if n_max is None:
        n_max = ctx.n
    n_max = min(n_max, ctx.n)
    ratios = np.abs(sym.table) / np.power(ctx.weights, order)[None, :]
    shell_mins = np.full(ctx.n + 1, np.inf)
    np.minimum.at(shell_mins, ctx.shells, ratios.min(axis=0))
    for N in range(0, n_max + 1):
        tail = shell_mins[N:]
        if tail.size and tail.min() > 0.0:
            return EllipticityReport(order, N, float(tail.min()), shell_mins)
    return None


@dataclass
class ParametrixReport:
    """Two-sided inverse-modulo-smoothing diagnostics for an elliptic symbol."""

    tau: Symbol
    threshold: int
    r_values: tuple
    residual_norms: dict  # side -> {r: (row_sup, col_sup)}  on the full matrix
    tail_cutoffs: tuple  # restriction exponents l (modes of norm >= p^l)
    tail_norms: dict  # side -> array (len(r_values), len(tail_cutoffs))
    fitted_orders: dict  # side -> {r: decay order of the tail norms in l}
    cut_block_norms: dict  # side -> S_0 norm of the below-threshold block

    def to_json(self) -> str:
        return json.dumps(
            {
                "threshold": self.threshold,
                "r_values": list(self.r_values),
                "residual_norms": {
                    side: {str(r): list(v) for r, v in d.items()} for side, d in self.residual_norms.items()
                },
                "tail_cutoffs": list(self.tail_cutoffs),
                "tail_norms": {side: arr.tolist() for side, arr in self.tail_norms.items()},
                "fitted_orders": {side: {str(r): v for r, v in d.items()} for side, d in self.fitted_orders.items()},
                "cut_block_norms": self.cut_block_norms,
            }
        )


def _decay_order(cutoffs, norms, p) -> float:
    """Least-squares decay exponent of ``norms ~ p^(-order * l)``."""
    vals = np.maximum(np.asarray(norms, dtype=float), DECAY_FLOOR)
    if np.all(vals <= DECAY_FLOOR):
        return np.inf
    x = np.asarray(cutoffs, dtype=float)
    y = np.log(vals) / np.log(p)
    if x.size < 2:
        return np.nan
    slope = np.polyfit(x, y, 1)[0]
    return float(-slope)


def _block(M: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``M[np.ix_(sel, sel)]`` for ``sel = np.flatnonzero(mask)``, by two ``np.compress``.

    The block is C-contiguous with the same entries in the same order, so
    its sums are bit-identical to those of the fancy-indexed one, and the
    gather costs a fraction of it.
    """
    return np.compress(mask, np.compress(mask, M, axis=0), axis=1)


def parametrix(
    sym: Symbol,
    order: float,
    threshold: int,
    r_values: tuple = (0, 1, 2, 3, 4),
) -> ParametrixReport:
    """Cutoff reciprocal parametrix tau = 1/sigma above the threshold.

    tau(x, xi) = 1/sigma(x, xi) for norm(xi) >= p^threshold and 0 below;
    the residuals R1 = T_tau T_sigma - I and R2 = T_sigma T_tau - I are
    formed at matrix level in the frequency basis.  The report carries
    their Schur norms, the norms of the high-mode blocks for a sweep of
    restriction cutoffs, and the fitted decay order of that sweep (the
    finite-level surrogate for a smoothing residual).
    """
    ctx = sym.ctx
    ell = ellipticity_report(sym, order, n_max=threshold)
    if ell is None:
        raise NotEllipticError(f"symbol is not elliptic of order {order} at threshold {threshold}")
    high = ctx.norms >= float(ctx.p) ** threshold
    tau = Symbol(ctx, np.divide(1.0, sym.table, out=np.zeros_like(sym.table), where=high[None, :]))

    A = quantize(sym).to_basis("frequency").entries
    B = quantize(tau).to_basis("frequency").entries
    residuals = {"left": B @ A, "right": A @ B}
    for R in residuals.values():
        R.flat[:: ctx.N + 1] -= 1.0

    cutoffs = tuple(range(threshold, ctx.n))
    # every block below is read from one |R| and one |R| <eta-xi>^r per r
    idx = np.arange(ctx.N)
    shells = offset_shells(ctx, idx, idx)
    masks = [ctx.norms >= float(ctx.p) ** ell_cut for ell_cut in cutoffs]
    tails = [(mask, np.flatnonzero(mask)) for mask in masks]
    low = ~high
    low_idx = np.flatnonzero(low)
    residual_norms = {}
    tail_norms = {}
    fitted = {}
    cut_block = {}
    for side, R in residuals.items():
        magnitudes = np.abs(R)
        residual_norms[side] = {}
        grid = np.zeros((len(r_values), len(cutoffs)))
        for ri, r in enumerate(r_values):
            weighted = schur_weighted(magnitudes, shells, ctx, r)
            residual_norms[side][r] = schur_sups(weighted, ctx, idx, idx)
            for ci, (mask, sel) in enumerate(tails):
                grid[ri, ci] = max(schur_sups(_block(weighted, mask), ctx, sel, sel))
        tail_norms[side] = grid
        fitted[side] = {
            r: _decay_order(cutoffs, grid[ri], ctx.p) if len(cutoffs) >= 2 else np.nan
            for ri, r in enumerate(r_values)
        }
        # at r = 0 every weight is exactly 1, so the cut block is a block of |R| itself
        cut_block[side] = max(schur_sups(_block(magnitudes, low), ctx, low_idx, low_idx))
    return ParametrixReport(
        tau=tau,
        threshold=threshold,
        r_values=tuple(r_values),
        residual_norms=residual_norms,
        tail_cutoffs=cutoffs,
        tail_norms=tail_norms,
        fitted_orders=fitted,
        cut_block_norms=cut_block,
    )


@dataclass
class AnalyticCalcReport:
    """Schur norms of quantize(f o sigma) - f(T_sigma), the calculus defect."""

    function: str
    r_values: tuple
    defect_norms: dict  # r -> (row_sup, col_sup)

    def max_defect(self) -> float:
        return max(max(v) for v in self.defect_norms.values())


def analytic_calculus(
    sym: Symbol,
    function: str = "power",
    exponent: int = 2,
    scale: float = 1.0,
    shift: complex = 0.0,
    r_values: tuple = (0, 1, 2),
) -> tuple[Symbol, AnalyticCalcReport]:
    """Apply an analytic function to the symbol and diagnose the defect.

    Supported: ``power`` (sigma^k vs. the k-th matrix power),
    ``exponential`` (exp(scale*sigma) vs. the matrix exponential) and
    ``reciprocal_shift`` (1/(sigma - shift) vs. the resolvent), the
    latter guarded against near-singularity of the pointwise argument.
    """
    import scipy.linalg  # here, not at the top: only expm needs it, and it is slow to import

    A = quantize(sym).entries
    if function == "power":
        if exponent < 0:
            raise ValueError("power exponent must be a non-negative integer")
        f_table = sym.table**exponent
        fA = np.linalg.matrix_power(A, exponent)
    elif function == "exponential":
        f_table = np.exp(scale * sym.table)
        fA = scipy.linalg.expm(scale * A)
    elif function == "reciprocal_shift":
        gap = np.min(np.abs(sym.table - shift))
        if gap < RECIPROCAL_GUARD:
            raise ValueError(f"symbol range approaches the shift {shift}: min gap {gap:.3e} < {RECIPROCAL_GUARD:.1e}")
        f_table = 1.0 / (sym.table - shift)
        fA = np.linalg.inv(A - shift * np.eye(sym.ctx.N))
    else:
        raise ValueError(f"unknown analytic function {function!r}")
    f_sym = Symbol(sym.ctx, f_table)
    defect = quantize(f_sym).entries - fA
    Dfreq = OperatorMatrix(sym.ctx, defect, "sample").to_basis("frequency").entries
    report = AnalyticCalcReport(
        function=function,
        r_values=tuple(r_values),
        defect_norms={r: schur_sums(Dfreq, sym.ctx, r) for r in r_values},
    )
    return f_sym, report
