"""Associated matrices, Schur classes, and inverse-closedness experiments.

The associated matrix of a symbol lives in the frequency basis and its
entries are the x-Fourier coefficients of the symbol, ``M[eta, xi] =
sighat(eta - xi, xi)`` with the offset taken in the dual group.  Schur
norms weight the off-diagonal decay by ``<eta - xi>^r`` and, in the
weighted variant, discount rows/columns by ``<.>^-m``.

At truncation all sums are finite, so the identities tying Schur norms
to weighted l1 norms of the symbol's x-spectrum (and of the adjoint
symbol's) hold exactly and are exposed for testing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .calculus import adjoint_symbol, ellipticity_report
from .core import TruncationContext
from .fourier import dft_axis
from .operator_matrix import OperatorMatrix, schur_sums
from .symbols import Symbol, SeminormReport, _ratio, _sub_dual_mask, seminorm

#: relative level below which transform spectra count as rounding dust
QUENCH_FLOOR = 1e-13
#: the inversion series stops once a term's l1 spectrum drops below SERIES_TOL,
#: and fails if that takes more than SERIES_MAX_TERMS terms
SERIES_TOL = 1e-12
SERIES_MAX_TERMS = 2000


class EllipticityMarginError(RuntimeError):
    """The inversion series fails to contract (ellipticity margin lost)."""


@dataclass
class SchurReport:
    r: float
    m: float
    row_sup: float
    col_sup: float
    norm: float
    growth_ratio: float


def associated_matrix(sym: Symbol) -> OperatorMatrix:
    """Frequency-basis matrix with entries sighat(eta - xi, xi)."""
    ctx = sym.ctx
    sighat = dft_axis(sym.table, ctx, -1, axis=0) / ctx.N
    rows = np.arange(ctx.N)
    offs = (rows[:, None] - rows[None, :]) % ctx.N
    entries = np.take_along_axis(sighat, offs, axis=0)
    return OperatorMatrix(ctx, entries, "frequency")


def schur_norm(M, r: float, m: float = 0.0, ctx: TruncationContext | None = None) -> SchurReport:
    """Weighted Schur row/column sums of a frequency-basis matrix.

    Accepts an :class:`OperatorMatrix` (converted to the frequency basis
    if needed) or a bare array plus ``ctx``.  The growth ratio compares
    the norm on the full dual with the norm of the level-(n-1) sub-block.
    """
    if isinstance(M, OperatorMatrix):
        ctx = M.ctx
        entries = M.entries if M.basis == "frequency" else M.to_basis("frequency").entries
    else:
        if ctx is None:
            raise ValueError("ctx required when passing a bare matrix")
        entries = np.asarray(M)
    if r < 0:
        raise ValueError(f"weight exponent r must be >= 0, got {r}")
    row_sup, col_sup = schur_sums(entries, ctx, r, m)
    norm = max(row_sup, col_sup)
    sub = np.flatnonzero(_sub_dual_mask(ctx))
    sub_row, sub_col = schur_sums(entries, ctx, r, m, row_idx=sub, col_idx=sub)
    ratio = _ratio(norm, max(sub_row, sub_col))
    return SchurReport(r=r, m=m, row_sup=row_sup, col_sup=col_sup, norm=norm, growth_ratio=ratio)


@dataclass
class EquivalenceReport:
    """Juxtaposed class-seminorm and Schur-norm diagnostics for one symbol."""

    m: float
    seminorms: SeminormReport
    schur: list
    identity_gaps: dict  # r -> relative gap of the spectral-sum identity

    def to_json(self) -> str:
        return json.dumps(
            {
                "m": self.m,
                "seminorm_constants": self.seminorms.constants.tolist(),
                "seminorm_growth": self.seminorms.growth_ratio.tolist(),
                "schur": [
                    {
                        "r": rep.r,
                        "m": rep.m,
                        "norm": rep.norm,
                        "growth_ratio": rep.growth_ratio,
                    }
                    for rep in self.schur
                ],
                "identity_gaps": {str(k): v for k, v in self.identity_gaps.items()},
            }
        )


def _quench(arr: np.ndarray) -> np.ndarray:
    """Zero entries below a relative noise floor (transform rounding dust)."""
    peak = np.max(np.abs(arr))
    if peak == 0.0:
        return arr
    out = arr.copy()
    out[np.abs(out) < QUENCH_FLOOR * peak] = 0.0
    return out


def equivalence_check(sym: Symbol, m: float, r_max: int = 4, alpha_max: int = 3, beta_max: int = 2) -> EquivalenceReport:
    """Run both sides of the class/matrix correspondence for one symbol.

    Produces the difference-family seminorms at (m, 0, 0), the weighted
    Schur norms for r = 0..r_max, and the exact-identity gaps tying each
    unweighted Schur norm to the weighted l1 norms of the x-spectra of
    the symbol and of its adjoint symbol.  The identity is exact at
    truncation; to keep the comparison meaningful under the <.>^r weight
    amplification, spectra below a 1e-13 relative floor are zeroed on
    both sides before weighting (they are rounding, not structure).
    """
    ctx = sym.ctx
    sem = seminorm(sym, "S_tilde", m=m, rho=0.0, delta=0.0, alpha_max=alpha_max, beta_max=beta_max)
    M = associated_matrix(sym)
    reports = [schur_norm(M, r=float(r), m=m) for r in range(r_max + 1)]

    sighat = _quench(dft_axis(sym.table, ctx, -1, axis=0) / ctx.N)
    adj = adjoint_symbol(sym)
    adjhat = _quench(dft_axis(adj.table, ctx, -1, axis=0) / ctx.N)
    M_clean = _quench(M.entries)
    gaps = {}
    for r in range(r_max + 1):
        w = np.power(ctx.weights, float(r))
        side_direct = float(np.max(w @ np.abs(sighat)))
        side_adjoint = float(np.max(w @ np.abs(adjhat)))
        identity_value = max(side_direct, side_adjoint)
        row_sup, col_sup = schur_sums(M_clean, ctx, float(r))
        plain = max(row_sup, col_sup)
        gaps[r] = abs(plain - identity_value) / max(1.0, plain)
    return EquivalenceReport(m=m, seminorms=sem, schur=reports, identity_gaps=gaps)


@dataclass
class WienerColumn:
    """Per-frequency record of the geometric inversion series."""

    u: int
    norm: float
    delta: float  # inf |sigma| / sup |sigma| over x
    ratio_bound: float  # 1 - delta (the contraction bound; trig polys are exact here)
    measured_ratio: float
    terms: int
    recon_error: float  # series reciprocal vs. pointwise reciprocal


@dataclass
class WienerReport:
    threshold: int
    order: float
    columns: list
    jr_constants: dict  # r -> sup_xi ||J_r spectrum of 1/sigma(., xi)||_l1 * <xi>^order

    def to_csv_rows(self):
        rows = [("u", "norm", "delta", "ratio_bound", "measured_ratio", "terms", "recon_error")]
        for c in self.columns:
            rows.append((c.u, c.norm, c.delta, c.ratio_bound, c.measured_ratio, c.terms, c.recon_error))
        return rows


def wiener_experiment(
    sym: Symbol,
    order: float,
    threshold: int,
    r_values: tuple = (0, 1, 2, 3),
) -> WienerReport:
    """Invert sigma column-by-column through the geometric series.

    For each frequency xi above the threshold, write h = sigma(., xi) /
    sup|sigma(., xi)| and sum (1 - h)^k; the increment's l1 spectrum is
    tracked, the measured contraction ratio is compared against the
    1 - inf/sup bound, and the summed reciprocal is cross-checked against
    the direct pointwise reciprocal.  Weighted l1 norms of the spectrum
    of 1/sigma feed the inverse-closedness constants.
    """
    ctx = sym.ctx
    ell = ellipticity_report(sym, order, n_max=threshold)
    if ell is None or ell.threshold > threshold:
        raise EllipticityMarginError(f"symbol not elliptic of order {order} at threshold {threshold}")
    high = np.flatnonzero(ctx.norms >= float(ctx.p) ** threshold)
    columns = []
    jr_sup = {r: 0.0 for r in r_values}
    for u in high:
        col = sym.table[:, u]
        sup = float(np.max(np.abs(col)))
        inf = float(np.min(np.abs(col)))
        if sup == 0.0:
            raise EllipticityMarginError(f"column u={u} vanishes identically")
        delta = inf / sup
        f = 1.0 - col / sup
        contraction = float(np.max(np.abs(f)))
        if contraction >= 1.0:
            raise EllipticityMarginError(
                f"column u={u}: pointwise contraction factor {contraction:.6f} >= 1"
            )
        acc = np.ones(ctx.N, dtype=np.complex128)
        term = f.astype(np.complex128)
        l1_history = []
        k = 0
        while k < SERIES_MAX_TERMS:
            spec_l1 = float(np.sum(np.abs(dft_axis(term, ctx, -1, axis=0) / ctx.N)))
            l1_history.append(spec_l1)
            if spec_l1 < SERIES_TOL:
                break
            acc += term
            term = term * f
            k += 1
        else:
            raise EllipticityMarginError(f"column u={u}: series did not reach {SERIES_TOL} in {SERIES_MAX_TERMS} terms")
        if len(l1_history) > 3:
            warm = l1_history[2:]
            measured = (warm[-1] / warm[0]) ** (1.0 / (len(warm) - 1)) if warm[0] > 0 else 0.0
        else:
            measured = 0.0
        recip_series = acc / sup
        recip_direct = 1.0 / col
        recon = float(np.max(np.abs(recip_series - recip_direct)) / np.max(np.abs(recip_direct)))
        columns.append(
            WienerColumn(
                u=int(u),
                norm=float(ctx.norms[u]),
                delta=delta,
                ratio_bound=1.0 - delta,
                measured_ratio=measured,
                terms=len(l1_history),
                recon_error=recon,
            )
        )
        spec = np.abs(dft_axis(recip_direct.astype(np.complex128), ctx, -1, axis=0) / ctx.N)
        for r in r_values:
            val = float(np.sum(np.power(ctx.weights, float(r)) * spec)) * ctx.weights[u] ** order
            jr_sup[r] = max(jr_sup[r], val)
    return WienerReport(threshold=threshold, order=order, columns=columns, jr_constants=jr_sup)
