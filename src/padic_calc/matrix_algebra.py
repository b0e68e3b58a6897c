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
#: the series holds this many bytes of complex128 columns per block
SERIES_BLOCK_BYTES = 1 << 17


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

    The columns run in blocks of SERIES_BLOCK_BYTES, held as rows, so each
    series term is one transform per block; a column leaves the block when
    it converges.  Every float operation is the one the column-by-column
    loop does, so the report is bit-identical to it, and the first failing
    column in column order raises.
    """
    ctx = sym.ctx
    ell = ellipticity_report(sym, order, n_max=threshold)
    if ell is None or ell.threshold > threshold:
        raise EllipticityMarginError(f"symbol not elliptic of order {order} at threshold {threshold}")
    high = np.flatnonzero(ctx.norms >= float(ctx.p) ** threshold)
    block = max(1, SERIES_BLOCK_BYTES // (16 * ctx.N))
    weights = ctx.weights
    weights_r = {r: np.power(weights, float(r)) for r in r_values}
    columns = []
    jr_sup = {r: 0.0 for r in r_values}
    for start in range(0, high.size, block):
        us = high[start : start + block]
        cols = np.ascontiguousarray(sym.table[:, us].T)
        sup = np.max(np.abs(cols), axis=1)
        inf = np.min(np.abs(cols), axis=1)
        fail = {int(i): f"column u={us[i]} vanishes identically" for i in np.flatnonzero(sup == 0.0)}
        live = np.flatnonzero(sup != 0.0)
        f = 1.0 - cols[live] / sup[live, None]
        contraction = np.max(np.abs(f), axis=1)
        for i, c in zip(live, contraction):
            if c >= 1.0:
                fail[int(i)] = f"column u={us[i]}: pointwise contraction factor {c:.6f} >= 1"
        keep = ~(contraction >= 1.0)  # an inf entry makes it NaN: that column runs, and fails, as in the loop
        rows = live[keep]
        f = f[keep].astype(np.complex128)  # the cast the loop's term * f makes on every step
        terms = np.zeros(us.size, dtype=np.int64)
        first = np.zeros(us.size)  # l1 spectrum of term 2, where the warm ratio starts
        last = np.zeros(us.size)
        recon = np.zeros(us.size)
        acc = np.ones(f.shape, dtype=np.complex128)
        term = f.copy()
        k = 0
        while rows.size and k < SERIES_MAX_TERMS:
            spec = dft_axis(term, ctx, -1, axis=1)
            spec /= ctx.N
            spec_l1 = np.sum(np.abs(spec), axis=1)
            if k == 2:
                first[rows] = spec_l1
            done = spec_l1 < SERIES_TOL
            if done.any():
                ended = rows[done]
                terms[ended], last[ended] = k + 1, spec_l1[done]
                recip_direct = 1.0 / cols[ended]
                recip_series = acc[done] / sup[ended, None]
                recon[ended] = np.max(np.abs(recip_series - recip_direct), axis=1) / np.max(np.abs(recip_direct), axis=1)
                running = ~done
                rows, f, acc, term = rows[running], f[running], acc[running], term[running]
            acc += term
            term *= f
            k += 1
        for i in rows:
            fail[int(i)] = f"column u={us[i]}: series did not reach {SERIES_TOL} in {SERIES_MAX_TERMS} terms"
        if fail:
            raise EllipticityMarginError(fail[min(fail)])
        spec = np.abs(dft_axis(1.0 / cols, ctx, -1, axis=1) / ctx.N)
        jr = {r: np.sum(w * spec, axis=1) for r, w in weights_r.items()}
        for i, u in enumerate(us):
            delta = float(inf[i] / sup[i])
            measured = 0.0
            if terms[i] > 3 and first[i] > 0:
                measured = (float(last[i]) / float(first[i])) ** (1.0 / (int(terms[i]) - 3))
            columns.append(
                WienerColumn(
                    u=int(u),
                    norm=float(ctx.norms[u]),
                    delta=delta,
                    ratio_bound=1.0 - delta,
                    measured_ratio=measured,
                    terms=int(terms[i]),
                    recon_error=float(recon[i]),
                )
            )
            for r in r_values:
                jr_sup[r] = max(jr_sup[r], float(jr[r][i]) * weights[u] ** order)
    return WienerReport(threshold=threshold, order=order, columns=columns, jr_constants=jr_sup)
