"""Associated matrices, Schur classes, and inverse-closedness experiments.

The associated matrix of a symbol lives in the frequency basis and its
entries are the x-Fourier coefficients of the symbol, ``M[eta, xi] =
sighat(eta - xi, xi)`` with the offset taken in the dual group.  Schur
norms weight the off-diagonal decay by ``<eta - xi>^r`` and, in the
weighted variant, discount rows/columns by ``<.>^-m``.

At truncation all sums are finite, so the identities tying Schur norms
to weighted l1 norms of the symbol's x-spectrum (and of the adjoint
symbol's) hold exactly and are exposed for testing.

``equivalence_check`` runs both sides on the dense associated matrix of
any symbol; no experiment calls it, and the tests use it as the dense
reference.  ``multiplier_equivalence`` serves an x-independent radial
symbol, such as D^s in ``schur-sweep``, from its (n+1)-entry shell
profile: its associated matrix is exactly diagonal, so the Schur sums and
the identity are read off the profile in closed form, with no transform
and no N x N array.

``wiener_experiment`` runs the inversion series column by column.  Its
report lists each column above the threshold (``us``, ``norms``) with the
frozen ``WienerColumn`` record of its series.  On a table that is exactly
radial in xi the columns of a shell are equal, so it hands the shell
profile to ``wiener_profile``, which runs one series per shell, has every
column of the shell share that record, and builds no N x N array; the
``wiener`` experiment calls it with the profile of ``lambda(|xi|) +
V(x)`` and never builds the table.  Each series runs in chunks of terms,
one transform per chunk, sized by the sup-norm bound on the term at which
it can stop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .calculus import adjoint_symbol, ellipticity_report, profile_ellipticity
from .core import TruncationContext, offset_view
from .fourier import dft_axis
from .operator_matrix import OperatorMatrix, schur_sums
from .symbols import Symbol, SeminormReport, _ratio, _sub_shells, multiplier_seminorm, seminorm

#: relative level below which transform spectra count as rounding dust
QUENCH_FLOOR = 1e-13
#: the inversion series stops once a term's l1 spectrum drops below SERIES_TOL,
#: and fails if that takes more than SERIES_MAX_TERMS terms
SERIES_TOL = 1e-12
SERIES_MAX_TERMS = 2000
#: the k-th term of a series whose bound exceeds k by this factor is at least
#: SERIES_TOL^(1/1.01) in sup (1.3 SERIES_TOL), far beyond rounding, so it
#: cannot stop the series (see ``wiener_experiment``)
SERIES_BOUND_MARGIN = 1.01
#: the series holds this many bytes of complex128 columns per block, and its
#: stack of terms holds at most this many bytes per chunk (but always one term)
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
    entries = np.take_along_axis(sighat, offset_view(np.arange(ctx.N)), axis=0)
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
    sub = np.flatnonzero(_sub_shells(ctx)[ctx.shells])
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
    truncation; to keep the Schur norms and the identity meaningful under
    the <.>^r weight amplification, the associated matrix and both spectra
    are zeroed below a 1e-13 relative floor before weighting (that is
    transform rounding, not structure).
    """
    ctx = sym.ctx
    sem = seminorm(sym, "S_tilde", m=m, rho=0.0, delta=0.0, alpha_max=alpha_max, beta_max=beta_max)
    M_clean = _quench(associated_matrix(sym).entries)
    reports = [schur_norm(M_clean, r=float(r), m=m, ctx=ctx) for r in range(r_max + 1)]

    sighat = _quench(dft_axis(sym.table, ctx, -1, axis=0) / ctx.N)
    adj = adjoint_symbol(sym)
    adjhat = _quench(dft_axis(adj.table, ctx, -1, axis=0) / ctx.N)
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


def multiplier_equivalence(
    profile, ctx: TruncationContext, m: float, r_max: int = 4, alpha_max: int = 3, beta_max: int = 2
) -> EquivalenceReport:
    """``equivalence_check`` of the x-independent radial symbol with shell profile ``profile``.

    Its associated matrix is diagonal, ``M[xi, xi] = profile[j]`` on shell
    j, so every weighted Schur row and column sum is ``|profile[j]|
    <xi>^-m`` whatever r is, and both sides of the spectral-sum identity
    are ``max |profile|``: the gaps are exactly 0.  The seminorms come from
    ``multiplier_seminorm``; no transform runs and no N x N array is built.
    """
    sem = multiplier_seminorm(profile, ctx, "S_tilde", m=m, rho=0.0, delta=0.0, alpha_max=alpha_max, beta_max=beta_max)
    sums = np.abs(np.asarray(profile, dtype=np.complex128)) * np.power(ctx.shell_weights, -m)
    norm = float(np.max(sums))
    ratio = _ratio(norm, float(np.max(sums[_sub_shells(ctx)])))
    reports = [SchurReport(float(r), m, norm, norm, norm, ratio) for r in range(r_max + 1)]
    return EquivalenceReport(m=m, seminorms=sem, schur=reports, identity_gaps={r: 0.0 for r in range(r_max + 1)})


@dataclass(frozen=True)
class WienerColumn:
    """Record of one geometric inversion series; the columns that share a series share its record."""

    delta: float  # inf |sigma| / sup |sigma| over x
    ratio_bound: float  # 1 - delta (the contraction bound; trig polys are exact here)
    measured_ratio: float
    terms: int
    recon_error: float  # series reciprocal vs. pointwise reciprocal


@dataclass
class WienerReport:
    threshold: int
    order: float
    us: list  # dual index u of each column above the threshold, ascending
    norms: list  # |xi|_p of each column
    columns: list  # the WienerColumn of each column
    jr_constants: dict  # r -> sup_xi ||J_r spectrum of 1/sigma(., xi)||_l1 * <xi>^order

    def to_csv_rows(self):
        rows = [("u", "norm", "delta", "ratio_bound", "measured_ratio", "terms", "recon_error")]
        for u, norm, c in zip(self.us, self.norms, self.columns):
            rows.append((u, norm, c.delta, c.ratio_bound, c.measured_ratio, c.terms, c.recon_error))
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
    of 1/sigma feed the inverse-closedness constants.  The report lists,
    per column above the threshold in ascending u, its ``us`` and
    ``norms`` and, in ``columns``, the ``WienerColumn`` of its series.

    A table that is exactly radial in xi (``Symbol.shell_profile``) goes
    to ``wiener_profile`` with its profile.  Other tables run every
    column, one record each.  The columns run in blocks of
    SERIES_BLOCK_BYTES, held as rows, and the series of a block runs in
    chunks of terms: each chunk is built by repeated multiplication into
    one (terms, rows, N) stack of at most SERIES_BLOCK_BYTES (and at least
    one term) and transformed in one call.  The chunk length comes from a
    bound: the k-th term (counting from 1) is f^k, whose sup is c^k for
    the contraction c = max |f|, and the l1 norm of a spectrum bounds the
    sup of its function, so no row stops before term ``bound =
    log(SERIES_TOL) / log(c)``; on smooth columns the series stops at its
    ceiling or one term later.  A chunk runs to one term past the slowest
    row's bound, or fills the stack once every row is past it.  A chunk is
    transformed from the fastest row's ``bound / SERIES_BOUND_MARGIN`` on,
    or from the third term, where the warm ratio starts, if it holds it;
    a row whose bound exceeds SERIES_MAX_TERMS by that margin cannot
    converge and fails at once.  The terms are added to the sum in the loop's order, so every
    float of the report is the one the column-by-column loop computes: the
    report is bit-identical to it, and the first failing column in column
    order raises the loop's error.
    """
    ctx = sym.ctx
    profile = sym.shell_profile()
    if profile is not None:
        return wiener_profile(ctx, profile, order, threshold, r_values)
    ell = ellipticity_report(sym, order, n_max=threshold)
    high = np.flatnonzero(ctx.norms >= float(ctx.p) ** threshold)
    return _wiener_series(ctx, sym.table, high, high, ell, high, None, order, threshold, r_values)


def wiener_profile(
    ctx: TruncationContext,
    profile,
    order: float,
    threshold: int,
    r_values: tuple = (0, 1, 2, 3),
) -> WienerReport:
    """``wiener_experiment`` of ``Symbol.radial(ctx, profile)``, from its ``(N, n+1)`` shell profile.

    The columns of shell j all equal profile column j, so one series runs
    per shell above the threshold, reported as its first column
    ``ctx.shell_index[j]``, and every column of the shell holds a
    reference to that one record.  The ellipticity minima are read off
    the profile, and no N x N array is built.  The report is the one
    ``wiener_experiment`` gives on the expanded table.
    """
    profile = np.asarray(profile, dtype=np.complex128)
    if profile.shape != (ctx.N, ctx.n + 1):
        raise ValueError(f"radial profile must have shape ({ctx.N}, {ctx.n + 1})")
    ell = profile_ellipticity(profile, ctx, order, n_max=threshold)
    bar = float(ctx.p) ** threshold
    shells = np.flatnonzero(ctx.shell_norms >= bar)[::-1]  # by first index: shell_index falls as j rises from 1
    at = np.empty(ctx.n + 1, dtype=np.int64)
    at[shells] = np.arange(shells.size)
    high = np.flatnonzero(ctx.norms >= bar)
    reps, src = ctx.shell_index[shells], at[ctx.shells[high]]
    return _wiener_series(ctx, profile, shells, reps, ell, high, src, order, threshold, r_values)


def _wiener_series(ctx, table, picks, reps, ell, high, src, order, threshold, r_values) -> WienerReport:
    """Run one series per column ``table[:, picks[i]]``, reported as dual index ``reps[i]``.

    ``ell`` is the table's ellipticity report (None raises); ``high``
    lists the columns of the report and ``src`` the record each takes
    (None: one record per column, ``reps`` being ``high``).
    """
    if ell is None:
        raise EllipticityMarginError(f"symbol not elliptic of order {order} at threshold {threshold}")
    block = max(1, SERIES_BLOCK_BYTES // (16 * ctx.N))
    weights = ctx.weights
    weights_r = {r: np.power(weights, float(r)) for r in r_values}
    records = []
    jr_sup = {r: 0.0 for r in r_values}
    for start in range(0, reps.size, block):
        us = reps[start : start + block]
        cols = np.ascontiguousarray(table[:, picks[start : start + block]].T)
        sup = np.max(np.abs(cols), axis=1)
        inf = np.min(np.abs(cols), axis=1)
        fail = {int(i): f"column u={us[i]} vanishes identically" for i in np.flatnonzero(sup == 0.0)}
        live = np.flatnonzero(sup != 0.0)
        f = 1.0 - cols[live] / sup[live, None]
        contraction = np.max(np.abs(f), axis=1)
        for i, c in zip(live, contraction):
            if c >= 1.0:
                fail[int(i)] = f"column u={us[i]}: pointwise contraction factor {c:.6f} >= 1"
        keep = ~(contraction >= 1.0)  # an inf entry makes it NaN: the loop runs that column's series, all NaN
        rows, f = live[keep], f[keep]
        with np.errstate(divide="ignore"):
            bound = np.log(SERIES_TOL) / np.log(contraction[keep])  # 0 for c = 0, NaN for c = NaN
        doomed = ~(bound <= SERIES_BOUND_MARGIN * SERIES_MAX_TERMS)
        unreached = rows[doomed]
        rows, bound = rows[~doomed], bound[~doomed]
        f = f[~doomed].astype(np.complex128)  # the cast the loop's term * f makes on every step
        terms = np.zeros(us.size, dtype=np.int64)
        first = np.zeros(us.size)  # l1 spectrum of term 2, where the warm ratio starts
        last = np.zeros(us.size)
        sums = np.ones(cols.shape, dtype=np.complex128)  # each row's sum of the terms before its last
        acc = np.ones(f.shape, dtype=np.complex128)
        k = 0
        while rows.size and k < SERIES_MAX_TERMS:
            cap = max(1, SERIES_BLOCK_BYTES // (16 * ctx.N * rows.size))
            end = int(np.ceil(bound.max())) + 1
            size = min(end - k if end > k else cap, cap, SERIES_MAX_TERMS - k)
            stack = np.empty((size, rows.size, ctx.N), dtype=np.complex128)
            if k == 0:
                stack[0] = f
            else:
                np.multiply(term, f, out=stack[0])  # term: the previous chunk's last
            for i in range(1, size):
                np.multiply(stack[i - 1], f, out=stack[i])
            # no row stops at a term j (from 0) with (j + 1) * margin below its bound: transform from the
            # fastest row's first possible stop on, or from term 2, where the warm ratio starts
            warm = k <= 2 < k + size
            lo = int(np.ceil(bound.min() / SERIES_BOUND_MARGIN)) - 1
            start = max((min(lo, 2) if warm else lo) - k, 0)
            spec_l1 = np.full((size, rows.size), np.inf)
            if start < size:
                spec = dft_axis(stack[start:], ctx, -1, axis=2)
                spec /= ctx.N
                spec_l1[start:] = np.sum(np.abs(spec), axis=2)
            if warm:
                first[rows] = spec_l1[2 - k]
            done = spec_l1 < SERIES_TOL
            stop = np.where(done.any(axis=0), done.argmax(axis=0), size)  # terms each row adds before it stops
            low = stop.min()
            for i in range(stop.max()):
                np.add(acc, stack[i], out=acc, where=True if i < low else (i < stop)[:, None])
            term = stack[-1]
            ended = np.flatnonzero(stop < size)
            if ended.size:
                terms[rows[ended]] = k + stop[ended] + 1
                last[rows[ended]] = spec_l1[stop[ended], ended]
                sums[rows[ended]] = acc[ended]
                running = stop == size
                rows, bound, f, acc, term = rows[running], bound[running], f[running], acc[running], term[running]
            k += size
        for i in np.concatenate([unreached, rows]):
            fail[int(i)] = f"column u={us[i]}: series did not reach {SERIES_TOL} in {SERIES_MAX_TERMS} terms"
        if fail:
            raise EllipticityMarginError(fail[min(fail)])
        recip = 1.0 / cols
        recon = np.max(np.abs(sums / sup[:, None] - recip), axis=1) / np.max(np.abs(recip), axis=1)
        spec = np.abs(dft_axis(recip, ctx, -1, axis=1) / ctx.N)
        jr = {r: np.sum(w * spec, axis=1) for r, w in weights_r.items()}
        for i, u in enumerate(us):
            delta = float(inf[i] / sup[i])
            measured = 0.0
            if terms[i] > 3 and first[i] > 0:
                measured = (float(last[i]) / float(first[i])) ** (1.0 / (int(terms[i]) - 3))
            records.append(WienerColumn(delta, 1.0 - delta, measured, int(terms[i]), float(recon[i])))
            for r in r_values:
                jr_sup[r] = max(jr_sup[r], float(jr[r][i]) * weights[u] ** order)
    columns = records if src is None else list(map(records.__getitem__, src.tolist()))
    return WienerReport(threshold, order, high.tolist(), ctx.norms[high].tolist(), columns, jr_sup)
