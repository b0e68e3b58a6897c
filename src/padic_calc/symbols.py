"""Symbol tables, difference/derivative operators, class-seminorm sweeps.

A symbol is a complex table sigma[x, u] over sample points x and dual
indices u, and the table is all it stores.  Structure is read off the
table: a Fourier multiplier is a table whose rows are all exactly equal
(``Symbol.multiplier_values``), and a radial symbol depends on u only
through |xi|_p, with a per-x profile over shells j = 0 for xi = 0 and
j = 1..n for norm p^j (``Symbol.shell_profile``; None unless the table is
exactly radial, which family S and ``radial_delta`` require).
``Symbol.multiplier`` and ``Symbol.radial`` expand a vector or a profile
into a table exactly.

Difference operators:

* ``delta_plus``          group difference  sigma(x, xi+eta) - sigma(x, xi)
* ``radial_delta``        forward difference of the radial profile in the
                          shell exponent j (|xi|_p = p^j); the xi = 0
                          entry never participates in differencing
* ``dx_vladimirov``       fractional derivative in x (D^beta multiplier)
* ``partial_x_h``         the norm-shift derivative
                          sum_eta (|eta-xi|_p - |xi|_p)^h sighat(eta, xi) chi(eta x)

Seminorm sweeps estimate the best constants of three class families over
the finite grid and report a two-level growth ratio (sup over the full
dual vs. the level-(n-1) sub-dual) as a membership diagnostic: a finite
truncation can only falsify membership or exhibit level-stable constants,
never prove membership.  Each family is one private generator
(``_s_ratios``, ``_s_tilde_ratios``, ``_s_check_ratios``) that yields,
per (alpha, beta), the array of ratios of its difference expression to
the class bound and the mask of the entries on the sub-dual; ``_sweep``
is the one reducer that turns these into the constants and growth ratios.

Two routes feed it.  The dense generators serve any table.  The shell
route (``_shell_ratios``) reads a radial symbol off its plain ``(N_x,
n+1)`` shell profile, ``N_x = 1`` for a multiplier: it sweeps shell pairs,
with xi-differences ``max_x |P[:, a] - P[:, b]|``, and builds no N x N
array.  ``seminorm`` sends S_tilde on an exactly radial table, x-dependent
ones included, down the shell route, and everything else down the dense
one; S_check on x-dependent tables stays dense.  ``multiplier_seminorm``
takes the (n+1)-entry profile of an x-independent radial symbol, such as
D^s, for all three families.  The shell route's reports are bit-identical
to the dense generators' on ``Symbol.radial(ctx, profile)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Frequency, ResourceCapError, TruncationContext, offset_view
from .fourier import _from_json, _to_json, dft_axis
from .operator_matrix import OperatorMatrix, matrix_to_symbol_table
from .vladimirov import VladimirovSpec, multiplier_table

FAMILIES = ("S", "S_tilde", "S_check")

#: work cap for the cubic amplitude tensor (p^{3n} entries)
AMPLITUDE_CAP = 2**21
#: work cap for the quartic double-difference sweep (p^{4n} cells)
DOUBLE_DIFFERENCE_CAP = 2**20


@dataclass
class Symbol:
    """Complex symbol table sigma[x, u]; multiplier and radial structure is read off the table."""

    ctx: TruncationContext
    table: np.ndarray

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=np.complex128)
        N = self.ctx.N
        if self.table.shape != (N, N):
            raise ValueError(f"expected a {N}x{N} symbol table, got {self.table.shape}")

    @staticmethod
    def multiplier(ctx: TruncationContext, values) -> "Symbol":
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != (ctx.N,):
            raise ValueError(f"multiplier needs {ctx.N} values, got {values.shape}")
        return Symbol(ctx, np.tile(values, (ctx.N, 1)))

    @staticmethod
    def radial(ctx: TruncationContext, profile) -> "Symbol":
        """Expand a shell profile; column j holds the value at |xi| = p^j (j=0: xi=0)."""
        profile = np.asarray(profile, dtype=np.complex128)
        if profile.ndim == 1:
            profile = np.tile(profile, (ctx.N, 1))
        if profile.shape != (ctx.N, ctx.n + 1):
            raise ValueError(f"radial profile must have shape ({ctx.N}, {ctx.n + 1})")
        return Symbol(ctx, profile[:, ctx.shells])

    def multiplier_values(self) -> np.ndarray | None:
        """Row 0 when every row equals it exactly (sigma independent of x), else None."""
        row = self.table[0]
        return row if np.all(self.table == row[None, :]) else None

    def shell_profile(self) -> np.ndarray | None:
        """Per-x shell profile when the table equals its expansion exactly (radial in xi), else None.

        A C- or F-ordered table is compared with an expansion built in its
        own memory order, both seen as float64 pairs (re, im): two complex
        entries are equal exactly when both parts are, so this is the
        predicate of complex ``==`` (``-0.0 == 0.0``, NaN never equal)
        without its cost on mixed layouts.  Other layouts compare as
        complex.
        """
        table, ctx = self.table, self.ctx
        prof = table[:, ctx.shell_index]
        if table.flags.c_contiguous:
            same = np.array_equal(table.view(np.float64), np.take(prof, ctx.shells, axis=1).view(np.float64))
        elif table.flags.f_contiguous:  # compare the transposes, which are C-ordered
            same = np.array_equal(table.T.view(np.float64), np.take(prof.T, ctx.shells, axis=0).view(np.float64))
        else:
            same = np.all(table == prof[:, ctx.shells])
        return prof if same else None

    def to_json(self) -> str:
        return _to_json(self.ctx, self.table)

    @staticmethod
    def from_json(text: str) -> "Symbol":
        _, ctx, table = _from_json(text)
        return Symbol(ctx, table)


@dataclass
class Amplitude:
    """Three-variable kernel a[x, y, u] of extent p^n in each slot."""

    ctx: TruncationContext
    tensor: np.ndarray

    def __post_init__(self):
        self.tensor = np.asarray(self.tensor, dtype=np.complex128)
        N = self.ctx.N
        if self.tensor.shape != (N, N, N):
            raise ValueError(f"expected a {N}^3 amplitude tensor, got {self.tensor.shape}")


@dataclass
class SeminormReport:
    """Estimated class constants C[alpha][beta] plus growth diagnostics."""

    family: str
    m: float
    rho: float
    delta: float
    alpha_max: int
    beta_max: int
    constants: np.ndarray
    growth_ratio: np.ndarray

    def to_csv_rows(self):
        rows = [("alpha", "beta", "constant", "growth_ratio")]
        for a in range(self.alpha_max + 1):
            for b in range(self.beta_max + 1):
                rows.append((a, b, self.constants[a, b], self.growth_ratio[a, b]))
        return rows

    def to_json(self) -> str:
        return json.dumps(
            {
                "family": self.family,
                "m": self.m,
                "rho": self.rho,
                "delta": self.delta,
                "alpha_max": self.alpha_max,
                "beta_max": self.beta_max,
                "constants": self.constants.tolist(),
                "growth_ratio": self.growth_ratio.tolist(),
            }
        )


def vladimirov_symbol(spec: VladimirovSpec, ctx: TruncationContext) -> Symbol:
    """The D^s eigenvalue table as a multiplier symbol."""
    return Symbol.multiplier(ctx, multiplier_table(spec, ctx))


def delta_plus(sym: Symbol, eta) -> Symbol:
    """Group difference sigma(x, xi + eta) - sigma(x, xi); exact (dual closed)."""
    u_eta = eta.u if isinstance(eta, Frequency) else int(eta)
    N = sym.ctx.N
    shifted = sym.table[:, (np.arange(N) + u_eta) % N]
    return Symbol(sym.ctx, shifted - sym.table)


def radial_delta(sym: Symbol, alpha: int) -> Symbol:
    """alpha-fold forward difference of the radial profile in the exponent.

    Shells j = 1..n-alpha of the output hold the differenced profile;
    the xi = 0 entry and the shells beyond n-alpha (where the forward
    difference would look past the truncation) are exactly 0.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    prof = sym.shell_profile()
    if prof is None:
        raise ValueError("radial_delta needs a table that is exactly radial in xi")
    ctx = sym.ctx
    if alpha == 0:
        return Symbol.radial(ctx, prof)
    if alpha > ctx.n - 1:
        raise ValueError(f"cannot take {alpha} shell differences at level {ctx.n}")
    diff = np.diff(prof[:, 1:], n=alpha, axis=1)  # shells 1..n-alpha
    new_prof = np.zeros_like(prof)
    new_prof[:, 1 : ctx.n - alpha + 1] = diff
    return Symbol.radial(ctx, new_prof)


def _dx(cols: np.ndarray, ctx: TruncationContext, beta: float) -> np.ndarray:
    """D^beta along axis 0 of an (N, k) array: each column is a function of x."""
    lam = multiplier_table(VladimirovSpec(beta, ctx.p), ctx)
    hat = dft_axis(cols, ctx, -1, axis=0) / ctx.N
    return dft_axis(lam[:, None] * hat, ctx, +1, axis=0)


def dx_vladimirov(sym: Symbol, beta: float) -> Symbol:
    """Apply the order-beta fractional derivative to each column in x."""
    if beta < 0:
        raise ValueError(f"derivative order must be >= 0, got {beta}")
    if beta == 0:
        return Symbol(sym.ctx, sym.table.copy())
    if sym.multiplier_values() is not None:
        # constants in x are annihilated exactly; skip the rounding dust
        return Symbol(sym.ctx, np.zeros_like(sym.table))
    return Symbol(sym.ctx, _dx(sym.table, sym.ctx, beta))


def partial_x_h(sym: Symbol, h: int) -> Symbol:
    """Norm-shift derivative: weight the x-spectrum by (|eta-xi|-|xi|)^h."""
    if h < 1:
        raise ValueError(f"h must be a positive integer, got {h}")
    ctx = sym.ctx
    N = ctx.N
    sighat = dft_axis(sym.table, ctx, -1, axis=0) / N
    factor = (offset_view(ctx.norms) - ctx.norms[None, :]) ** h
    return Symbol(ctx, dft_axis(factor * sighat, ctx, +1, axis=0))


def _sub_shells(ctx: TruncationContext) -> np.ndarray:
    """The sub-dual by shell: j <= n-1, and shell 0 (xi = 0) at every level."""
    return np.arange(ctx.n + 1) <= max(ctx.n - 1, 0)


def _ratio(full: float, sub: float) -> float:
    if sub == 0.0:
        return 1.0 if full == 0.0 else np.inf
    return full / sub


def _xi_difference_sups(T: np.ndarray) -> np.ndarray:
    """``out[eta, xi] = max_x |T[x, xi + eta] - T[x, xi]|``; row eta = 0 stays 0.

    The shift by eta is two contiguous slice subtractions into one reused
    buffer.  Only eta <= N/2 is computed: ``|a - b| == |b - a|`` exactly,
    so row N - eta is row eta rolled by eta.
    """
    N = T.shape[1]
    out = np.zeros((N, N))
    diff = np.empty_like(T)
    mags = np.empty(T.shape)
    for ue in range(1, N // 2 + 1):
        np.subtract(T[:, ue:], T[:, : N - ue], out=diff[:, : N - ue])
        np.subtract(T[:, :ue], T[:, N - ue :], out=diff[:, N - ue :])
        np.max(np.abs(diff, out=mags), axis=0, out=out[ue])
        if ue != N - ue:
            out[N - ue] = np.roll(out[ue], ue)
    return out


def _s_profile_ratios(prof, ctx, x_constant, m, rho, delta, alpha_max, beta_max):
    """Family S on a per-x shell profile: shell differences of its D^beta derivative in x.

    Shell j = 0 (xi = 0) enters only at alpha = 0, with bound p^0 = 1;
    alpha > n - 1 leaves no shell to difference, so C stays 0 there.  A
    profile constant in x is annihilated exactly by D^beta, so then beta >= 1
    yields nothing.
    """
    sub = _sub_shells(ctx)
    for beta in range(1 if x_constant else beta_max + 1):
        dprof = _dx(prof, ctx, float(beta)) if beta else prof
        for alpha in range(min(alpha_max, max(ctx.n - 1, 0)) + 1):
            vals = np.abs(np.diff(dprof[:, 1:], n=alpha, axis=1)) if alpha else np.abs(dprof)
            js = np.arange(1 if alpha else 0, ctx.n - alpha + 1)
            bound = np.power(float(ctx.p), js * (m - rho * alpha + delta * beta))
            yield alpha, beta, vals / bound[None, :], sub[js]


def _s_ratios(sym: Symbol, m, rho, delta, alpha_max, beta_max):
    """Family S: the shell profile of an exactly radial table."""
    prof = sym.shell_profile()
    if prof is None:
        raise ValueError("family S needs a table that is exactly radial in xi")
    return _shell_ratios(prof, sym.ctx, "S", m, rho, delta, alpha_max, beta_max)


def _s_tilde_ratios(sym: Symbol, m, rho, delta, alpha_max, beta_max):
    """Family S_tilde: group differences by eta in xi of D^beta sigma, over |eta| <= <xi>."""
    ctx = sym.ctx
    sub = _sub_shells(ctx)[ctx.shells]
    allowed = ctx.norms[:, None] <= ctx.weights[None, :]
    allowed[0, :] = False  # eta = 0 excluded (difference vanishes anyway)
    sub_allowed = allowed & sub[:, None] & sub[None, :]
    lam = sym.multiplier_values()
    for beta in range(beta_max + 1):
        if beta == 0:
            T = sym.table if lam is None else lam[None, :]
        elif lam is not None:
            continue  # x-constant columns are annihilated exactly
        else:
            T = _dx(sym.table, ctx, float(beta))
        # alpha = 0 is the zeroth difference: the plain size of D^beta sigma
        yield 0, beta, np.max(np.abs(T), axis=0) / np.power(ctx.weights, m + delta * beta), sub
        if alpha_max == 0:
            continue
        num = _xi_difference_sups(T)
        for alpha in range(1, alpha_max + 1):
            denom = np.power(ctx.weights[:, None], alpha) * np.power(ctx.weights[None, :], m - rho * alpha + delta * beta)
            yield alpha, beta, np.where(allowed, num / denom, 0.0), sub_allowed


def _s_check_ratios(sym: Symbol, m, rho, delta, alpha_max, beta_max):
    """Family S_check: double differences, by y in x and by eta in xi."""
    ctx = sym.ctx
    N = ctx.N
    if N**4 > DOUBLE_DIFFERENCE_CAP:
        raise ResourceCapError(f"double-difference sweep needs {N}^4 = {N**4} cells, cap is {DOUBLE_DIFFERENCE_CAP}")
    # num[y, eta, xi] = max_x of the eta-difference in xi of R_y, where R_0 is
    # sigma and R_y (y > 0) its difference by y in x; eta = 0 holds max_x |R_y|
    cols = np.arange(N)
    num = np.empty((N, N, N))
    for y in range(N):
        R = sym.table[(cols + y) % N, :] - sym.table if y else sym.table
        num[y] = _xi_difference_sups(R)
        num[y, 0] = np.max(np.abs(R), axis=0)
    point_norm = np.power(float(ctx.p), -ctx.valuations.astype(np.float64))  # |y|_p of residues
    sub = _sub_shells(ctx)[ctx.shells]
    for alpha in range(alpha_max + 1):
        es = slice(1, None) if alpha else slice(0, 1)
        for beta in range(beta_max + 1):
            ys = slice(1, None) if beta else slice(0, 1)
            xi_w = np.power(ctx.weights, m - rho * alpha + delta * beta)
            denom = point_norm[ys, None, None] ** beta * ctx.weights[None, es, None] ** alpha * xi_w[None, None, :]
            yield alpha, beta, num[ys, es] / denom, sub[None, es, None] & sub[None, None, :]


_FAMILY_RATIOS = {"S": _s_ratios, "S_tilde": _s_tilde_ratios, "S_check": _s_check_ratios}


def _shell_ratios(profile, ctx, family, m, rho, delta, alpha_max, beta_max):
    """The three families of a radial symbol, read off its ``(N_x, n+1)`` shell profile.

    Every xi-difference is one between two shells: with eta on shell a and
    xi on shell b, xi + eta stays on shell b when a < b (difference 0), lies
    on shell a when a > b, and when a = b reaches every shell below a, and
    shell a itself when p > 2 (difference 0 again).  The differences are
    thus ``max_x |P[:, a] - P[:, b]|`` over the pairs a > b, each divided by
    the family's bound at (|eta|, |xi|) = (p^a, p^a), which is all S_tilde
    admits under |eta| <= <xi>, and for S_check also at (p^a, p^b).  The zero
    differences are left out: they change no maximum of these non-negative
    ratios, since an a = b pair always comes with the pair (a, 0).  For
    beta >= 1, S_tilde takes the same differences of D^beta P; a profile
    constant in x is annihilated exactly, so then only beta = 0 yields.
    S_check is served only for x-constant profiles.  Each ratio is the float
    operation the dense generator does on the same values, so the constants
    are bit-identical to it.
    """
    x_constant = bool(np.all(profile == profile[0]))
    if family == "S":
        yield from _s_profile_ratios(profile, ctx, x_constant, m, rho, delta, alpha_max, beta_max)
        return
    w = ctx.shell_weights
    sub = _sub_shells(ctx)
    a, b = np.tril_indices(ctx.n + 1, -1)  # all shell pairs a > b
    for beta in range(1 if x_constant else beta_max + 1):
        P = _dx(profile, ctx, float(beta)) if beta else profile
        yield 0, beta, np.max(np.abs(P), axis=0) / np.power(w, m + delta * beta), sub
        diff = np.max(np.abs(P[:, a] - P[:, b]), axis=0)
        for alpha in range(1, alpha_max + 1):
            e = m - rho * alpha + delta * beta
            if family == "S_tilde":
                yield alpha, beta, diff / (np.power(w[a], alpha) * np.power(w[a], e)), sub[a]
            else:
                xi_w, eta_w = np.power(w, e), w[a] ** alpha
                ratios = np.concatenate([diff / (eta_w * xi_w[a]), diff / (eta_w * xi_w[b])])
                yield alpha, beta, ratios, np.tile(sub[a], 2)


def _check_sweep_args(family, rho, delta, alpha_max, beta_max) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if not (0.0 <= rho <= 1.0 and 0.0 <= delta <= 1.0):
        raise ValueError(f"rho and delta must lie in [0, 1], got rho={rho}, delta={delta}")
    if alpha_max < 0 or beta_max < 0:
        raise ValueError("alpha_max and beta_max must be non-negative")


def _sweep(family, m, rho, delta, alpha_max, beta_max, ratio_iter) -> SeminormReport:
    """Reduce a family's ``(alpha, beta, ratios, sub)`` records to a report.

    Each record holds the ratio array of one class estimate and the mask
    (broadcast to its shape) of the entries on the sub-dual.  ``C`` is the
    max of ``ratios`` and ``Csub`` the max over ``sub``, both 0.0 on an
    empty set; an (alpha, beta) not yielded keeps 0.0.
    """
    C = np.zeros((alpha_max + 1, beta_max + 1))
    Csub = np.zeros_like(C)
    for alpha, beta, ratios, sub in ratio_iter:
        sel = ratios[np.broadcast_to(sub, ratios.shape)]
        C[alpha, beta] = float(ratios.max()) if ratios.size else 0.0
        Csub[alpha, beta] = float(sel.max()) if sel.size else 0.0
    growth = np.array([[_ratio(full, sub) for full, sub in zip(*rows)] for rows in zip(C, Csub)])
    return SeminormReport(family, m, rho, delta, alpha_max, beta_max, C, growth)


def seminorm(
    sym: Symbol,
    family: str,
    m: float,
    rho: float = 0.0,
    delta: float = 0.0,
    alpha_max: int = 4,
    beta_max: int = 4,
) -> SeminormReport:
    """Sweep the class estimate and return the observed constants.

    ``C[alpha][beta]`` is the sup over the finite grid of the relevant
    difference/derivative expression divided by the class bound's right
    side.  ``growth_ratio`` compares the sup over the full dual with the
    sup over the level-(n-1) sub-dual: bounded ratios are consistent with
    membership, growing ones falsify it.
    """
    _check_sweep_args(family, rho, delta, alpha_max, beta_max)
    args = (m, rho, delta, alpha_max, beta_max)
    profile = sym.shell_profile() if family == "S_tilde" else None
    if profile is not None:
        return _sweep(family, *args, _shell_ratios(profile, sym.ctx, family, *args))
    return _sweep(family, *args, _FAMILY_RATIOS[family](sym, *args))


def multiplier_seminorm(
    profile,
    ctx: TruncationContext,
    family: str,
    m: float,
    rho: float = 0.0,
    delta: float = 0.0,
    alpha_max: int = 4,
    beta_max: int = 4,
) -> SeminormReport:
    """``seminorm`` of the x-independent radial symbol with shell profile ``profile``.

    ``profile[j]`` is the value on shell j (j = 0 for xi = 0), as in
    ``Symbol.radial``.  The sweep runs on shell pairs in O(n^2) per
    (alpha, beta), builds no N x N table, and reports what ``seminorm``
    reports for ``Symbol.radial(ctx, profile)``, S_check included, with no
    ``DOUBLE_DIFFERENCE_CAP``: that bounds the dense N^4 sweep only.
    """
    _check_sweep_args(family, rho, delta, alpha_max, beta_max)
    profile = np.asarray(profile, dtype=np.complex128)
    if profile.shape != (ctx.n + 1,):
        raise ValueError(f"shell profile must have shape ({ctx.n + 1},), got {profile.shape}")
    args = (m, rho, delta, alpha_max, beta_max)
    return _sweep(family, *args, _shell_ratios(profile[None, :], ctx, family, *args))


def amplitude_to_operator(a: Amplitude, cap: int = AMPLITUDE_CAP) -> OperatorMatrix:
    """Sample-basis matrix ``A[x, y] = p^-n sum_u a[x, y, u] chi(u (x-y))``."""
    ctx = a.ctx
    if ctx.N**3 > cap:
        raise ResourceCapError(f"amplitude work p^(3n) = {ctx.N**3} exceeds cap {cap}")
    B = dft_axis(a.tensor, ctx, +1, axis=2)
    entries = np.take_along_axis(B, offset_view(np.arange(ctx.N))[:, :, None], axis=2)[:, :, 0] / ctx.N
    return OperatorMatrix(ctx, entries, "sample")


def amplitude_to_symbol(a: Amplitude, cap: int = AMPLITUDE_CAP) -> Symbol:
    """The unique symbol with the same operator as the amplitude.

    At finite level the reduction is exact: the symbol is read off by
    testing the amplitude operator against every character.
    """
    A = amplitude_to_operator(a, cap=cap)
    return Symbol(a.ctx, matrix_to_symbol_table(A.entries, a.ctx))


def asymptotic_sum(parts) -> Symbol:
    """Cutoff-glued sum of a strictly order-decreasing symbol sequence.

    Part j enters through the cutoff phi_j(xi) = 1 iff |xi|_p > p^j, so
    at level n only the first n parts can contribute.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one (symbol, order) part")
    orders = [float(mj) for _, mj in parts]
    if any(b >= a for a, b in zip(orders, orders[1:])):
        raise ValueError(f"orders must be strictly decreasing, got {orders}")
    ctx = parts[0][0].ctx
    total = np.zeros((ctx.N, ctx.N), dtype=np.complex128)
    for j, (sym, _mj) in enumerate(parts):
        if sym.ctx != ctx:
            raise ValueError("all parts must share one context")
        cut = ctx.norms > float(ctx.p) ** j
        if not np.any(cut):
            break
        total += sym.table * cut[None, :]
    return Symbol(ctx, total)


def asymptotic_residue(parts, sigma: Symbol, upto: int) -> Symbol:
    """sigma minus the plain partial sum of the first ``upto`` parts."""
    table = sigma.table.copy()
    for sym, _mj in list(parts)[:upto]:
        table -= sym.table
    return Symbol(sigma.ctx, table)
