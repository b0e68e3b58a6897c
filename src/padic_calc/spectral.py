"""Sobolev norms, operator bounds, eigen-decompositions, counting, heat flow.

The ``H^(t+m) -> H^t`` operator norm has two routes.  A multiplier (an
x-independent symbol, such as ``D^s``) is diagonalized exactly by the
transform, so ``op_norm_sobolev_multiplier`` reads the norm of a radial
one off its n+1 shell eigenvalues in closed form, in O(n) time and
memory.  Any other operator goes through ``op_norm_sobolev``: the dense
matrix in a basis of characters, conjugated by the weights, and its
largest singular value.  An exactly real sample-basis matrix takes the
real Hartley basis and a real SVD; any other matrix takes the frequency
basis.

The counting function ``N(t)`` of a spectrum jumps at its distinct
moduli.  ``counting_function`` counts any eigenvalue array with one
sort; ``shell_counts`` reads the jumps of a radial multiplier off its
shell profile and the shell sizes, in O(n).  ``weyl_slope_fit`` fits
those ``(ts, counts)``, whichever route produced them.

``eigen`` is the dense route of heat flow.  A matrix with no nonzero
imaginary entry, such as the sample-basis generator of
``variable_coefficient_generator`` (a real radial symbol, quantized in
closed form) at every p, goes to the real LAPACK eigensolver; the test is
exact (``real_if_exact``), so a matrix carrying any imaginary rounding
keeps the complex one.  Every eigenpair is certified by its residual
against ``EIGEN_RESIDUAL_TOL * ||A||_2``.  The spectral radius bounds
``||A||_2`` from below up to rounding, so a residual within the
tolerance of the radius passes with no SVD; ``EigenDecomposition``
computes ``operator_norm`` only when it is read, which ``eigen`` does
only when the radius cannot decide.  ``heat_evolve`` refuses to
propagate to times ``t`` with ``t * max_residual >= 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .calculus import NotEllipticError, ellipticity_report, quantize
from .core import ConsistencyError, ResourceCapError, TruncationContext
from .fourier import LevelFunction, SpectralFunction, forward
from .operator_matrix import OperatorMatrix, real_if_exact
from .symbols import Symbol
from .vladimirov import VladimirovSpec, shell_eigenvalues

DENSE_EIG_CAP = 4096
#: largest accepted eigenpair residual, relative to ||A||
EIGEN_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class SobolevScale:
    """Weight exponent s of the H^s scale and its embedding constant."""

    s: float

    def embedding_constant(self, ctx: TruncationContext) -> tuple[float, float, float]:
        """(constant, level_part, tail): sqrt of sum <xi>^-2s over the dual.

        The level part sums the p^n frequencies actually represented
        (shell m holds p^m - p^(m-1) of them); the tail adds the
        closed-form geometric remainder of the infinite dual, so the
        truncation never under-reports the constant.  Finite only for
        s > 1/2.
        """
        if self.s <= 0.5:
            raise ValueError(f"embedding constant diverges for s <= 1/2, got s={self.s}")
        p = float(ctx.p)
        ratio = p ** (1.0 - 2.0 * self.s)
        shells = np.arange(1, ctx.n + 1)
        level_part = 1.0 + (1.0 - 1.0 / p) * float(np.sum(ratio**shells))
        tail = (1.0 - 1.0 / p) * ratio ** (ctx.n + 1) / (1.0 - ratio)
        return float(np.sqrt(level_part + tail)), level_part, tail


def sobolev_norm(f, s: float) -> float:
    """``|| <xi>^s fhat ||_l2``; accepts point or spectral data."""
    if isinstance(f, LevelFunction):
        coeffs = forward(f).coeffs
        ctx = f.ctx
    elif isinstance(f, SpectralFunction):
        coeffs = f.coeffs
        ctx = f.ctx
    else:
        raise TypeError(f"expected LevelFunction or SpectralFunction, got {type(f)!r}")
    return float(np.sqrt(np.sum(np.power(ctx.weights, 2.0 * s) * np.abs(coeffs) ** 2)))


@dataclass
class EmbeddingReport:
    s: float
    constant: float
    level_part: float
    tail: float
    sup_norm: float
    sobolev: float
    ratio: float  # sup_norm / (constant * sobolev); <= 1 when the bound holds
    passed: bool


def embedding_check(f: LevelFunction, s: float) -> EmbeddingReport:
    """Check ``max|f| <= C_s ||f||_{H^s}`` and report the observed ratio."""
    constant, level_part, tail = SobolevScale(s).embedding_constant(f.ctx)
    sup = float(np.max(np.abs(f.values)))
    hs = sobolev_norm(f, s)
    bound = constant * hs
    ratio = sup / bound if bound > 0 else 0.0
    return EmbeddingReport(
        s=s,
        constant=constant,
        level_part=level_part,
        tail=tail,
        sup_norm=sup,
        sobolev=hs,
        ratio=ratio,
        passed=bool(sup <= bound * (1.0 + 1e-12)),
    )


def _cas(a: np.ndarray, axis: int) -> np.ndarray:
    """Discrete Hartley transform ``Re fft(a) - Im fft(a)`` of a real array along one axis."""
    F = np.fft.fft(a, axis=axis)
    return F.real - F.imag


def op_norm_sobolev(A: OperatorMatrix, s: float, m: float) -> float:
    """Spectral norm of J_s A J_-(s+m): the H^(s+m) -> H^s operator norm.

    An exactly real sample-basis matrix is taken to the Hartley basis,
    ``cas(cas(A, axis=0), axis=1) / N``, which is real.  The Hartley
    transform is ``V F`` with ``V = ((1+i)/2) I + ((1-i)/2) P`` unitary and
    ``P`` the swap of xi and -xi; ``V`` commutes with the weights because
    ``|xi|_p = |-xi|_p``, so the conjugated matrix has the singular values
    of the frequency-basis one and its norm is a real SVD.  Any other
    matrix is conjugated in the frequency basis.
    """
    real = real_if_exact(A.entries)
    if A.basis == "sample" and not np.iscomplexobj(real):
        M = _cas(_cas(real, 0), 1) / A.ctx.N
    else:
        M = A.entries if A.basis == "frequency" else A.to_basis("frequency").entries
    w = A.ctx.weights
    conj = np.power(w, s)[:, None] * M * np.power(w, -(s + m))[None, :]
    return float(np.linalg.norm(conj, 2))


def op_norm_sobolev_multiplier(profile: np.ndarray, ctx: TruncationContext, t: float, m: float) -> float:
    """H^(t+m) -> H^t norm of the radial multiplier with shell eigenvalues ``profile``, in O(n).

    The transform diagonalizes a multiplier exactly, so the conjugated
    operator ``J_t A J_-(t+m)`` is the diagonal ``<xi>^t lam <xi>^-(t+m)``
    and its spectral norm is the largest modulus on that diagonal.  Both
    ``<xi>`` and ``lam`` are constant on each of the n+1 shells, and no
    shell is empty, so the largest modulus over the shells is the one
    over all N entries, bit for bit.  This agrees with
    ``op_norm_sobolev(quantize(Symbol.multiplier(ctx, profile[ctx.shells])), t, m)``
    without forming the N x N matrix.
    """
    profile = np.asarray(profile)
    if profile.shape != (ctx.n + 1,):
        raise ValueError(f"multiplier needs {ctx.n + 1} shell eigenvalues, got shape {profile.shape}")
    w = ctx.shell_weights
    return float(np.max(np.power(w, t) * np.abs(profile) * np.power(w, -(t + m))))


@dataclass
class NormEquivalenceReport:
    """Observed sandwich constants C, D of the hypoelliptic norm equivalence."""

    s: float
    order_upper: float
    order_lower: float
    best_c: float  # largest C with C ||f||_{H^{s+n}} <= ||Tf||_{H^s} + ||f||_{H^s}
    best_d: float  # smallest D with ||Tf||_{H^s} + ||f||_{H^s} <= D ||f||_{H^{s+m}}
    trials: int


def norm_equivalence_check(
    sym: Symbol,
    s: float,
    order_upper: float,
    order_lower: float,
    threshold: int = 1,
    trials: int = 64,
    rng: np.random.Generator | None = None,
) -> NormEquivalenceReport:
    """Estimate the two-sided Sobolev sandwich over random functions."""
    ell = ellipticity_report(sym, order_lower, n_max=threshold)
    if ell is None:
        raise NotEllipticError(
            f"symbol is not hypoelliptic of order {order_lower} at threshold {threshold}"
        )
    rng = rng or np.random.default_rng(0)
    ctx = sym.ctx
    A = quantize(sym)
    best_c, best_d = np.inf, 0.0
    for _ in range(trials):
        f = LevelFunction(ctx, rng.normal(size=ctx.N) + 1j * rng.normal(size=ctx.N))
        Tf = A.apply(f)
        mid = sobolev_norm(Tf, s) + sobolev_norm(f, s)
        lower = sobolev_norm(f, s + order_lower)
        upper = sobolev_norm(f, s + order_upper)
        if lower > 0:
            best_c = min(best_c, mid / lower)
        if upper > 0:
            best_d = max(best_d, mid / upper)
    return NormEquivalenceReport(
        s=s,
        order_upper=order_upper,
        order_lower=order_lower,
        best_c=float(best_c),
        best_d=float(best_d),
        trials=trials,
    )


@dataclass
class EigenDecomposition:
    """Dense eigen-decomposition sorted by eigenvalue modulus."""

    values: np.ndarray
    vectors: np.ndarray  # column j pairs with values[j]
    max_residual: float
    matrix: np.ndarray = field(repr=False, compare=False)  # the matrix the solver ran on

    @cached_property
    def operator_norm(self) -> float:
        """``||A||_2``, by an SVD run on first read."""
        return float(np.linalg.norm(self.matrix, 2))


def eigen(A: OperatorMatrix, cap: int = DENSE_EIG_CAP) -> EigenDecomposition:
    """numpy dense eigensolve with a per-pair residual certificate.

    A sample-basis matrix with no nonzero imaginary entry is solved by
    the real LAPACK routine, at about 0.4 of the cost of the complex one;
    any other matrix keeps the complex solve.  The test is exact, not a
    tolerance.  ``values`` and ``vectors`` are complex128; the residuals
    are taken on the matrix the solver ran on, in real arithmetic when
    every eigenvalue is real.

    The residual test is ``max_residual <= EIGEN_RESIDUAL_TOL * ||A||_2``.
    A backward-stable solve returns eigenvalues of ``A + E`` with
    ``||E|| = O(eps ||A||)``, so the spectral radius ``max |lambda|`` is
    at most ``||A||_2`` up to that rounding; a residual within the
    tolerance of the radius passes with no SVD, and only a larger one
    reads ``operator_norm``.
    """
    if A.ctx.N > cap:
        raise ResourceCapError(f"dense eigensolve of size {A.ctx.N} exceeds cap {cap}")
    entries = A.entries if A.basis == "sample" else A.to_basis("sample").entries
    solved = real_if_exact(entries)
    w, V = np.linalg.eig(solved)
    order = np.argsort(np.abs(w), kind="stable")
    w, V = w[order], V[:, order]
    with np.errstate(over="ignore"):  # a residual past the float range is inf, and fails the check below
        resid = np.linalg.norm(solved @ V - V * w[None, :], axis=0) / np.maximum(np.linalg.norm(V, axis=0), 1e-300)
    max_resid = float(np.max(resid)) if resid.size else 0.0
    dec = EigenDecomposition(
        values=w.astype(np.complex128, copy=False),
        vectors=V.astype(np.complex128, copy=False),
        max_residual=max_resid,
        matrix=solved,
    )
    radius = float(np.abs(w[-1])) if w.size else 0.0
    # a pass against the radius is a pass against ||A||_2; anything else is decided by the SVD
    if not max_resid <= EIGEN_RESIDUAL_TOL * radius and max_resid > EIGEN_RESIDUAL_TOL * max(dec.operator_norm, 1e-300):
        raise ConsistencyError(f"eigen residual {max_resid:.3e} exceeds {EIGEN_RESIDUAL_TOL:.1e} * ||A||")
    return dec


def counting_function(eigenvalues: np.ndarray, t):
    """Number of eigenvalues with modulus <= t, for a scalar ``t`` or an array of them.

    The moduli are sorted once and every ``t`` is one ``np.searchsorted``.
    """
    mods = np.sort(np.abs(np.asarray(eigenvalues)))
    counts = np.searchsorted(mods, t, side="right")
    return int(counts) if np.ndim(t) == 0 else counts


def shell_counts(profile: np.ndarray, ctx: TruncationContext) -> tuple[np.ndarray, np.ndarray]:
    """``(ts, counts)``: the distinct eigenvalue moduli, ascending, and N(t) at each, in O(n).

    ``profile`` holds the n+1 shell eigenvalues of a radial multiplier;
    shell 0 holds one frequency and shell j the ``p^j - p^(j-1)`` of norm
    ``p^j``.  The counts are the cumulative shell sizes in modulus order,
    the same integers as ``counting_function(profile[ctx.shells], ts)``,
    as int64, which holds ``p^n`` at every admitted level.
    """
    profile = np.asarray(profile)
    if profile.shape != (ctx.n + 1,):
        raise ValueError(f"multiplier needs {ctx.n + 1} shell eigenvalues, got shape {profile.shape}")
    sizes = np.diff(ctx.p ** np.arange(ctx.n + 1, dtype=np.int64), prepend=0)
    mods = np.abs(profile)
    order = np.argsort(mods, kind="stable")
    mods = mods[order]
    # shells of equal modulus are one jump, counted at the last of them
    last = np.append(mods[1:] != mods[:-1], True)
    return mods[last], np.cumsum(sizes[order])[last]


@dataclass
class WeylFit:
    """Shifted power-law fit of the counting function.

    ``log N(t) ~ slope * log(t + shift) + intercept`` over the jump
    points inside the window; ``slope`` estimates the asymptotic log-log
    slope (a spectral offset bends the naive chord at the low end, which
    ``plain_slope`` records for comparison).
    """

    slope: float
    shift: float
    intercept: float
    rss: float
    points: int
    plain_slope: float


#: shifts per round of the grid refinement in ``weyl_slope_fit``; each round
#: keeps the two grid cells around the best one, 1/8 of the bracket
SHIFT_GRID = 17
#: rounds of refinement: the bracket 1.9 t_min ends below 1e-12 t_min
SHIFT_ROUNDS = 14


def _linfit(x: np.ndarray, y: np.ndarray):
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    r = y - A @ coef
    return coef[0], coef[1], float(r @ r)


def _shifted_rss(shifts: np.ndarray, ts: np.ndarray, ym: np.ndarray) -> np.ndarray:
    """Residual sum of squares of the line fit of ``ym`` (centred) against ``log(ts + b)``, for each shift b."""
    x = np.log(ts[None, :] + shifts[:, None])
    x -= np.add.reduce(x, axis=1, keepdims=True) / x.shape[1]
    slope = (x @ ym) / np.einsum("ij,ij->i", x, x)
    # from the residuals: sum y^2 - Sxy^2 / Sxx cancels to rounding near a good fit
    r = ym[None, :] - slope[:, None] * x
    return np.einsum("ij,ij->i", r, r)


def weyl_slope_fit(ts: np.ndarray, counts: np.ndarray, t_min: float, t_max: float) -> WeylFit:
    """Fit the counting function's growth on [t_min, t_max].

    ``ts`` are the jump points of N, the distinct eigenvalue moduli in
    ascending order, and ``counts`` the value of N at each: from
    :func:`shell_counts` for a radial multiplier, or ``np.unique(|lam|)``
    and ``counting_function(lam, ts)`` for an eigenvalue array.  Fit points
    are the positive ones inside the window.  The shift minimizes the
    residual sum of squares within [-0.9 t_min, t_min] by grid refinement:
    ``SHIFT_ROUNDS`` rounds of ``SHIFT_GRID`` shifts, evaluated at once,
    each round keeping the cells beside the best one.  Memory is
    ``SHIFT_GRID`` times the number of fit points.
    """
    ts, counts = np.asarray(ts), np.asarray(counts)
    if ts.shape != counts.shape:
        raise ValueError(f"jump points {ts.shape} and counts {counts.shape} differ in shape")
    keep = (ts >= t_min) & (ts <= t_max) & (ts > 0)
    ts = ts[keep]
    if ts.size < 3:
        raise ValueError(f"need at least 3 jump points in [{t_min}, {t_max}], found {ts.size}")
    y = np.log(counts[keep].astype(float))
    ym = y - y.mean()
    lo, hi = -0.9 * t_min, t_min
    for _ in range(SHIFT_ROUNDS):
        shifts = np.linspace(lo, hi, SHIFT_GRID)
        best = int(np.argmin(_shifted_rss(shifts, ts, ym)))
        lo, hi = shifts[max(best - 1, 0)], shifts[min(best + 1, SHIFT_GRID - 1)]
    shift = float(shifts[best])
    slope, intercept, rss = _linfit(np.log(ts + shift), y)
    plain_slope, _, _ = _linfit(np.log(ts), y)
    return WeylFit(
        slope=float(slope),
        shift=shift,
        intercept=float(intercept),
        rss=rss,
        points=int(ts.size),
        plain_slope=float(plain_slope),
    )


@dataclass
class HeatTrajectory:
    """Sobolev ladders and modal magnitudes of exp(-t T) f0."""

    times: list
    orders: list
    norms: np.ndarray  # [time, order]
    mode_magnitudes: np.ndarray  # [time, mode]
    path: str  # "multiplier" or "eigen"
    eigenvalues: np.ndarray | None = None

    def to_csv_rows(self):
        rows = [("t", "k", "norm")]
        for i, t in enumerate(self.times):
            for j, k in enumerate(self.orders):
                rows.append((t, k, self.norms[i, j]))
        return rows


def heat_evolve(generator, f0: LevelFunction, times, orders) -> HeatTrajectory:
    """Evolve the semigroup generated by -T from f0 over a time grid.

    A symbol whose rows are all equal (a multiplier) takes the exact
    spectral path ``fhat(t, xi) = exp(-t lambda(xi)) fhat(0, xi)``; any
    other symbol or operator matrix goes through the dense
    eigen-decomposition.  That route raises ``ConsistencyError`` when
    ``max(times) * max_residual >= 1``, since an eigenpair known only to
    within its residual cannot carry ``exp(-t lambda)`` that far.  Either
    route raises it when the propagated norms are not finite.
    """
    times = [float(t) for t in times]
    orders = [float(k) for k in orders]
    if any(t < 0 for t in times):
        raise ValueError("negative evolution times are not allowed")
    ctx = f0.ctx
    lam = generator.multiplier_values() if isinstance(generator, Symbol) else None
    if lam is not None:
        F0 = forward(f0).coeffs
        norms = np.zeros((len(times), len(orders)))
        mags = np.zeros((len(times), ctx.N))
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result raises below
            for i, t in enumerate(times):
                coeffs = np.exp(-t * lam) * F0
                mags[i] = np.abs(coeffs)
                for j, k in enumerate(orders):
                    norms[i, j] = sobolev_norm(SpectralFunction(ctx, coeffs), k)
        _require_finite(norms, "multiplier", lam)
        return HeatTrajectory(times, orders, norms, mags, "multiplier")

    A = quantize(generator) if isinstance(generator, Symbol) else generator
    dec = eigen(A)
    horizon = max(times, default=0.0)
    if horizon * dec.max_residual >= 1.0:
        raise ConsistencyError(f"eigen residual {dec.max_residual:.3e} is too large to propagate to t = {horizon:g}")
    coords = np.linalg.solve(dec.vectors, f0.values)
    norms = np.zeros((len(times), len(orders)))
    mags = np.zeros((len(times), ctx.N))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result raises below
        for i, t in enumerate(times):
            modal = np.exp(-t * dec.values) * coords
            mags[i] = np.abs(modal)
            ft = LevelFunction(ctx, dec.vectors @ modal)
            for j, k in enumerate(orders):
                norms[i, j] = sobolev_norm(ft, k)
    # a residual-certified eigensolve can still be too inexact for exp(-t lambda)
    _require_finite(norms, "eigen", dec.values)
    return HeatTrajectory(times, orders, norms, mags, "eigen", eigenvalues=dec.values)


def _require_finite(norms: np.ndarray, route: str, eigenvalues: np.ndarray) -> None:
    if not np.all(np.isfinite(norms)):
        raise ConsistencyError(
            f"{route} route gave non-finite Sobolev norms (eigenvalue moduli up to {np.max(np.abs(eigenvalues)):.3e})"
        )


def variable_coefficient_generator(ctx: TruncationContext, terms) -> Symbol:
    """Symbol of ``sum_i a_i(x) D^{s_i}``, expanded from its ``(N, n+1)`` shell profile.

    ``terms`` is an iterable of (coefficient sample vector, order s_i).
    """
    profile = np.zeros((ctx.N, ctx.n + 1), dtype=np.complex128)
    for a_vals, s in terms:
        a = np.asarray(a_vals, dtype=np.complex128)
        if a.shape != (ctx.N,):
            raise ValueError(f"coefficient needs {ctx.N} samples, got {a.shape}")
        profile += a[:, None] * shell_eigenvalues(VladimirovSpec(float(s), ctx.p), ctx)[None, :]
    return Symbol.radial(ctx, profile)
