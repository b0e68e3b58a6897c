"""Batch experiment runner: config parsing, dispatch, artifact emission.

One experiment per invocation.  All randomness flows through a generator
seeded from the config, every float in a CSV artifact is printed with 17
significant digits, and JSON artifacts are emitted with sorted keys, so
identical config + seed reproduces the numeric artifacts byte for byte.
The manifest (and the timing sidecar of transform-bench) records wall
time and is the one artifact excluded from that guarantee.

Each experiment's params are its runner's keyword-only arguments, with
the defaults that ``PARAMS`` reads off the runners at import.  ``run``
rejects a key the runner does not take and a ``p^n`` over ``CAPS``, then
creates the output directory and calls ``runner(ctx, rng, out, **params)``
with the ``TruncationContext(p, n)`` and the seeded generator.  A runner
checks its values and returns the records of the artifacts it writes.

Every artifact and the manifest go through one writer, ``_write``: it
encodes the text once, hashes those bytes for the manifest record
``{name, bytes, sha256}`` and writes them over the file in place
(``operator_matrix._write_in_place``: no ``O_TRUNC`` on open, one
truncate at the end, which on ext4 spares a rerun into the same
directory a writeback at every close).  ``run`` builds the manifest from
those records, with no ``stat`` and no re-read.  Nothing is fsynced; a
torn write shows up as a digest mismatch against the manifest.

Exit codes: 0 success, 2 config error, 3 resource cap, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .calculus import NotEllipticError, compose_symbols, parametrix, quantize
from .core import ConsistencyError, ResourceCapError, TruncationContext, is_admissible_prime
from .fourier import LevelFunction, dft, forward, inverse, l2_norm, spectral_l2_norm
from .matrix_algebra import EllipticityMarginError, multiplier_equivalence, wiener_profile
from .operator_matrix import _write_in_place
from .spectral import (
    heat_evolve,
    op_norm_sobolev_multiplier,
    shell_counts,
    variable_coefficient_generator,
    weyl_slope_fit,
)
from .symbols import FAMILIES, Symbol, multiplier_seminorm
from .vladimirov import FORMULA_TAGS, VladimirovSpec, shell_eigenvalues

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    """Malformed experiment configuration (reported with the field name)."""


@dataclass
class ExperimentConfig:
    experiment: str
    p: int
    n: int
    seed: int = 0
    output_dir: str = "artifacts"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # numpy seeds need a non-negative integer; the --seed override passes here too
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"field 'seed' must be a non-negative integer, got {self.seed!r}")

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        allowed = {"experiment", "p", "n", "seed", "output_dir", "params"}
        unknown = set(doc) - allowed
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for key in ("experiment", "p", "n"):
            if key not in doc:
                raise ConfigError(f"missing required field '{key}'")
        if not isinstance(doc["experiment"], str) or doc["experiment"] not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {doc['experiment']!r}; see 'padic-calc list'")
        if not isinstance(doc["p"], int) or not is_admissible_prime(doc["p"]):
            raise ConfigError(f"field 'p' must be a prime integer below 2^32, got {doc['p']!r}")
        if isinstance(doc["n"], bool) or not isinstance(doc["n"], int) or doc["n"] < 0:
            raise ConfigError(f"field 'n' must be a non-negative integer, got {doc['n']!r}")
        if not isinstance(doc.get("output_dir", ""), str):
            raise ConfigError(f"field 'output_dir' must be a string, got {doc['output_dir']!r}")
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"field 'params' must be an object, got {params!r}")
        return ExperimentConfig(
            experiment=doc["experiment"],
            p=doc["p"],
            n=doc["n"],
            seed=doc.get("seed", 0),
            output_dir=doc.get("output_dir", "artifacts"),
            params=params,
        )

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} line {exc.lineno}: {exc.msg}") from exc
        return ExperimentConfig.from_dict(doc)

    def canonical_json(self) -> str:
        return json.dumps(
            {
                "experiment": self.experiment,
                "p": self.p,
                "n": self.n,
                "seed": self.seed,
                "params": self.params,
            },
            sort_keys=True,
        )


def _fmt(x) -> str:
    """17-significant-digit rendering for reproducible tables."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    return str(x)


def _write(path: Path, text: str) -> dict:
    """Write ``text`` as UTF-8 over ``path`` in place; returns its manifest record."""
    data = text.encode("utf-8")
    _write_in_place(path, data)
    return {"name": path.name, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def write_csv(path: Path, rows) -> dict:
    return _write(path, "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows))


def write_json(path: Path, obj) -> dict:
    return _write(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


#: Largest p^n each experiment accepts; ``run`` checks it before it creates the
#: output directory, and a larger level exits 3 (resource cap).  The D^s
#: spectra are closed forms on the n+1 shells, and the five experiments that
#: read them never leave them: each peaks within 4 MB of the import alone
#: (33-36 MB).  Their cap, 2^20, is the largest level measured; weyl-count
#: counts up to p^n in int64.  Each figure is one fresh process at p=2 and
#: the cap level (n=20; n=11 for wiener; n=13 and trials 1 for
#: transform-bench) with its default params (import included) on a 2-vCPU
#: Xeon.  wiener runs one series per shell on the (N, n+1) profile and
#: builds no N x N table; its cap waits on what wiener.csv, one row per u,
#: should hold at large N.  transform-bench builds N x N arrays for its
#: naive oracle, about 3.7x the memory a level up.
CAPS = {
    "transform-bench": 2**13,  # one trial: 2.0 s, 1,573 MB peak RSS
    "vladimirov-eigen": 2**20,  # 0.30 s, 36 MB peak RSS
    "seminorm-sweep": 2**20,  # 0.27-0.32 s, 36 MB peak RSS, S_check included
    "compose-check": 2**7,
    "schur-sweep": 2**20,  # 0.29-0.33 s, 36 MB peak RSS
    "wiener": 2**11,  # 0.14-0.16 s, 38 MB peak RSS
    "parametrix": 2**8,
    "sobolev-bound": 2**20,  # 0.17-0.18 s, 36 MB peak RSS with s_values [0.5, 1, 2]
    "weyl-count": 2**20,  # 0.17 s, 37 MB peak RSS
    "heat": 2**10,  # 1.7-2.2 s, 130 MB peak RSS, real eigensolve (exactly real generator at every p)
}


#: largest accepted 'trials'; a count of 1e300 passes as an integer and never ends
MAX_TRIALS = 1000


def _number(key: str, val, integer: bool = False, low=None, high=None, positive: bool = False):
    """``val`` as a finite int/float within the bounds, or a ConfigError naming ``key``."""
    finite = isinstance(val, int) or (isinstance(val, float) and math.isfinite(val))
    if isinstance(val, bool) or not finite or (integer and isinstance(val, float) and not val.is_integer()):
        raise ConfigError(f"param '{key}' must be {'an integer' if integer else 'a finite number'}, got {val!r}")
    if (positive and val <= 0) or (low is not None and val < low) or (high is not None and val > high):
        need = "positive" if positive else f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigError(f"param '{key}' must be {need}, got {val!r}")
    return int(val) if integer else float(val)


def _numbers(key: str, vals, **bounds) -> list:
    if not isinstance(vals, (list, tuple)) or not vals:
        raise ConfigError(f"param '{key}' must be a non-empty list")
    return [_number(key, v, **bounds) for v in vals]


def _choice(key: str, val, options) -> str:
    if val not in options:
        raise ConfigError(f"param '{key}' must be one of {list(options)}, got {val!r}")
    return val


def _order(key: str, s: float, ctx: TruncationContext) -> float:
    """``s`` if D^s and its eigenvalues up to level n+1 are finite floats, else a ConfigError naming ``key``."""
    try:
        VladimirovSpec(s, ctx.p)
    except ValueError as exc:
        raise ConfigError(f"param '{key}': {exc}") from exc
    with np.errstate(over="ignore"):
        if not np.isfinite(np.power(float(ctx.p), s * (ctx.n + 1))):
            raise ConfigError(f"param '{key}': |xi|^{s} overflows at level {ctx.n + 1}")
    return s


def _exponent(key: str, val, ctx: TruncationContext) -> int:
    """Integer power ``key`` in [0, k_max], the largest k with p^(k(n+1)) <= 2^1023.

    <xi>^k and <xi>^-k then stay finite normal floats a level past n, and the
    loops over 0..k that the power drives end (1e300 passes as an integer).
    """
    high = int(1023 // ((ctx.n + 1) * math.log2(ctx.p)))
    return _number(key, val, integer=True, low=0, high=high)


def _weight_order(key: str, val, ctx: TruncationContext) -> float:
    """Real order ``key`` with |key|(n+1) log2 p <= 1023: <xi>^key stays a finite, nonzero float a level past n."""
    high = 1023 / ((ctx.n + 1) * math.log2(ctx.p))
    return _number(key, val, low=-high, high=high)


# ----------------------------------------------------------------- experiments


def _run_transform_bench(ctx, rng, out, *, trials=20):
    trials = _number("trials", trials, integer=True, low=0, high=MAX_TRIALS)
    rows = [("trial", "max_fast_vs_naive", "roundtrip_error", "plancherel_gap")]
    t0 = time.perf_counter()
    for t in range(trials):
        f = LevelFunction(ctx, rng.normal(size=ctx.N) + 1j * rng.normal(size=ctx.N))
        fast = dft(f.values, ctx, -1)
        naive = dft(f.values, ctx, -1, naive=True)
        err_fn = float(np.max(np.abs(fast - naive)) / max(1.0, np.max(np.abs(naive))))
        F = forward(f)
        back = inverse(F)
        err_rt = float(np.max(np.abs(back.values - f.values)) / max(1.0, np.max(np.abs(f.values))))
        gap = abs(spectral_l2_norm(F) - l2_norm(f))
        rows.append((t, err_fn, err_rt, gap))
    elapsed = time.perf_counter() - t0
    return [
        write_csv(out / "transform_bench.csv", rows),
        write_json(out / "transform_bench_timing.json", {"trials": trials, "wall_time_s": elapsed}),
    ]


def _run_vladimirov_eigen(ctx, rng, out, *, s=1.0):
    if ctx.n < 1:
        raise ConfigError("vladimirov-eigen needs level n >= 1 to have a nonzero shell")
    s = _order("s", _number("s", s, positive=True), ctx)
    spec = VladimirovSpec(s, ctx.p)
    lam = {tag: shell_eigenvalues(spec, ctx, tag) for tag in FORMULA_TAGS}
    li = lam["integral"]
    diff = {tag: np.abs(li - lam[tag]) for tag in ("plus_constant", "scaled_constant")}
    # shells 0..n of the next level
    shift = np.abs(li - shell_eigenvalues(spec, TruncationContext(ctx.p, ctx.n + 1))[:-1])
    header = ("norm", "lambda_integral", "lambda_plus_constant", "lambda_scaled_constant")
    rows = [header + ("abs_diff_plus", "abs_diff_scaled", "level_shift_abs")]
    norms = ctx.shell_norms.tolist()
    rows += zip(norms, li, lam["plus_constant"], lam["scaled_constant"], *diff.values(), shift)
    # which affine convention does the exactly-diagonalized integral match?  Every shell
    # is non-empty, so these maxima over shells are the maxima over all N dual indices.
    diffs = {tag: float(np.max(d)) for tag, d in diff.items()}
    matches = [tag for tag, d in diffs.items() if d < 1e-9]
    offsets = [val - nrm**s for nrm, val in zip(norms[1:], li.tolist()[1:])]
    summary = {
        "s": s,
        "matched_convention": matches[0] if matches else "neither",
        "max_abs_diff": diffs,
        "empirical_offset": {
            "fitted": float(np.mean(offsets)),
            "spread": float(np.ptp(offsets)),
            "negated_additive_constant": -spec.additive_constant,
        },
        "max_level_shift": float(np.max(shift)),
    }
    return [write_csv(out / "vladimirov_eigen.csv", rows), write_json(out / "vladimirov_eigen.json", summary)]


def _run_seminorm_sweep(ctx, rng, out, *, s=1.0, family="S_tilde", m=None, rho=0.0, delta=0.0, alpha_max=3, beta_max=2):
    s = _order("s", _number("s", s, positive=True), ctx)
    family = _choice("family", family, FAMILIES)
    m = _weight_order("m", s if m is None else m, ctx)  # m = None: the order of D^s
    rho = _number("rho", rho, low=0.0, high=1.0)
    delta = _number("delta", delta, low=0.0, high=1.0)
    alpha_max = _exponent("alpha_max", alpha_max, ctx)
    beta_max = _exponent("beta_max", beta_max, ctx)
    profile = shell_eigenvalues(VladimirovSpec(s, ctx.p), ctx)
    rep = multiplier_seminorm(profile, ctx, family, m=m, rho=rho, delta=delta, alpha_max=alpha_max, beta_max=beta_max)
    return [write_csv(out / "seminorm.csv", rep.to_csv_rows()), _write(out / "seminorm.json", rep.to_json() + "\n")]


def _run_compose_check(ctx, rng, out, *, trials=50):
    trials = _number("trials", trials, integer=True, low=0, high=MAX_TRIALS)
    worst = 0.0
    for _ in range(trials):
        t1 = rng.normal(size=(ctx.N, ctx.N)) + 1j * rng.normal(size=(ctx.N, ctx.N))
        t2 = rng.normal(size=(ctx.N, ctx.N)) + 1j * rng.normal(size=(ctx.N, ctx.N))
        s1, s2 = Symbol(ctx, t1), Symbol(ctx, t2)
        left = quantize(compose_symbols(s1, s2)).entries
        right = quantize(s1).entries @ quantize(s2).entries
        worst = max(worst, float(np.max(np.abs(left - right))))
    return [write_json(out / "compose_check.json", {"trials": trials, "max_error": worst})]


def _run_schur_sweep(ctx, rng, out, *, s=1.0, m=None, r_max=4):
    s = _order("s", _number("s", s, positive=True), ctx)
    m = _weight_order("m", s if m is None else m, ctx)
    r_max = _exponent("r_max", r_max, ctx)
    profile = shell_eigenvalues(VladimirovSpec(s, ctx.p), ctx)
    rep = multiplier_equivalence(profile, ctx, m=m, r_max=r_max)
    rows = [("r", "m", "row_sup", "col_sup", "norm", "growth_ratio")]
    for sr in rep.schur:
        rows.append((sr.r, sr.m, sr.row_sup, sr.col_sup, sr.norm, sr.growth_ratio))
    return [write_csv(out / "schur_sweep.csv", rows), _write(out / "equivalence.json", rep.to_json() + "\n")]


def _smooth_bump(ctx, rng, decay: float, scale: float) -> np.ndarray:
    """Real random bump with geometrically decaying shell spectrum."""
    shell_scale = np.array([float(ctx.p) ** (-decay * j) for j in range(ctx.n + 1)])
    z = rng.normal(size=(ctx.N - 1, 2))  # the same stream as (re, im) drawn in turn per frequency
    coeffs = np.zeros(ctx.N, dtype=np.complex128)
    coeffs[1:] = shell_scale[ctx.shells[1:]] * (z[:, 0] + 1j * z[:, 1])
    neg = (-np.arange(ctx.N)) % ctx.N
    coeffs = (coeffs + np.conj(coeffs[neg])) / 2.0  # enforce a real bump
    vals = dft(coeffs, ctx, +1).real
    peak = np.max(np.abs(vals))
    return scale * vals / peak if peak > 0 else vals


def _perturbed_vladimirov(experiment, ctx, rng, s, threshold, perturbation, perturbation_decay):
    """``(s, threshold, scale, profile)`` for the ``(N, n+1)`` shell profile of ``D^s + V(x)``.

    Values are checked, and ``rng`` drawn, in that order.  ``V`` is a seeded bump of peak ``scale``,
    ``perturbation`` times the least D^s eigenvalue above the threshold, with shell spectrum
    decaying as p^(-perturbation_decay j); ``experiment`` names the runner in the level error.
    """
    s = _order("s", _number("s", s, positive=True), ctx)
    if ctx.n == 0:
        raise ConfigError(f"experiment '{experiment}' needs n >= 1: its perturbation is scaled by shells 1..n")
    threshold = _number("threshold", threshold, integer=True, low=0, high=ctx.n)
    eps_rel = _number("perturbation", perturbation)
    decay = _number("perturbation_decay", perturbation_decay, low=0.0)
    lam = shell_eigenvalues(VladimirovSpec(s, ctx.p), ctx)
    margin = float(np.min(lam[max(threshold, 1) :]))
    V = _smooth_bump(ctx, rng, decay=decay, scale=eps_rel * margin)
    return s, threshold, float(eps_rel * margin), lam[None, :] + V[:, None]


def _run_wiener(ctx, rng, out, *, s=1.0, threshold=1, perturbation=0.1, perturbation_decay=6.0):
    s, threshold, scale, profile = _perturbed_vladimirov(
        "wiener", ctx, rng, s, threshold, perturbation, perturbation_decay
    )
    rep = wiener_profile(ctx, profile, order=s, threshold=threshold)
    summary = {
        "order": s,
        "threshold": threshold,
        "perturbation_scale": scale,
        "jr_constants": {str(r): v for r, v in rep.jr_constants.items()},
        "max_recon_error": max(c.recon_error for c in rep.columns),
        "max_ratio_excess": max((c.measured_ratio - c.ratio_bound) / max(c.ratio_bound, 1e-12) for c in rep.columns),
    }
    return [write_csv(out / "wiener.csv", rep.to_csv_rows()), write_json(out / "wiener.json", summary)]


def _run_parametrix(ctx, rng, out, *, s=1.0, threshold=1, perturbation=0.1, perturbation_decay=8.0):
    s, threshold, _, profile = _perturbed_vladimirov(
        "parametrix", ctx, rng, s, threshold, perturbation, perturbation_decay
    )
    rep = parametrix(Symbol.radial(ctx, profile), order=s, threshold=threshold)
    rows = [("side", "r", "cutoff", "tail_norm")]
    for side in ("left", "right"):
        for ri, r in enumerate(rep.r_values):
            for ci, cut in enumerate(rep.tail_cutoffs):
                rows.append((side, r, cut, rep.tail_norms[side][ri, ci]))
    return [write_csv(out / "parametrix_tails.csv", rows), _write(out / "parametrix.json", rep.to_json() + "\n")]


def _run_sobolev_bound(ctx, rng, out, *, s_values=(1.0,), t_values=(-1.0, 0.0, 2.0)):
    s_values = [_order("s_values", s, ctx) for s in _numbers("s_values", s_values, positive=True)]
    t_values = _numbers("t_values", t_values)
    fine = TruncationContext(ctx.p, ctx.n + 1)
    top = float(ctx.p) ** fine.n  # the largest weight <xi> the conjugation sees
    for s in s_values:
        with np.errstate(over="ignore"):
            bad = [t for t in t_values if not np.all(np.isfinite(np.power(top, [t, -(t + s)])))]
        if bad:
            raise ConfigError(f"param 't_values': <xi>^t or <xi>^-(t+{s}) overflows at level {fine.n} for t={bad[0]}")
    rows = [("s", "t", "norm", "norm_next_level", "rel_shift")]
    for s in s_values:
        spec = VladimirovSpec(s, ctx.p)
        lam, lam_fine = shell_eigenvalues(spec, ctx), shell_eigenvalues(spec, fine)
        for t in t_values:
            v1 = op_norm_sobolev_multiplier(lam, ctx, t, s)
            v2 = op_norm_sobolev_multiplier(lam_fine, fine, t, s)
            rows.append((s, t, v1, v2, abs(v1 - v2) / max(v2, 1e-300)))
    return [write_csv(out / "sobolev_bound.csv", rows)]


def _run_weyl_count(ctx, rng, out, *, s_values=(0.5, 1.0, 2.0), formula="integral"):
    s_values = [_order("s_values", s, ctx) for s in _numbers("s_values", s_values, positive=True)]
    formula = _choice("formula", formula, FORMULA_TAGS)
    artifacts = []
    fits = {}
    for s in s_values:
        ts, counts = shell_counts(shell_eigenvalues(VladimirovSpec(s, ctx.p), ctx, formula), ctx)
        jumps = ts > 0
        rows = [("t", "count")] + list(zip(ts[jumps], counts[jumps].tolist()))
        artifacts.append(write_csv(out / f"weyl_counts_s{_fmt(s)}.csv", rows))
        try:
            fit = weyl_slope_fit(ts, counts, t_min=float(ctx.p) ** s, t_max=float(ctx.p) ** ((ctx.n - 1) * s))
        except ValueError as exc:
            raise ConfigError(f"level n={ctx.n} is too small for the slope fit: {exc}") from exc
        fits[_fmt(s)] = asdict(fit)
    artifacts.append(write_json(out / "weyl_fits.json", {"formula": formula, "fits": fits}))
    return artifacts


def _run_heat(
    ctx, rng, out, *, orders_s=(1.0, 0.5), times=(0.0, 0.1, 1.0), sobolev_orders=tuple(range(7)), coefficient_floor=1.0
):
    orders_s = [_order("orders_s", s, ctx) for s in _numbers("orders_s", orders_s, positive=True)]
    times = _numbers("times", times, low=0.0)
    sobolev_orders = _numbers("sobolev_orders", sobolev_orders)
    with np.errstate(over="ignore"):
        bad = [k for k in sobolev_orders if not np.isfinite(np.power(float(ctx.p) ** ctx.n, 2.0 * k))]
    if bad:
        raise ConfigError(f"param 'sobolev_orders': <xi>^(2k) overflows at level {ctx.n} for k={bad[0]}")
    lower = _number("coefficient_floor", coefficient_floor)
    f0 = LevelFunction(ctx, rng.normal(size=ctx.N) + 1j * rng.normal(size=ctx.N))
    terms = [(lower + rng.uniform(0.0, 1.0, size=ctx.N), s) for s in orders_s]
    gen_sym = variable_coefficient_generator(ctx, terms)
    traj = heat_evolve(gen_sym, f0, times, sobolev_orders)
    mags = traj.mode_magnitudes
    monotone = bool(np.all(mags[1:] <= mags[:-1] + 1e-12 * np.max(mags[0]))) if len(times) > 1 else True
    summary = {
        "path": traj.path,
        "orders_s": orders_s,
        "times": times,
        "modal_monotone": monotone,
        "max_norm": float(np.max(traj.norms)),
        "all_finite": bool(np.all(np.isfinite(traj.norms))),
    }
    # listed as heat.csv, heat.json, eigenvalues.csv
    artifacts = [write_csv(out / "heat.csv", traj.to_csv_rows()), write_json(out / "heat.json", summary)]
    if traj.eigenvalues is not None:
        rows = [("index", "re", "im", "modulus")]
        for i, lam in enumerate(traj.eigenvalues):
            rows.append((i, lam.real, lam.imag, abs(lam)))
        artifacts.append(write_csv(out / "eigenvalues.csv", rows))
    return artifacts


EXPERIMENTS = {
    "transform-bench": _run_transform_bench,
    "vladimirov-eigen": _run_vladimirov_eigen,
    "seminorm-sweep": _run_seminorm_sweep,
    "compose-check": _run_compose_check,
    "schur-sweep": _run_schur_sweep,
    "wiener": _run_wiener,
    "parametrix": _run_parametrix,
    "sobolev-bound": _run_sobolev_bound,
    "weyl-count": _run_weyl_count,
    "heat": _run_heat,
}

#: each experiment's params with their defaults: its runner's keyword-only arguments
PARAMS = {name: dict(runner.__kwdefaults__) for name, runner in EXPERIMENTS.items()}


def run(cfg: ExperimentConfig) -> Path:
    """Execute one experiment; returns the manifest path."""
    params = PARAMS[cfg.experiment]
    unknown = sorted(cfg.params.keys() - params)
    if unknown:
        raise ConfigError(f"experiment '{cfg.experiment}' has no params {unknown}; its params are {list(params)}")
    N, cap = cfg.p**cfg.n, CAPS[cfg.experiment]
    if N > cap:
        raise ResourceCapError(f"experiment '{cfg.experiment}' caps p^n at {cap}, got {N}")
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {out}: {exc}") from exc
    rng = np.random.default_rng(cfg.seed)
    t0 = time.perf_counter()
    artifacts = EXPERIMENTS[cfg.experiment](TruncationContext(cfg.p, cfg.n), rng, out, **cfg.params)
    wall = time.perf_counter() - t0
    manifest = {
        "experiment": cfg.experiment,
        "config_sha256": hashlib.sha256(cfg.canonical_json().encode()).hexdigest(),
        "params": {**params, **cfg.params},
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "wall_time_s": wall,
        "artifacts": artifacts,
    }
    manifest_path = out / "manifest.json"
    write_json(manifest_path, manifest)
    return manifest_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="padic-calc", description="p-adic pseudo-differential experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment from a JSON config")
    runp.add_argument("--config", required=True, help="path to the JSON experiment config")
    runp.add_argument("--out", default=None, help="output directory (overrides config)")
    runp.add_argument("--seed", type=int, default=None, help="seed override")
    sub.add_parser("list", help="print the registered experiments")
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return EXIT_OK

    try:
        cfg = ExperimentConfig.from_file(args.config)
        if args.out is not None:
            cfg.output_dir = args.out
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        manifest = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ConsistencyError, EllipticityMarginError, NotEllipticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(manifest)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
