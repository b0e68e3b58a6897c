"""Batch experiment runner: config parsing, dispatch, artifact emission.

One experiment per invocation.  All randomness flows through a generator
seeded from the config, every float in a CSV artifact is printed with 17
significant digits, and JSON artifacts are emitted with sorted keys, so
identical config + seed reproduces the numeric artifacts byte for byte.
The manifest (and the timing sidecar of transform-bench) records wall
time and is the one artifact excluded from that guarantee.

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
from .core import ConsistencyError, ResourceCapError, TruncationContext, is_prime
from .fourier import LevelFunction, dft, forward, inverse, l2_norm, spectral_l2_norm
from .matrix_algebra import EllipticityMarginError, equivalence_check, wiener_experiment
from .spectral import (
    counting_function,
    heat_evolve,
    op_norm_sobolev_multiplier,
    variable_coefficient_generator,
    weyl_slope_fit,
)
from .symbols import FAMILIES, Symbol, seminorm, vladimirov_symbol
from .vladimirov import FORMULA_TAGS, VladimirovSpec, multiplier_table

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
        if doc["experiment"] not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {doc['experiment']!r}; see 'padic-calc list'")
        if not isinstance(doc["p"], int) or not is_prime(doc["p"]):
            raise ConfigError(f"field 'p' must be a prime integer, got {doc['p']!r}")
        if isinstance(doc["n"], bool) or not isinstance(doc["n"], int) or doc["n"] < 0:
            raise ConfigError(f"field 'n' must be a non-negative integer, got {doc['n']!r}")
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
        except OSError as exc:
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


def fmt(x) -> str:
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


def write_csv(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


#: Largest p^n each experiment accepts; a larger level exits 3 (resource cap).
#: The D^s spectra are O(N) closed forms; their p=2, n=20 figures are one fresh
#: process with its default params (import included) on a 2-vCPU Xeon.
CAPS = {
    "transform-bench": 4**7,
    "vladimirov-eigen": 2**20,  # 1.6 s, 184 MB peak RSS
    "seminorm-sweep": 2**9,
    "compose-check": 2**7,
    "schur-sweep": 2**9,
    "wiener": 2**9,
    "parametrix": 2**8,
    "sobolev-bound": 2**20,  # 1.9 s, 216 MB peak RSS with s_values [0.5, 1, 2]
    "weyl-count": 2**20,  # 1.5 s, 123 MB peak RSS
    "heat": 2**10,
}


#: largest accepted 'trials'; a count of 1e300 passes as an integer and never ends
MAX_TRIALS = 1000


def _require_size(cfg: ExperimentConfig) -> TruncationContext:
    N = cfg.p**cfg.n
    cap = CAPS[cfg.experiment]
    if N > cap:
        raise ResourceCapError(f"experiment '{cfg.experiment}' caps p^n at {cap}, got {N}")
    return TruncationContext(cfg.p, cfg.n)


def _number(key: str, val, integer: bool = False, low=None, high=None, positive: bool = False):
    """``val`` as a finite int/float within the bounds, or a ConfigError naming ``key``."""
    finite = isinstance(val, int) or (isinstance(val, float) and math.isfinite(val))
    if isinstance(val, bool) or not finite or (integer and isinstance(val, float) and not val.is_integer()):
        raise ConfigError(f"param '{key}' must be {'an integer' if integer else 'a finite number'}, got {val!r}")
    if (positive and val <= 0) or (low is not None and val < low) or (high is not None and val > high):
        need = "positive" if positive else f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigError(f"param '{key}' must be {need}, got {val!r}")
    return int(val) if integer else float(val)


def _param(params: dict, key: str, default, **bounds):
    return _number(key, params.get(key, default), **bounds)


def _choice(params: dict, key: str, default, options) -> str:
    val = params.get(key, default)
    if val not in options:
        raise ConfigError(f"param '{key}' must be one of {list(options)}, got {val!r}")
    return val


def _float_list(params: dict, key: str, default, **bounds) -> list:
    vals = params.get(key, default)
    if not isinstance(vals, (list, tuple)) or not vals:
        raise ConfigError(f"param '{key}' must be a non-empty list")
    return [_number(key, v, **bounds) for v in vals]


def _order(key: str, s: float, cfg: ExperimentConfig) -> float:
    """``s`` if D^s and its eigenvalues up to level n+1 are finite floats, else a ConfigError naming ``key``."""
    try:
        VladimirovSpec(s, cfg.p)
    except ValueError as exc:
        raise ConfigError(f"param '{key}': {exc}") from exc
    with np.errstate(over="ignore"):
        if not np.isfinite(np.power(float(cfg.p), s * (cfg.n + 1))):
            raise ConfigError(f"param '{key}': |xi|^{s} overflows at level {cfg.n + 1}")
    return s


def _exponent(key: str, default: int, cfg: ExperimentConfig) -> int:
    """Integer power ``key`` in [0, k_max], the largest k with p^(k(n+1)) <= 2^1023.

    <xi>^k and <xi>^-k then stay finite normal floats a level past n, and the
    loops over 0..k that the power drives end (1e300 passes as an integer).
    """
    high = int(1023 // ((cfg.n + 1) * math.log2(cfg.p)))
    return _param(cfg.params, key, default, integer=True, low=0, high=high)


def _threshold(cfg: ExperimentConfig) -> int:
    """Ellipticity threshold in [0, n] for the runners that scale a perturbation by the shells 1..n."""
    if cfg.n == 0:
        raise ConfigError(f"experiment '{cfg.experiment}' needs n >= 1: its perturbation is scaled by shells 1..n")
    return _param(cfg.params, "threshold", 1, integer=True, low=0, high=cfg.n)


# ----------------------------------------------------------------- experiments


def _run_transform_bench(cfg, rng, out):
    ctx = _require_size(cfg)
    trials = _param(cfg.params, "trials", 20, integer=True, low=0, high=MAX_TRIALS)
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
    write_csv(out / "transform_bench.csv", rows)
    write_json(out / "transform_bench_timing.json", {"trials": trials, "wall_time_s": elapsed})
    return [out / "transform_bench.csv", out / "transform_bench_timing.json"]


def _run_vladimirov_eigen(cfg, rng, out):
    ctx = _require_size(cfg)
    if ctx.n < 1:
        raise ConfigError("vladimirov-eigen needs level n >= 1 to have a nonzero shell")
    s = _order("s", _param(cfg.params, "s", 1.0, positive=True), cfg)
    spec = VladimirovSpec(s, cfg.p)
    tables = {tag: multiplier_table(spec, ctx, tag) for tag in FORMULA_TAGS}
    fine = TruncationContext(cfg.p, cfg.n + 1)
    lam_fine = multiplier_table(spec, fine)
    rows = [
        (
            "norm",
            "lambda_integral",
            "lambda_plus_constant",
            "lambda_scaled_constant",
            "abs_diff_plus",
            "abs_diff_scaled",
            "level_shift_abs",
        )
    ]
    shells = []
    for m in range(0, ctx.n + 1):
        u = 0 if m == 0 else cfg.p ** (ctx.n - m)
        u_fine = 0 if m == 0 else cfg.p ** (fine.n - m)
        li = tables["integral"][u]
        lp = tables["plus_constant"][u]
        ls = tables["scaled_constant"][u]
        rows.append(
            (
                float(ctx.norms[u]),
                li,
                lp,
                ls,
                abs(li - lp),
                abs(li - ls),
                abs(li - lam_fine[u_fine]),
            )
        )
        shells.append((float(ctx.norms[u]), li))
    # which affine convention does the exactly-diagonalized integral match?
    diffs = {
        tag: float(np.max(np.abs(tables[tag] - tables["integral"]))) for tag in ("plus_constant", "scaled_constant")
    }
    matches = [tag for tag, d in diffs.items() if d < 1e-9]
    offsets = [lam - nrm**s for nrm, lam in shells if nrm > 0]
    write_csv(out / "vladimirov_eigen.csv", rows)
    write_json(
        out / "vladimirov_eigen.json",
        {
            "s": s,
            "matched_convention": matches[0] if matches else "neither",
            "max_abs_diff": diffs,
            "empirical_offset": {
                "fitted": float(np.mean(offsets)),
                "spread": float(np.ptp(offsets)),
                "negated_additive_constant": -spec.additive_constant,
            },
            "max_level_shift": float(max(r[6] for r in rows[1:])),
        },
    )
    return [out / "vladimirov_eigen.csv", out / "vladimirov_eigen.json"]


def _run_seminorm_sweep(cfg, rng, out):
    ctx = _require_size(cfg)
    s = _order("s", _param(cfg.params, "s", 1.0, positive=True), cfg)
    family = _choice(cfg.params, "family", "S_tilde", FAMILIES)
    m = _param(cfg.params, "m", s)
    rho = _param(cfg.params, "rho", 0.0, low=0.0, high=1.0)
    delta = _param(cfg.params, "delta", 0.0, low=0.0, high=1.0)
    alpha_max = _exponent("alpha_max", 3, cfg)
    beta_max = _exponent("beta_max", 2, cfg)
    sym = vladimirov_symbol(VladimirovSpec(s, cfg.p), ctx)
    rep = seminorm(sym, family, m=m, rho=rho, delta=delta, alpha_max=alpha_max, beta_max=beta_max)
    write_csv(out / "seminorm.csv", rep.to_csv_rows())
    (out / "seminorm.json").write_text(rep.to_json() + "\n", encoding="utf-8")
    return [out / "seminorm.csv", out / "seminorm.json"]


def _run_compose_check(cfg, rng, out):
    ctx = _require_size(cfg)
    trials = _param(cfg.params, "trials", 50, integer=True, low=0, high=MAX_TRIALS)
    worst = 0.0
    for _ in range(trials):
        t1 = rng.normal(size=(ctx.N, ctx.N)) + 1j * rng.normal(size=(ctx.N, ctx.N))
        t2 = rng.normal(size=(ctx.N, ctx.N)) + 1j * rng.normal(size=(ctx.N, ctx.N))
        s1, s2 = Symbol(ctx, t1), Symbol(ctx, t2)
        left = quantize(compose_symbols(s1, s2)).entries
        right = quantize(s1).entries @ quantize(s2).entries
        worst = max(worst, float(np.max(np.abs(left - right))))
    write_json(out / "compose_check.json", {"trials": trials, "max_error": worst})
    return [out / "compose_check.json"]


def _run_schur_sweep(cfg, rng, out):
    ctx = _require_size(cfg)
    s = _order("s", _param(cfg.params, "s", 1.0, positive=True), cfg)
    m = _param(cfg.params, "m", s)
    r_max = _exponent("r_max", 4, cfg)
    sym = vladimirov_symbol(VladimirovSpec(s, cfg.p), ctx)
    rep = equivalence_check(sym, m=m, r_max=r_max)
    rows = [("r", "m", "row_sup", "col_sup", "norm", "growth_ratio")]
    for sr in rep.schur:
        rows.append((sr.r, sr.m, sr.row_sup, sr.col_sup, sr.norm, sr.growth_ratio))
    write_csv(out / "schur_sweep.csv", rows)
    (out / "equivalence.json").write_text(rep.to_json() + "\n", encoding="utf-8")
    return [out / "schur_sweep.csv", out / "equivalence.json"]


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


def _run_wiener(cfg, rng, out):
    ctx = _require_size(cfg)
    s = _order("s", _param(cfg.params, "s", 1.0, positive=True), cfg)
    threshold = _threshold(cfg)
    eps_rel = _param(cfg.params, "perturbation", 0.1)
    decay = _param(cfg.params, "perturbation_decay", 6.0, low=0.0)
    spec = VladimirovSpec(s, cfg.p)
    lam = multiplier_table(spec, ctx)
    margin = float(np.min(lam[ctx.norms >= float(ctx.p) ** max(threshold, 1)]))
    V = _smooth_bump(ctx, rng, decay=decay, scale=eps_rel * margin)
    sym = Symbol(ctx, lam[None, :] + V[:, None])
    rep = wiener_experiment(sym, order=s, threshold=threshold)
    write_csv(out / "wiener.csv", rep.to_csv_rows())
    write_json(
        out / "wiener.json",
        {
            "order": s,
            "threshold": threshold,
            "perturbation_scale": float(eps_rel * margin),
            "jr_constants": {str(r): v for r, v in rep.jr_constants.items()},
            "max_recon_error": max(c.recon_error for c in rep.columns),
            "max_ratio_excess": max(
                (c.measured_ratio - c.ratio_bound) / max(c.ratio_bound, 1e-12) for c in rep.columns
            ),
        },
    )
    return [out / "wiener.csv", out / "wiener.json"]


def _run_parametrix(cfg, rng, out):
    ctx = _require_size(cfg)
    s = _order("s", _param(cfg.params, "s", 1.0, positive=True), cfg)
    threshold = _threshold(cfg)
    eps_rel = _param(cfg.params, "perturbation", 0.1)
    decay = _param(cfg.params, "perturbation_decay", 8.0, low=0.0)
    spec = VladimirovSpec(s, cfg.p)
    lam = multiplier_table(spec, ctx)
    margin = float(np.min(lam[ctx.norms >= float(ctx.p) ** max(threshold, 1)]))
    V = _smooth_bump(ctx, rng, decay=decay, scale=eps_rel * margin)
    sym = Symbol(ctx, lam[None, :] + V[:, None])
    rep = parametrix(sym, order=s, threshold=threshold)
    rows = [("side", "r", "cutoff", "tail_norm")]
    for side in ("left", "right"):
        for ri, r in enumerate(rep.r_values):
            for ci, cut in enumerate(rep.tail_cutoffs):
                rows.append((side, r, cut, rep.tail_norms[side][ri, ci]))
    write_csv(out / "parametrix_tails.csv", rows)
    (out / "parametrix.json").write_text(rep.to_json() + "\n", encoding="utf-8")
    return [out / "parametrix_tails.csv", out / "parametrix.json"]


def _run_sobolev_bound(cfg, rng, out):
    ctx = _require_size(cfg)
    s_values = _float_list(cfg.params, "s_values", [1.0], positive=True)
    s_values = [_order("s_values", s, cfg) for s in s_values]
    t_values = _float_list(cfg.params, "t_values", [-1.0, 0.0, 2.0])
    fine = TruncationContext(cfg.p, cfg.n + 1)
    top = float(cfg.p) ** fine.n  # the largest weight <xi> the conjugation sees
    for s in s_values:
        with np.errstate(over="ignore"):
            bad = [t for t in t_values if not np.all(np.isfinite(np.power(top, [t, -(t + s)])))]
        if bad:
            raise ConfigError(f"param 't_values': <xi>^t or <xi>^-(t+{s}) overflows at level {fine.n} for t={bad[0]}")
    rows = [("s", "t", "norm", "norm_next_level", "rel_shift")]
    for s in s_values:
        spec = VladimirovSpec(s, cfg.p)
        lam, lam_fine = multiplier_table(spec, ctx), multiplier_table(spec, fine)
        for t in t_values:
            v1 = op_norm_sobolev_multiplier(lam, ctx, t, s)
            v2 = op_norm_sobolev_multiplier(lam_fine, fine, t, s)
            rows.append((s, t, v1, v2, abs(v1 - v2) / max(v2, 1e-300)))
    write_csv(out / "sobolev_bound.csv", rows)
    return [out / "sobolev_bound.csv"]


def _run_weyl_count(cfg, rng, out):
    ctx = _require_size(cfg)
    s_values = _float_list(cfg.params, "s_values", [0.5, 1.0, 2.0], positive=True)
    s_values = [_order("s_values", s, cfg) for s in s_values]
    formula = _choice(cfg.params, "formula", "integral", FORMULA_TAGS)
    artifacts = []
    fits = {}
    for s in s_values:
        lam = multiplier_table(VladimirovSpec(s, cfg.p), ctx, formula)
        mods = np.unique(np.abs(lam))
        mods = mods[mods > 0]
        rows = [("t", "count")] + [(t, counting_function(lam, t)) for t in mods]
        path = out / f"weyl_counts_s{fmt(s)}.csv"
        write_csv(path, rows)
        artifacts.append(path)
        try:
            fit = weyl_slope_fit(lam, t_min=float(cfg.p) ** s, t_max=float(cfg.p) ** ((cfg.n - 1) * s))
        except ValueError as exc:
            raise ConfigError(f"level n={cfg.n} is too small for the slope fit: {exc}") from exc
        fits[fmt(s)] = asdict(fit)
    write_json(out / "weyl_fits.json", {"formula": formula, "fits": fits})
    artifacts.append(out / "weyl_fits.json")
    return artifacts


def _run_heat(cfg, rng, out):
    ctx = _require_size(cfg)
    orders_s = _float_list(cfg.params, "orders_s", [1.0, 0.5], positive=True)
    orders_s = [_order("orders_s", s, cfg) for s in orders_s]
    times = _float_list(cfg.params, "times", [0.0, 0.1, 1.0], low=0.0)
    sobolev_orders = _float_list(cfg.params, "sobolev_orders", [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    with np.errstate(over="ignore"):
        bad = [k for k in sobolev_orders if not np.isfinite(np.power(float(cfg.p) ** cfg.n, 2.0 * k))]
    if bad:
        raise ConfigError(f"param 'sobolev_orders': <xi>^(2k) overflows at level {cfg.n} for k={bad[0]}")
    lower = _param(cfg.params, "coefficient_floor", 1.0)
    f0 = LevelFunction(ctx, rng.normal(size=ctx.N) + 1j * rng.normal(size=ctx.N))
    terms = [(lower + rng.uniform(0.0, 1.0, size=ctx.N), s) for s in orders_s]
    gen_sym = variable_coefficient_generator(ctx, terms)
    traj = heat_evolve(gen_sym, f0, times, sobolev_orders)
    write_csv(out / "heat.csv", traj.to_csv_rows())
    artifacts = [out / "heat.csv", out / "heat.json"]
    if traj.eigenvalues is not None:
        rows = [("index", "re", "im", "modulus")]
        for i, lam in enumerate(traj.eigenvalues):
            rows.append((i, lam.real, lam.imag, abs(lam)))
        write_csv(out / "eigenvalues.csv", rows)
        artifacts.append(out / "eigenvalues.csv")
    mags = traj.mode_magnitudes
    monotone = bool(np.all(mags[1:] <= mags[:-1] + 1e-12 * np.max(mags[0]))) if len(times) > 1 else True
    write_json(
        out / "heat.json",
        {
            "path": traj.path,
            "orders_s": orders_s,
            "times": times,
            "modal_monotone": monotone,
            "max_norm": float(np.max(traj.norms)),
            "all_finite": bool(np.all(np.isfinite(traj.norms))),
        },
    )
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


def run(cfg: ExperimentConfig) -> Path:
    """Execute one experiment; returns the manifest path."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    t0 = time.perf_counter()
    artifacts = EXPERIMENTS[cfg.experiment](cfg, rng, out)
    wall = time.perf_counter() - t0
    manifest = {
        "experiment": cfg.experiment,
        "config_sha256": hashlib.sha256(cfg.canonical_json().encode()).hexdigest(),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "wall_time_s": wall,
        "artifacts": [
            {
                "name": p.name,
                "bytes": p.stat().st_size,
                "sha256": hashlib.sha256(p.read_bytes()).hexdigest(),
            }
            for p in artifacts
        ],
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
