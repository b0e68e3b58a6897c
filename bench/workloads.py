"""The benchmark's workloads: seeded inputs, one job, and its checks.

A workload builds a pool of ``POOL`` input sets from its seed during
set-up; job ``i`` runs one pass over the workload's ``(p, n)`` grid on
input set ``i % POOL``.  ``check`` compares a job's outputs with routes
that share no code with the path under test (see ``oracles``) and returns
one :class:`Check` per comparison.  Package functions are always reached
through their module (``calculus.quantize``), so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
from padic_calc import calculus, cli, core, fourier, matrix_algebra, operator_matrix, spectral, symbols, vladimirov

POOL = 64

#: criterion 3 of the acceptance gate, applied relative to the reference
COMPOSE_TOL = 1e-10
#: dense linear algebra (SVD, eig, expm) against an independent route
DENSE_TOL = 1e-8
#: J_r sums weight the transform's rounding by <eta>^r (up to p^(3n)), so
#: fast and naive routes differ far above machine precision at r = 3
JR_TOL = 1e-7


@dataclass
class Check:
    name: str
    ok: bool
    err: float | None = None  # relative error against the independent route


def _err_check(name, err, tol):
    return Check(name, bool(err <= tol), err)


def _context(p, n):
    """A context with its lookup tables built (they are cached on first use)."""
    ctx = core.TruncationContext(p, n)
    ctx.roots, ctx.norms, ctx.weights
    return ctx


def _smooth_bump(ctx, rng, decay, E):
    """Real bump with a geometrically decaying shell spectrum, peak 1."""
    shells = np.where(np.arange(ctx.N) == 0, 0, ctx.n - ctx.valuations)
    coeffs = float(ctx.p) ** (-decay * shells) * (rng.normal(size=ctx.N) + 1j * rng.normal(size=ctx.N))
    coeffs[0] = 0.0
    coeffs = (coeffs + np.conj(coeffs[(-np.arange(ctx.N)) % ctx.N])) / 2.0
    vals = (E @ coeffs).real
    return vals / np.max(np.abs(vals))


def _perturbed_vladimirov(ctx, s, bump):
    """``lambda_s(xi) + margin * bump(x)``, margin the smallest eigenvalue above shell 0."""
    lam = vladimirov.multiplier_table(vladimirov.VladimirovSpec(s, ctx.p), ctx)
    margin = float(np.min(lam[ctx.norms >= ctx.p]))
    return symbols.Symbol(ctx, lam[None, :] + margin * bump[:, None])


class Workload:
    name = ""
    grid: tuple = ()

    def __init__(self, seed: int, workdir: Path, grid=None):
        self.seed = seed
        self.workdir = Path(workdir)
        if grid is not None:
            self.grid = tuple(grid)
        self._oracle_cache = {}

    def setup(self) -> None:
        """Context tables for the grid and the seeded draws of the input pool."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        self.contexts = [_context(p, n) for p, n in self.grid]
        self.pool = [self.draw(rng) for _ in range(POOL)]
        self._built = (None, None)

    def inputs(self, i):
        """Job i's inputs, built from its draws on first use.

        The pool keeps only O(N) draws per grid point, so that its memory
        does not mask the program's in ``peak_rss_mb``; the harness calls
        this before starting a job's clock.
        """
        k = i % POOL
        if self._built[0] != k:
            self._built = (k, self.build(self.pool[k]))
        return self._built[1]

    def characters(self, N):
        if N not in self._oracle_cache:
            self._oracle_cache[N] = oracles.characters(N)
        return self._oracle_cache[N]

    def draw(self, rng):
        raise NotImplementedError

    def build(self, drawn):
        return drawn

    def job(self, i):
        raise NotImplementedError

    def check(self, i, out) -> list:
        raise NotImplementedError


class Wiener(Workload):
    """Geometric-series inversion of a seeded smooth perturbation of D^1."""

    name = "wiener"
    grid = ((2, 7), (3, 5), (5, 3))
    order = 1.0
    threshold = 1
    r_values = (0, 1, 2, 3)

    def draw(self, rng):
        return [rng.uniform(0.05, 0.2) * _smooth_bump(ctx, rng, 6.0, self.characters(ctx.N)) for ctx in self.contexts]

    def build(self, bumps):
        return [_perturbed_vladimirov(ctx, self.order, bump) for ctx, bump in zip(self.contexts, bumps)]

    def job(self, i):
        return [
            matrix_algebra.wiener_experiment(sym, order=self.order, threshold=self.threshold, r_values=self.r_values)
            for sym in self.inputs(i)
        ]

    def check(self, i, out):
        checks = []
        for sym, rep in zip(self.inputs(i), out):
            ctx = sym.ctx
            tag = f"({ctx.p},{ctx.n})"
            high = np.flatnonzero(ctx.norms >= float(ctx.p) ** self.threshold)
            recip = 1.0 / sym.table[:, high].T
            spec = np.abs(fourier.dft(recip, ctx, -1, naive=True) / ctx.N)
            w = oracles.weights(ctx.p, ctx.n)
            want = [float(np.max((spec @ w**r) * w[high] ** self.order)) for r in self.r_values]
            got = [rep.jr_constants[r] for r in self.r_values]
            checks.append(_err_check(f"wiener {tag} J_r vs naive DFT", oracles.rel_err(got, want), JR_TOL))
            cols = np.abs(sym.table[:, high])
            delta = cols.min(axis=0) / cols.max(axis=0)
            checks.append(
                _err_check(f"wiener {tag} delta", oracles.rel_err([c.delta for c in rep.columns], delta), COMPOSE_TOL)
            )
            recon = max(c.recon_error for c in rep.columns)
            checks.append(Check(f"wiener {tag} series reciprocal", bool(recon < 1e-11 and len(rep.columns) == high.size)))
        return checks


class DenseCalculus(Workload):
    """x-dependent symbols through the whole calculus, no multiplier fast path."""

    name = "dense-calculus"
    grid = ((2, 8), (3, 4), (5, 3))
    times = (0.0, 0.1, 1.0)
    sobolev_orders = (0.0, 1.0, 2.0)

    def draw(self, rng):
        sets = []
        for ctx in self.contexts:
            s = float(rng.uniform(0.75, 1.25))
            bump = rng.uniform(0.05, 0.2) * _smooth_bump(ctx, rng, 8.0, self.characters(ctx.N))
            terms = [(1.0 + rng.uniform(0.0, 1.0, ctx.N), 1.0), (1.5 + rng.uniform(0.0, 0.5, ctx.N), 0.5)]
            f0 = rng.normal(size=ctx.N) + 1j * rng.normal(size=ctx.N)
            t = float(rng.choice([-1.0, 0.0, 2.0]))
            sets.append({"ctx": ctx, "s": s, "bump": bump, "terms": terms, "f0": f0, "t": t})
        return sets

    def build(self, drawn):
        return [
            {
                "s": d["s"],
                "t": d["t"],
                "sigma": _perturbed_vladimirov(d["ctx"], d["s"], d["bump"]),
                "tau": spectral.variable_coefficient_generator(d["ctx"], d["terms"]),
                "f0": fourier.LevelFunction(d["ctx"], d["f0"]),
                "path": self.workdir / f"op-{d['ctx'].p}-{d['ctx'].n}.bin",
            }
            for d in drawn
        ]

    def job(self, i):
        outs = []
        for inp in self.inputs(i):
            sigma, tau, s = inp["sigma"], inp["tau"], inp["s"]
            A = calculus.quantize(sigma)
            out = {"A": A, "roundtrip": calculus.symbol_of(A)}
            out["compose"] = calculus.compose_symbols(sigma, tau)
            out["adjoint"] = calculus.adjoint_symbol(sigma)
            out["parametrix"] = calculus.parametrix(sigma, order=s, threshold=1, r_values=(0, 1, 2))
            out["seminorm"] = symbols.seminorm(sigma, "S_tilde", m=s, alpha_max=2, beta_max=1)
            out["op_norm"] = spectral.op_norm_sobolev(A, inp["t"], s)
            out["heat"] = spectral.heat_evolve(tau, inp["f0"], self.times, self.sobolev_orders)
            A.save_binary(inp["path"])
            out["loaded"] = operator_matrix.OperatorMatrix.load_binary(inp["path"])
            outs.append(out)
        return outs

    def check(self, i, out):
        checks = []
        for inp, o in zip(self.inputs(i), out):
            sigma, tau, s = inp["sigma"], inp["tau"], inp["s"]
            ctx = sigma.ctx
            tag = f"({ctx.p},{ctx.n})"
            E = self.characters(ctx.N)
            w = oracles.weights(ctx.p, ctx.n)
            Qs = oracles.quantize(sigma.table, E)
            Qt = oracles.quantize(tau.table, E)
            checks.append(
                _err_check(f"symbol_of(quantize) {tag}", oracles.rel_err(o["roundtrip"].table, sigma.table), COMPOSE_TOL)
            )
            checks.append(
                _err_check(f"compose {tag}", oracles.rel_err(oracles.quantize(o["compose"].table, E), Qs @ Qt), COMPOSE_TOL)
            )
            checks.append(
                _err_check(f"adjoint {tag}", oracles.rel_err(oracles.quantize(o["adjoint"].table, E), Qs.conj().T), COMPOSE_TOL)
            )
            par = o["parametrix"]
            high = oracles.norms(ctx.p, ctx.n) >= ctx.p
            tau_want = np.where(high[None, :], 1.0 / np.where(high[None, :], sigma.table, 1.0), 0.0)
            Ms = oracles.frequency_basis(Qs, E)
            Mt = oracles.frequency_basis(oracles.quantize(tau_want, E), E)
            eye = np.eye(ctx.N)
            want = [*oracles.schur0(Mt @ Ms - eye), *oracles.schur0(Ms @ Mt - eye)]
            got = [*par.residual_norms["left"][0], *par.residual_norms["right"][0]]
            checks.append(_err_check(f"parametrix residual {tag}", oracles.rel_err(got, want), DENSE_TOL))
            c00 = float(np.max(np.abs(sigma.table) / w[None, :] ** s))
            sem = o["seminorm"]
            checks.append(_err_check(f"seminorm C00 {tag}", oracles.rel_err(sem.constants[0, 0], c00), COMPOSE_TOL))
            checks.append(Check(f"seminorm finite {tag}", bool(np.all(np.isfinite(sem.constants)))))
            t = inp["t"]
            want_norm = oracles.spectral_norm(w[:, None] ** t * Ms * w[None, :] ** (-(t + s)))
            checks.append(_err_check(f"op_norm_sobolev {tag}", oracles.rel_err(o["op_norm"], want_norm), DENSE_TOL))
            heat = o["heat"]
            want_heat = oracles.heat_norms(Qt, inp["f0"].values, self.times, self.sobolev_orders, w, E)
            checks.append(Check(f"heat path {tag}", heat.path == "eigen"))
            checks.append(_err_check(f"heat_evolve {tag}", oracles.rel_err(heat.norms, want_heat), DENSE_TOL))
            saved = Path(inp["path"]).read_bytes()
            again = self.workdir / f"reload-{ctx.p}-{ctx.n}.bin"
            o["loaded"].save_binary(again)
            same = saved == again.read_bytes() and np.array_equal(o["loaded"].entries, o["A"].entries)
            checks.append(Check(f"binary round trip {tag}", bool(same and len(saved) == 17 + 16 * ctx.N**2), 0.0))
        return checks


class Multiplier(Workload):
    """Exactly diagonal D^s experiments run in-process through the CLI."""

    name = "multiplier"
    experiments = (
        ("sobolev-bound", 2, 7),
        ("sobolev-bound", 3, 4),
        ("schur-sweep", 2, 8),
        ("seminorm-sweep", 2, 9),
        ("vladimirov-eigen", 2, 10),
        ("weyl-count", 2, 14),
    )

    def __init__(self, seed, workdir, grid=None):
        super().__init__(seed, workdir)
        if grid is not None:
            self.experiments = tuple(grid)
        self.grid = tuple((p, n) for _, p, n in self.experiments)

    def draw(self, rng):
        s = float(rng.uniform(0.75, 1.5))
        configs = []
        for exp, p, n in self.experiments:
            params = {"s_values": [s]} if exp in ("sobolev-bound", "weyl-count") else {"s": s}
            doc = {
                "experiment": exp,
                "p": p,
                "n": n,
                "seed": int(rng.integers(2**31)),
                "output_dir": str(self.workdir / f"{exp}-{p}-{n}"),
                "params": params,
            }
            configs.append(cli.ExperimentConfig.from_dict(doc))
        return {"s": s, "configs": configs}

    def job(self, i):
        return [cli.run(cfg) for cfg in self.inputs(i)["configs"]]

    def check(self, i, out):
        checks = []
        s = self.inputs(i)["s"]
        configs = self.inputs(i)["configs"]
        for cfg, manifest_path in zip(configs, out):
            tag = f"{cfg.experiment} ({cfg.p},{cfg.n})"
            out_dir = Path(manifest_path).parent
            listed = _artifact_digests(manifest_path)
            on_disk = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in listed}
            checks.append(Check(f"{tag} artifacts match manifest", on_disk == listed))
            checks.extend(getattr(self, "_check_" + cfg.experiment.replace("-", "_"))(cfg, out_dir, s, tag))
        # one experiment per job, in rotation, is run again from the same config
        k = i % len(configs)
        again = cli.run(dataclasses.replace(configs[k], output_dir=str(self.workdir / "rerun")))
        checks.append(Check(f"{configs[k].experiment} rerun reproduces", _artifact_digests(again) == _artifact_digests(out[k])))
        return checks

    def _check_sobolev_bound(self, cfg, out_dir, s, tag):
        rows = _csv(out_dir / "sobolev_bound.csv")
        got, want = [], []
        for row in rows:
            t = float(row["t"])
            for level, key in ((cfg.n, "norm"), (cfg.n + 1, "norm_next_level")):
                w = oracles.weights(cfg.p, level)
                lam = oracles.vladimirov_eigenvalues(cfg.p, level, s)
                want.append(float(np.max(w**t * np.abs(lam) * w ** (-(t + s)))))
                got.append(float(row[key]))
        return [_err_check(f"{tag} closed form", oracles.rel_err(got, want), DENSE_TOL)]

    def _check_schur_sweep(self, cfg, out_dir, s, tag):
        ratios = [float(r["growth_ratio"]) for r in _csv(out_dir / "schur_sweep.csv")]
        doc = json.loads((out_dir / "equivalence.json").read_text(encoding="utf-8"))
        sem = np.asarray(doc["seminorm_growth"], dtype=float)
        ratios += list(sem[np.isfinite(sem)].ravel())
        return [Check(f"{tag} growth ratios in [0.8, 1.25]", all(0.8 <= g <= 1.25 for g in ratios))]

    def _check_seminorm_sweep(self, cfg, out_dir, s, tag):
        doc = json.loads((out_dir / "seminorm.json").read_text(encoding="utf-8"))
        w = oracles.weights(cfg.p, cfg.n)
        want = float(np.max(np.abs(oracles.vladimirov_eigenvalues(cfg.p, cfg.n, s)) / w ** doc["m"]))
        return [_err_check(f"{tag} C00 closed form", oracles.rel_err(doc["constants"][0][0], want), COMPOSE_TOL)]

    def _check_vladimirov_eigen(self, cfg, out_dir, s, tag):
        ctx = core.TruncationContext(cfg.p, cfg.n)
        spec = vladimirov.VladimirovSpec(s, cfg.p)
        rows = _csv(out_dir / "vladimirov_eigen.csv")
        # Shell 0 is the constant character, eigenvalue 0 by convention.  The
        # oracle is not used there: its spread test is relative to |lambda| = 0
        # while the cancellation error grows with the kernel sum, so it raises
        # ConsistencyError for some s at n = 10.
        got = [float(row["lambda_integral"]) for row in rows[1:]]
        want = [
            vladimirov.eigenvalue_oracle(spec, core.Frequency(ctx, cfg.p ** (cfg.n - m)))
            for m in range(1, len(rows))
        ]
        doc = json.loads((out_dir / "vladimirov_eigen.json").read_text(encoding="utf-8"))
        offset = abs(doc["empirical_offset"]["fitted"] + spec.additive_constant)
        return [
            _err_check(f"{tag} eigenvalue_oracle", oracles.rel_err(got, want), COMPOSE_TOL),
            Check(f"{tag} zero frequency", float(rows[0]["lambda_integral"]) == 0.0),
            Check(f"{tag} offset -c", bool(offset < 1e-9 and len(rows) == cfg.n + 1)),
        ]

    def _check_weyl_count(self, cfg, out_dir, s, tag):
        fits = json.loads((out_dir / "weyl_fits.json").read_text(encoding="utf-8"))["fits"]
        slopes = [f["slope"] for f in fits.values()]
        return [Check(f"{tag} slope 1/s +- 0.05", bool(len(slopes) == 1 and abs(slopes[0] - 1.0 / s) <= 0.05))]


def _artifact_digests(manifest_path) -> dict:
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    return {a["name"]: a["sha256"] for a in manifest["artifacts"]}


def _csv(path: Path) -> list:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


WORKLOADS = {w.name: w for w in (Wiener, DenseCalculus, Multiplier)}
