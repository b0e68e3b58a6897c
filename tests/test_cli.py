"""CLI contract: config validation, exit codes, determinism, artifacts."""

import json

import numpy as np
import pytest

from padic_calc.calculus import quantize
from padic_calc.cli import (
    EXIT_CAP,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    _smooth_bump,
    fmt,
    main,
)
from padic_calc.core import TruncationContext
from padic_calc.fourier import dft
from padic_calc.spectral import op_norm_sobolev
from padic_calc.symbols import vladimirov_symbol
from padic_calc.vladimirov import VladimirovSpec


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_float_formatting_is_17_digits():
    assert fmt(1.0 / 3.0) == f"{1.0 / 3.0:.17g}"
    assert fmt(3) == "3"
    assert fmt(True) == "True"


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "weyl-count", "p": 4, "n": 3})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "unknown", "p": 2, "n": 3})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "heat", "p": 2})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "heat", "p": 2, "n": 3, "bogus": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "heat", "p": 2, "n": 3, "seed": "zero"})
    cfg = ExperimentConfig.from_dict({"experiment": "heat", "p": 2, "n": 3})
    assert cfg.seed == 0 and cfg.params == {}


def test_list_command(capsys):
    assert main(["list"]) == EXIT_OK
    out = capsys.readouterr().out.split()
    assert sorted(EXPERIMENTS) == out


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "nope.json"
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG

    malformed = tmp_path / "bad.json"
    malformed.write_text("{not json", encoding="utf-8")
    assert main(["run", "--config", str(malformed)]) == EXIT_CONFIG

    cap = write_config(
        tmp_path, {"experiment": "compose-check", "p": 2, "n": 12, "output_dir": str(tmp_path / "a")}, "cap.json"
    )
    assert main(["run", "--config", str(cap)]) == EXIT_CAP

    # a symbol with a zero somewhere on the checked shells: contraction fails
    numeric = write_config(
        tmp_path,
        {
            "experiment": "wiener",
            "p": 2,
            "n": 4,
            "output_dir": str(tmp_path / "b"),
            "params": {"perturbation": 25.0},
        },
        "num.json",
    )
    assert main(["run", "--config", str(numeric)]) == EXIT_NUMERIC
    capsys.readouterr()


ORDER_EXPERIMENTS = ("vladimirov-eigen", "seminorm-sweep", "schur-sweep", "wiener", "parametrix")
#: p^s rounds to 1 (gamma_p divides by 0), p^s overflows, |xi|^s overflows at level n+1
BAD_ORDERS = (1e-300, 1e6, 1000.0)


@pytest.mark.parametrize(
    "experiment,n,params",
    [
        ("compose-check", 3, {"trials": "abc"}),
        ("seminorm-sweep", 3, {"family": "bogus"}),
        ("vladimirov-eigen", 3, {"s": -1}),
        ("weyl-count", 2, {}),
        ("sobolev-bound", 3, {"s_values": [1.0, "x"]}),
        ("parametrix", 3, {"threshold": 1.5}),
        ("weyl-count", 5, {"formula": "bogus"}),
        ("wiener", 3, {"threshold": 4}),
        ("heat", 3, {"times": [0.0, -1.0]}),
        ("vladimirov-eigen", 0, {}),
        *[(e, 2, {"s": s}) for e in ORDER_EXPERIMENTS for s in BAD_ORDERS],
        *[(e, n, {"s_values": [s]}) for e, n in (("sobolev-bound", 2), ("weyl-count", 8)) for s in BAD_ORDERS],
        *[("heat", 2, {"orders_s": [s]}) for s in BAD_ORDERS],
        ("wiener", 2, {"perturbation_decay": -1e6}),
        ("parametrix", 2, {"perturbation_decay": -1e6}),
        # Sobolev weights <xi>^t or <xi>^-(t+s) that overflow at the fine level
        *[("sobolev-bound", 2, {"t_values": [t]}) for t in (1e6, -1e6, 700.0)],
        # heat: <xi>^(2k) overflows at the top weight p^n
        *[("heat", 2, {"sobolev_orders": [k]}) for k in (1e6, 700.0)],
    ],
)
def test_bad_params_exit_config(tmp_path, capsys, experiment, n, params):
    cfg = write_config(
        tmp_path, {"experiment": experiment, "p": 2, "n": n, "output_dir": str(tmp_path / "out"), "params": params}
    )
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and "\n" not in err


def test_run_writes_manifest_and_artifacts(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "vladimirov-eigen",
            "p": 2,
            "n": 5,
            "seed": 3,
            "output_dir": str(tmp_path / "out"),
            "params": {"s": 1.0},
        },
    )
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "vladimirov-eigen"
    names = {a["name"] for a in manifest["artifacts"]}
    assert names == {"vladimirov_eigen.csv", "vladimirov_eigen.json"}
    table = (out / "vladimirov_eigen.csv").read_text().splitlines()
    assert table[0].startswith("norm,lambda_integral")
    summary = json.loads((out / "vladimirov_eigen.json").read_text())
    # the exact integral diagonalization matches neither affine convention
    assert summary["matched_convention"] == "neither"
    assert summary["empirical_offset"]["fitted"] == pytest.approx(
        summary["empirical_offset"]["negated_additive_constant"], abs=1e-9
    )
    assert summary["max_level_shift"] < 1e-10


@pytest.mark.parametrize("experiment,params", [("weyl-count", {"s_values": [1.0]}), ("compose-check", {"trials": 3})])
def test_determinism_byte_identical(tmp_path, capsys, experiment, params):
    outs = []
    for tag in ("one", "two"):
        cfg = write_config(
            tmp_path,
            {
                "experiment": experiment,
                "p": 2,
                "n": 5,
                "seed": 11,
                "output_dir": str(tmp_path / tag),
                "params": params,
            },
            f"{tag}.json",
        )
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        outs.append(tmp_path / tag)
    capsys.readouterr()
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        if name in ("manifest.json", "transform_bench_timing.json"):
            continue  # carries wall time
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_seed_and_out_overrides(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "compose-check",
            "p": 2,
            "n": 4,
            "seed": 1,
            "output_dir": str(tmp_path / "ignored"),
            "params": {"trials": 2},
        },
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "real"), "--seed", "9"]) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "real" / "compose_check.json").exists()
    assert not (tmp_path / "ignored").exists()
    doc = json.loads((tmp_path / "real" / "compose_check.json").read_text())
    assert doc["max_error"] < 1e-10


#: a level at which every experiment runs in well under a second
SMALL_N = {
    "transform-bench": 4,
    "vladimirov-eigen": 4,
    "seminorm-sweep": 4,
    "compose-check": 3,
    "schur-sweep": 4,
    "wiener": 4,
    "parametrix": 4,
    "sobolev-bound": 4,
    "weyl-count": 6,
    "heat": 4,
}


def test_every_experiment_runs_small(tmp_path, capsys):
    for name, n in SMALL_N.items():
        cfg = write_config(
            tmp_path,
            {"experiment": name, "p": 2, "n": n, "seed": 5, "output_dir": str(tmp_path / name)},
            f"{name}.json",
        )
        assert main(["run", "--config", str(cfg)]) == EXIT_OK, name
        assert (tmp_path / name / "manifest.json").exists()
    capsys.readouterr()


@pytest.mark.parametrize("experiment", sorted(SMALL_N))
def test_every_experiment_reproduces_its_artifacts(tmp_path, capsys, experiment):
    outs = []
    for tag in ("one", "two"):
        cfg = write_config(
            tmp_path,
            {"experiment": experiment, "p": 2, "n": SMALL_N[experiment], "seed": 13, "output_dir": str(tmp_path / tag)},
            f"{tag}.json",
        )
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        outs.append(tmp_path / tag)
    capsys.readouterr()
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    compared = [name for name in names if name not in ("manifest.json", "transform_bench_timing.json")]
    assert compared  # every experiment writes at least one numeric artifact
    for name in compared:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_sobolev_bound_matches_dense_route(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "sobolev-bound",
            "p": 3,
            "n": 3,
            "output_dir": str(tmp_path / "out"),
            "params": {"s_values": [0.5, 1.5], "t_values": [-1.0, 2.0]},
        },
    )
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    capsys.readouterr()
    rows = (tmp_path / "out" / "sobolev_bound.csv").read_text().splitlines()[1:]
    assert len(rows) == 4
    for row in rows:
        s, t, norm, norm_next, _ = map(float, row.split(","))
        for n, got in ((3, norm), (4, norm_next)):
            A = quantize(vladimirov_symbol(VladimirovSpec(s, 3), TruncationContext(3, n)))
            assert got == pytest.approx(op_norm_sobolev(A, t, s), rel=1e-10)


@pytest.mark.parametrize("n,code", [(12, EXIT_OK), (21, EXIT_CAP)])
def test_sobolev_bound_cap(tmp_path, capsys, n, code):
    cfg = write_config(
        tmp_path, {"experiment": "sobolev-bound", "p": 2, "n": n, "output_dir": str(tmp_path / "out")}
    )
    assert main(["run", "--config", str(cfg)]) == code
    err = capsys.readouterr().err
    if code == EXIT_CAP:
        assert err.startswith("resource cap:") and str(2**20) in err
    else:
        assert (tmp_path / "out" / "sobolev_bound.csv").exists()


def test_sobolev_bound_is_exact_at_the_cap_level(tmp_path, capsys):
    # the H^s -> L^2 norm of D^s is max_j (p^(js) - c) / p^(js) = 1 - c p^(-ns), reached on the top shell
    cfg = write_config(
        tmp_path,
        {
            "experiment": "sobolev-bound",
            "p": 2,
            "n": 20,
            "output_dir": str(tmp_path / "out"),
            "params": {"s_values": [2.9], "t_values": [0.0]},
        },
    )
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    capsys.readouterr()
    (row,) = (tmp_path / "out" / "sobolev_bound.csv").read_text().splitlines()[1:]
    _, _, norm, norm_next, _ = map(float, row.split(","))
    c = VladimirovSpec(2.9, 2).additive_constant
    assert abs(norm - (1.0 - c * 2.0 ** (-20 * 2.9))) <= 1e-12
    assert abs(norm_next - (1.0 - c * 2.0 ** (-21 * 2.9))) <= 1e-12


def test_vladimirov_eigen_is_level_independent_at_large_order(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"experiment": "vladimirov-eigen", "p": 2, "n": 12, "output_dir": str(tmp_path / "out"), "params": {"s": 4.0}},
    )
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    capsys.readouterr()
    summary = json.loads((tmp_path / "out" / "vladimirov_eigen.json").read_text())
    assert summary["max_level_shift"] == 0.0
    assert summary["matched_convention"] == "neither"


@pytest.mark.parametrize("experiment", ["vladimirov-eigen", "weyl-count"])
def test_raised_caps(tmp_path, capsys, experiment):
    cfg = write_config(tmp_path, {"experiment": experiment, "p": 2, "n": 21, "output_dir": str(tmp_path / "out")})
    assert main(["run", "--config", str(cfg)]) == EXIT_CAP
    err = capsys.readouterr().err.strip()
    assert err.startswith("resource cap:") and str(2**20) in err and "\n" not in err


@pytest.mark.parametrize("family", ["S", "S_tilde", "S_check"])
def test_seminorm_sweep_at_level_zero(tmp_path, capsys, family):
    # at n = 0 the single residue leaves no y != 0 or eta != 0: those constants are 0
    cfg = write_config(
        tmp_path,
        {
            "experiment": "seminorm-sweep",
            "p": 2,
            "n": 0,
            "output_dir": str(tmp_path / "out"),
            "params": {"family": family},
        },
    )
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    capsys.readouterr()
    doc = json.loads((tmp_path / "out" / "seminorm.json").read_text())
    assert doc["family"] == family and np.all(np.isfinite(doc["constants"]))


@pytest.mark.parametrize("seed", [0, 2])
def test_heat_non_finite_eigen_route_is_a_numeric_failure(tmp_path, capsys, seed):
    # generator entries up to 4^100: the eigensolve passes its residual check, exp(-t lambda) does not survive
    cfg = write_config(
        tmp_path,
        {
            "experiment": "heat",
            "p": 2,
            "n": 2,
            "seed": seed,
            "output_dir": str(tmp_path / "out"),
            "params": {"orders_s": [100.0]},
        },
    )
    assert main(["run", "--config", str(cfg)]) == EXIT_NUMERIC
    err = capsys.readouterr().err.strip()
    assert err.startswith("numeric failure:") and "\n" not in err


def smooth_bump_loop(ctx, rng, decay, scale):
    """The per-frequency loop that ``_smooth_bump`` replaced, kept as its oracle."""
    coeffs = np.zeros(ctx.N, dtype=np.complex128)
    for u in range(1, ctx.N):
        j = ctx.n - int(ctx.valuations[u])
        coeffs[u] = float(ctx.p) ** (-decay * j) * (rng.normal() + 1j * rng.normal())
    neg = (-np.arange(ctx.N)) % ctx.N
    coeffs = (coeffs + np.conj(coeffs[neg])) / 2.0
    vals = dft(coeffs, ctx, +1).real
    peak = np.max(np.abs(vals))
    return scale * vals / peak if peak > 0 else vals


@pytest.mark.parametrize("p,n", [(2, 7), (3, 5), (5, 3), (2, 9)])
@pytest.mark.parametrize("decay", [6.0, 8.0])
def test_smooth_bump_bit_identical_to_loop(p, n, decay):
    ctx = TruncationContext(p, n)
    rng_fast, rng_loop = np.random.default_rng(7), np.random.default_rng(7)
    fast = _smooth_bump(ctx, rng_fast, decay, 0.3)
    assert np.array_equal(fast, smooth_bump_loop(ctx, rng_loop, decay, 0.3))
    assert rng_fast.normal() == rng_loop.normal()  # both consumed the same stream
