"""CLI contract: config validation, exit codes, determinism, artifacts."""

import hashlib
import json
import math
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_calc.calculus import quantize
from padic_calc.cli import (
    EXIT_CAP,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    CAPS,
    EXPERIMENTS,
    PARAMS,
    ConfigError,
    ExperimentConfig,
    _fmt,
    _perturbed_vladimirov,
    _smooth_bump,
    main,
    run,
)
from padic_calc.core import TruncationContext
from padic_calc.fourier import dft
from padic_calc.spectral import op_norm_sobolev
from padic_calc.matrix_algebra import equivalence_check
from padic_calc.symbols import _FAMILY_RATIOS, FAMILIES, Symbol, _sweep, vladimirov_symbol
from padic_calc.vladimirov import VladimirovSpec, multiplier_table, shell_eigenvalues


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_float_formatting_is_17_digits():
    assert _fmt(1.0 / 3.0) == f"{1.0 / 3.0:.17g}"
    assert _fmt(3) == "3"
    assert _fmt(True) == "True"


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
    # unhashable or non-string experiments and non-string output directories
    for field_ in ({"experiment": ["weyl-count"]}, {"experiment": {"a": 1}}, {"output_dir": 5}, {"output_dir": None}):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "heat", "p": 2, "n": 3, **field_})
    # JSON true is a Python int subclass, not a level or a seed
    for field_ in ({"n": True}, {"n": 3, "seed": True}):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "heat", "p": 2, **field_})
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
    capsys.readouterr()

    not_utf8 = tmp_path / "utf16.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    doc = {"experiment": "weyl-count", "p": 2, "n": 5}
    bad_fields = ({"experiment": ["weyl-count"]}, {"experiment": {"a": 1}}, {"output_dir": 5}, {"output_dir": None})
    bad_fields += ({"output_dir": str(not_utf8 / "x")},)  # a directory below a file cannot be created
    configs = [not_utf8] + [write_config(tmp_path, {**doc, **f}, f"field{i}.json") for i, f in enumerate(bad_fields)]
    for path in configs:
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error:") and "\n" not in err

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
        # counts that pass as integers but would never end, and powers one past p^(k(n+1)) <= 2^1023
        ("transform-bench", 2, {"trials": 1e300}),
        ("compose-check", 2, {"trials": 1001}),
        ("schur-sweep", 0, {"r_max": 1e300}),
        *[("seminorm-sweep", 0, {k: 1e300}) for k in ("alpha_max", "beta_max")],
        ("schur-sweep", 2, {"r_max": 342}),
        ("seminorm-sweep", 9, {"alpha_max": 103}),
        ("seminorm-sweep", 0, {"beta_max": 1024}),
        # level 0 has no shell 1..n to scale the perturbation by
        *[(e, 0, {"threshold": 0}) for e in ("wiener", "parametrix")],
        # orders m with |m|(n+1) log2 p past 1023 (255.75 at p=2, n=3)
        *[(e, 3, {"m": m}) for e in ("schur-sweep", "seminorm-sweep") for m in (-1e300, 256.0, -256.0)],
    ],
)
def test_bad_params_exit_config(tmp_path, capsys, experiment, n, params):
    cfg = write_config(
        tmp_path, {"experiment": experiment, "p": 2, "n": n, "output_dir": str(tmp_path / "out"), "params": params}
    )
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and "\n" not in err


@pytest.mark.parametrize(
    "experiment,params",
    [("schur-sweep", {"r_max": 204})]
    + [
        ("seminorm-sweep", {"family": f, "alpha_max": a, "beta_max": b, "rho": 1, "delta": 1})
        for f in FAMILIES
        for a, b in ((204, 8), (8, 204))
    ]
    + [(e, {"m": m}) for e in ("schur-sweep", "seminorm-sweep") for m in (1023 / 5, -1023 / 5)],
)
def test_powers_at_their_bound_stay_finite(tmp_path, capsys, experiment, params):
    # p^(k(n+1)) <= 2^1023 at p=2, n=4 admits k = 204 and |m| = 204.6: every figure is still a finite float
    cfg = write_config(
        tmp_path, {"experiment": experiment, "p": 2, "n": 4, "output_dir": str(tmp_path / "out"), "params": params}
    )
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    (csv,) = (tmp_path / "out").glob("*.csv")
    rows = [line.split(",") for line in csv.read_text(encoding="utf-8").splitlines()[1:]]
    assert rows and all(math.isfinite(float(v)) for row in rows for v in row)


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


def test_negative_seed_exits_config(tmp_path, capsys):
    doc = {"experiment": "vladimirov-eigen", "p": 2, "n": 3, "output_dir": str(tmp_path / "out")}
    in_field = write_config(tmp_path, {**doc, "seed": -1}, "field.json")
    plain = write_config(tmp_path, doc, "plain.json")
    for argv in (["run", "--config", str(in_field)], ["run", "--config", str(plain), "--seed", "-5"]):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error: field 'seed'") and "\n" not in err
    assert not (tmp_path / "out").exists()


#: every param of every experiment, and names that none of them takes
FUZZ_KEYS = sorted(set().union(*PARAMS.values())) + ["S", "s_vals", "ctx", "out"]
ODD_VALUES = (0, -1, 1, 2, 0.5, 1e-300, 1e300, -1e300, math.nan, math.inf, -math.inf, "x", "S", "integral")
ODD_VALUES += ([], [0.5], [1e300], [-1], [math.nan], ["x"], None, True, False)
CONFIG_DOCS = st.fixed_dictionaries(
    {
        "experiment": st.sampled_from(sorted(EXPERIMENTS) + ["no-such-experiment", ["weyl-count"], {"a": 1}, 5, None]),
        "output_dir": st.sampled_from(["out", 5, None, ["out"], {"a": 1}]),
        "p": st.sampled_from([2, 3, 5, 7]),
        "n": st.integers(0, 3),
        "seed": st.integers(-2, 5),
        "params": st.dictionaries(st.sampled_from(FUZZ_KEYS), st.sampled_from(ODD_VALUES), max_size=3),
    }
)


@settings(max_examples=60, deadline=None)
@given(doc=CONFIG_DOCS)
def test_config_fuzz_exits_with_a_contract_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(doc["output_dir"], str):
            doc = {**doc, "output_dir": str(Path(tmp) / doc["output_dir"])}
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", "--config", str(path)]) in (EXIT_OK, EXIT_CONFIG, EXIT_CAP, EXIT_NUMERIC)


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_misspelled_param_exits_config_before_the_output_directory(tmp_path, capsys, experiment):
    key = next(iter(PARAMS[experiment])).capitalize()  # "s" -> "S", "trials" -> "Trials"
    out = tmp_path / "out"
    doc = {"experiment": experiment, "p": 2, "n": 3, "output_dir": str(out), "params": {key: 1.0}}
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and "\n" not in err
    assert repr(key) in err and repr(experiment) in err
    assert not out.exists()


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_manifest_records_every_param_with_its_default(tmp_path, capsys, experiment):
    given = {"s": 1.5} if "s" in PARAMS[experiment] else {}
    doc = {"experiment": experiment, "p": 2, "n": SMALL_N[experiment], "output_dir": str(tmp_path), "params": given}
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == EXIT_OK
    capsys.readouterr()
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["params"].keys() == PARAMS[experiment].keys()
    assert manifest["params"] == json.loads(json.dumps({**PARAMS[experiment], **given}))
    # the hash is of the config as given, not of the resolved params
    given_json = ExperimentConfig.from_dict(doc).canonical_json()
    assert manifest["config_sha256"] == hashlib.sha256(given_json.encode()).hexdigest()


@pytest.mark.parametrize("experiment", ["seminorm-sweep", "schur-sweep"])
def test_null_weight_order_is_the_order_of_d_s(tmp_path, capsys, experiment):
    # m = None, the default, means m = s: an explicit null runs as the default does
    outs = []
    for tag, params in (("default", {"s": 1.3}), ("null", {"s": 1.3, "m": None}), ("s", {"s": 1.3, "m": 1.3})):
        doc = {"experiment": experiment, "p": 2, "n": 4, "output_dir": str(tmp_path / tag), "params": params}
        assert main(["run", "--config", str(write_config(tmp_path, doc, f"{tag}.json"))]) == EXIT_OK
        outs.append({p.name: p.read_bytes() for p in (tmp_path / tag).iterdir() if p.name != "manifest.json"})
    capsys.readouterr()
    assert outs[0] == outs[1] == outs[2]


def test_cli_import_loads_no_scipy():
    code = "import sys, padic_calc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_weyl_count_run_loads_no_scipy_optimize(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "weyl-count", "p": 2, "n": 10, "output_dir": str(tmp_path / "out")})
    code = (
        "import sys; from padic_calc.cli import main; "
        f"code = main(['run', '--config', {str(cfg)!r}]); print(code, 'scipy.optimize' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == f"{EXIT_OK} False"


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


@pytest.mark.parametrize("experiment", sorted(SMALL_N))
def test_rerun_over_longer_stale_files_matches_a_fresh_run(tmp_path, capsys, experiment):
    doc = {"experiment": experiment, "p": 2, "n": SMALL_N[experiment], "seed": 13}
    fresh, dirty = tmp_path / "fresh", tmp_path / "dirty"
    assert main(["run", "--config", str(write_config(tmp_path, {**doc, "output_dir": str(fresh)}, "a.json"))]) == EXIT_OK
    dirty.mkdir()
    for path in fresh.iterdir():  # every artifact name and manifest.json, each longer than what is written
        (dirty / path.name).write_bytes(b"stale," * (path.stat().st_size + 1000))
    assert main(["run", "--config", str(write_config(tmp_path, {**doc, "output_dir": str(dirty)}, "b.json"))]) == EXIT_OK
    capsys.readouterr()
    assert sorted(p.name for p in dirty.iterdir()) == sorted(p.name for p in fresh.iterdir())
    for path in fresh.iterdir():
        if path.name not in ("manifest.json", "transform_bench_timing.json"):
            assert (dirty / path.name).read_bytes() == path.read_bytes(), path.name
    manifest = json.loads((dirty / "manifest.json").read_text(encoding="utf-8"))
    assert len(manifest["artifacts"]) == len(list(dirty.iterdir())) - 1
    for entry in manifest["artifacts"]:
        data = (dirty / entry["name"]).read_bytes()
        assert entry["bytes"] == len(data) and entry["sha256"] == hashlib.sha256(data).hexdigest(), entry["name"]


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


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_raised_caps(tmp_path, capsys, experiment):
    n = CAPS[experiment].bit_length()  # the first p = 2 level above the cap
    cfg = write_config(tmp_path, {"experiment": experiment, "p": 2, "n": n, "output_dir": str(tmp_path / "out")})
    assert main(["run", "--config", str(cfg)]) == EXIT_CAP
    err = capsys.readouterr().err.strip()
    assert err.startswith("resource cap:") and str(CAPS[experiment]) in err and "\n" not in err
    assert not (tmp_path / "out").exists()  # the cap is checked before the output directory is made


@pytest.mark.parametrize("n,code", [(10, EXIT_OK), (12, EXIT_CAP)])
def test_wiener_cap(tmp_path, capsys, n, code):
    doc = {"experiment": "wiener", "p": 2, "n": n, "seed": 7, "output_dir": str(tmp_path / "out")}
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg)]) == code
    err = capsys.readouterr().err.strip()
    if code == EXIT_CAP:
        assert err.startswith("resource cap:") and str(2**11) in err and "\n" not in err
        return
    rows = [line.split(",") for line in (tmp_path / "out" / "wiener.csv").read_text().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(1, 2**n))  # one row per u above xi = 0
    ctx = TruncationContext(2, n)
    for row in rows:  # each shell reports the floats of its first column
        assert row[1:] == rows[int(ctx.shell_index[ctx.shells[int(row[0])]]) - 1][1:]


def test_sweeps_run_above_the_old_cap(tmp_path, capsys):
    # p^n = 2^14: an N x N table of the symbol would hold 2^28 complex entries
    s = 1.3
    for experiment in ("schur-sweep", "seminorm-sweep"):
        cfg = write_config(
            tmp_path,
            {"experiment": experiment, "p": 2, "n": 14, "output_dir": str(tmp_path / experiment), "params": {"s": s}},
            f"{experiment}.json",
        )
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
    capsys.readouterr()
    ctx = TruncationContext(2, 14)
    closed_form = np.max(np.abs(multiplier_table(VladimirovSpec(s, 2), ctx)) * ctx.weights ** (-s))
    rows = (tmp_path / "schur-sweep" / "schur_sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 5
    for row in rows:
        _, _, row_sup, col_sup, norm, growth = map(float, row.split(","))
        assert row_sup == col_sup == norm == pytest.approx(closed_form, rel=1e-15)
        assert 0.8 <= growth <= 1.25
    doc = json.loads((tmp_path / "seminorm-sweep" / "seminorm.json").read_text())
    assert doc["constants"][0][0] == pytest.approx(closed_form, rel=1e-15)


@pytest.mark.parametrize("n,code", [(20, EXIT_OK), (21, EXIT_CAP)])
def test_s_check_sweep_keeps_its_cap(tmp_path, capsys, n, code):
    # the shell route is O(n^2), so only the experiment's CAPS entry bounds S_check
    cfg = write_config(
        tmp_path,
        {
            "experiment": "seminorm-sweep",
            "p": 2,
            "n": n,
            "output_dir": str(tmp_path / "out"),
            "params": {"family": "S_check"},
        },
    )
    assert main(["run", "--config", str(cfg)]) == code
    err = capsys.readouterr().err.strip()
    if code == EXIT_CAP:
        assert err.startswith("resource cap:") and str(CAPS["seminorm-sweep"]) in err and "\n" not in err
        return
    doc = json.loads((tmp_path / "out" / "seminorm.json").read_text())
    assert doc["family"] == "S_check" and np.all(np.isfinite(doc["constants"]))


@pytest.mark.parametrize(
    "experiment,params",
    [
        ("vladimirov-eigen", {"s": 2.9}),
        ("seminorm-sweep", {"family": "S_check"}),
        ("schur-sweep", {}),
        ("sobolev-bound", {"s_values": [0.5, 1.0, 2.0]}),
        ("weyl-count", {"formula": "plus_constant"}),
    ],
)
def test_d_s_readers_build_no_n_entry_table(tmp_path, capsys, monkeypatch, experiment, params):
    # every N-entry context table (shells, norms, weights) is computed from the valuations
    def refuse(ctx):
        raise AssertionError(f"N-entry table built at p^n = {ctx.N}")

    monkeypatch.setattr(TruncationContext, "valuations", property(refuse))
    doc = {"experiment": experiment, "p": 2, "n": 20, "output_dir": str(tmp_path / "out"), "params": params}
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("experiment,params", [("sobolev-bound", {"s_values": [0.5, 1.0, 2.0]}), ("weyl-count", {})])
def test_shell_route_experiments_allocate_under_a_megabyte(tmp_path, experiment, params):
    # at the cap an N-entry float vector alone is 8 MB; a run at a small level
    # first loads what run imports lazily (numpy.random), about 1 MB of its own
    doc = {"experiment": experiment, "p": 2, "n": 6, "output_dir": str(tmp_path / "out"), "params": params}
    run(ExperimentConfig.from_dict(doc))
    cfg = ExperimentConfig.from_dict({**doc, "n": 20})
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_huge_prime_is_rejected_before_the_primality_test(tmp_path, capsys):
    # trial division up to sqrt(p) would not end on p near 10^18; 2^32 - 5 is the largest prime accepted
    huge = write_config(tmp_path, {"experiment": "weyl-count", "p": 1000000000000000003, "n": 3}, "huge.json")
    assert main(["run", "--config", str(huge)]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and "2^32" in err and "\n" not in err
    doc = {"experiment": "seminorm-sweep", "p": 4294967291, "n": 0, "output_dir": str(tmp_path / "out")}
    assert main(["run", "--config", str(write_config(tmp_path, doc, "top.json"))]) == EXIT_OK
    capsys.readouterr()
    assert json.loads((tmp_path / "out" / "seminorm.json").read_text())["family"] == "S_tilde"


@pytest.mark.parametrize("family", FAMILIES)
def test_seminorm_sweep_artifacts_equal_the_dense_route(tmp_path, capsys, family):
    params = {"s": 1.3, "family": family, "rho": 0.5, "delta": 0.25}
    doc = {"experiment": "seminorm-sweep", "p": 3, "n": 3, "output_dir": str(tmp_path), "params": params}
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    capsys.readouterr()
    sym = vladimirov_symbol(VladimirovSpec(1.3, 3), TruncationContext(3, 3))
    args = (1.3, 0.5, 0.25, 3, 2)
    dense = _sweep(family, *args, _FAMILY_RATIOS[family](sym, *args))  # seminorm would take the shell route
    assert (tmp_path / "seminorm.json").read_text() == dense.to_json() + "\n"


def test_schur_sweep_artifacts_equal_the_dense_route(tmp_path, capsys):
    doc = {"experiment": "schur-sweep", "p": 2, "n": 6, "output_dir": str(tmp_path), "params": {"s": 1.3}}
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    capsys.readouterr()
    rep = equivalence_check(vladimirov_symbol(VladimirovSpec(1.3, 2), TruncationContext(2, 6)), m=1.3, r_max=4)
    want = ["r,m,row_sup,col_sup,norm,growth_ratio"] + [
        ",".join(_fmt(v) for v in (sr.r, sr.m, sr.row_sup, sr.col_sup, sr.norm, sr.growth_ratio)) for sr in rep.schur
    ]
    assert (tmp_path / "schur_sweep.csv").read_text().splitlines() == want


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


@pytest.mark.parametrize("seed", [0, 2, 8, 9])
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


@pytest.mark.parametrize("p,n", [(3, 2), (2, 3)])
def test_heat_eigen_residual_past_the_float_range_prints_one_line(tmp_path, p, n):
    # residual entries near 1e174 overflow when squared; the run exits 4 with no warning on stderr
    doc = {"experiment": "heat", "p": p, "n": n, "output_dir": str(tmp_path / "out"), "params": {"orders_s": [200.0]}}
    argv = [sys.executable, "-m", "padic_calc.cli", "run", "--config", str(write_config(tmp_path, doc))]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == EXIT_NUMERIC
    assert proc.stderr.startswith("numeric failure: eigen residual") and proc.stderr.count("\n") == 1, proc.stderr


def test_heat_non_finite_multiplier_route_is_a_numeric_failure(tmp_path, capsys, recwarn):
    # every coefficient rounds to -1e300, so the rows are equal and exp(-t lambda) overflows
    out = tmp_path / "out"
    params = {"coefficient_floor": -1e300}
    doc = {"experiment": "heat", "p": 2, "n": 3, "seed": 1, "output_dir": str(out), "params": params}
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == EXIT_NUMERIC
    err = capsys.readouterr().err.strip()
    assert err.startswith("numeric failure: multiplier route") and "\n" not in err
    assert not (out / "heat.csv").exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_heat_eigen_route_keeps_the_constant_part(tmp_path, capsys):
    # T = diag(a) D^s kills the constants and has range {g : sum(g / a) = 0}, so exp(-t T) f0
    # tends to the constant c = sum(f0 / a) / sum(1 / a), whose Sobolev norms are |c| for every k
    params = {"orders_s": [2.0], "times": [0.0, 40.0]}
    doc = {"experiment": "heat", "p": 2, "n": 4, "seed": 8, "output_dir": str(tmp_path / "out"), "params": params}
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == EXIT_OK
    capsys.readouterr()
    assert json.loads((tmp_path / "out" / "heat.json").read_text())["path"] == "eigen"
    rng = np.random.default_rng(8)  # the runner's draws, in its order
    f0 = rng.normal(size=16) + 1j * rng.normal(size=16)
    a = 1.0 + rng.uniform(0.0, 1.0, size=16)
    c = abs(np.sum(f0 / a) / np.sum(1.0 / a))
    rows = [line.split(",") for line in (tmp_path / "out" / "heat.csv").read_text().splitlines()[1:]]
    late = [float(norm) for t, _, norm in rows if float(t) == 40.0]
    assert len(late) == 7 and c > 0.1
    assert np.allclose(late, c, rtol=1e-10, atol=0.0)


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


#: sha256 of closed-form artifacts, recorded at p in {2, 3}, small n and integer s, where every float is
#: exact or a handful of IEEE operations; ``weyl_fits.json`` (a least-squares fit) is left out
PINNED_DIGESTS = [
    ("vladimirov-eigen", 2, 4, {"s": 2.0}, {
        "vladimirov_eigen.csv": "0679ed63ad995ea571872ab0fc1956ffe46248c6b35253341cf46588816d7b12",
        "vladimirov_eigen.json": "a462601a5ab61facd6d915a0c2592e1c45dbfc24247c4ca6f0eb7f41dabe50fc",
    }),
    ("vladimirov-eigen", 3, 3, {"s": 1.0}, {
        "vladimirov_eigen.csv": "06baefdbc6d2adb98b32acfbf507d2aab5ef44203fb0bbb71df980f3a1d2b397",
        "vladimirov_eigen.json": "c8c948586cdc88f1555ef6a8ca9c05a25ec8e5edd41f39b2e2561a793f140848",
    }),
    ("schur-sweep", 2, 5, {"s": 1.0}, {
        "schur_sweep.csv": "7c9d9806c5748c4ed56552facfcac42fcea43e322a291cf08cd9b64af3550259",
        "equivalence.json": "e605a3d32cb3d3cfa43840e0f934024413d1abc7ba184f554feb1cf86fa25352",
    }),
    ("schur-sweep", 3, 3, {"s": 2.0}, {
        "schur_sweep.csv": "2a8d1655d9195795ac894782d839dc39d33f448a0e2989468cacf180b937374a",
        "equivalence.json": "1493fe0f53484818e765341fc37dee2bb90715e305048f343bc3ba412206a6ef",
    }),
    ("seminorm-sweep", 2, 4, {"s": 1.0, "family": "S"}, {
        "seminorm.csv": "264bb2e82d45f45efdc2d39b2c9cb96af1ff3ee4a0bb2ca5d74fea1a96980775",
        "seminorm.json": "d8a2dc40717a760964e8ff4c836ddc77340af15b8d7c113bf29f1aef1ea2eb4a",
    }),
    ("seminorm-sweep", 3, 3, {"s": 2.0, "family": "S_tilde"}, {
        "seminorm.csv": "8d6b2445e4c54e209fbb7e8286cfc2d10386f260a197fef772d7fe1f4e0852b3",
        "seminorm.json": "614593f7832c1f874fa35f6813e7c80a4efb12bf48d42f30ab6ae0be0eea3103",
    }),
    ("seminorm-sweep", 2, 4, {"s": 1.0, "family": "S_check"}, {
        "seminorm.csv": "43bce4b36713e01401c2803557690558f729637463f7a88d49c2e203cb9c792b",
        "seminorm.json": "aad1eaac3d41c069f2b738a61fdb88cd94b8d3fa03b7ab5c819f3426eb3b84d3",
    }),
    ("sobolev-bound", 2, 4, {}, {
        "sobolev_bound.csv": "7950d6993929d9611b0a0f26507279585d71c83b75348ec7332ffe0e5095ca05",
    }),
    ("sobolev-bound", 3, 3, {"s_values": [1.0, 2.0]}, {
        "sobolev_bound.csv": "35325fe8926ce4d03e35fb2c6f106f8867d89777c04a9b40f6950c561fd59165",
    }),
    ("weyl-count", 2, 6, {"s_values": [1.0, 2.0]}, {
        "weyl_counts_s1.csv": "09bbe414206429984e77b5f651b3c44c866a0c17c5972cd656f11db932c81a14",
        "weyl_counts_s2.csv": "b05ce97322ccdf4fe25ae14313fd7f5d4d8db2411a3ba08cf9756cf48eba79ee",
    }),
    ("weyl-count", 3, 5, {"s_values": [1.0]}, {
        "weyl_counts_s1.csv": "edcd05622fb6cecefa07ad5450b80befffbb63f367a051f66cdc6facd84916ca",
    }),
]


@pytest.mark.parametrize("experiment,p,n,params,digests", PINNED_DIGESTS)
def test_closed_form_artifacts_match_pinned_digests(tmp_path, capsys, experiment, p, n, params, digests):
    doc = {"experiment": experiment, "p": p, "n": n, "seed": 7, "output_dir": str(tmp_path / "out"), "params": params}
    assert main(["run", "--config", str(write_config(tmp_path, doc))]) == EXIT_OK
    capsys.readouterr()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    got = {a["name"]: a["sha256"] for a in manifest["artifacts"] if a["name"] in digests}
    assert got == digests


def test_perturbed_runners_match_pinned_values(tmp_path, capsys):
    # these pass through the FFT, so they are pinned at a tolerance, not by digest
    for experiment in ("wiener", "parametrix"):
        doc = {"experiment": experiment, "p": 2, "n": 5, "seed": 7, "output_dir": str(tmp_path / experiment)}
        assert main(["run", "--config", str(write_config(tmp_path, doc, f"{experiment}.json"))]) == EXIT_OK
    capsys.readouterr()
    wiener = json.loads((tmp_path / "wiener" / "wiener.json").read_text())
    assert wiener["jr_constants"]["0"] == pytest.approx(1.6668864826350935, rel=1e-9)
    para = json.loads((tmp_path / "parametrix" / "parametrix.json").read_text())
    assert para["cut_block_norms"]["left"] == pytest.approx(1.010057855758118, rel=1e-9)
    assert para["tail_norms"]["left"][0][0] == pytest.approx(0.010244804668541382, rel=1e-9)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 5), (3, 4), (5, 3)])
def test_perturbed_vladimirov_is_bit_identical_to_the_tiled_table(p, n):
    ctx = TruncationContext(p, n)
    s, _, scale, profile = _perturbed_vladimirov("wiener", ctx, np.random.default_rng(7), 1.4, 1, 0.3, 6.0)
    lam = shell_eigenvalues(VladimirovSpec(s, p), ctx)
    V = _smooth_bump(ctx, np.random.default_rng(7), decay=6.0, scale=scale)
    assert np.array_equal(profile, lam[None, :] + V[:, None])
    sym = Symbol.radial(ctx, profile)
    assert np.array_equal(sym.table, lam[ctx.shells][None, :] + V[:, None])
    assert np.array_equal(sym.shell_profile(), profile)
