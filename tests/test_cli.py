"""Tests for the batch experiment runner: config plumbing, outputs, exit codes."""

import csv
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
import scipy

from fermifield.builders import flux_quantized_constant_b
from fermifield.cli import (
    EXPERIMENTS,
    ConfigError,
    _build_A,
    _build_V,
    list_builders,
    load_config,
    main,
)
from fermifield.grid import GridSpec, VectorField

SCHEMA = {"n": ("int", 8), "box": ("float", 2.0), "h_list": ("floats", [1.0, 0.5]),
          "name": ("str", None)}


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_load_config_defaults_and_required():
    cfg = load_config(None, SCHEMA, {"name": "x"})
    assert cfg == {"n": 8, "box": 2.0, "h_list": [1.0, 0.5], "name": "x"}
    with pytest.raises(ConfigError, match="required"):
        load_config(None, SCHEMA, {})


def test_load_config_string_conversion():
    cfg = load_config(None, SCHEMA, {"n": "16", "box": "4.0",
                                     "h_list": "1.0, 0.5 0.25", "name": "x"})
    assert cfg["n"] == 16
    assert cfg["box"] == 4.0
    assert cfg["h_list"] == [1.0, 0.5, 0.25]


def test_load_config_rejects_unknown_and_unparsable():
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(None, SCHEMA, {"name": "x", "bogus": "1"})
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(None, SCHEMA, {"name": "x", "n": "not-a-number"})


def test_load_config_file_and_override_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[run]\nn = 4\nbox = 8.0\nname = filecase\n")
    cfg = load_config(str(path), SCHEMA, {"n": "32"})
    assert cfg["n"] == 32          # override wins
    assert cfg["box"] == 8.0       # file value kept
    assert cfg["name"] == "filecase"
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.cfg"), SCHEMA, {})
    bad = tmp_path / "nosection.cfg"
    bad.write_text("n = 4\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(str(bad), SCHEMA, {})


# ---------------------------------------------------------------------------
# builder dispatch
# ---------------------------------------------------------------------------


def test_build_v_dispatch_and_errors():
    grid = GridSpec(d=1, N=16, L=2.0)
    V = _build_V("bump", [2.0, 0.5], grid)
    assert V.grid == grid
    with pytest.raises(ConfigError, match="unknown potential"):
        _build_V("nope", [], grid)
    with pytest.raises(ConfigError):
        _build_V("bump", [1.0, 2.0, 3.0, 4.0, 5.0], grid)


def test_build_a_dispatch():
    grid = GridSpec(d=3, N=8, L=2.0)
    assert isinstance(_build_A("zero", grid, 1.0, 0, []), VectorField)
    A = _build_A("randband", grid, 1.0, 0, [0.3])
    assert isinstance(A, VectorField)
    A2 = _build_A("constB", grid, 1.0, 0, [1])
    assert isinstance(A2, VectorField)
    with pytest.raises(ConfigError, match="unknown vector"):
        _build_A("nope", grid, 1.0, 0, [])


def test_build_a_const_b_passes_the_flux_through():
    # the config's float reaches the builder, which checks it is an integer
    grid = GridSpec(d=3, N=8, L=2.0)
    A = _build_A("constB", grid, 0.5, 0, [1.0])
    assert np.array_equal(A.data, flux_quantized_constant_b(grid, 0.5, 1)[0].data)
    with pytest.raises(ConfigError, match="flux quantization"):
        _build_A("constB", grid, 0.5, 0, [1.5])


def test_list_builders_contents():
    info = list_builders()
    assert "bump" in info["potentials"]
    assert "randband" in info["vector_potentials"]
    assert set(info["experiments"]) == set(EXPERIMENTS)


# ---------------------------------------------------------------------------
# end-to-end runs and exit codes
# ---------------------------------------------------------------------------


def test_main_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_main_list_builders(capsys):
    assert main(["list-builders"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "experiments" in out


def test_main_check_dyadic_outputs(tmp_path):
    out = tmp_path / "run"
    assert main(["check-dyadic", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "passed"
    assert manifest["experiment"] == "check-dyadic"
    assert "fermifield" in manifest["versions"]
    assert manifest["versions"]["scipy"] == scipy.__version__
    csv_lines = (out / "results.csv").read_text().strip().splitlines()
    assert csv_lines[0].startswith("quantity")
    reports = [json.loads(l) for l in
               (out / "reports.jsonl").read_text().strip().splitlines()]
    assert reports[0]["name"] == "dyadic_partition"
    assert reports[0]["passed"] is True


def test_manifest_records_the_blas_build_and_the_thread_variables(tmp_path, monkeypatch):
    from fermifield.cli import THREAD_ENV

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "run"
    assert main(["check-dyadic", "--out", str(out), "--threads", "3"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    assert manifest["versions"]["blas"] == f"{blas['name']} {blas['version']}"
    assert sorted(manifest["thread_env"]) == sorted(THREAD_ENV) and len(THREAD_ENV) == 5
    assert manifest["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert manifest["thread_env"]["MKL_NUM_THREADS"] is None
    # --threads is recorded only: it sets no thread variable
    assert manifest["threads"] == 3
    assert manifest["thread_env"] == {var: os.environ.get(var) for var in THREAD_ENV}


def test_main_check_dyadic_checks_the_floor_shells(tmp_path, monkeypatch):
    # w = 0.55 needs i0 = 2: with one shell fewer, Sum f_i^2 misses 0.06 near
    # t = -1/w, the Fermi-sea floor, which the check must reach
    from fermifield.multiscale import DyadicFamily

    assert main(["check-dyadic", "--out", str(tmp_path / "i0"), "--set", "w_width=0.55"]) == 0
    monkeypatch.setattr(DyadicFamily, "i0",
                        property(lambda fam: int(np.floor(abs(np.log2(fam.w)))) + 1))
    out = tmp_path / "one_fewer"
    assert main(["check-dyadic", "--out", str(out), "--set", "w_width=0.55"]) == 1
    reports = [json.loads(l) for l in (out / "reports.jsonl").read_text().splitlines()]
    assert reports[0]["lhs"] > 0.05 and reports[0]["notes"] == "i0=1"


def test_main_harmonic_compare_writes_only_its_three_files(tmp_path):
    # the ratio against l at R = 2 is read from results.csv; no .dat plot file
    out = tmp_path / "run"
    assert main(["harmonic-compare", "--out", str(out),
                 "--set", "l_max=10"]) == 0
    with open(out / "results.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if float(r["R"]) == 2.0]
    assert [int(r["l"]) for r in rows] == list(range(1, 11))  # 10 modes
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "reports.jsonl", "results.csv"]


def test_main_minimize_field_runs_without_a_config(tmp_path):
    # the schema's own defaults agree: d = 3 and n = 8 for the Pauli flavor
    out = tmp_path / "run"
    assert main(["minimize-field", "--out", str(out), "--set", "max_iters=1"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "passed"
    assert (manifest["config"]["d"], manifest["config"]["n"],
            manifest["config"]["flavor"]) == (3, 8, "pauli")


def test_main_config_error_exit_2(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["check-dyadic", "--out", str(out),
                 "--set", "bogus_key=1"]) == 2
    assert "bogus_key" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_main_bad_override_form_exit_2(tmp_path, capsys):
    assert main(["check-dyadic", "--out", str(tmp_path),
                 "--set", "no_equals_sign"]) == 2
    assert "key=value" in capsys.readouterr().err


def test_main_numerical_failure_exit_1(tmp_path, capsys, monkeypatch):
    # an eigensolver that fails inside the experiment; the runner must record
    # the failure and exit 1
    from fermifield import spectral

    def fail(spec, *args, **kwargs):
        raise spectral.EigenFailure("no convergence")

    monkeypatch.setattr(spectral, "negative_spectrum", fail)
    out = tmp_path / "run"
    code = main(["weyl-converge", "--out", str(out), "--set", "n=16"])
    assert code == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == "EigenFailure: no convergence"


@pytest.mark.parametrize("experiment, config, sets, key", [
    ("minimize-field", "minimize_field_pauli.cfg", ["n=12"], "n"),
    ("minimize-field", "minimize_field_pauli.cfg", ["box=-1"], "box"),
    ("minimize-field", "minimize_field_pauli.cfg", ["flavor=dirac"], "flavor"),
    ("minimize-field", "minimize_field_pauli.cfg", ["h=0"], "h"),
    ("minimize-field", "minimize_field_pauli.cfg", ["beta=-1"], "beta"),
    ("minimize-field", "minimize_field_pauli.cfg", ["variant=foo"], "variant"),
    ("variant-order", "variant_order.cfg", ["ratios=1"], "ratios"),
    ("variant-order", "variant_order.cfg", ["r=0"], "r"),
    ("variant-order", "variant_order.cfg", ["beta=0"], "beta"),
    ("weyl-converge", "weyl_converge_1d_bump.cfg", ["n=12"], "n"),
    ("check-dyadic", None, ["w_width=0.01"], "w_width"),
])
def test_main_rejected_config_value_exit_2(experiment, config, sets, key, tmp_path, capsys):
    # a value a constructor rejects is a config error, found before any solve:
    # exit 2, the key named, no manifest
    out = tmp_path / "run"
    argv = [experiment, "--out", str(out), *(arg for item in sets for arg in ("--set", item))]
    if config:
        argv += ["--config", str(CONFIG_DIR / config)]
    assert main(argv) == 2
    named = re.search(r"config key '([^']*)'", capsys.readouterr().err)
    assert named and key in named.group(1).split(", ")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("experiment, sets, key", [
    ("check-partition", ["alpha=0.3"], "alpha"),
    ("check-lt", ["h_list=0"], "h_list"),
    ("check-smoothing", ["r0=0"], "r0"),
    ("weyl-converge", ["n=16", "h_list=0.5,0"], "h_list"),  # the bad h is not the first
    # psi-outside with r left at 0: the cutoff ball has no radius
    ("minimize-field", ["flavor=schrodinger", "variant=psi-outside", "big_r=1.0"], "r"),
    # the field-energy ball is smaller than the cutoff ball
    ("minimize-field", ["flavor=schrodinger", "variant=psi-outside", "r=0.6", "big_r=0.3"],
     "big_r"),
    # in d = 1 the only mean-zero divergence-free field is 0: nothing to minimize over
    ("minimize-field", ["flavor=schrodinger", "d=1"], "d"),
    # only psi-outside reads r: ball-grad with psi is variant-order's run
    ("minimize-field", ["flavor=schrodinger", "variant=ball-grad", "r=0.6", "big_r=1.2"], "r"),
])
def test_main_rejected_value_exits_2_before_any_solve(experiment, sets, key, tmp_path, capsys,
                                                      monkeypatch):
    # every value is checked before the first solve, draw or sample: a call to
    # any of them fails the run with exit 1 instead
    from fermifield import cli, inequalities, spectral

    def refused(*args, **kwargs):
        raise AssertionError("computed before the config was checked")

    for mod, name in ((spectral, "negative_spectrum"), (inequalities, "negative_spectrum"),
                      (cli, "rough_divfree_potential"), (cli, "partition_defect")):
        monkeypatch.setattr(mod, name, refused)
    out = tmp_path / "run"
    argv = [experiment, "--out", str(out), *(arg for item in sets for arg in ("--set", item))]
    assert main(argv) == 2
    named = re.search(r"config key '([^']*)'", capsys.readouterr().err)
    assert named and key in named.group(1).split(", ")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("key, overrides", [
    ("v_args", ["v_args=6 0.7 1"]),
    ("a_args", ["a_init=constB", "a_args=1.5"]),
])
def test_main_bad_builder_arguments_exit_2(key, overrides, tmp_path, capsys):
    # a third potential argument and a fractional flux are config errors, not
    # numerical failures: the run stops before any solve and writes nothing
    out = tmp_path / "run"
    sets = [arg for item in overrides + ["max_iters=1"] for arg in ("--set", item)]
    code = main(["minimize-field", "--config", str(CONFIG_DIR / "minimize_field_pauli.cfg"),
                 "--out", str(out), *sets])
    assert code == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_main_config_file_roundtrip(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("[dyadic]\nn_grid = 2000\n")
    out = tmp_path / "run"
    assert main(["check-dyadic", "--config", str(cfgfile),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n_grid"] == 2000  # validated, so typed
    assert manifest["config"]["w_fermi"] == 1.0  # defaults are echoed too


def test_every_experiment_registers_its_schema():
    for name, (schema, run) in EXPERIMENTS.items():
        assert callable(run), name
        for key, (kind, _default) in schema.items():
            assert kind in ("int", "float", "str", "floats"), (name, key)


# bundled config -> the experiment it is run with
BUNDLED_CONFIGS = {
    "check_lt.cfg": "check-lt",
    "check_smoothing.cfg": "check-smoothing",
    "minimize_field_pauli.cfg": "minimize-field",
    "minimize_field_schrodinger.cfg": "minimize-field",
    "variant_order.cfg": "variant-order",
    "weyl_converge_1d_bump.cfg": "weyl-converge",
    "weyl_converge_3d_sweep.cfg": "weyl-converge",
}
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def test_bundled_configs_cover_the_table():
    assert sorted(p.name for p in CONFIG_DIR.glob("*.cfg")) == sorted(BUNDLED_CONFIGS)


@pytest.mark.parametrize("fname", sorted(BUNDLED_CONFIGS))
def test_bundled_config_matches_its_schema(fname):
    # validates every key without running the experiment
    schema = EXPERIMENTS[BUNDLED_CONFIGS[fname]].schema
    cfg = load_config(str(CONFIG_DIR / fname), schema, {})
    assert set(cfg) == set(schema)


def test_main_verdict_is_every_report(tmp_path):
    # c_diff drops to 0 below the grid scale and fails its x2 stability test;
    # c_d1 stays in [0.937, 1.0] and must keep its own passing verdict
    out = tmp_path / "run"
    code = main(["check-smoothing", "--out", str(out), "--set", "d=1", "--set", "n=32",
                 "--set", "r0=0.1", "--set", "octaves=3", "--set", "draws=2"])
    assert code == 1
    reports = {r["name"]: r for r in map(json.loads,
               (out / "reports.jsonl").read_text().strip().splitlines())}
    assert reports["smoothing_c_diff"]["passed"] is False
    assert reports["smoothing_c_d1"]["passed"] is True
    assert 0.937 <= reports["smoothing_c_d1"]["rhs_terms"]["min"]
    assert reports["smoothing_c_d1"]["lhs"] <= 1.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "assertion-failed"


def test_main_harmonic_compare_reports_the_exact_ratio(tmp_path):
    out = tmp_path / "run"
    assert main(["harmonic-compare", "--out", str(out), "--set", "l_max=3"]) == 0
    reports = [json.loads(l) for l in
               (out / "reports.jsonl").read_text().strip().splitlines()]
    exact = [r for r in reports if r["name"] == "harmonic_exact_ratio"]
    assert len(exact) == 1 and exact[0]["passed"] is True
    assert exact[0]["lhs"] == pytest.approx(10.0 / 7.0, abs=1e-12)


def test_main_check_separation_rows_are_the_sweep_values(tmp_path):
    out = tmp_path / "run"
    assert main(["check-separation", "--out", str(out), "--set", "n=64",
                 "--set", "halvings=2"]) == 0
    report = json.loads((out / "reports.jsonl").read_text())
    rows = (out / "results.csv").read_text().strip().splitlines()[1:]
    assert [tuple(map(float, r.split(","))) for r in rows] == list(
        zip(report["params"]["ells"], report["params"]["values"]))


def test_main_weyl_converge_notes_a_rejected_fit(tmp_path):
    # two points are too few to fit: the run states why in its notes
    out = tmp_path / "run"
    main(["weyl-converge", "--out", str(out), "--set", "n=16", "--set", "h_list=0.8,0.4",
          "--set", "certify=0"])
    report = json.loads((out / "reports.jsonl").read_text())
    assert report["notes"] == "fit rejected: non-monotone error: no admissible point subset"


def test_list_builders_takes_no_flags():
    with pytest.raises(SystemExit):
        main(["list-builders", "--seed", "1"])


def test_variant_order_reports_each_descents_residual(tmp_path):
    out = tmp_path / "run"
    main(["variant-order", "--config", str(CONFIG_DIR / "variant_order.cfg"), "--out", str(out),
          "--set", "n=4", "--set", "ratios=2", "--set", "max_iters=1"])
    reports = [json.loads(l) for l in (out / "reports.jsonl").read_text().strip().splitlines()]
    [order] = [r for r in reports if r["name"] == "variant_order"]
    notes = dict(item.split("=") for item in order["notes"].replace(";", "").split()[2:])
    assert sorted(notes) == ["ball", "global", "prime"]
    assert all(float(v) >= 0.0 for v in notes.values())


# ---------------------------------------------------------------------------
# set-up cost
# ---------------------------------------------------------------------------


_SETUP_WITHOUT_SCIPY = """
import sys
import numpy as np
import fermifield.cli
from fermifield import builders
from fermifield.grid import GridSpec
from fermifield.operators import HamiltonianSpec

g = GridSpec(d=3, N=16, L=2.0)
V = builders.bump_potential(g, 6.0, 0.7)
A = builders.random_divfree_potential(g, seed=1, amplitude=0.3)
A = (0.55 / float(np.sqrt(np.mean(A.data ** 2)))) * A
specs = [HamiltonianSpec(grid=g, h=h, flavor="pauli", A=A if with_a else None, V=V)
         for h in (0.6, 0.45) for with_a in (False, True)]
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_import_and_an_iterative_setup_load_no_scipy():
    # the weyl3d_iterative benchmark's set-up: importing the CLI and building
    # its grid, V, A and specs; SciPy is imported where a solve first needs it
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", _SETUP_WITHOUT_SCIPY], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
