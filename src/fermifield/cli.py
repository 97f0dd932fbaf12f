"""Batch experiment runner.

One executable, one subcommand per experiment kind.  Each experiment
registers its config schema with @experiment; main validates the INI file
and the --set overrides against it once (load_config is the only reader)
and hands the typed config to the experiment, which returns its CheckReports
and never a verdict of its own.  Every run writes into --out: manifest.json
(the validated config with defaults filled, seed, versions with the BLAS
build, the thread variables as found in the environment, status),
results.csv and reports.jsonl.  Exit status:
0 every CheckReport passed, 1 numerical failure or a failed report, 2 config
error (the offending key is named on stderr).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .builders import (
    A_BUILDERS,
    V_BUILDERS,
    bump_potential,
    cutoff_ball,
    random_divfree_potential,
    rough_divfree_potential,
)
from .field_opt import (
    GLOBAL_CURL,
    PSI_OUTSIDE,
    EnergyConfig,
    Schedule,
    minimize,
    ordering_radii,
    total_energy,
    variant_ordering_check,
)
from .grid import GridSpec, ScalarField, divergence
from .inequalities import (
    HARMONIC_RADII,
    CheckReport,
    check_comm2,
    check_harmonic_ratio,
    check_lieb_thirring,
    check_variational_sandwich,
    harmonic_energy_ratio,
    separation_sweep,
    write_jsonl,
)
from .multiscale import (
    DEFAULT_ALPHA,
    SMOOTHING_CONSTANTS,
    PartitionSpec,
    dyadic_build,
    mollifier_kernel,
    partition_defect,
    partition_from_potential,
    smoothing_constants,
)
from .operators import PAULI, SCHRODINGER, HamiltonianSpec
from .profiles import bump, plateau_bump, smooth_step
from .weyl import FitRejected, convergence_study, fit_error_exponent


class Experiment(NamedTuple):
    schema: dict  # key -> (kind, default); default None marks a required key
    run: Callable  # run(cfg, seed) -> (header, rows, reports)


EXPERIMENTS: dict[str, Experiment] = {}


class ConfigError(Exception):
    def __init__(self, key: str, msg: str):
        super().__init__(f"config key '{key}': {msg}")
        self.key = key


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _floats(s: str):
    return [float(tok) for tok in s.replace(",", " ").split()]


_CONVERTERS = {"int": int, "float": float, "str": str, "floats": _floats}


def load_config(path: str | None, schema: dict, overrides: dict) -> dict:
    """Flat key-value config with sections (sections are cosmetic)."""
    raw = {}
    if path:
        cp = configparser.ConfigParser()
        try:
            read = cp.read(path)
        except configparser.Error as exc:
            raise ConfigError("config", f"cannot parse {path}: {exc}")
        if not read:
            raise ConfigError("config", f"cannot read {path}")
        for section in cp.sections():
            for key, val in cp.items(section):
                raw[key] = val
    raw.update({k: v for k, v in overrides.items() if v is not None})
    out = {}
    for key, val in raw.items():
        if key not in schema:
            raise ConfigError(key, "unknown key for this experiment")
        kind, _default = schema[key]
        try:
            out[key] = _CONVERTERS[kind](val) if isinstance(val, str) else val
        except ValueError as exc:
            raise ConfigError(key, f"cannot parse {val!r} as {kind}: {exc}")
    for key, (kind, default) in schema.items():
        if key not in out:
            if default is None:
                raise ConfigError(key, "required key missing")
            out[key] = default
    return out


def _build_V(name: str, args: list, grid: GridSpec) -> ScalarField:
    if name not in V_BUILDERS:
        raise ConfigError("v", f"unknown potential builder {name!r}; "
                          f"known: {sorted(V_BUILDERS)}")
    try:
        return V_BUILDERS[name](grid, *args)
    except (TypeError, ValueError) as exc:
        raise ConfigError("v_args", str(exc))


def _build_A(name: str, grid: GridSpec, h: float, seed: int, args: list):
    if name not in A_BUILDERS:
        raise ConfigError("a_init", f"unknown vector-potential builder {name!r}; "
                          f"known: {sorted(A_BUILDERS)}")
    try:
        if name == "randband":
            kwargs = {"amplitude": float(args[0])} if args else {}
            return A_BUILDERS[name](grid, seed=seed, **kwargs)
        if name == "constB":
            return A_BUILDERS[name](grid, h, args[0] if args else 1)[0]
        return A_BUILDERS[name](grid)
    except (TypeError, ValueError) as exc:
        raise ConfigError("a_args", str(exc))


def _configured(fn, keys: dict, **kwargs):
    """fn(**kwargs), keys mapping fn's arguments to the config keys they come from.

    A ValueError there is a value fn rejects: a ConfigError naming the keys
    of the arguments its message mentions (all of them if it mentions none).
    """
    try:
        return fn(**kwargs)
    except ValueError as exc:
        said = set(re.findall(r"\w+", str(exc)))
        named = [key for arg, key in keys.items() if arg in said] or list(keys.values())
        raise ConfigError(", ".join(named), str(exc)) from None


def _grid(cfg: dict, d: int, n: int) -> GridSpec:
    return _configured(GridSpec, {"d": "d", "N": "n", "L": "box"}, d=d, N=n, L=cfg["box"])


def experiment(name: str, schema: dict):
    """Register run(cfg, seed) under name; main validates cfg against schema."""
    def deco(fn):
        EXPERIMENTS[name] = Experiment(schema, fn)
        return fn

    return deco


_GRID_KEYS = {"d": ("int", 1), "n": ("int", 64), "box": ("float", 2.0)}
_PROBLEM_KEYS = {**_GRID_KEYS, "v": ("str", "bump"), "v_args": ("floats", [])}


def _spec(cfg: dict, h: float, n: int | None = None,
          psi_radius: float | None = None) -> HamiltonianSpec:
    """The operator of a _PROBLEM_KEYS config with a flavor at h; n replaces N.

    psi_radius, the config key r, sets the ball cutoff psi.
    """
    grid = _grid(cfg, cfg["d"], cfg["n"] if n is None else n)
    V = _build_V(cfg["v"], cfg["v_args"], grid)
    psi = (None if psi_radius is None
           else _configured(cutoff_ball, {"radius": "r"}, grid=grid, radius=psi_radius))
    keys = {"h": "h" if "h" in cfg else "h_list", "flavor": "flavor"}
    return _configured(HamiltonianSpec, keys, grid=grid, h=h, flavor=cfg["flavor"], V=V, psi=psi)


# ---------------------------------------------------------------------------
# experiments; each returns (header, rows, reports)
# rows: list of tuples; the run passes iff every report does
# ---------------------------------------------------------------------------


@experiment("weyl-converge", {
    **_PROBLEM_KEYS,
    "h_list": ("floats", [0.5, 0.25, 0.125, 0.0625]),
    "flavor": ("str", SCHRODINGER),
    "certify": ("int", 1),
    "cert_threshold": ("float", 1e-3),
})
def run_weyl_converge(cfg, seed):
    for h in cfg["h_list"]:  # every h checked before the first solve
        _spec(cfg, h)

    def problem(h, double=False):
        return _spec(cfg, h, n=cfg["n"] * (2 if double else 1))

    reports, resolved = convergence_study(
        problem, cfg["h_list"], certify=bool(cfg["certify"]),
        certificate_threshold=cfg["cert_threshold"], seed=seed,
    )
    header = ["h", "N", "quantum", "weyl", "abs_err", "rel_err", "certificate", "resolved"]
    rows = [
        (r.h, r.N, r.quantum, r.weyl, r.abs_err, r.rel_err, r.certificate, int(ok))
        for r, ok in zip(reports, resolved)
    ]
    kept = [r for r, ok in zip(reports, resolved) if ok]
    errs = [r.rel_err for r in sorted(kept, key=lambda r: -r.h)]
    try:
        notes = f"fit={fit_error_exponent(kept)}"
    except FitRejected as exc:
        notes = f"fit rejected: {exc}"
    rep = CheckReport(
        name="weyl_convergence",
        params=dict(cfg),
        lhs=errs[-1] if errs else math.inf,
        rhs_terms={"first_rel_err": errs[0] if errs else math.inf},
        passed=all(b < a for a, b in zip(errs, errs[1:])),
        notes=notes,
    )
    return header, rows, [rep]


@experiment("minimize-field", {
    **_PROBLEM_KEYS,
    "d": ("int", 3),  # the Pauli flavor needs d = 3
    "n": ("int", 8),
    "h": ("float", 1.0),
    "beta": ("float", 1.0),
    "flavor": ("str", PAULI),
    "a_init": ("str", "zero"),
    "a_args": ("floats", []),
    "variant": ("str", GLOBAL_CURL),
    "max_iters": ("int", 40),
    "grad_tol": ("float", 1e-6),
    "r": ("float", 0.0),
    "big_r": ("float", 0.0),
})
def run_minimize_field(cfg, seed):
    if cfg["d"] == 1:
        raise ConfigError("d", "minimize-field needs d >= 2: in d = 1 the only "
                               "mean-zero divergence-free field is 0")
    if cfg["r"] and cfg["variant"] != PSI_OUTSIDE:
        raise ConfigError("r", f"r localizes only variant=psi-outside, got {cfg['variant']}; "
                               "ball-grad with psi is run by variant-order")
    if cfg["r"] and cfg["big_r"] and cfg["big_r"] < cfg["r"]:
        raise ConfigError("big_r", f"the field-energy ball needs big_r >= r, got "
                                   f"big_r={cfg['big_r']} and r={cfg['r']}")
    spec = _spec(cfg, cfg["h"],
                 psi_radius=cfg["r"] if cfg["variant"] == PSI_OUTSIDE else None)
    A0 = _build_A(cfg["a_init"], spec.grid, cfg["h"], seed, cfg["a_args"])
    ecfg = _configured(EnergyConfig, {"beta": "beta", "variant": "variant", "R": "big_r"},
                       beta=cfg["beta"], variant=cfg["variant"], R=cfg["big_r"] or None)
    sched = Schedule(max_iters=cfg["max_iters"], grad_tol=cfg["grad_tol"])
    rep = minimize(A0, spec, ecfg, sched, seed=seed)
    div_norm = divergence(rep.final_A).norm()
    # row 0 is the start point: no step, one energy evaluation
    header = ["iteration", "energy", "step", "trials"]
    rows = [(i, e, s, t) for i, (e, s, t) in
            enumerate(zip(rep.energies, [0.0] + rep.steps, [1] + rep.trials))]
    monotone = all(b <= a + 1e-12 for a, b in zip(rep.energies, rep.energies[1:]))
    if np.any(A0.data):
        base, _ = total_energy(None, spec, ecfg, seed=seed)
    else:
        base = rep.energies[0]  # the descent started at A = 0 and solved it
    crep = CheckReport(
        name="minimize_field",
        params=dict(cfg),
        lhs=rep.energies[-1],
        rhs_terms={"zero_field_energy": base},
        passed=monotone and div_norm <= 1e-8 and rep.energies[-1] <= base + 1e-10,
        notes=(f"terminated: {rep.termination}; div={div_norm:.3e}; "
               f"el_residual={rep.el_residual:.3e}"),
    )
    return header, rows, [crep]


@experiment("variant-order", {
    **_PROBLEM_KEYS,
    "h": ("float", 1.0),
    "beta": ("float", 1.0),
    "flavor": ("str", SCHRODINGER),
    "r": ("float", 0.25),
    "ratios": ("floats", [2.0, 4.0]),
    "max_iters": ("int", 30),
    "a_init": ("str", "randband"),
    "a_args": ("floats", [0.2]),
})
def run_variant_order(cfg, seed):
    radii = _configured(ordering_radii, {"r": "r", "radii": "ratios"},
                        r=cfg["r"], radii=[cfg["r"] * x for x in cfg["ratios"]])
    _configured(EnergyConfig, {"beta": "beta"}, beta=cfg["beta"])  # checked before any solve
    spec = _spec(cfg, cfg["h"])
    A0 = _build_A(cfg["a_init"], spec.grid, cfg["h"], seed, cfg["a_args"])
    header = ["ratio", "E_prime", "E_ball", "E_global", "inflation", "ordering_ok"]
    rows, reports, inflations = [], [], []
    results = variant_ordering_check(spec, cfg["r"], radii, cfg["beta"], A0=A0, seed=seed,
                                     schedule=Schedule(max_iters=cfg["max_iters"]))
    for ratio, res in zip(cfg["ratios"], results):
        ok = res["ordering_ok"]
        inflations.append(res["inflation"])
        rows.append((ratio, res["E_prime"], res["E_ball"], res["E_global"],
                     res["inflation"], int(ok)))
        reports.append(CheckReport(
            name="variant_order",
            params={"ratio": ratio, **{k: v for k, v in cfg.items() if k != "ratios"}},
            lhs=res["E_prime"],
            rhs_terms={"E_ball": res["E_ball"]},
            passed=ok,
            notes=f"inflation={res['inflation']:.4f}; el_residual " + " ".join(
                f"{k}={rep.el_residual:.3e}" for k, rep in res["reports"].items()),
        ))
    steps = list(zip(inflations, inflations[1:]))
    reports.append(CheckReport(
        name="inflation_trend",
        params={"ratios": cfg["ratios"], "inflations": inflations},
        lhs=max((b - a for a, b in steps), default=0.0),
        rhs_terms={"tolerance": 1e-9},
        passed=all(b <= a + 1e-9 for a, b in steps),
        notes="largest rise of the inflation as R/r grows",
    ))
    return header, rows, reports


@experiment("check-partition", {
    "d": ("int", 1),
    "h": ("float", 0.1),
    "alpha": ("float", DEFAULT_ALPHA),
    "kappa": ("float", 8.0),
    "n_samples": ("int", 24),
})
def run_check_partition(cfg, seed):
    d = cfg["d"]
    var, K, repaired = _configured(
        partition_from_potential, {"h": "h", "K": "kappa", "alpha": "alpha"},
        d=d,
        V=lambda x: np.exp(-np.sum(np.asarray(x) ** 2, axis=-1)),
        grad_V=lambda x: -2.0 * np.asarray(x)
        * np.exp(-np.sum(np.asarray(x) ** 2, axis=-1))[..., None],
        h=cfg["h"], K=cfg["kappa"], alpha=cfg["alpha"],
    )
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-2.0, 2.0, size=(cfg["n_samples"], d))
    defect_const = partition_defect(PartitionSpec.constant(d, 0.2), xs)
    defect_var = partition_defect(var, xs)

    header = ["case", "defect", "tolerance"]
    rows = [("constant", defect_const, 1e-10), ("variable", defect_var, 1e-6)]
    reports = [CheckReport(
        name="partition_defect",
        params=dict(cfg),
        lhs=max(defect_const, defect_var),
        rhs_terms={"tolerance": 1e-6},
        passed=defect_const <= 1e-10 and defect_var <= 1e-6,
        notes=f"constant={defect_const:.3e} variable={defect_var:.3e} "
              f"K={K:.3f} repaired={repaired}",
    )]
    return header, rows, reports


@experiment("check-dyadic", {
    "w_fermi": ("float", 1.0), "w_width": ("float", 0.125),
    "h": ("float", 0.1), "n_grid": ("int", 10000),
})
def run_check_dyadic(cfg, seed):
    fam = _configured(dyadic_build, {"W": "w_fermi", "w": "w_width", "h": "h"},
                      W=cfg["w_fermi"], w=cfg["w_width"], h=cfg["h"])
    u = np.linspace(0.0, 4.0 * math.sqrt(cfg["w_fermi"]), cfg["n_grid"])
    dev = float(np.max(np.abs(fam.sum_f_sq(fam.t(u**2)) - 1.0)))
    header = ["quantity", "value"]
    rows = [("max_partition_deviation", dev), ("i0", fam.i0)]
    reports = [CheckReport(
        name="dyadic_partition",
        params=dict(cfg),
        lhs=dev, rhs_terms={"tolerance": 1e-12}, passed=dev <= 1e-12,
        notes=f"i0={fam.i0}",
    )]
    return header, rows, reports


@experiment("check-lt", {
    "n": ("int", 8), "box": ("float", 2.0),
    "h_list": ("floats", [1.0, 0.5]),
    "draws": ("int", 10),
    "flavor": ("str", PAULI),
})
def run_check_lt(cfg, seed):
    grid = _grid(cfg, 3, cfg["n"])
    for h in cfg["h_list"]:  # every h checked before the first solve
        _configured(HamiltonianSpec, {"h": "h_list", "flavor": "flavor"},
                    grid=grid, h=h, flavor=cfg["flavor"])
    rng = np.random.default_rng(seed)
    header = ["draw", "h", "ratio", "lhs", "rhs"]
    rows, reports, ratios = [], [], []
    for draw in range(cfg["draws"]):
        amp = float(rng.uniform(0.5, 3.0))
        rad = float(rng.uniform(0.3, 0.45)) * cfg["box"]
        V = bump_potential(grid, amplitude=amp, radius=rad)
        A = random_divfree_potential(grid, seed=seed + 7 * draw,
                                     amplitude=float(rng.uniform(0.0, 0.5)))
        for h in cfg["h_list"]:
            rep = check_lieb_thirring(V, A, h, flavor=cfg["flavor"],
                                      digest={"draw": draw, "seed": seed})
            rows.append((draw, h, rep.ratio, rep.lhs, rep.rhs))
            reports.append(rep)
            if rep.lhs > 0:
                ratios.append(rep.ratio)
    envelope = max(ratios) if ratios else 0.0
    reports.append(CheckReport(
        name="lt_envelope",
        params=dict(cfg),
        lhs=envelope, rhs_terms={"draws": float(len(ratios))},
        passed=math.isfinite(envelope), notes="corpus-wide empirical envelope",
    ))
    return header, rows, reports


@experiment("check-smoothing", {
    "d": ("int", 3), "n": ("int", 128), "box": ("float", 2.0),
    "draws": ("int", 5), "r0": ("float", 0.2), "octaves": ("int", 3),
})
def run_check_smoothing(cfg, seed):
    grid = _grid(cfg, cfg["d"], cfg["n"])
    radii = [cfg["r0"] * 0.5 ** i for i in range(cfg["octaves"] + 1)]
    for r in radii:  # every radius checked before the first draw
        _configured(mollifier_kernel, {"r": "r0"}, grid=grid, r=r)
    draws = (rough_divfree_potential(grid, seed=seed + draw) for draw in range(cfg["draws"]))
    series = list(smoothing_constants(grid, draws, radii))  # one dict per draw
    rows = [(draw, r) + tuple(s[k][i] for k in SMOOTHING_CONSTANTS)
            for draw, s in enumerate(series) for i, r in enumerate(radii)]
    reports = []
    for name in SMOOTHING_CONSTANTS:
        per_draw = [s[name] for s in series]  # from the coarsest radius down
        vv = [v for vals in per_draw for v in vals]
        stable = all(
            v2 <= 2.0 * v1 + 1e-30 and v1 <= 2.0 * v2 + 1e-30
            for vals in per_draw for v1, v2 in zip(vals, vals[1:])
        )
        reports.append(CheckReport(
            name=f"smoothing_{name}",
            params=dict(cfg),
            lhs=max(vv), rhs_terms={"min": min(vv)},
            passed=stable, notes="x2 stability per halving",
        ))
    return ["draw", "r"] + list(SMOOTHING_CONSTANTS), rows, reports


@experiment("check-comm2", {"draws": ("int", 20), "n": ("int", 32), "box": ("float", 2.0)})
def run_check_comm2(cfg, seed):
    rng = np.random.default_rng(seed)
    header = ["draw", "d", "h", "lhs", "rhs", "ratio"]
    rows, reports = [], []
    line = _grid(cfg, 1, cfg["n"])
    for draw in range(cfg["draws"]):
        d = int(rng.integers(1, 3))
        grid = line if d == 1 else GridSpec(d=2, N=16, L=line.L)
        h = float(rng.choice([1.0, 0.5]))
        kmax = h * math.sqrt(float(np.max(grid.k2)))
        p1 = float(rng.uniform(0.15, 0.3)) * kmax
        p2 = float(rng.uniform(0.5, 0.7)) * kmax
        f = lambda p, p1=p1: plateau_bump(np.asarray(p) / p1)
        g = lambda p, p2=p2, kmax=kmax: smooth_step((np.asarray(p) - p2) / (0.2 * kmax))
        a_data = np.zeros(grid.shape)
        for _ in range(3):
            kvec = rng.integers(-3, 4, size=d)
            phase = sum(2 * math.pi * kvec[j] * grid.coords[j] / grid.L for j in range(d))
            a_data = a_data + float(rng.normal()) * np.cos(phase + float(rng.uniform(0, 2 * math.pi)))
        a = ScalarField(grid, a_data)
        rep = check_comm2(f, g, a, h, digest={"draw": draw, "seed": seed})
        rows.append((draw, d, h, rep.lhs, rep.rhs, rep.ratio))
        reports.append(rep)
    return header, rows, reports


@experiment("check-separation", {
    "n": ("int", 256), "box_l": ("float", 1.0), "d_sep": ("float", 1.0),
    "halvings": ("int", 3),
})
def run_check_separation(cfg, seed):
    f = lambda u: plateau_bump(np.asarray(u) / 0.5)
    g = lambda u, ds=cfg["d_sep"]: smooth_step((np.asarray(u) - (0.5 + ds)) / 0.5)
    eta0 = lambda s: bump(np.asarray(s) / 2.0)
    rep = separation_sweep(f, g, eta0, cfg["box_l"], cfg["d_sep"], cfg["n"],
                           halvings=cfg["halvings"],
                           ell0=cfg["box_l"] * cfg["d_sep"] / 8.0)
    rows = list(zip(rep.params["ells"], rep.params["values"]))
    return ["ell", "hs_norm"], rows, [rep]


@experiment("harmonic-compare", {"l_max": ("int", 50)})
def run_harmonic_compare(cfg, seed):
    rep = check_harmonic_ratio(l_max=cfg["l_max"])
    ratio_12, _ = harmonic_energy_ratio(1, 2.0)
    exact = CheckReport(
        name="harmonic_exact_ratio",
        params={"l": 1, "R": 2.0},
        lhs=ratio_12,
        rhs_terms={"exact": 10.0 / 7.0},
        passed=abs(ratio_12 - 10.0 / 7.0) <= 1e-12,
        notes="closed form 10/7 at l = 1, R = 2",
    )
    header = ["l", "R", "ratio", "bound"]
    rows = [(l, R) + harmonic_energy_ratio(l, R)
            for R in HARMONIC_RADII for l in range(1, cfg["l_max"] + 1)]
    return header, rows, [rep, exact]


@experiment("check-sandwich", {"draws": ("int", 10), "n": ("int", 64), "box": ("float", 2.0)})
def run_check_sandwich(cfg, seed):
    rng = np.random.default_rng(seed)
    header = ["draw", "d", "h", "inside", "outside", "kink", "passed"]
    rows, reports = [], []
    line = _grid(cfg, 1, cfg["n"])
    for draw in range(cfg["draws"]):
        if draw % 5 == 4:
            grid = GridSpec(d=3, N=8, L=line.L)
            A = random_divfree_potential(grid, seed=seed + draw, amplitude=0.3)
        else:
            grid, A = line, None
        h = float(rng.uniform(0.3, 1.0))
        V = bump_potential(grid, amplitude=float(rng.uniform(1.0, 4.0)),
                           radius=0.35 * cfg["box"])
        psi = cutoff_ball(grid, 0.4 * cfg["box"])
        spec = HamiltonianSpec(grid=grid, h=h, flavor=SCHRODINGER, A=A, V=V)
        rep = check_variational_sandwich(spec, psi)
        rows.append((draw, grid.d, h, rep.lhs, rep.rhs_terms["outside"],
                     rep.rhs_terms["kink"], int(rep.passed)))
        reports.append(rep)
    return header, rows, reports


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def list_builders() -> dict:
    return {
        "potentials": sorted(V_BUILDERS),
        "vector_potentials": sorted(A_BUILDERS),
        "cutoffs": ["ball"],
        "experiments": sorted(EXPERIMENTS),
    }


# the environment variables that size the BLAS, OpenMP and numexpr thread pools
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _write_outputs(outdir: Path, args, cfg, header, rows, reports,
                   status: str, error: str | None) -> None:
    import scipy  # only for its version and BLAS: importing it at set-up costs every run

    outdir.mkdir(parents=True, exist_ok=True)
    # each bundles its own BLAS: numpy's for its linalg, scipy's for evr, LDL^T and lobpcg
    blas = {lib.__name__: lib.__config__.CONFIG["Build Dependencies"]["blas"]
            for lib in (np, scipy)}
    manifest = {
        "experiment": args.experiment,
        "seed": args.seed,
        "threads": args.threads,
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
        "config": cfg,
        "versions": {
            "fermifield": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
            "blas": {lib: f"{b['name']} {b['version']}" for lib, b in blas.items()},
        },
        "status": status,
        "error": error,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    with open(outdir / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    write_jsonl(reports, outdir / "reports.jsonl")


def _overrides(items: list) -> dict:
    out = {}
    for item in items:
        if "=" not in item:
            raise ConfigError(item, "overrides take the form key=value")
        key, val = item.split("=", 1)
        out[key] = val
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fermifield",
        description="Reproducible experiments on semiclassical operators "
                    "with self-generated magnetic fields.",
    )
    sub = parser.add_subparsers(dest="experiment")
    for name in sorted(EXPERIMENTS):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--out", default="out")
        sp.add_argument("--threads", type=int, default=1,
                        help="recorded in manifest.json only; BLAS and FFT thread "
                             "counts come from the environment (OMP_NUM_THREADS, "
                             "OPENBLAS_NUM_THREADS)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    sub.add_parser("list-builders")
    args = parser.parse_args(argv)
    if args.experiment is None:
        parser.print_usage(sys.stderr)
        return 2
    if args.experiment == "list-builders":
        print(json.dumps(list_builders(), indent=2))
        return 0

    schema, run = EXPERIMENTS[args.experiment]
    try:
        cfg = load_config(args.config, schema, _overrides(args.set))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    outdir = Path(args.out)
    try:
        header, rows, reports = run(cfg, args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical failure: manifest records it
        _write_outputs(outdir, args, cfg, ["error"], [], [],
                       status="failed", error=f"{type(exc).__name__}: {exc}")
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1

    passed = all(r.passed for r in reports)
    _write_outputs(outdir, args, cfg, header, rows, reports,
                   status="passed" if passed else "assertion-failed", error=None)
    print(f"{args.experiment}: {'PASS' if passed else 'FAIL'} "
          f"({len(rows)} result rows -> {outdir})")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
