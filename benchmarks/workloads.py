"""The benchmark's three workloads: set-up, one measured round, output checks.

Each workload object is built from the checkout root, the seed and an output
directory.  `setup()` does the imports and builds the inputs, `round()` runs
one round of operations and returns its outputs with the number of operations
that failed, and `check(outputs)` compares outputs against the independent
computations in `reference.py` and against properties the method must have,
returning one message per failed check.
"""

from __future__ import annotations

import configparser
import csv
import json
import math

import numpy as np

import reference as ref


class Weyl3dIterative:
    """Pauli d=3, N=16 (dim 8192) on the matrix-free LOBPCG path.

    One round solves the negative spectrum at h = 0.6 and 0.45, each for
    A = 0 and for one seeded divergence-free A.  The seed draws A and the
    LOBPCG start blocks.
    """

    name = "weyl3d_iterative"
    N, L = 16, 2.0
    H_LIST = (0.6, 0.45)
    V_ARGS = (6.0, 0.7)
    A_AMPLITUDE = 0.3  # builder amplitude; A is then rescaled to A_RMS
    A_RMS = 0.55  # the same field strength for every seed
    ops_per_round = 4
    required = ("grid.fft", "operators.apply", "spectral.negative_spectrum",
                "spectral.lobpcg")
    required_setup = ("builders.bump_potential", "builders.random_divfree_potential")

    def __init__(self, root, seed, outdir):
        self.seed = seed

    def setup(self):
        from fermifield import builders
        from fermifield.grid import GridSpec
        from fermifield.operators import HamiltonianSpec
        from fermifield.spectral import EigenFailure

        self._failure = EigenFailure
        g = GridSpec(d=3, N=self.N, L=self.L)
        V = builders.bump_potential(g, *self.V_ARGS)
        A = builders.random_divfree_potential(g, seed=self.seed, amplitude=self.A_AMPLITUDE)
        A = (self.A_RMS / float(np.sqrt(np.mean(np.abs(A.data) ** 2)))) * A
        self.V, self.A = np.real(V.data), np.real(A.data)
        self.specs = [
            (h, with_a, HamiltonianSpec(grid=g, h=h, flavor="pauli",
                                        A=A if with_a else None, V=V))
            for h in self.H_LIST for with_a in (False, True)
        ]

    def round(self):
        from fermifield import spectral

        out, failed = [], 0
        for h, with_a, spec in self.specs:
            try:
                ns = spectral.negative_spectrum(spec, seed=self.seed)
            except self._failure:
                failed += 1
                continue
            out.append((h, with_a, ns.eigenvalues.copy(),
                        np.stack([u.data for u in ns.eigenvectors]), ns.sum))
        return out, failed

    def check(self, rounds):
        errs = []
        w = (self.L / self.N) ** 3
        first = {(h, a): s for h, a, _, _, s in rounds[0]}
        refs = {h: 2.0 * ref.negative_sum_iterative(self.V, self.L, h) for h in self.H_LIST}
        scale = {h: float(self.V.max()) + (h * math.pi * self.N / self.L) ** 2
                 for h in self.H_LIST}
        for outs in rounds:
            for h, with_a, vals, vecs, total in outs:
                if total != first[(h, with_a)]:
                    errs.append(f"h={h} A={with_a}: sum {total!r} differs between rounds")
                if not with_a:
                    if abs(total - refs[h]) > 1e-8 * abs(refs[h]):
                        errs.append(f"h={h} A=0: sum {total!r} != 2 x reference {refs[h]!r}")
                    continue
                for lam, u in zip(vals, vecs):
                    r = ref.pauli_apply(u, self.V, self.L, h, self.A) - lam * u
                    res = math.sqrt(float(np.sum(np.abs(r) ** 2)) * w)
                    if res > 1e-7 * scale[h]:
                        errs.append(f"h={h} A!=0: eigenpair {lam!r} residual {res:.3e}")
                flat = vecs.reshape(len(vecs), -1)
                gram = flat.conj() @ flat.T * w
                if np.abs(gram - np.eye(len(vals))).max() > 1e-8:
                    errs.append(f"h={h} A!=0: eigenvectors not orthonormal")
        rel = []
        for h in self.H_LIST:
            if (h, False) in first:
                W = ref.weyl_term(self.V, self.L, h, spin=2)
                rel.append(abs(first[(h, False)] - W) / abs(W))
        if len(rel) == 2 and not rel[1] < rel[0]:
            errs.append(f"|E-W|/|W| does not fall from h={self.H_LIST[0]} to "
                        f"h={self.H_LIST[1]}: {rel}")
        return errs


class _CliWorkload:
    """A bundled config run through fermifield.cli.main in-process."""

    experiment = config = ""
    overrides: tuple = ()
    ops_per_round = 1
    required_setup = ()

    def __init__(self, root, seed, outdir):
        self.seed = seed
        self.config_path = root / "configs" / self.config
        self.outdir = outdir / self.name

    def setup(self):
        import fermifield.cli  # noqa: F401  (the import is part of set-up)

        cp = configparser.ConfigParser()
        if not cp.read(self.config_path):
            raise FileNotFoundError(self.config_path)
        self.cfg = {k: v for s in cp.sections() for k, v in cp.items(s)}
        self.argv = [self.experiment, "--config", str(self.config_path),
                     "--out", str(self.outdir), "--seed", str(self.seed),
                     "--threads", "1"]
        for kv in self.overrides:
            self.argv += ["--set", kv]

    def round(self):
        from fermifield import cli

        rc = cli.main(self.argv)
        if rc == 2:
            raise RuntimeError(f"config error in {self.argv}")
        manifest = json.loads((self.outdir / "manifest.json").read_text())
        with open(self.outdir / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        failed = int(manifest["status"] == "failed")
        return [] if failed else [(rc, manifest, rows)], failed


class MinimizePauli(_CliWorkload):
    """configs/minimize_field_pauli.cfg: Pauli N=8 dense (dim 1024), descent from A=0.

    One descent step per round instead of four keeps a round near 20 s on a
    2-core Xeon VM at one BLAS thread; the step still runs the full line
    search.  The seed goes to --seed, which the dense path does not use.
    """

    name = "minimize_pauli"
    experiment = "minimize-field"
    config = "minimize_field_pauli.cfg"
    overrides = ("max_iters=1",)
    required = ("grid.fft", "operators.apply", "operators.dense_matrix",
                "spectral.negative_spectrum", "spectral.dense_eigh", "spectral.current",
                "field_opt.minimize", "field_opt.total_energy",
                "field_opt.energy_gradient", "field_opt.el_residual",
                "builders.bump_potential", "cli.main")

    def check(self, rounds):
        N, L, h = int(self.cfg["n"]), float(self.cfg["box"]), float(self.cfg["h"])
        amp, rad = (float(x) for x in self.cfg["v_args"].split())
        e_zero = 2.0 * ref.negative_sum_dense(ref.bump_potential(N, L, 3, amp, rad), L, h)
        errs = []
        for outs in rounds:
            for rc, manifest, rows in outs:
                energies = [float(r["energy"]) for r in rows]
                if rc != 0 or manifest["status"] != "passed":
                    errs.append(f"exit {rc}, status {manifest['status']}")
                if abs(energies[0] - e_zero) > 1e-9 * abs(e_zero):
                    errs.append(f"energies[0] {energies[0]!r} != 2 x reference {e_zero!r}")
                if any(b > a for a, b in zip(energies, energies[1:])):
                    errs.append(f"energies increase: {energies}")
                if energies[-1] > e_zero + 1e-10 * abs(e_zero):
                    errs.append(f"final energy {energies[-1]!r} above A=0 energy {e_zero!r}")
        return errs


class VariantOrder(_CliWorkload):
    """configs/variant_order.cfg: Schrodinger N=8 dense (dim 512), all three variants.

    Ratios R/r = 2, 4 and one descent step per minimization keep a round near
    20 s on the same machine; every variant, its line search and the
    psi-outside gradient still run.  The seed goes to --seed, which draws the
    randband start field.
    """

    name = "variant_order"
    experiment = "variant-order"
    config = "variant_order.cfg"
    overrides = ("ratios=2 4", "max_iters=1")
    required = ("grid.fft", "operators.apply", "operators.dense_matrix",
                "spectral.negative_spectrum", "spectral.dense_eigh", "spectral.current",
                "field_opt.minimize", "field_opt.total_energy",
                "field_opt.energy_gradient", "field_opt.energy_gradient.psi_outside",
                "field_opt.el_residual", "builders.bump_potential",
                "builders.random_divfree_potential", "builders.cutoff_ball", "cli.main")

    def check(self, rounds):
        errs = []
        for outs in rounds:
            for rc, manifest, rows in outs:
                if rc != 0 or manifest["status"] != "passed":
                    errs.append(f"exit {rc}, status {manifest['status']}")
                e_global = [float(r["E_global"]) for r in rows]
                inflation = [float(r["inflation"]) for r in rows]
                for r in rows:
                    ep, eb, eg = (float(r[k]) for k in ("E_prime", "E_ball", "E_global"))
                    tol = 1e-6 * max(abs(eg), 1.0)
                    if not (ep <= eb + tol <= eg + 2 * tol):
                        errs.append(f"ratio {r['ratio']}: ordering E'={ep!r} "
                                    f"E_ball={eb!r} E_global={eg!r} fails")
                if any(abs(e - e_global[0]) > 1e-12 * abs(e_global[0]) for e in e_global):
                    errs.append(f"E_global depends on R: {e_global}")
                if min(inflation) < 1.0 or any(b > a for a, b in zip(inflation, inflation[1:])):
                    errs.append(f"inflation below 1 or growing with R: {inflation}")
        return errs


WORKLOADS = {w.name: w for w in (Weyl3dIterative, MinimizePauli, VariantOrder)}
