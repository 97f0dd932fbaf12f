"""Span tracing at the program's layer boundaries, from outside the program.

A Tracer replaces each traced function where its callers look it up (a
module attribute or a builder-table entry) with a wrapper that records a
span: name, start, end, parent span and an optional payload.  Spans stay in
memory until the run ends; `layer_metrics` turns the spans of the traced
rounds into the per-layer metrics and `write` stores them.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import time
from collections import defaultdict

import numpy as np
import scipy.fft
import scipy.sparse.linalg

# FFT entry points of both libraries; every transform, no helpers
_NUMPY_FFT = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
              "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
_SCIPY_FFT = _NUMPY_FFT + ("hfft2", "ihfft2", "hfftn", "ihfftn",
                           "dct", "idct", "dst", "idst", "dctn", "idctn", "dstn", "idstn")

LAYERS = ("grid", "operators", "spectral", "field_opt", "builders", "cli")

# layer metric name -> (unit, better); the order is the order printed
PER_LAYER = {
    "grid.fft.calls": ("count", "lower"),
    "grid.fft.s": ("s", "lower"),
    "grid.fft.bytes": ("bytes", "lower"),
    "operators.apply.calls": ("count", "lower"),
    "operators.apply.s": ("s", "lower"),
    "operators.dense_matrix.calls": ("count", "lower"),
    "operators.dense_matrix.s": ("s", "lower"),
    "spectral.negative_spectrum.calls": ("count", "lower"),
    "spectral.negative_spectrum.s": ("s", "lower"),
    "spectral.negative_spectrum.repeat_calls": ("count", "lower"),
    "spectral.eigenpairs": ("count", "lower"),
    "spectral.dense_eigh.calls": ("count", "lower"),
    "spectral.dense_eigh.s": ("s", "lower"),
    "spectral.dense_eigh.kept_ratio": ("ratio", "higher"),
    "spectral.lobpcg.calls": ("count", "lower"),
    "spectral.lobpcg.s": ("s", "lower"),
    "spectral.lobpcg.block_vectors": ("count", "lower"),
    "spectral.lobpcg.kept_ratio": ("ratio", "higher"),
    "spectral.current.calls": ("count", "lower"),
    "spectral.current.s": ("s", "lower"),
    "field_opt.minimize.calls": ("count", "lower"),
    "field_opt.minimize.s": ("s", "lower"),
    "field_opt.total_energy.calls": ("count", "lower"),
    "field_opt.total_energy.s": ("s", "lower"),
    "field_opt.energy_gradient.calls": ("count", "lower"),
    "field_opt.energy_gradient.s": ("s", "lower"),
    "field_opt.energy_gradient.psi_outside.s": ("s", "lower"),
    "field_opt.el_residual.s": ("s", "lower"),
    "field_opt.line_search.accept_ratio": ("ratio", "higher"),
    "builders.s": ("s", "lower"),
    "cli.main.s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

ROUND = "bench.round"
SETUP = "bench.setup"


def _fft_bytes(args, out):
    a = args[0] if args else None
    return int(getattr(a, "nbytes", 0)) + int(getattr(out, "nbytes", 0))


def _spec_key(args, kwargs):
    """Digest of the solved input: h, flavor, grid, V, psi and A (None = 0)."""
    spec = args[0] if args else kwargs["spec"]
    g = spec.grid
    hsh = hashlib.sha1(repr((spec.h, spec.flavor, spec.spin, g.d, g.N, g.L)).encode())
    for f, shape in ((spec.V, g.shape), (spec.psi, g.shape), (spec.A, (g.d,) + g.shape)):
        data = np.zeros(shape) if f is None else f.data
        # adding 0.0 turns -0.0 into 0.0, so an all-zero field hashes as None
        hsh.update((np.asarray(data, dtype=np.complex128) + 0.0).tobytes())
        hsh.update(b"|")
    return hsh.hexdigest()


class Tracer:
    """Records spans while installed; install/uninstall swap the wrappers."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, payload]
        self._stack = []
        self._points = []  # (container, key, original, wrapper)

    # -- recording ----------------------------------------------------------
    def begin(self, name, payload=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, payload])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.begin(name, before(args, kwargs) if before else None)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    tracer.spans[idx][4] = after(args, out, tracer.spans[idx][4])
                return out
            finally:
                tracer.end(idx)

        return wrapper

    def _point(self, container, key, name, before=None, after=None):
        is_dict = isinstance(container, dict)
        fn = container[key] if is_dict else getattr(container, key)
        self._points.append((container, key, fn, self._wrap(name, fn, before, after)))

    # -- boundaries -----------------------------------------------------------
    def add_program_boundaries(self):
        """Register every boundary where the program's callers look names up."""
        from fermifield import builders, cli, field_opt, operators, spectral

        for mod, names in ((np.fft, _NUMPY_FFT), (scipy.fft, _SCIPY_FFT)):
            for fname in names:
                if hasattr(mod, fname):
                    self._point(mod, fname, "grid.fft",
                                after=lambda a, out, _p: _fft_bytes(a, out))
        for mod in (spectral, operators):
            self._point(mod, "apply", "operators.apply")
        for mod in (spectral, field_opt, operators):
            self._point(mod, "dense_matrix", "operators.dense_matrix")
        for mod in (spectral, field_opt):
            self._point(mod, "negative_spectrum", "spectral.negative_spectrum",
                        before=lambda a, k: _spec_key(a, k),
                        after=lambda a, out, key: (key, len(out.eigenvalues)))
            self._point(mod, "current", "spectral.current")
        self._point(spectral, "dense_eigh", "spectral.dense_eigh",
                    after=lambda a, out, _p: len(out[0]))
        self._point(scipy.sparse.linalg, "lobpcg", "spectral.lobpcg",
                    before=lambda a, k: int(np.shape(a[1] if len(a) > 1 else k["X"])[1]))
        for mod in (field_opt, cli):
            self._point(mod, "minimize", "field_opt.minimize",
                        after=lambda a, out, _p: len(out.steps))
            self._point(mod, "total_energy", "field_opt.total_energy")
        self._point(field_opt, "energy_gradient", "field_opt.energy_gradient")
        self._point(field_opt, "_trace_gradient_psi_outside",
                    "field_opt.energy_gradient.psi_outside")
        self._point(field_opt, "el_residual", "field_opt.el_residual")
        for table in (builders.V_BUILDERS, builders.A_BUILDERS):
            for key in list(table):
                self._point(table, key, f"builders.{table[key].__name__}")
        for fname in ("bump_potential", "random_divfree_potential", "cutoff_ball"):
            for mod in (builders, cli):
                self._point(mod, fname, f"builders.{fname}")
        self._point(cli, "main", "cli.main")

    def install(self):
        for container, key, _orig, wrapper in self._points:
            if isinstance(container, dict):
                container[key] = wrapper
            else:
                setattr(container, key, wrapper)

    def uninstall(self):
        for container, key, orig, _wrapper in self._points:
            if isinstance(container, dict):
                container[key] = orig
            else:
                setattr(container, key, orig)

    # -- output ---------------------------------------------------------------
    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "payload"],
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def layer_metrics(spans, untraced_walls) -> tuple[dict, dict, dict]:
    """Per-layer metrics per traced round; span counts in rounds and in set-up.

    Counts and times are totals over the traced rounds divided by their
    number; builders.s adds the builder time of the traced set-up, since the
    benchmark's own builders run there.  Ratios are 0 where their base is 0.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        children[s[3]].append(i)
    rounds = [i for i, s in enumerate(spans) if s[0] == ROUND]
    setups = [i for i, s in enumerate(spans) if s[0] == SETUP]
    n_rounds = len(rounds)

    def descendants(i):
        out, todo = [], list(children[i])
        while todo:
            j = todo.pop()
            out.append(j)
            todo.extend(children[j])
        return out

    def dur(i):
        return spans[i][2] - spans[i][1]

    def self_time(i):
        return dur(i) - sum(dur(c) for c in children[i])

    def outermost(i, name):
        p = spans[i][3]
        while p != -1:
            if spans[p][0] == name:
                return False
            p = spans[p][3]
        return True

    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    fft_bytes = repeat = eigenpairs = 0
    dense_kept = dense_computed = lob_kept = lob_block = 0
    accepted = trials = 0
    covered = round_wall = 0.0
    for r in rounds:
        seen = set()
        round_wall += dur(r)
        covered += sum(dur(c) for c in children[r])
        for i in descendants(r):
            name, payload = spans[i][0], spans[i][4]
            calls[name] += 1
            layer = name.split(".")[0]
            self_s[layer] += self_time(i)
            if outermost(i, name):
                incl[name] += dur(i)
            if name == "grid.fft":
                fft_bytes += payload or 0
            elif name == "spectral.negative_spectrum":
                # a call that raised keeps only its key and returned no pairs
                key, n = payload if isinstance(payload, tuple) else (payload, 0)
                repeat += key in seen
                seen.add(key)
                eigenpairs += n
                kinds = {spans[j][0] for j in descendants(i)}
                if "spectral.dense_eigh" in kinds:
                    dense_kept += n
                elif "spectral.lobpcg" in kinds:
                    lob_kept += n
            elif name == "spectral.dense_eigh":
                dense_computed += payload or 0
            elif name == "spectral.lobpcg":
                lob_block += payload
            elif name == "field_opt.minimize":
                accepted += payload or 0
                trials += sum(spans[j][0] == "field_opt.total_energy"
                              for j in descendants(i)) - 1
    setup_builders = sum(
        dur(i) for s in setups for i in descendants(s)
        if spans[i][0].startswith("builders.") and outermost(i, spans[i][0])
    )
    builders_rounds = sum(v for k, v in incl.items() if k.startswith("builders."))

    def per_round(x):
        return x / n_rounds

    traced_wall = [dur(r) for r in rounds]
    m = {
        "grid.fft.calls": per_round(calls["grid.fft"]),
        "grid.fft.s": per_round(incl["grid.fft"]),
        "grid.fft.bytes": per_round(fft_bytes),
        "operators.apply.calls": per_round(calls["operators.apply"]),
        "operators.apply.s": per_round(incl["operators.apply"]),
        "operators.dense_matrix.calls": per_round(calls["operators.dense_matrix"]),
        "operators.dense_matrix.s": per_round(incl["operators.dense_matrix"]),
        "spectral.negative_spectrum.calls": per_round(calls["spectral.negative_spectrum"]),
        "spectral.negative_spectrum.s": per_round(incl["spectral.negative_spectrum"]),
        "spectral.negative_spectrum.repeat_calls": per_round(repeat),
        "spectral.eigenpairs": per_round(eigenpairs),
        "spectral.dense_eigh.calls": per_round(calls["spectral.dense_eigh"]),
        "spectral.dense_eigh.s": per_round(incl["spectral.dense_eigh"]),
        "spectral.dense_eigh.kept_ratio": dense_kept / dense_computed if dense_computed else 0.0,
        "spectral.lobpcg.calls": per_round(calls["spectral.lobpcg"]),
        "spectral.lobpcg.s": per_round(incl["spectral.lobpcg"]),
        "spectral.lobpcg.block_vectors": per_round(lob_block),
        "spectral.lobpcg.kept_ratio": lob_kept / lob_block if lob_block else 0.0,
        "spectral.current.calls": per_round(calls["spectral.current"]),
        "spectral.current.s": per_round(incl["spectral.current"]),
        "field_opt.minimize.calls": per_round(calls["field_opt.minimize"]),
        "field_opt.minimize.s": per_round(incl["field_opt.minimize"]),
        "field_opt.total_energy.calls": per_round(calls["field_opt.total_energy"]),
        "field_opt.total_energy.s": per_round(incl["field_opt.total_energy"]),
        "field_opt.energy_gradient.calls": per_round(calls["field_opt.energy_gradient"]),
        "field_opt.energy_gradient.s": per_round(incl["field_opt.energy_gradient"]),
        "field_opt.energy_gradient.psi_outside.s":
            per_round(incl["field_opt.energy_gradient.psi_outside"]),
        "field_opt.el_residual.s": per_round(incl["field_opt.el_residual"]),
        "field_opt.line_search.accept_ratio": accepted / trials if trials > 0 else 0.0,
        "builders.s": setup_builders + per_round(builders_rounds),
        "cli.main.s": per_round(incl["cli.main"]),
        **{f"{layer}.self_s": per_round(self_s[layer]) for layer in LAYERS},
        "trace.coverage": covered / round_wall,
        "trace.overhead_s": float(np.median(traced_wall)) - float(np.median(untraced_walls)),
    }
    setup_calls = defaultdict(int)
    for s in setups:
        for i in descendants(s):
            setup_calls[spans[i][0]] += 1
    return m, calls, setup_calls
