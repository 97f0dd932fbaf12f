"""Benchmark of fermifield's solves and field minimization.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
The run times whole rounds of the workload until the next round would end
after S seconds (at least one round), checks every output, and prints one JSON
object as its last line.  With --trace 0 it reports the end-to-end metrics
wall_s and cpu_s (medians over rounds), setup_s (median over separate set-up
processes) and peak_rss_mb.  With --trace 1 it spends the first half of S on
untraced rounds and the rest on rounds traced at every layer boundary, writes
the spans to benchmarks/traces/, and reports the per-layer metrics.
BLAS/OpenMP pools are fixed to THREADS threads for every process it starts.
"""

import os

THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5


def _fail(msg: str, code: int = 2):
    print(f"benchmark error: {msg}", file=sys.stderr)
    sys.exit(code)


def _import_program():
    """Put the checkout's src/ first on the path; refuse any other copy."""
    if not (SRC / "fermifield" / "__init__.py").is_file():
        _fail(f"no fermifield sources under {SRC}")
    if not (ROOT / "configs").is_dir():
        _fail(f"no configs directory under {ROOT}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import fermifield

    if Path(fermifield.__file__).resolve().parent != (SRC / "fermifield").resolve():
        _fail(f"imported fermifield from {fermifield.__file__}, not from {SRC}")


def _setup_probe(workload: str, seed: int) -> None:
    """Child-process body: set the workload up, print the monotonic clock."""
    _import_program()
    from workloads import WORKLOADS

    WORKLOADS[workload](ROOT, seed, HERE / "out").setup()
    print(repr(time.monotonic()), flush=True)


def _measure_setup(workload: str, seed: int) -> list:
    """Seconds from starting a fresh process to the end of its set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return times


def _run_rounds(wl, budget: float, tracer=None) -> tuple:
    """Whole rounds until the next one is expected to end past the budget."""
    walls, cpus, outputs, failed = [], [], [], 0
    start = time.perf_counter()
    while True:
        idx = tracer.begin("bench.round") if tracer else None
        t0, c0 = time.perf_counter(), time.process_time()
        out, nfail = wl.round()
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer:
            tracer.end(idx)
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        outputs.append(out)
        failed += nfail
        if time.perf_counter() - start + statistics.median(walls) > budget:
            return walls, cpus, outputs, failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    setup_times = _measure_setup(args.workload, args.seed)
    wl = WORKLOADS[args.workload](ROOT, args.seed, HERE / "out")
    tracer = None
    if args.trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        tracer.add_program_boundaries()
        tracer.install()
        idx = tracer.begin("bench.setup")
        wl.setup()
        tracer.end(idx)
        tracer.uninstall()
        walls, cpus, outputs, failed = _run_rounds(wl, args.seconds / 2)
        tracer.install()
        try:
            t_walls, _, t_out, t_failed = _run_rounds(wl, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        outputs += t_out
        failed += t_failed
    else:
        wl.setup()
        walls, cpus, outputs, failed = _run_rounds(wl, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = wl.check(outputs)
    for e in errors:
        print(f"check failed: {e}")
    attempted = wl.ops_per_round * len(outputs)
    print(f"{wl.name}: {len(outputs)} rounds, {attempted} operations, {failed} failed, "
          f"checks {'passed' if not errors else 'FAILED'}")
    print(f"round walls (s): {[round(w, 3) for w in walls]}; "
          f"setup probes (s): {[round(s, 3) for s in setup_times]}")

    if tracer:
        metrics, calls, setup_calls = layer_metrics(tracer.spans, walls)
        missing = [n for n in wl.required if calls[n] == 0]
        missing += [n for n in wl.required_setup if setup_calls[n] == 0]
        tracer.write(HERE / "traces" / f"{wl.name}-seed{args.seed}.json.gz")
        if missing:
            _fail(f"{wl.name}: known boundaries recorded no calls: {missing}; a call "
                  "no longer goes through the traced name", code=3)
        from spans import PER_LAYER

        for name, (unit, _) in PER_LAYER.items():
            print(f"  {name:42s} {metrics[name]:14.6g} {unit}")
        result_metrics = {n: {"value": metrics[n], "unit": u} for n, (u, _) in PER_LAYER.items()}
    else:
        result_metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
