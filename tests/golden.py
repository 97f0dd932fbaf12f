"""Golden outputs: every bundled config against its stored results.

    python tests/golden.py [--update]

Run from anywhere; the program is imported from this checkout's src/.  Each
configs/*.cfg runs through the CLI at --seed 7 with one BLAS/OpenMP thread,
and its results.csv and reports.jsonl are compared with the copies under
configs/golden/<config stem>/.  Numbers are compared relatively: CSV cells,
the numeric leaves of each report (params lists included) and the numbers
inside its notes; all other text must match exactly.  The script prints the
largest relative difference per config and every column or field that
differs at all, and exits 1 when one exceeds RTOL or any text differs.
--update rewrites the stored copies from this run.  The seven configs take
about a minute on a 2-core VM.
"""

import argparse
import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = CONFIGS / "golden"
SEED = 7
RTOL = 1e-12  # largest relative difference a number may show
OUTPUTS = ("results.csv", "reports.jsonl")
# (report name, notes label) of figures left out: minimize_field's div= is a
# round-off residual whose own report bounds it by 1e-8
EXCLUDED = {("minimize_field", "div")}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")
LABEL = re.compile(r"(\w+)=[^=]*$")


def _experiment(stem: str) -> str:
    """The CLI subcommand a config stem names: the longest experiment prefix."""
    from fermifield.cli import EXPERIMENTS

    names = [n for n in EXPERIMENTS if stem.startswith(n.replace("-", "_"))]
    if not names:
        raise SystemExit(f"golden: no experiment matches config {stem!r}")
    return max(names, key=len)


def _run(cfg: Path, out: Path) -> None:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fermifield.cli", _experiment(cfg.stem), "--config", str(cfg),
         "--out", str(out), "--seed", str(SEED)],
        capture_output=True, text=True, env=env,
    )
    if proc.returncode not in (0, 1):  # 1 is a failed report, which is an output too
        raise SystemExit(f"golden: {cfg.name} exited {proc.returncode}:\n{proc.stderr}")


def _rel(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _number(s: str):
    try:
        return float(s)
    except ValueError:
        return None


class _Diff:
    """Largest relative difference per field, and every text mismatch."""

    def __init__(self):
        self.worst: dict[str, float] = {}
        self.text: list[str] = []

    def number(self, field: str, a: float, b: float) -> None:
        self.worst[field] = max(self.worst.get(field, 0.0), _rel(a, b))

    def value(self, field: str, a, b) -> None:
        if isinstance(a, str) and isinstance(b, str):
            x, y = _number(a), _number(b)
            if x is not None and y is not None:
                return self.number(field, x, y)
        if a != b:
            self.text.append(f"{field}: {a!r} != {b!r}")

    def notes(self, field: str, report: str, a: str, b: str) -> None:
        """Numbers in a notes string, each named by the key= before it."""
        na, nb = NUMBER.findall(a), NUMBER.findall(b)
        if NUMBER.sub("#", a) != NUMBER.sub("#", b) or len(na) != len(nb):
            self.text.append(f"{field}: {a!r} != {b!r}")
            return
        for m, x, y in zip(NUMBER.finditer(a), na, nb):
            label = LABEL.search(a[:m.start()])
            label = label.group(1) if label else "#"
            if (report, label) not in EXCLUDED:
                self.number(f"{field}.{label}", float(x), float(y))

    def tree(self, field: str, a, b) -> None:
        """A JSON value: numeric leaves relatively, the rest exactly."""
        if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
            for key in a:
                self.tree(f"{field}.{key}", a[key], b[key])
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for x, y in zip(a, b):
                self.tree(f"{field}[]", x, y)
        elif (all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))):
            self.number(field, float(a), float(b))
        elif a != b:
            self.text.append(f"{field}: {a!r} != {b!r}")


def _compare_csv(diff: _Diff, new: Path, old: Path) -> None:
    with open(new, newline="") as fa, open(old, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        diff.text.append(f"results.csv: header or row count differs "
                         f"({rows_a[:1]} x {len(rows_a)} != {rows_b[:1]} x {len(rows_b)})")
        return
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        for col, a, b in zip(rows_a[0], ra, rb):
            diff.value(f"results.csv:{col}", a, b)


def _compare_jsonl(diff: _Diff, new: Path, old: Path) -> None:
    reps_a = [json.loads(line) for line in new.read_text().splitlines()]
    reps_b = [json.loads(line) for line in old.read_text().splitlines()]
    if len(reps_a) != len(reps_b):
        diff.text.append(f"reports.jsonl: {len(reps_a)} reports != {len(reps_b)}")
        return
    for ra, rb in zip(reps_a, reps_b):
        field = f"reports.jsonl:{ra.get('name')}"
        if ra.get("name") != rb.get("name") or ra.keys() != rb.keys():
            diff.text.append(f"{field}: report names or keys differ")
            continue
        for key in ra:
            if key == "notes":
                diff.notes(f"{field}.notes", ra["name"], ra[key], rb[key])
            else:
                diff.tree(f"{field}.{key}", ra[key], rb[key])


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite configs/golden/ from this run")
    args = parser.parse_args(argv)
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in sorted(CONFIGS.glob("*.cfg")):
            out, stored = Path(tmp) / cfg.stem, GOLDEN / cfg.stem
            _run(cfg, out)
            if args.update:
                stored.mkdir(parents=True, exist_ok=True)
                for name in OUTPUTS:
                    shutil.copyfile(out / name, stored / name)
                print(f"{cfg.stem}: stored")
                continue
            diff = _Diff()
            for name, compare in zip(OUTPUTS, (_compare_csv, _compare_jsonl)):
                if not (stored / name).is_file():
                    diff.text.append(f"{name}: no stored copy (run with --update)")
                else:
                    compare(diff, out / name, stored / name)
            bad = [f for f, v in diff.worst.items() if not v <= RTOL]
            exact = sum(v == 0.0 for v in diff.worst.values())
            print(f"{cfg.stem}: {'FAIL' if bad or diff.text else 'ok'}, largest "
                  f"{max(diff.worst.values(), default=0.0):.3e} over {len(diff.worst)} "
                  f"columns and fields, {exact} of them exact")
            for f, v in sorted(diff.worst.items(), key=lambda fv: -fv[1]):
                if v > 0.0:
                    print(f"  {f:<58} {v:.3e}{'  > RTOL' if f in bad else ''}")
            for line in diff.text:
                print(f"  text differs: {line}")
            if bad or diff.text:
                failed.append(cfg.stem)
    if failed:
        print(f"golden: differs beyond {RTOL:g} relative in {', '.join(failed)}")
        return 1
    print(f"golden: every config within {RTOL:g} relative")
    return 0


if __name__ == "__main__":
    sys.exit(main())
