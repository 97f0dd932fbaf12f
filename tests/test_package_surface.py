"""src/ keeps what an experiment runs: every public function and class is reached.

Reached means referenced from code that runs: module-level code under src/
(the builder tables, the experiment registry, the entry point), a function
registered with @experiment, the benchmark's workloads.py, spans.py and
run.py, and, in turn, any function or class that reached code references.
A definition, an __all__ entry, an import and the __init__.py re-exports do
not count, and neither do the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fermifield"
BENCHMARK_FILES = ("workloads.py", "spans.py", "run.py")
# Public names kept with no caller under src/, and why
KEPT = {
    "mollify": "the real-space convolution whose constants smoothing_constants "
               "reads off in Fourier space; its tests tie the two together",
    "curl": "B = curl A of the paper in d = 3; field_energy_curl reads |B|^2 off "
            "the Jacobian, and the tests check the Pauli Zeeman term against curl",
}


def _identifiers(node) -> set:
    """Every name and attribute referenced inside node."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _registered(node) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", "") == "experiment"
               for d in node.decorator_list)


def _unreached(src: Path = SRC, benchmarks: Path = ROOT / "benchmarks") -> list:
    defs = {}  # name -> (module, definition node)
    reached = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = (path.stem, node)
                if _registered(node):
                    reached.add(node.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                targets = getattr(node, "targets", [])
                if not any(getattr(t, "id", "") == "__all__" for t in targets):
                    reached |= _identifiers(node)
    bench = "\n".join((benchmarks / name).read_text() for name in BENCHMARK_FILES)
    reached |= {name for name in defs if re.search(rf"\b{name}\b", bench)}
    todo = [name for name in reached if name in defs]
    while todo:
        for name in _identifiers(defs[todo.pop()][1]) & set(defs) - reached:
            reached.add(name)
            todo.append(name)
    return sorted(f"{module}.{name}" for name, (module, _) in defs.items()
                  if not name.startswith("_") and name not in reached | KEPT.keys())


def test_every_public_name_is_reached():
    unreached = _unreached()
    assert not unreached, f"public names that only tests reach: {', '.join(unreached)}"


def test_scan_flags_a_name_only_tests_reach(tmp_path):
    src, benchmarks = tmp_path / "src", tmp_path / "benchmarks"
    src.mkdir()
    benchmarks.mkdir()
    (src / "__init__.py").write_text("from .mod import orphan\n")
    (src / "mod.py").write_text(
        "__all__ = ['orphan', 'table_entry']\n"
        "def table_entry(): return helper()\n"
        "def helper(): pass\n"
        "def benched(): pass\n"
        "def orphan(): pass\n"
        "@experiment('run')\n"
        "def run(): pass\n"
        "TABLE = {'entry': table_entry}\n")
    for name in BENCHMARK_FILES:
        (benchmarks / name).write_text("")
    (benchmarks / "run.py").write_text("from mod import benched\n")
    assert _unreached(src, benchmarks) == ["mod.orphan"]
