"""The package surface: declared once, and every public name reached.

A public name is a module-level name without a leading underscore, declared
by its definition alone and imported from its own module: no module assigns
__all__, and __init__.py imports nothing from the package's modules.

src/ keeps what an experiment runs: every public function and class is
reached. Reached means referenced from code that runs: module-level code
under src/ (the builder tables, the experiment registry, the entry point), a
function registered with @experiment, the benchmark's workloads.py, spans.py
and run.py, and, in turn, any function or class that reached code
references. A definition and an import do not count, and neither do the
tests.
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


def _declared_twice(src: Path = SRC) -> list:
    """Every __all__ assignment under src/, and every package import in __init__.py."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [f"{path.name}:{n.lineno} assigns __all__" for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and n.id == "__all__"
                  and isinstance(n.ctx, ast.Store)]
        if path.name == "__init__.py":
            found += [f"__init__.py:{n.lineno} imports from the package" for n in ast.walk(tree)
                      if isinstance(n, ast.ImportFrom)
                      and (n.level or (n.module or "").split(".")[0] == src.name)]
    return found


def test_every_public_name_is_declared_once():
    declared = _declared_twice()
    assert not declared, f"declare a name by its definition alone: {', '.join(declared)}"


def test_scan_flags_a_second_declaration(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "__init__.py").write_text('"""Docs."""\nfrom .mod import a\n'
                                     'from pkg.mod import b\n__version__ = "1"\n')
    (src / "mod.py").write_text("import numpy\n__all__ = ['a']\n__all__ += ['b']\n"
                                "def a(): pass\ndef b(): pass\n")
    assert _declared_twice(src) == ["__init__.py:2 imports from the package",
                                    "__init__.py:3 imports from the package",
                                    "mod.py:2 assigns __all__", "mod.py:3 assigns __all__"]
    (src / "__init__.py").write_text('"""Docs."""\nimport os\n__version__ = "1"\n')
    (src / "mod.py").write_text("def a(): pass\n")
    assert _declared_twice(src) == []
