"""The benchmark tracer's boundaries name functions the program still has."""

import importlib.util
from pathlib import Path


def test_tracer_boundaries_resolve_without_installing():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
    loader_spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    spans = importlib.util.module_from_spec(loader_spec)
    loader_spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    # looks every traced name up (field_opt.dense_matrix, cli.total_energy, ...)
    # and raises AttributeError on a renamed one; nothing is replaced
    tracer.add_program_boundaries()
    assert tracer._points
    assert all(callable(orig) for _container, _key, orig, _wrapper in tracer._points)
