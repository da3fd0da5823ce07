"""The benchmark tracer's wrap points and the package exports still resolve."""
import importlib.util
import os

import spinnet

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench", "spans.py")


def load_spans():
    """perfbench/spans.py as a module, loaded by path; nothing is installed."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_resolves():
    # a wrap point that no longer resolves is counted in trace.missing
    spans = load_spans()
    missing = [path for _, path, _ in spans.WRAP_POINTS if spans.resolve(path) is None]
    assert missing == []


def test_exports_are_unique_and_resolve():
    names = spinnet.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(spinnet, n)] == []
