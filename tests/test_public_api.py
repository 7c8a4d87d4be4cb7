"""The public surface stays whole: every exported name resolves, and
every name the benchmark's traced run wraps still exists where its
callers look it up, so a deletion cannot silently break ``--trace 1``."""

import importlib.util
from pathlib import Path

import copgof

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_all_names_resolve():
    missing = [name for name in copgof.__all__ if not hasattr(copgof, name)]
    assert not missing


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in spans.TRACED
               if not callable(getattr(module, attr, None))]
    assert not missing
