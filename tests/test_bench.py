"""The benchmark's span wrappers still find every package name they wrap."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_span_targets_exist():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # Tracer.installed() reads owner.__dict__[attr] for each target
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in spans.TARGETS if attr not in owner.__dict__]
    assert not missing
