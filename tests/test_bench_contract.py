"""The benchmark's tracer wraps program attributes by name; pin them here."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).parent.parent / "sfqbench" / "spans.py"


def test_every_traced_attribute_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans.WRAPS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert spans.WRAPS and not missing, missing
