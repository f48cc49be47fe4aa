"""The traced benchmark run wraps setkp functions by name; each must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _bench_targets(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)  # dataclasses look the module up
    spec.loader.exec_module(mod)
    return mod.TARGETS


def test_bench_span_targets_resolve(monkeypatch):
    targets = _bench_targets(monkeypatch)
    assert targets
    missing = []
    for t in targets:
        owner = importlib.import_module(t.module)
        for part in t.attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{t.span} ({t.module}.{t.attr})")
    assert missing == []
