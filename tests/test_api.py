"""The public surface resolves: every name in `itebm.__all__`, and every
function the benchmark's span tracer wraps (`perfbench/layers.SPANS`), so a
deletion that would break the traced benchmark run fails here first."""
import importlib
import importlib.util
import sys
from pathlib import Path

import itebm

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_all_names_resolve():
    assert [name for name in itebm.__all__ if not hasattr(itebm, name)] == []


def test_benchmark_spans_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for mod_name, path in layers.SPANS:
        owner = importlib.import_module(f"itebm.{mod_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{mod_name}.{path}")
    assert layers.SPANS
    assert missing == []
