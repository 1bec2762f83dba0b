"""The public surface resolves: every name the README's Python API block
imports from an `itebm` module, and every function the benchmark's span
tracer wraps (`perfbench/layers.SPANS`), so a deletion that would break the
documented API or the traced benchmark run fails here first."""
import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "perfbench" / "layers.py"
README = ROOT / "README.md"


def test_readme_api_names_resolve():
    """Each name is imported from the module that defines it; the package
    `itebm` re-exports none."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    imports = [node for node in ast.walk(ast.parse(block))
               if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "itebm"]
    missing = [f"{node.module}.{alias.name}" for node in imports for alias in node.names
               if not hasattr(importlib.import_module(node.module), alias.name)]
    assert imports
    assert missing == []


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
