"""The public surface resolves: every name the README's Python API block
imports from an `itebm` module, and every function the benchmark's span
tracer wraps (`perfbench/layers.SPANS`), so a deletion that would break the
documented API or the traced benchmark run fails here first.  And the
public surface has callers: no public name of `src/itebm` is used by its
own tests alone."""
import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "itebm"
PERFBENCH = ROOT / "perfbench"
LAYERS = PERFBENCH / "layers.py"
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


def _public_names(tree: ast.Module, module: str) -> list[tuple[str, str]]:
    """(name, qualified name) of each public top-level function and class
    of a module, and of each public method or property of those classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, f"{module}.{node.name}"))
            if isinstance(node, ast.ClassDef):
                found += [(item.name, f"{module}.{node.name}.{item.name}")
                          for item in node.body
                          if isinstance(item, functions) and not item.name.startswith("_")]
    return found


def _identifiers(tree: ast.AST) -> set[str]:
    """The names a tree uses: each `Name`, `Attribute` and import alias.  A
    definition's own name is none of these."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names.add(node.asname)
    return names


def test_every_public_name_has_a_caller_outside_tests():
    """Each public function, class, method and property of `src/itebm` is
    named somewhere outside the tests: by an identifier in `src/`, by an
    identifier or a dotted-name string in `perfbench/` (`SPANS` names its
    functions by string), or in README's Python block or one of its code
    spans.  The match is by name alone, so it is approximate: a name that
    another definition shares, or that the README mentions in passing,
    counts as used.  It catches API that only its own tests reach."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = set().union(*map(_identifiers, trees.values()))
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= _identifiers(tree)
        used.update(part for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)
                    for part in node.value.split("."))
    readme = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", readme, flags=re.S))
    used.update(re.findall(r"[A-Za-z_]\w*", " ".join(blocks + spans)))
    subjects = [found for module, tree in trees.items()
                for found in _public_names(tree, f"{SRC.name}.{module}")]
    assert len(subjects) > 50
    assert [qualified for name, qualified in subjects if name not in used] == []
