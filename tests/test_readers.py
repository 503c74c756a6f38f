"""Nothing without a reader: every function, class and method that `ccm`
defines is read by the library, the benchmark or a demo, not only by the
tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ccm"

# the gradient oracle the tests compare hand-written backwards against
TEST_ORACLES = {"finite_difference_check"}


def definitions(tree: ast.Module) -> list[str]:
    """Top-level functions and classes, and the methods of those classes;
    dunder methods are read by Python itself."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and not item.name.startswith("__")]
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Names a module reads, as a name, an attribute or an identifier string
    (the benchmark's tracer wraps methods by name)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def test_every_definition_has_a_reader():
    # a re-export in __init__.py is not a reader
    readers = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    readers += sorted((ROOT / "benchmarks").glob("*.py"))
    readers += sorted((ROOT / "demos").glob("*.py"))
    read = set().union(*(read_names(ast.parse(p.read_text())) for p in readers))
    unread = [f"{p.stem}.{name}" for p in sorted(PACKAGE.glob("*.py"))
              for name in definitions(ast.parse(p.read_text()))
              if name.split(".")[-1] not in read | TEST_ORACLES]
    assert unread == []
