"""Nothing without a reader: every function, class and method that `ccm`
defines is read by the library, the benchmark or a demo, not only by the
tests; and every name a module of the library, the tests or the demos
imports is read in that module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ccm"

# the gradient oracle the tests compare hand-written backwards against, and
# the online session's context count that an identity layout's is checked against
TEST_ORACLES = {"finite_difference_check", "context_entries"}


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


def names_read(tree: ast.Module) -> set[str]:
    """Names a module reads as a name (``Recipe``, ``T`` in ``T.add``) or in a
    string annotation (``-> "KVLayout"``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for hint in (getattr(node, "returns", None), getattr(node, "annotation", None)):
            if isinstance(hint, ast.Constant) and isinstance(hint.value, str):
                names |= names_read(ast.parse(hint.value, mode="eval"))
    return names


def unread_imports(path: Path) -> list[str]:
    """Names ``path`` imports and never reads, but for side-effect imports
    marked ``# noqa: F401``."""
    source = path.read_text()
    tree, lines = ast.parse(source), source.splitlines()
    read = names_read(tree)
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__" \
                and "noqa: F401" not in lines[node.lineno - 1]:
            bound = [(a.asname or a.name).split(".")[0] for a in node.names]
            unread += [name for name in bound if name not in read]
    return unread


def test_every_import_has_a_reader():
    # an __init__.py imports to re-export
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    modules += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    unread = {p.relative_to(ROOT).as_posix(): names for p in modules
              if (names := unread_imports(p))}
    assert unread == {}
