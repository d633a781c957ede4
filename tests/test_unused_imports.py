"""No module under ``src/repro`` imports a name it never uses.

This is the pyflakes F401 rule the CI lint job runs (``ruff check``),
checked here with the standard library's ``ast`` so a Tier-1 run
catches it too.  A module-level import counts as used when its bound
name appears as a name anywhere in the module, inside a string
annotation, or in ``__all__``.  Package ``__init__.py`` files are
skipped: they import in order to re-export.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def module_imports(tree: ast.Module):
    """``(bound name, line)`` of every import at module level, including
    those under a top-level ``if`` or ``try``."""
    todo = list(tree.body)
    while todo:
        node = todo.pop(0)
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, (ast.If, ast.Try, ast.ExceptHandler)):
            todo.extend(ast.iter_child_nodes(node))


def annotation_strings(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, ast.AnnAssign):
            annotation = node.annotation
        else:
            continue
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                yield part.value


def used_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for text in annotation_strings(tree):
        used |= used_names(ast.parse(text, mode="eval"))
    return used


def exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__``."""
    return {c.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for c in ast.walk(node.value) if isinstance(c, ast.Constant)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree) | exported(tree)
    return [f"line {line}: {name}" for name, line in module_imports(tree)
            if name not in used]


class TestChecker:
    def test_flags_an_unused_import(self):
        assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [
            "line 1: os"]

    def test_annotation_string_and_all_count_as_uses(self):
        source = ("from __future__ import annotations\n"
                  "from typing import Mapping\n"
                  "from x import Exported\n"
                  "__all__ = ['Exported']\n"
                  "def f(a: 'Mapping[str, int]') -> None: ...\n")
        assert unused_imports(source) == []

    def test_a_docstring_mention_is_not_a_use(self):
        assert unused_imports('import numpy as np\n"""np.ndarray"""\n') == [
            "line 1: np"]


def test_no_unused_module_imports():
    offenders = [f"{path.relative_to(SRC)} {hit}" for path in MODULES
                 for hit in unused_imports(path.read_text(encoding="utf-8"))]
    assert offenders == []
