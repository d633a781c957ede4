"""No module the CI lint job checks imports a name it never uses, or
writes an f-string without a placeholder.

These are the pyflakes F401 and F541 rules the CI lint job runs
(``ruff check src tests benchmarks examples``), checked here with the
standard library's ``ast`` so a Tier-1 run catches them too.  An import
counts as used when its bound name appears as a name anywhere in its
scope — the module for a module-level import, the function for one
inside a function — inside a string annotation there, or in the
module's ``__all__``.  Package ``__init__.py`` files are skipped: they
import in order to re-export.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
TREES = (ROOT / "src" / "repro", ROOT / "tests", ROOT / "benchmarks",
         ROOT / "examples")
MODULES = sorted(p for tree in TREES for p in tree.rglob("*.py")
                 if p.name != "__init__.py")


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def scope_imports(scope: ast.AST):
    """``(bound name, line)`` of every import a module or function binds
    in its own scope: under ``if``, ``try``, ``with`` or a loop, but not
    inside a nested function or class."""
    todo = list(scope.body)
    while todo:
        node = todo.pop(0)
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name.split(".")[0], node.lineno
        elif not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
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
    hits = [(line, name) for name, line in scope_imports(tree)
            if name not in used]
    for function in ast.walk(tree):
        if isinstance(function, _FUNCTIONS):
            used = used_names(function)
            hits += [(line, name) for name, line in scope_imports(function)
                     if name not in used]
    return [f"line {line}: {name}" for line, name in sorted(hits)]


def placeholder_free_fstrings(source: str) -> list[str]:
    """Lines of f-strings with no ``{...}`` field.  A format spec
    (``.2f`` in ``f"{x:.2f}"``) is itself an f-string node without
    fields, so specs are skipped."""
    tree = ast.parse(source)
    specs = {id(node.format_spec) for node in ast.walk(tree)
             if isinstance(node, ast.FormattedValue)}
    return [f"line {node.lineno}: f-string without placeholders"
            for node in ast.walk(tree)
            if isinstance(node, ast.JoinedStr) and id(node) not in specs
            and not any(isinstance(v, ast.FormattedValue)
                        for v in node.values)]


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

    def test_a_function_import_is_used_only_within_its_function(self):
        source = ("def f():\n"
                  "    import json\n"
                  "    from os import path, sep\n"
                  "    def g():\n"
                  "        return path\n"
                  "    return g\n"
                  "def h():\n"
                  "    return json, sep\n")
        assert unused_imports(source) == ["line 2: json", "line 3: sep"]


    def test_flags_an_fstring_without_placeholders(self):
        source = ('a = f"plain"\n'
                  'b = f"{a:>8s} {len(a):.2f}"\n'
                  'c = f"x" f"{a}"\n')
        assert placeholder_free_fstrings(source) == [
            "line 1: f-string without placeholders"]


def offenders(check) -> list[str]:
    return [f"{path.relative_to(ROOT)} {hit}" for path in MODULES
            for hit in check(path.read_text(encoding="utf-8"))]


def test_no_unused_module_imports():
    assert offenders(unused_imports) == []


def test_no_placeholder_free_fstrings():
    assert offenders(placeholder_free_fstrings) == []
