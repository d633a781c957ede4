"""The metric catalogue matches the code: every metric name the source
can emit has a ``METRIC_HELP`` entry and a row in the metrics table of
``docs/observability.md``, and neither lists a name nothing emits."""

import ast
import itertools
import re
from pathlib import Path

import pytest

from repro.obs.metrics import METRIC_HELP

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
DOC = ROOT / "docs" / "observability.md"

NAME = re.compile(r"repro_[a-z0-9_]+")

#: The one f-string metric name in the source, and what it expands to:
#: the engine's degradation counters.
FAMILIES = {
    "repro_{what}_total": ("retries", "failovers", "repairs"),
}


def _emitted_names() -> set[str]:
    """Every whole ``"repro_..."`` string literal under ``src/repro``,
    plus the expansions of :data:`FAMILIES`.  An f-string name that is
    not in :data:`FAMILIES` fails the scan, so a new family must be
    spelled out here before it can escape the catalogue."""
    names: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if NAME.fullmatch(node.value):
                    names.add(node.value)
            elif isinstance(node, ast.JoinedStr):
                head = node.values[0] if node.values else None
                if not (isinstance(head, ast.Constant)
                        and str(head.value).startswith("repro_")):
                    continue
                template = ast.unparse(node)[2:-1]
                assert template in FAMILIES, (
                    f"{path}: metric name family f{template!r} is not "
                    "expanded in FAMILIES")
                names.update(template.replace("{what}", what)
                             for what in FAMILIES[template])
    return names


def _expand(token: str) -> list[str]:
    """``repro_cache_{hits,misses}_total`` -> both names; a brace group
    without a comma is a label set and drops out."""
    parts = re.split(r"(\{[^}]*\})", token)
    choices = [p[1:-1].split(",") if p.startswith("{") and "," in p
               else [""] if p.startswith("{") else [p]
               for p in parts]
    return ["".join(combo) for combo in itertools.product(*choices)]


def _documented_names() -> set[str]:
    """Metric names in the table rows of ``docs/observability.md``."""
    names: set[str] = set()
    for line in DOC.read_text().splitlines():
        if not line.startswith("| `repro_"):
            continue
        first_cell = line.split(" | ")[0]
        for token in re.findall(r"`([^`]+)`", first_cell):
            names.update(n for n in _expand(token) if NAME.fullmatch(n))
    return names


@pytest.fixture(scope="module")
def emitted() -> set[str]:
    return _emitted_names()


def test_every_emitted_name_has_help(emitted):
    assert sorted(emitted - set(METRIC_HELP)) == []


def test_every_help_entry_is_emitted(emitted):
    assert sorted(set(METRIC_HELP) - emitted) == []


def test_every_emitted_name_is_in_the_docs_table(emitted):
    assert sorted(emitted - _documented_names()) == []


def test_docs_table_lists_only_emitted_names(emitted):
    assert sorted(_documented_names() - emitted) == []
