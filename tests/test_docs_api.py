"""Every dotted ``repro.…`` name in the name column of ``docs/api.md``
must resolve by import + ``getattr`` — deleting a documented name
cannot leave its row behind."""

import importlib
import pathlib
import re

import pytest

API_MD = pathlib.Path(__file__).resolve().parents[1] / "docs" / "api.md"


def documented_names():
    for line in API_MD.read_text(encoding="utf-8").splitlines():
        row = re.match(r"^\| (.+?) \|", line)
        for span in re.findall(r"`([^`]+)`", row.group(1)) if row else ():
            if not span.startswith("repro."):
                continue
            # "repro.pkg.a / b / c" lists siblings of the first name.
            for part in span.split(" / "):
                name = re.sub(r"\(.*", "", part).strip()
                if name.startswith("repro."):
                    package = name.rpartition(".")[0]
                else:
                    name = f"{package}.{name}"
                yield name


def resolve(dotted: str):
    """A documented name is a module, or an attribute of one."""
    try:
        return importlib.import_module(dotted)
    except ImportError:
        module, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(module), attr)


@pytest.mark.parametrize("dotted", sorted(set(documented_names())))
def test_documented_name_resolves(dotted):
    assert resolve(dotted) is not None
