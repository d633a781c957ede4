"""Every name in the name column of ``docs/api.md`` must exist: a dotted
``repro.…`` name resolves by import + ``getattr``, and a bare one is in
the ``__all__`` of ``repro`` or one of its subpackages — deleting a
documented name cannot leave its row behind."""

import functools
import importlib
import pathlib
import pkgutil
import re

import repro

import pytest

API_MD = pathlib.Path(__file__).resolve().parents[1] / "docs" / "api.md"


def name_column_spans():
    for line in API_MD.read_text(encoding="utf-8").splitlines():
        row = re.match(r"^\| (.+?) \|", line)
        yield from re.findall(r"`([^`]+)`", row.group(1)) if row else ()


def documented_names():
    for span in name_column_spans():
        if span.startswith("repro."):
            # "repro.pkg.a / b / c" lists siblings of the first name.
            for part in span.split(" / "):
                name = re.sub(r"\(.*", "", part).strip()
                if name.startswith("repro."):
                    package = name.rpartition(".")[0]
                else:
                    name = f"{package}.{name}"
                yield name


def bare_names():
    """The leading identifier of every unprefixed span
    (``Observability.create(...)`` documents ``Observability``)."""
    for span in name_column_spans():
        if not span.startswith("repro."):
            yield re.match(r"[A-Za-z_]\w*", span).group(0)


@functools.cache
def exported_names() -> set[str]:
    packages = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    return {name for pkg in packages for name in getattr(pkg, "__all__", ())}


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


@pytest.mark.parametrize("name", sorted(set(bare_names())))
def test_bare_documented_name_is_exported(name):
    assert name in exported_names()
