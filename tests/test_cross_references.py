"""Every name the documentation points at exists.

Two sources are checked: the Sphinx-style cross-references (``:func:``,
``:class:`` and ``:mod:``, with or without ``~``) in the package's source,
and the backticked names in README.md's "Library layout" table.  A bare
name resolves in the module that mentions it (the row's module, for the
table), a dotted path from that module or from the package, and a module
name as itself.  A refactor that deletes or renames a helper then fails
here instead of leaving a docstring pointing at nothing.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import cographmean

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "cographmean").glob("*.py"))
ROLE = re.compile(r":(?:func|class|mod):`~?([\w.]+)`")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.\w+)*")


def _lookup(obj, parts: list[str]) -> bool:
    """Follow ``parts`` by attribute from ``obj``, importing submodules of a
    package on the way."""
    for part in parts:
        try:
            obj = getattr(obj, part)
        except AttributeError:
            if not hasattr(obj, "__path__"):
                return False
            try:
                obj = importlib.import_module(f"{obj.__name__}.{part}")
            except ModuleNotFoundError:
                return False
    return True


def _resolves(module: str, target: str) -> bool:
    """Whether ``target``, mentioned in the module named ``module``, names
    something that exists."""
    parts = target.split(".")
    if parts[0] == "cographmean":
        return _lookup(cographmean, parts[1:])
    if _lookup(importlib.import_module(module), parts):
        return True
    # a module name, or a dotted path that starts with one
    is_module = importlib.util.find_spec(f"cographmean.{parts[0]}") is not None
    return is_module and _lookup(cographmean, parts)


def _source_references() -> list[tuple[str, str]]:
    return [
        (f"cographmean.{path.stem}".removesuffix(".__init__"), target)
        for path in SOURCES
        for target in ROLE.findall(path.read_text())
    ]


def _layout_references() -> list[tuple[str, str]]:
    """``(module, name)`` for each backticked identifier in a row of the
    "Library layout" table; call forms and globs are skipped."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library layout\n", 1)[1]
    rows = re.findall(r"^\| `cographmean\.(\w+)` \| (.*) \|$", section, re.M)
    assert rows
    return [
        (f"cographmean.{module}", name)
        for module, contents in rows
        for name in re.findall(r"`([^`]+)`", contents)
        if IDENTIFIER.fullmatch(name)
    ]


@pytest.mark.parametrize("module, target", _source_references())
def test_source_cross_reference_resolves(module, target):
    assert _resolves(module, target)


@pytest.mark.parametrize("module, name", _layout_references())
def test_library_layout_name_resolves(module, name):
    assert _resolves(module, name)


@pytest.mark.parametrize(
    "module, target",
    [
        ("enumeration", "_code_to_adj"),
        ("poly", "_phi_tree"),
        ("graph", "nope"),
        ("verify", "knapsack_search"),
        ("verify", "graph_search"),
    ],
)
def test_names_that_refactors_removed_do_not_resolve(module, target):
    assert not _resolves(f"cographmean.{module}", target)
    assert not _resolves("cographmean.cli", f"{module}.{target}")
    assert not _resolves("cographmean.cli", f"cographmean.{module}.{target}")
