"""The package depends on numpy alone: every import in src/dsgc is relative
to dsgc, numpy, or a module of the standard library. And every name a
module-level import binds is read in its module, but for the deliberate
re-exports in REEXPORTS."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "dsgc").glob("*.py"))
ALLOWED = {"dsgc", "numpy"} | set(sys.stdlib_module_names)
# perfbench wraps these by name; a training step calls neither
REEXPORTS = {"losses.encode_hyperbolic", "losses.predict"}


def foreign_imports(source):
    """The top-level modules that `source` imports from outside ALLOWED."""
    roots = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            roots.append(node.module.split(".")[0])
    return [root for root in roots if root not in ALLOWED]


def test_the_package_has_modules():
    assert "streams.py" in {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_numpy_and_the_standard_library(path):
    assert foreign_imports(path.read_text()) == []


def test_a_foreign_import_is_found():
    source = ("import os, scipy.sparse\nfrom . import data\nfrom numpy import random\n"
              "def f():\n    from sklearn.linear_model import LogisticRegression\n")
    assert foreign_imports(source) == ["scipy", "sklearn"]


def unused_imports(source):
    """The names that `source`'s module-level imports bind and the module
    never reads, in import order."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0] for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_module_level_imports_are_read_or_reexported():
    unused = {f"{p.stem}.{name}" for p in SOURCES for name in unused_imports(p.read_text())}
    assert unused == REEXPORTS


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\nimport os.path, json as js\n"
              "from . import autodiff as ad, data\nfrom numpy import random\n"
              "def f():\n    import re\n    return ad.link, os.sep, random, re\n")
    assert unused_imports(source) == ["js", "data"]
