"""The package depends on numpy alone: every import in src/dsgc is relative
to dsgc, numpy, or a module of the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "dsgc").glob("*.py"))
ALLOWED = {"dsgc", "numpy"} | set(sys.stdlib_module_names)


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
