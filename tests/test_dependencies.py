"""The package imports exactly the third-party modules it declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

import signpipe

from conftest import package_sources, scoped_nodes

tomllib = pytest.importorskip("tomllib")

ROOT = Path(signpipe.__file__).parent


def third_party_imports(source: str) -> set[str]:
    """The top-level name of each absolute import in source that is neither
    the standard library nor signpipe itself."""
    names = set()
    for node, _ in scoped_nodes(source):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "signpipe"}


def test_the_guard_finds_each_form_of_import():
    source = """
import os, numpy as np
import urllib.request
from orjson import dumps
from . import wire
from .jsonio import parse_json
from yaml.loader import Loader
def f():
    import scipy.linalg
"""
    assert third_party_imports(source) == {"numpy", "orjson", "yaml", "scipy"}


def test_every_dependency_is_imported_and_every_import_declared():
    project = tomllib.loads((ROOT.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
                for spec in project["project"]["dependencies"]}
    imported = set().union(*map(third_party_imports, package_sources().values()))
    assert declared == imported == {"numpy", "orjson"}
