"""The benchmark's tracer must find every callable it wraps.

``benchmarks/tracing.py`` replaces each entry of its TARGETS table on the
package at run time; an entry that no longer resolves breaks every traced
benchmark run. This test only reads that table.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _targets() -> tuple:
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name, module, cls_name, attr", _targets())
def test_target_resolves_on_the_package(name, module, cls_name, attr):
    owner = importlib.import_module(f"prepost.{module}")
    if cls_name is not None:
        # The tracer replaces the attribute in the class's own namespace.
        owner = getattr(owner, cls_name)
        assert attr in vars(owner), name
    assert callable(getattr(owner, attr)), name


def test_every_package_name_the_benchmarks_read_resolves():
    # The probes run only in traced runs, so a renamed export would break
    # them without any other test failing. This test only reads the files.
    importlib.import_module("prepost.cli")
    pp = importlib.import_module("prepost")
    read = {node.attr
            for path in sorted(TRACING.parent.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "pp"}
    assert read
    assert sorted(name for name in read if not hasattr(pp, name)) == []
