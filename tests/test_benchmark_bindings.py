"""Every ``rogetkb`` name the benchmark uses still exists.

``perfbench/tracer.py`` looks each of its bindings up with ``getattr`` when
it installs, and the benchmark's clients import and call library names
directly, so deleting or renaming one of them breaks every traced benchmark
run or a whole workload. The benchmark's own tests are slow; these checks
run with the quick suite.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer_bindings() -> tuple:
    sys.path.insert(0, str(PERFBENCH))
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer.SPANS + tracer.AGGREGATES


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def test_every_traced_binding_resolves():
    bindings = _tracer_bindings()
    assert bindings
    missing = [
        f"{path} {attr} ({span})"
        for path, attr, span in bindings
        if not callable(getattr(_owner(path), attr, None))
    ]
    assert missing == []


def _referenced_names() -> set[tuple[str, str]]:
    """``(module, name)`` for every ``from rogetkb... import name`` and every
    ``rogetkb.<module>.<name>`` expression in the benchmark's sources."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rogetkb":
                names.update((node.module, alias.name) for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                  and isinstance(node.value.value, ast.Name) and node.value.value.id == "rogetkb"):
                names.add((f"rogetkb.{node.value.attr}", node.attr))
    return names


def test_every_name_the_benchmark_references_resolves():
    names = _referenced_names()
    # the collector itself still sees both kinds of reference
    assert {("rogetkb.cli", "render_labelled"), ("rogetkb.cli", "main")} <= names
    missing = [
        f"{module}.{name}" for module, name in sorted(names)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
