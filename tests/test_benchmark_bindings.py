"""Every name the benchmark's tracer wraps still exists.

``perfbench/tracer.py`` looks each of its bindings up with ``getattr`` when
it installs, so deleting or renaming one of these functions breaks every
traced benchmark run. The benchmark's own tests are slow; this check runs
with the quick suite.
"""

from __future__ import annotations

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
