from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from rogetkb import build_index, fixtures
from rogetkb.parser import parse_source


@pytest.fixture(scope="session")
def kb42():
    return fixtures.head42_kb()


@pytest.fixture(scope="session")
def idx42(kb42):
    return build_index(kb42)


@pytest.fixture(scope="session")
def res_dec():
    return fixtures.decrement_resource()


@pytest.fixture(scope="session")
def kb2():
    return fixtures.two_class_kb()


@pytest.fixture(scope="session")
def idx2(kb2):
    return build_index(kb2)


@pytest.fixture(scope="session")
def perfbench_corpus():
    """The benchmark's corpus generator module, ``perfbench/corpus.py``."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        return importlib.import_module("corpus")
    finally:
        sys.path.remove(perfbench)


def parse_ok(text: str):
    """Parse that must succeed; returns the KB."""
    result = parse_source(text)
    assert result.kb is not None, [str(d) for d in result.errors]
    return result.kb
