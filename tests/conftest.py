from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from corpusgen import fixture_text
from oracles import errors
from rogetkb import build_index, load_resource
from rogetkb.parser import parse_source


def _parse_fixture(name: str):
    result = parse_source(fixture_text(name))
    assert result.kb is not None, [str(d) for d in errors(result)]
    return result.kb


@pytest.fixture(scope="session")
def kb42():
    """One class, one section, head 42 with its noun paragraph."""
    return _parse_fixture("head42.roget")


@pytest.fixture(scope="session")
def idx42(kb42):
    return build_index(kb42)


@pytest.fixture(scope="session")
def res_dec():
    """Synset graph around the two noun senses of "decrement"."""
    return load_resource(fixture_text("decrement.lex"))


@pytest.fixture(scope="session")
def kb2():
    """Two classes, five heads; contains the maximum-distance group pair."""
    return _parse_fixture("two_class.roget")


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
